"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q

Run from the repository root; the full-size workloads are not exercised here.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import run as bench_run  # noqa: E402
from bench.child import check_pass, fingerprints, run_pass  # noqa: E402
from bench.common import build, load_digests  # noqa: E402
from bench.trace import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _ops(workload, seed, size="tiny"):
    import importlib

    module = importlib.import_module(f"bench.workloads.{workload}")
    return build(module.slots(size), workload, seed)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and isinstance(value["value"], (int, float))
    report = "\n".join(lines[:-1])
    for name in ("failed_frac", "roots.bits_min", "roots.ks_max", "mop.orth_residual_max", "curves.density_err_max"):
        assert f"metric {name} " in report
    assert "mpmath_backend=" in report and "src_loc=" in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_and_never_sizes(workload):
    a, b, c = (_ops(workload, seed, "full") for seed in (7, 7, 8))
    assert [op.key for op in a] == [op.key for op in b]
    assert [op.key for op in a] != [op.key for op in c]
    assert [(op.name, op.size) for op in a] == [(op.name, op.size) for op in c]


def test_corrupted_exact_coefficient_is_a_failed_op():
    from finfree.poly import Polynomial

    ops = _ops("exact", 5)
    env, errors, _, _ = run_pass(ops)
    poly = env["jp_typeII_int"]["exact"]
    env["jp_typeII_int"] = {"exact": Polynomial(poly.n, poly.e[:2] + (poly.e[2] + Fraction(1, 10**9),) + poly.e[3:])}
    failures, _ = check_pass(ops, env, errors, load_digests())
    assert list(failures) == ["jp_typeII_int"]
    assert len(failures["jp_typeII_int"]) == 2  # digest and exact orthogonality
    checked = {"failures": failures, "fingerprints": fingerprints(ops, env, errors)}
    attempted, failed, _ = bench_run.count_failures([checked], [])
    assert (attempted, failed) == (len(ops), 1)


def test_perturbed_root_fails_its_certificate():
    import mpmath as mp

    ops = _ops("zeros", 5)
    env, errors, _, _ = run_pass(ops)
    name = ops[0].name
    roots = list(env[name]["roots"])
    with mp.workprec(400):
        roots[0] += mp.mpf(10) ** -40
    env[name] = dict(env[name], roots=roots)
    failures, _ = check_pass(ops, env, errors, load_digests())
    assert list(failures) == [name]


def test_traced_self_times_sum_to_traced_wall():
    import finfree.conv
    import finfree.mop

    original = finfree.mop.mult_conv
    ops = _ops("exact", 5)
    tracer = Tracer()
    tracer.install()
    try:
        assert finfree.mop.mult_conv is finfree.conv.mult_conv is not original
        _, errors, times, _ = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert finfree.mop.mult_conv is original and finfree.conv.mult_conv is original
    assert not errors
    own = tracer.self_times()
    roots = [rec[2] - rec[1] for rec in tracer.spans if rec[3] < 0]
    assert len(roots) == len(ops)
    assert sum(own) == pytest.approx(sum(roots), rel=1e-9)
    # each op span sits inside the op's timed interval, which adds only the loop around the call
    wall = sum(times.values())
    assert sum(roots) <= wall and sum(roots) > 0.95 * wall
    layers = tracer.layer_metrics()
    bench_self = sum(t for rec, t in zip(tracer.spans, own) if rec[0].startswith("bench."))
    assert sum(layers[f"{layer}.self_s"] for layer in LAYERS) + bench_self == pytest.approx(sum(own), rel=1e-9)
    assert layers["conv.add.calls"] >= 1 and layers["conv.n_max"] > 0
