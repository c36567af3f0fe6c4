"""Benchmark of finfree: four closed-loop workloads, end to end and per layer.

From the root of a checkout:

    python3 bench/run.py --workload zeros --seed 1 --seconds 20 --trace 0

Workloads (`BENCHMARK.json` says why each was chosen):

    zeros   exact MOPs of degree 28-40, their roots, KS / edge / moments
            against the limit law, and two CLI pipelines
    exact   lossless constructions and convolutions at n = 100-240
    limits  limit moments, series algebra, densities, discriminants
    verify  identity/cumulant suites, the quadrature orthogonality oracle,
            and interlacing trials: hundreds of tiny calls

The ops of a workload are drawn from `--seed` (same seed, same inputs; sizes
never depend on the seed).  Each pass over them runs in a fresh
single-threaded child process (`bench/child.py`); passes repeat until
`--seconds` is used up, with at least two.  The first pass checks every
output: exact outputs against the digests in `bench/digests.json` and
against independent routes, roots against inclusion-disc certificates.
Every other pass must reproduce the first one's outputs exactly.

Times are reported in reference seconds: each op's measured time is scaled
by a fixed kernel's nominal time over its time measured just before and
after the op (`bench/child.py`, REFERENCE_S).  This box's speed drifts by
up to 2x over tens of seconds with other tenants' load; scaling cuts the
run-to-run spread of the timings about threefold.  The measured seconds are
printed next to every timing in the report.

`--trace 0` reports the end-to-end metrics of the untraced passes.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (`bench/trace.py`); the spans of the last traced
pass are written to `bench/_out/`.  The report lines come first; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

`attempted` counts op executions over all passes; `failed` those that raised,
failed a check, or differed from the checked pass (failed_frac is their
ratio, printed in the report).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("zeros", "exact", "limits", "verify")
SETUP_SAMPLES = 5  # set-up times per run; extra set-up-only passes fill up to this
DEADLINE_S = 170  # a run must end within 180 s
ACCURACY_UNITS = {
    "roots.bits_min": "bits",
    "roots.ks_max": "ratio",
    "mop.orth_residual_max": "ratio",
    "curves.density_err_max": "abs",
}


def _stop(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running pass
    raise SystemExit(128 + signum)


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root):
    env = dict(os.environ)
    env.pop("FINFREE_PREC_BITS", None)  # a stray precision override would change the workload
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(root / "src"),
    )
    return env


class Runner:
    """Starts child passes one at a time and collects their results."""

    def __init__(self, root, args, workdir):
        self.root, self.args, self.workdir = root, args, workdir
        self.env = child_env(root)
        self.start = time.monotonic()
        self.count = 0

    def elapsed(self):
        return time.monotonic() - self.start

    def run(self, *, trace=False, check=False, setup_only=False):
        self.count += 1
        result = os.path.join(self.workdir, f"pass{self.count}.json")
        cmd = [sys.executable, "-m", "bench.child", "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size, "--result", result]
        cmd += ["--trace"] * trace + ["--check"] * check + ["--setup-only"] * setup_only
        budget = DEADLINE_S - self.elapsed()
        if budget <= 0:
            fail(f"no time left for pass {self.count}")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            fail(f"pass {self.count} did not finish within the {DEADLINE_S} s deadline")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            fail(f"pass {self.count} exited with code {proc.returncode}")
        with open(result) as fh:
            out = json.load(fh)
        if not Path(out["finfree_file"]).resolve().is_relative_to(self.root / "src"):
            fail(f"child imported finfree from {out['finfree_file']}, not from this checkout")
        out["spans_file"] = os.path.splitext(result)[0] + ".spans.json"
        return out


def provenance(root, first):
    def git_revision():
        if not (root / ".git").exists():
            return "unknown (not a git checkout)"
        try:
            proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return proc.stdout.strip() or "unknown"

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        import platform

        return platform.processor() or "unknown"

    src = root / "src" / "finfree"
    loc = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "revision": git_revision(),
        "python": first["python"],
        "numpy": first["numpy"],
        "mpmath": first["mpmath"],
        "mpmath_backend": first["mpmath_backend"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "src_loc": loc,
    }


def collect(runner, trace):
    """Run passes until the time is used up; returns (plain, traced, setups)."""
    seconds = runner.args.seconds
    plain = [runner.run(check=True)]
    traced = []
    last = runner.elapsed()
    while True:
        want_traced = trace and len(traced) < len(plain)
        enough = bool(traced) if trace else len(plain) >= 2
        if enough and runner.elapsed() + last > seconds:
            break
        before = runner.elapsed()
        (traced if want_traced else plain).append(runner.run(trace=want_traced))
        last = runner.elapsed() - before
    setups = plain + traced
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.run(setup_only=True))
    return plain, traced, setups


def count_failures(plain, traced):
    """(attempted, failed, messages): every execution is judged by the checked pass."""
    checked = plain[0]
    bad = checked["failures"]
    attempted = failed = 0
    messages = [f"{name}: {'; '.join(msgs)}" for name, msgs in bad.items()]
    for idx, res in enumerate(plain + traced):
        for name, fp in res["fingerprints"].items():
            attempted += 1
            if name in bad or fp == "error":
                failed += 1
            elif fp != checked["fingerprints"][name]:
                failed += 1
                messages.append(f"{name}: pass {idx + 1} output differs from the checked pass")
    return attempted, failed, messages


def timings(plain, setups, suffix):
    """Per-op medians and the timed end-to-end metrics, in the pass results'
    measured seconds (suffix "") or reference seconds (suffix "ref_")."""
    names = [name for name, _ in plain[0]["ops"]]
    per_op = {name: statistics.median(p[f"op_{suffix}times"][name] for p in plain) for name in names}
    return per_op, {
        "wall_s": statistics.median(p[f"wall_{suffix}s"] for p in plain),
        "op_p50_s": statistics.median(per_op.values()),
        "op_max_s": max(per_op.values()),
        "setup_s": statistics.median(p[f"setup_{suffix}s"] for p in setups),
    }


def per_layer(plain, traced):
    keys = traced[0]["layers"].keys()
    out = {k: statistics.median(t["layers"][k] for t in traced) for k in keys}
    out["trace.overhead_ratio"] = statistics.median(t["wall_ref_s"] for t in traced) / statistics.median(
        p["wall_ref_s"] for p in plain
    )
    for key, value in plain[0]["accuracy"].items():
        out[key] = 0 if value is None else value  # 0: the workload has no such output
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="finfree benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"), help="tiny: a seconds-long smoke run")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)

    root = Path.cwd().resolve()
    if not (root / "src" / "finfree" / "__init__.py").is_file():
        fail(f"{root} holds no finfree sources (src/finfree); run from the root of a checkout")
    try:
        with open(root / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    out_dir = root / "bench" / "_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        runner = Runner(root, args, workdir)
        plain, traced, setups = collect(runner, args.trace == 1)
        info = provenance(root, plain[0])
        per_op, e2e = timings(plain, setups, "ref_")
        e2e["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
        per_op_measured, measured = timings(plain, setups, "")
        attempted, failed, messages = count_failures(plain, traced)
        layers = per_layer(plain, traced) if traced else {}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if traced:
            os.replace(traced[-1]["spans_file"], out_dir / f"spans-{stem}.json")

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    source = layers if traced else e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    sizes = dict(plain[0]["ops"])
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"size={args.size} passes={len(plain)} untraced + {len(traced)} traced, {len(setups)} set-ups")
    print("provenance " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}" for k, v in info.items()))
    for name, t in per_op.items():
        print(f"op {name:32s} size={sizes[name]} median_ref_s={t:.4f} measured_s={per_op_measured[name]:.4f} "
              f"n={len(plain)}")
    for name in ("wall_s", "op_p50_s", "op_max_s", "setup_s"):
        print(f"metric {name} {e2e[name]:.6g} s (reference seconds; measured {measured[name]:.6g} s)")
    print(f"metric peak_rss_mb {e2e['peak_rss_mb']:.6g} MB")
    print(f"metric failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} op executions)")
    for name, value in plain[0]["accuracy"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} {shown} {ACCURACY_UNITS[name]}")
    for name, value in layers.items():
        print(f"layer {name} {value:.6g}")
    for name, value in (traced[-1]["orderings"] if traced else {}).items():
        print(f"ordering {name}: {value:.3g}")
    for msg in messages:
        print(f"FAILED {msg}")

    record = {"args": vars(args), "provenance": info, "per_op_ref_s": per_op, "per_op_measured_s": per_op_measured,
              "end_to_end": e2e, "measured": measured, "setup_samples": [p["setup_s"] for p in setups],
              "attempted": attempted, "failed": failed, "failures": messages, "accuracy": plain[0]["accuracy"],
              "per_layer": layers, "orderings": traced[-1]["orderings"] if traced else {}}
    with open(out_dir / f"run-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
