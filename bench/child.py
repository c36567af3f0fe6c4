"""One benchmark pass in a fresh process: set up, run every op once, check.

Started by `bench/run.py` from the checkout root, with the program's sources
first on the path:

    PYTHONPATH=src python3 -m bench.child --workload zeros --seed 1 \\
        --result bench/_out/pass.json [--trace] [--check] [--setup-only] [--size tiny]

Set-up (importing finfree, building the ops from the seed, one tiny warm-up
call per layer) is timed from the start of this module.  The timed phase
runs every op in order, with the reference kernel between ops to measure
the box's current speed (see REFERENCE_S); with `--trace` the
layer wrappers are installed first and the spans are written next to the
result.  With `--check`, every output is then checked; the result JSON
carries the failures, the accuracy figures and a fingerprint of each output,
so the parent can require every other pass to reproduce them exactly.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from .trace import LAYERS, Tracer  # noqa: E402


def warm_up():
    """One tiny call per layer; touches no cache keyed on a workload input."""
    from fractions import Fraction as F

    from finfree import cli, conv, curves, families, hyper, mop, partitions, quadrature, roots, series, verify
    from finfree.poly import Polynomial

    p = Polynomial.from_roots([1, 2])
    p.power_sums(2)
    conv.add_conv(p, conv.mult_conv(p, p, 2), 2)
    hyper.hyper_poly(hyper.HypergeometricSpec(n=2, b=(F(1, 2),)))
    partitions.mobius(partitions.singletons(2), partitions.one_block(2))
    series.series_mul([1, 1], [1, 1], 2)
    curves.curve_from_limits((), (F(0),))
    families.s_limit_hyper(B=(F(0),)).series(2)
    mop.jp_typeI(mop.JPSpec(alpha=(F(1, 2),), beta=F(1)), (2,), 1)
    quadrature.gauss_laguerre(2, 0, 1, 53)
    roots.find_roots(p, 53)
    verify.run_suite("endpoints")
    cli.build_parser()


def setup(workload, seed, size):
    for layer in LAYERS:
        importlib.import_module(f"finfree.{layer}")
    from .common import build

    module = importlib.import_module(f"bench.workloads.{workload}")
    ops = build(module.slots(size), workload, seed)
    warm_up()
    return ops


# Median time of reference_kernel() on the 2-core Xeon box the benchmark was
# defined on.  Times scaled by REFERENCE_S / (kernel time measured around an
# op) are "reference seconds": what the op would have taken there at that
# box's usual speed.  The box's speed drifts by up to 2x over 10-30 s as
# other tenants come and go; the scaling removes most of that drift.
REFERENCE_S = 0.018


def reference_kernel():
    """Fixed work in the two kinds of arithmetic finfree spends its time in.

    Fraction products and sums of small rationals, then 288-bit mpmath
    complex Horner steps.  It calls no finfree code, so no change to the
    program moves it.  Returns its duration in seconds.
    """
    from fractions import Fraction

    import mpmath as mp

    t = time.perf_counter()
    a = [Fraction(k + 1, 2 * k + 3) for k in range(60)]
    b = [Fraction(3 * k + 1, k + 7) for k in range(60)]
    s = Fraction(0)
    for i in range(60):
        for j in range(0, 60 - i, 3):
            s += a[i] * b[j]
    with mp.workprec(288):
        cs = [mp.mpc(k + 1, -k) / (k + 3) for k in range(40)]
        z = mp.mpc("0.3", "0.2")
        for _ in range(25):
            acc = cs[-1]
            for c in reversed(cs[:-1]):
                acc = acc * z + c
            z = z - acc / (1000 + abs(acc))
    return time.perf_counter() - t


def run_pass(ops, tracer=None):
    """Run every op in order; an op that raises is recorded and the pass goes on.

    Returns (outputs, errors, seconds, reference seconds) with the last three
    keyed by op name.  The reference kernel runs between ops, outside them.
    """
    env, errors, times, scaled = {}, {}, {}, {}
    before = reference_kernel()
    for op in ops:
        t = time.perf_counter()
        try:
            if tracer is None:
                out = op.run(env)
            else:
                out = tracer.call(f"bench.{op.name}", op.run, env)
        except Exception as exc:  # counted as a failed op, not a failed run
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        else:
            env[op.name] = out
        times[op.name] = time.perf_counter() - t
        after = reference_kernel()
        scaled[op.name] = times[op.name] * REFERENCE_S / ((before + after) / 2)
        before = after
    return env, errors, times, scaled


def check_pass(ops, env, errors, digests):
    """Failure messages per op, and the accuracy figures the checks gathered."""
    from .common import Accuracy, canon, sha

    acc = Accuracy()
    failures = {}
    for op in ops:
        if op.name in errors:
            failures[op.name] = [errors[op.name]]
            continue
        out = env[op.name]
        fails = []
        if "exact" in out:
            want = digests.get(op.key)
            if want is None:
                fails.append(f"no recorded digest for {op.key}")
            elif sha(canon(out["exact"])) != want:
                fails.append("exact output differs from its recorded digest")
        try:
            fails += op.check(out, env, acc)
        except Exception as exc:  # a check that raises fails its op
            fails.append(f"check raised {type(exc).__name__}: {exc}")
        if fails:
            failures[op.name] = fails
    return failures, acc


def fingerprints(ops, env, errors):
    from .common import canon, sha

    return {op.name: "error" if op.name in errors else sha(canon(env[op.name])) for op in ops}


def versions():
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="one benchmark pass")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = setup(args.workload, args.seed, args.size)
    import finfree

    setup_s = time.perf_counter() - T0
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * REFERENCE_S / reference_kernel(),
        "finfree_file": finfree.__file__,
        **versions(),
    }
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            env, errors, times, scaled = run_pass(ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.update(
            wall_s=sum(times.values()),
            wall_ref_s=sum(scaled.values()),
            op_times=times,
            op_ref_times=scaled,
            ops=[[op.name, list(op.size)] for op in ops],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            fingerprints=fingerprints(ops, env, errors),
            errors=errors,
        )
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["orderings"] = tracer.orderings()
            result["span_self_sum_s"] = sum(tracer.self_times())
            tracer.write_spans(os.path.splitext(args.result)[0] + ".spans.json")
        if args.check:
            from .common import load_digests

            failures, acc = check_pass(ops, env, errors, load_digests())
            result["failures"] = failures
            result["accuracy"] = acc.as_dict()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
