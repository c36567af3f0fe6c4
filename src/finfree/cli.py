"""Command-line front end: construction, convolution, roots, limits, densities.

Every numeric output file gets a JSON sidecar (<file>.meta.json) recording
the exact command, the precision in bits, and the source revision, so any
CSV can be reproduced byte-identically by rerunning the recorded command.
The sidecar of a roots CSV (`roots`, `mop --emit`) adds "certificate":
{"real": true, "isolated": n} when the roots written carry an exact
real-root certificate, else null.  Usage errors exit 2; numeric failures exit 1 with a diagnostic.
"""

import argparse
import functools
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

from .errors import FinfreeError
from .hyper import HypergeometricSpec, hyper_poly
from .poly import Polynomial


# argparse `type=` callables: a malformed number is a usage error (exit 2)


def _frac(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _frac_list(text):
    return tuple(_frac(t) for t in text.split(",")) if text else ()


def _count(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _int_list(text):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


@functools.lru_cache(maxsize=None)
def _git_describe():
    """The source revision; it cannot change within one process, so git runs once."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _sidecar(args, path, precision_bits, **extra):
    meta = {
        "command": args.command,
        "precision_bits": precision_bits,
        "revision": _git_describe(),
        **extra,
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_poly(args, path, poly):
    with open(path, "w") as fh:
        fh.write(poly.to_json())
        fh.write("\n")
    _sidecar(args, path, None)


def _read_poly(path):
    try:
        with open(path) as fh:
            return Polynomial.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise FinfreeError(f"cannot read polynomial file {path}: {exc}") from exc


def _write_csv(args, path, header, rows, precision_bits, **extra):
    """The header, then each row comma-joined by repr, then the sidecar.

    Rows hold ints and Python floats: numpy 2 reprs its own scalars otherwise.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")
    _sidecar(args, path, precision_bits, **extra)


def _write_roots_csv(args, path, roots, precision_bits):
    """The roots, as find_roots returns them, as `index,re,im` rows; the sidecar
    carries the real-root certificate of their solve, or null when it proved none."""
    rows = sorted((float(z.real), float(z.imag)) for z in roots)
    cert = None if roots.separators is None else {"real": True, "isolated": len(roots.separators) - 1}
    _write_csv(args, path, "index,re,im", ((idx, *z) for idx, z in enumerate(rows)),
               precision_bits, certificate=cert)


def _cmd_hyper(args):
    spec = HypergeometricSpec(
        n=args.n,
        a=args.a,
        b=args.b,
        scale=args.scale,
        shift=args.shift,
    )
    _write_poly(args, args.out, hyper_poly(spec))
    return 0


def _cmd_conv(args):
    from .conv import add_conv, mult_conv

    p, q = _read_poly(args.p), _read_poly(args.q)
    op = mult_conv if args.op == "mult" else add_conv
    _write_poly(args, args.out, op(p, q, args.n))
    return 0


def _cmd_roots(args):
    from .roots import default_precision, find_roots

    p = _read_poly(args.p)
    prec = args.prec or default_precision(p.degree)
    roots = find_roots(p, prec)
    _write_roots_csv(args, args.out, roots, prec)
    if args.hist:
        _write_csv(args, args.hist_out, "bin_lo,bin_hi,count,density", roots.histogram(args.hist), prec)
    return 0


def _cmd_mop(args):
    from .families import resolve
    from .mop import KINDS, constructor
    from .roots import default_precision, find_roots

    fam = resolve(args.family)
    spec = KINDS[fam.kind].spec(args.alpha, args.beta, args.c)
    ctor = constructor(fam.kind, fam.type_)
    poly = ctor(spec, args.n, args.i) if fam.type_ == "I" else ctor(spec, args.n)
    if args.out:
        _write_poly(args, args.out, poly)
    if args.emit:
        prec = args.prec or default_precision(poly.degree)
        _write_roots_csv(args, args.emit, find_roots(poly, prec), prec)
    return 0


def _strs(x):
    """x as JSON: Fractions as strings, tuples as lists, entry by entry."""
    if isinstance(x, (tuple, list)):
        return [_strs(v) for v in x]
    return str(x) if isinstance(x, Fraction) else x


def _cmd_limit(args):
    from .families import LimitParams, family_curves

    params = LimitParams(theta=args.theta, A=args.A, B=args.B, c=args.c, i=args.i)
    lim = family_curves(args.family, params)
    desc = {"family": lim.family, "flags": _strs(lim.flags), "moments": _strs(lim.moments(args.K).m),
            "params": {k: _strs(getattr(params, k)) for k in ("theta", "A", "B", "c", "i")}}
    if lim.s_transform is not None:
        desc["s_transform"] = {"A": _strs(lim.s_transform.A), "B": _strs(lim.s_transform.B)}
    if lim.curve is not None:
        desc["curve"] = {f"{i},{j}": str(c) for (i, j), c in sorted(lim.curve.coeffs.items())}
    if lim.r_poles:
        desc["r_poles"] = _strs(lim.r_poles)
    with open(args.out, "w") as fh:
        json.dump(desc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _sidecar(args, args.out, None)
    if args.samples:
        if lim.curve is None:
            raise FinfreeError("family has no algebraic curve to sample")
        import numpy as np

        from .curves import solve_curve_branch

        us = [complex(u, args.imag) for u in np.linspace(args.u_from, args.u_to, args.grid)]
        ys = solve_curve_branch(lim.curve, us)
        rows = ((u.real, float(y.real), float(y.imag)) for u, y in zip(us, ys))
        _write_csv(args, args.samples, "u,re_y,im_y", rows, None)
    return 0


def _cmd_density(args):
    import numpy as np

    from .families import closed_form

    model = closed_form(args.family, "densities")(args.theta)
    lo, hi = model.support
    if lo == float("-inf"):
        lo = -10.0
    pad = 0.01 * (hi - lo)
    xs = np.linspace(lo + pad, hi - pad, args.grid)
    rows = ((float(x), float(y)) for x, y in zip(xs, model(xs)))
    _write_csv(args, args.emit, "x,density", rows, None)
    return 0


def _cmd_verify(args):
    from .verify import run_suite

    kwargs = {}
    if args.suite == "identities":
        kwargs = {"n_max": args.n, "draws": args.draws}
    results = run_suite(args.suite, **kwargs)
    ok_all = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
        ok_all = ok_all and ok
    return 0 if ok_all else 1


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process and shared by every `main` call.

    The same object is returned on every call, so treat it as read-only:
    adding arguments or changing defaults on it changes every later call.
    `parse_args` returns a fresh Namespace each time.
    """
    ap = argparse.ArgumentParser(prog="finfree", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("hyper", help="expand a terminating hypergeometric polynomial")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--a", type=_frac_list, default=())
    p.add_argument("--b", type=_frac_list, default=())
    p.add_argument("--scale", type=_frac, default=Fraction(1))
    p.add_argument("--shift", type=_frac, default=Fraction(0))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_hyper)

    p = sub.add_parser("conv", help="finite free convolution of two polynomial files")
    p.add_argument("--op", choices=("mult", "add"), required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_conv)

    p = sub.add_parser("roots", help="multiprecision roots of a polynomial file")
    p.add_argument("--p", required=True)
    p.add_argument("--prec", type=_count, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--hist", type=_count, default=0, help="also emit a histogram with this many bins")
    p.add_argument("--hist-out", default="hist.csv")
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("mop", help="construct a multiple-orthogonal-polynomial instance")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=_int_list, required=True, help="multi-index, e.g. 300,600")
    p.add_argument("--alpha", type=_frac_list, required=True)
    p.add_argument("--beta", type=_frac, default=Fraction(0))
    p.add_argument("--c", type=_frac_list, default=())
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--out", default="")
    p.add_argument("--emit", default="", help="roots CSV output")
    p.add_argument("--prec", type=_count, default=0)
    p.set_defaults(fn=_cmd_mop)

    p = sub.add_parser("limit", help="asymptotic limit object of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", type=_frac_list, required=True)
    p.add_argument("--A", type=_frac_list, default=())
    p.add_argument("--B", type=_frac, default=Fraction(0))
    p.add_argument("--c", type=_frac_list, default=())
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--K", type=_count, default=8)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", default="", help="also sample the curve branch to this CSV")
    p.add_argument("--u-from", type=float, default=-3.0)
    p.add_argument("--u-to", type=float, default=-0.05)
    p.add_argument("--grid", type=_count, default=100)
    p.add_argument("--imag", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("density", help="closed-form limit density samples")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", type=_frac, required=True)
    p.add_argument("--grid", type=_count, default=400)
    p.add_argument("--emit", required=True)
    p.set_defaults(fn=_cmd_density)

    from .verify import SUITES

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument("--suite", required=True, choices=tuple(SUITES))
    p.add_argument("--n", type=_count, default=8)
    p.add_argument("--draws", type=_count, default=100)
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    args.command = shlex.join(["finfree", *argv])
    try:
        return args.fn(args)
    except FinfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
