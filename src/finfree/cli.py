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


def _frac(text):
    return Fraction(text)


def _frac_list(text):
    return tuple(Fraction(t) for t in text.split(",")) if text else ()


def _int_list(text):
    return tuple(int(t) for t in text.split(","))


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
    with open(path) as fh:
        return Polynomial.from_json(fh.read())


def _write_roots_csv(args, path, poly, roots, precision_bits):
    """The roots as `index,re,im` rows; the sidecar carries their real-root
    certificate, or null when none holds (the complex path ran)."""
    from .roots import real_root_certificate

    rows = sorted(
        ((float(z.real), float(z.imag)) for z in roots), key=lambda t: (t[0], t[1])
    )
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for idx, (re, im) in enumerate(rows):
            fh.write(f"{idx},{re!r},{im!r}\n")
    seps = real_root_certificate(poly, roots)
    cert = None if seps is None else {"real": True, "isolated": len(seps) - 1}
    _sidecar(args, path, precision_bits, certificate=cert)


def _write_hist_csv(args, path, rows, precision_bits):
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,count,density\n")
        for lo, hi, count, dens in rows:
            fh.write(f"{lo!r},{hi!r},{count},{dens!r}\n")
    _sidecar(args, path, precision_bits)


def _cmd_hyper(args):
    spec = HypergeometricSpec(
        n=args.n,
        a=_frac_list(args.a),
        b=_frac_list(args.b),
        scale=_frac(args.scale),
        shift=_frac(args.shift),
        sign=args.sign,
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
    from .roots import EmpiricalDistribution, default_precision, find_roots

    p = _read_poly(args.p)
    prec = args.prec or default_precision(p.degree)
    roots = find_roots(p, prec)
    _write_roots_csv(args, args.out, p, roots, prec)
    if args.hist:
        dist = EmpiricalDistribution(roots)
        _write_hist_csv(args, args.hist_out, dist.histogram(args.hist), prec)
    return 0


_MOP_ALIASES = {
    "jp1-typei": ("jp", "I"),
    "jp1": ("jp", "I"),
    "jp-typei": ("jp", "I"),
    "jp2": ("jp", "II"),
    "jp-typeii": ("jp", "II"),
    "ml1-typei": ("ml1", "I"),
    "ml11": ("ml1", "I"),
    "ml1-typeii": ("ml1", "II"),
    "ml12": ("ml1", "II"),
    "ml2-typei": ("ml2", "I"),
    "ml21": ("ml2", "I"),
    "ml2-typeii": ("ml2", "II"),
    "ml22": ("ml2", "II"),
}


def _cmd_mop(args):
    from .mop import JPSpec, ML1Spec, ML2Spec, jp_typeI, jp_typeII, ml1_typeI, ml1_typeII, ml2_typeI, ml2_typeII
    from .roots import default_precision, find_roots

    key = args.family.lower()
    if key not in _MOP_ALIASES:
        raise FinfreeError(f"unknown mop family {args.family!r}")
    family, type_ = _MOP_ALIASES[key]
    n = _int_list(args.n)
    if family == "jp":
        spec = JPSpec(alpha=_frac_list(args.alpha), beta=_frac(args.beta))
        poly = jp_typeII(spec, n) if type_ == "II" else jp_typeI(spec, n, args.i)
    elif family == "ml1":
        spec = ML1Spec(alpha=_frac_list(args.alpha))
        poly = ml1_typeII(spec, n) if type_ == "II" else ml1_typeI(spec, n, args.i)
    else:
        spec = ML2Spec(alpha=_frac_list(args.alpha)[0], c=_frac_list(args.c))
        poly = ml2_typeII(spec, n) if type_ == "II" else ml2_typeI(spec, n, args.i)
    if args.out:
        _write_poly(args, args.out, poly)
    if args.emit:
        prec = args.prec or default_precision(poly.degree)
        roots = find_roots(poly, prec)
        _write_roots_csv(args, args.emit, poly, roots, prec)
    return 0


def _cmd_limit(args):
    from .families import LimitParams, family_curves

    params = LimitParams(
        theta=_frac_list(args.theta),
        A=_frac_list(args.A),
        B=_frac(args.B),
        c=_frac_list(args.c),
        i=args.i,
    )
    lim = family_curves(args.family, params)
    desc = {
        "family": lim.family,
        "params": {
            "theta": [str(t) for t in params.theta],
            "A": [str(a) for a in params.A],
            "B": str(params.B),
            "c": [str(c) for c in params.c],
            "i": params.i,
        },
        "flags": list(lim.flags),
        "moments": [str(m) for m in lim.moments(args.K).m],
    }
    if lim.s_transform is not None:
        desc["s_transform"] = {
            "A": [str(a) for a in lim.s_transform.A],
            "B": [str(b) for b in lim.s_transform.B],
        }
    if lim.curve is not None:
        desc["curve"] = {f"{i},{j}": str(c) for (i, j), c in sorted(lim.curve.coeffs.items())}
    if lim.r_poles:
        desc["r_poles"] = [[str(w), str(p)] for w, p in lim.r_poles]
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
        with open(args.samples, "w") as fh:
            fh.write("u,re_y,im_y\n")
            for u, y in zip(us, ys):
                fh.write(f"{u.real!r},{y.real!r},{y.imag!r}\n")
        _sidecar(args, args.samples, None)
    return 0


def _cmd_density(args):
    import numpy as np

    from .families import density_jp_typeI_r2, density_jp_typeII_r2

    theta = _frac(args.theta)
    if args.family in ("jp1-r2", "jp-i-r2"):
        model = density_jp_typeI_r2(theta)
    elif args.family in ("jp2-r2", "jp-ii-r2"):
        model = density_jp_typeII_r2(theta)
    else:
        raise FinfreeError(f"unknown density family {args.family!r}")
    lo, hi = model.support
    if lo == float("-inf"):
        lo = -10.0
    pad = 0.01 * (hi - lo)
    xs = np.linspace(lo + pad, hi - pad, args.grid)
    ys = model(xs)
    with open(args.emit, "w") as fh:
        fh.write("x,density\n")
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r},{float(y)!r}\n")
    _sidecar(args, args.emit, None)
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


def build_parser():
    ap = argparse.ArgumentParser(prog="finfree", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("hyper", help="expand a terminating hypergeometric polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default="")
    p.add_argument("--b", default="")
    p.add_argument("--scale", default="1")
    p.add_argument("--shift", default="0")
    p.add_argument("--sign", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_hyper)

    p = sub.add_parser("conv", help="finite free convolution of two polynomial files")
    p.add_argument("--op", choices=("mult", "add"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_conv)

    p = sub.add_parser("roots", help="multiprecision roots of a polynomial file")
    p.add_argument("--p", required=True)
    p.add_argument("--prec", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--hist", type=int, default=0, help="also emit a histogram with this many bins")
    p.add_argument("--hist-out", default="hist.csv")
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("mop", help="construct a multiple-orthogonal-polynomial instance")
    p.add_argument("--family", required=True)
    p.add_argument("--n", required=True, help="multi-index, e.g. 300,600")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", default="0")
    p.add_argument("--c", default="")
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--out", default="")
    p.add_argument("--emit", default="", help="roots CSV output")
    p.add_argument("--prec", type=int, default=0)
    p.set_defaults(fn=_cmd_mop)

    p = sub.add_parser("limit", help="asymptotic limit object of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--A", default="")
    p.add_argument("--B", default="0")
    p.add_argument("--c", default="")
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", default="", help="also sample the curve branch to this CSV")
    p.add_argument("--u-from", type=float, default=-3.0)
    p.add_argument("--u-to", type=float, default=-0.05)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--imag", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("density", help="closed-form limit density samples")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--emit", required=True)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--draws", type=int, default=100)
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
