"""`zeros`: exact multiple-orthogonal polynomials, their roots, and the limit law.

Each op builds a MOP of fixed degree with parameters drawn from a pool,
extracts its roots at the default precision, and compares them with the
limit law: Kolmogorov-Smirnov distance for Jacobi-Pineiro Type I and Type
II, the scaled largest zero and the root moments for first-kind multiple
Laguerre Type II.  Two ops run the command-line front end in a temporary
directory: `hyper -> conv -> roots --hist` and `mop --out --emit`.
"""

import json
import os
import tempfile
from fractions import Fraction as F

from finfree import cli, conv, families, hyper, mop
from finfree import roots as R

from ..common import OUT_DIR, Op, Slot, hist_csv, json_roundtrip, key_of, root_certificate, roots_csv

SIZES = {
    "full": {"jp1": (30, 40), "jp2": (14, 18), "ml1": (14, 18), "cli": 24, "mop": 12, "bins": 16},
    "tiny": {"jp1": (6, 8), "jp2": (4, 5), "ml1": (4, 5), "cli": 6, "mop": 3, "bins": 4},
}

# alpha_1 > alpha_2 keeps the i = 1 Type I component inside the zero-location
# window, so its zeros are real and negative
JP1_POOL = [((F(1, 2), F(3, 7)), F(1)), ((F(1, 3), F(1, 5)), F(1, 2)), ((F(2, 3), F(1, 4)), F(2)), ((F(3, 4), F(2, 5)), F(3, 2))]
JP2_INT_POOL = [((F(1, 2), F(3, 7)), F(1)), ((F(1, 3), F(1, 5)), F(0)), ((F(2, 3), F(1, 4)), F(2)), ((F(3, 4), F(2, 5)), F(1))]
JP2_REV_POOL = [((F(1, 2), F(3, 7)), F(1, 2)), ((F(1, 3), F(1, 5)), F(3, 2)), ((F(2, 3), F(1, 4)), F(1, 3)), ((F(3, 4), F(2, 5)), F(5, 2))]
ML1_POOL = [(F(3), F(5, 2)), (F(1, 2), F(3, 7)), (F(1, 3), F(0)), (F(2), F(1, 2))]
# F(-n; b; x) with b > 0 has positive real zeros, and so does their (x)_n product
CLI_POOL = [(F(5, 2), F(7, 3)), (F(3, 2), F(11, 4)), (F(7, 2), F(4, 3)), (F(9, 4), F(5, 3))]

THIRD, HALF = F(1, 3), F(1, 2)
KS_SCALE = 2.0  # KS distance must stay below KS_SCALE / degree


def _ks_failures(ks, deg, acc):
    acc.note("ks_max", ks)
    return [] if ks <= KS_SCALE / deg else [f"KS distance {ks:.4f} above {KS_SCALE}/{deg}"]


def _jp1(k, params):
    alpha, beta = params
    spec = mop.JPSpec(alpha=alpha, beta=beta)
    n = (k, 2 * k)

    def run(env):
        poly = mop.jp_typeI(spec, n, 1)
        roots = R.find_roots(poly)
        ks = R.EmpiricalDistribution(roots).ks_distance(lambda x: families.jp1_cdf(THIRD, x))
        return {"exact": poly, "roots": roots, "ks": ks}

    def check(out, env, acc):
        poly, roots = out["exact"], out["roots"]
        fails = [] if mop.jp_condition_window(spec, n, 1) else ["parameters left the zero-location window"]
        bits, more = root_certificate(poly, roots, R.default_precision(poly.degree), real=True)
        acc.note("bits_min", bits, min)
        fails += more
        if any(z.real >= 0 for z in roots):
            fails.append("a Type I zero is not negative")
        return fails + _ks_failures(out["ks"], poly.degree, acc)

    return Op(f"jp1_typeI_k{k}", key_of("jp1", n, params), (k - 1,), run, check)


def _jp2(m, params):
    alpha, beta = params
    spec = mop.JPSpec(alpha=alpha, beta=beta)
    n = (m, m)

    def run(env):
        poly = mop.jp_typeII(spec, n)
        roots = R.find_roots(poly)
        ks = R.EmpiricalDistribution(roots).ks_distance(lambda x: families.jp2_cdf(HALF, x))
        return {"exact": poly, "roots": roots, "ks": ks}

    def check(out, env, acc):
        poly, roots = out["exact"], out["roots"]
        bits, fails = root_certificate(poly, roots, R.default_precision(poly.degree), real=True)
        acc.note("bits_min", bits, min)
        if not all(0 < z.real < 1 for z in roots):
            fails.append("a Type II zero lies outside (0, 1)")
        return fails + _ks_failures(out["ks"], poly.degree, acc)

    path = "integer" if beta.denominator == 1 else "reversed"
    return Op(f"jp2_typeII_m{m}_{path}", key_of("jp2", n, params), (2 * m,), run, check)


def _ml1(m, alpha):
    spec = mop.ML1Spec(alpha=alpha)
    n = (m, m)
    cstar = families.endpoints("ML1-II-r2", theta=HALF)

    def run(env):
        poly = mop.ml1_typeII(spec, n)
        roots = R.find_roots(poly)
        dist = R.EmpiricalDistribution(roots)
        largest = max(z.real for z in roots) / (2 * m)
        return {"exact": poly, "roots": roots, "largest": largest, "moments": dist.moments(4)}

    def check(out, env, acc):
        poly, roots = out["exact"], out["roots"]
        bits, fails = root_certificate(poly, roots, R.default_precision(poly.degree), real=True)
        acc.note("bits_min", bits, min)
        ratio = float(out["largest"]) / float(cstar)
        # the scaled largest zero climbs to c* from below, at an O(deg^-1/2) pace or faster
        if not 1 - 1.2 * poly.degree ** -0.5 < ratio <= 1:
            fails.append(f"largest zero / |n| is {ratio:.4f} c*")
        for k, (num, exact) in enumerate(zip(out["moments"], poly.root_moments(4)), start=1):
            if abs(num - float(exact)) > 1e-12 * abs(float(exact)):
                fails.append(f"root moment {k} is {num}, exact {float(exact)}")
        return fails

    return Op(f"ml1_typeII_m{m}", key_of("ml1", n, alpha), (2 * m,), run, check)


def _read_all(folder):
    """Output files by name; of each sidecar only its precision, since its
    command line and revision differ between otherwise identical passes."""
    out = {}
    for name in sorted(os.listdir(folder)):
        with open(os.path.join(folder, name)) as fh:
            text = fh.read()
        out[name] = json.loads(text)["precision_bits"] if name.endswith(".meta.json") else text
    return out


def _sidecar_failures(files, precisions):
    return [f"{name} sidecar missing or with precision {files.get(name + '.meta.json')!r}"
            for name, bits in precisions.items() if files.get(name + ".meta.json", "missing") != bits]


def _cli_pipeline(n, bins, params):
    b1, b2 = params
    specs = [hyper.HypergeometricSpec(n=n, b=(b,)) for b in params]

    def run(env):
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as d:
            p, q, r = (os.path.join(d, f) for f in ("p.json", "q.json", "r.json"))
            rc = [
                cli.main(["hyper", "--n", str(n), "--b", str(b1), "--out", p]),
                cli.main(["hyper", "--n", str(n), "--b", str(b2), "--out", q]),
                cli.main(["conv", "--op", "mult", "--n", str(n), "--p", p, "--q", q, "--out", r]),
                cli.main(["roots", "--p", r, "--out", os.path.join(d, "roots.csv"),
                          "--hist", str(bins), "--hist-out", os.path.join(d, "hist.csv")]),
            ]
            files = _read_all(d)
        return {"rc": rc, "files": files, "exact": files["r.json"]}

    def check(out, env, acc):
        if out["rc"] != [0, 0, 0, 0]:
            return [f"exit codes {out['rc']}"]
        files = out["files"]
        p, q = (hyper.hyper_poly(s) for s in specs)
        fails = json_roundtrip(files["p.json"], p) + json_roundtrip(files["q.json"], q)
        r = conv.mult_conv(p, q, n)
        fails += json_roundtrip(files["r.json"], r)
        prec = R.default_precision(r.degree)
        roots = R.find_roots(r, prec)
        if files["roots.csv"] != roots_csv(roots):
            fails.append("roots CSV differs from the API roots")
        if files["hist.csv"] != hist_csv(R.EmpiricalDistribution(roots).histogram(bins)):
            fails.append("histogram CSV differs from the API histogram")
        fails += _sidecar_failures(files, {"p.json": None, "q.json": None, "r.json": None,
                                          "roots.csv": prec, "hist.csv": prec})
        bits, more = root_certificate(r, roots, prec, real=True)
        acc.note("bits_min", bits, min)
        return fails + more

    return Op("cli_hyper_conv_roots", key_of("cli-pipeline", (n, bins), params), (n,), run, check)


def _cli_mop(m, params):
    alpha, beta = params
    argv_params = ["--alpha", ",".join(map(str, alpha)), "--beta", str(beta)]

    def run(env):
        os.makedirs(OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as d:
            rc = cli.main(["mop", "--family", "jp2", "--n", f"{m},{m}", *argv_params,
                           "--out", os.path.join(d, "P.json"), "--emit", os.path.join(d, "roots.csv")])
            files = _read_all(d)
        return {"rc": rc, "files": files, "exact": files["P.json"]}

    def check(out, env, acc):
        if out["rc"] != 0:
            return [f"exit code {out['rc']}"]
        poly = mop.jp_typeII(mop.JPSpec(alpha=alpha, beta=beta), (m, m))
        fails = json_roundtrip(out["files"]["P.json"], poly)
        prec = R.default_precision(poly.degree)
        roots = R.find_roots(poly, prec)
        if out["files"]["roots.csv"] != roots_csv(roots):
            fails.append("roots CSV differs from the API roots")
        fails += _sidecar_failures(out["files"], {"P.json": None, "roots.csv": prec})
        bits, more = root_certificate(poly, roots, prec, real=True)
        acc.note("bits_min", bits, min)
        return fails + more

    return Op("cli_mop_emit", key_of("cli-mop", (m, m), params), (2 * m,), run, check)


def slots(size):
    s = SIZES[size]
    k1, k2 = s["jp1"]
    m1, m2 = s["jp2"]
    l1, l2 = s["ml1"]
    return [
        Slot("jp1_a", JP1_POOL, lambda p: [_jp1(k1, p)]),
        Slot("jp1_b", JP1_POOL, lambda p: [_jp1(k2, p)]),
        Slot("jp2_int", JP2_INT_POOL, lambda p: [_jp2(m1, p)]),
        Slot("jp2_rev", JP2_REV_POOL, lambda p: [_jp2(m2, p)]),
        Slot("ml1_a", ML1_POOL, lambda p: [_ml1(l1, p)]),
        Slot("ml1_b", ML1_POOL, lambda p: [_ml1(l2, p)]),
        Slot("cli_pipeline", CLI_POOL, lambda p: [_cli_pipeline(s["cli"], s["bins"], p)]),
        Slot("cli_mop", JP2_INT_POOL + JP2_REV_POOL, lambda p: [_cli_mop(s["mop"], p)]),
    ]
