"""`verify`: the library's verifiers at small sizes, with many calls.

The exact identity and cumulant suites on seeded draws, the quadrature
orthogonality oracle on one case per family and type with weights from a
small pool, and interlacing trials in the style of acceptance criterion 8,
each solving thirteen polynomials of degree 3 to 9 at 256 bits.
"""

import random
from fractions import Fraction as F

from finfree import mop
from finfree import roots as R
from finfree import verify as V

from ..common import Op, Slot, root_certificate

SIZES = {
    # ten trials of one size, so the median op time is a median over like ops
    "full": {"draws": 30, "trials": [((4, 4), 1 + k % 2) for k in range(10)], "orth": ((2, 1), (2, 2))},
    "tiny": {"draws": 2, "trials": [((2, 2), 1)], "orth": ((1, 1), (2, 2))},
}

SEEDS = range(1, 10**6)
JP_POOL = [((F(1, 2), F(3, 7)), F(1)), ((F(1, 2), F(3, 7)), F(1, 2)), ((F(1, 3), F(1, 5)), F(2)), ((F(2, 3), F(1, 4)), F(3, 2))]
ML1_POOL = [(F(1, 2), F(3, 7)), (F(1, 3), F(1, 5)), (F(2, 3), F(1, 4)), (F(3), F(5, 2))]
ML2_POOL = [(F(1, 2), (F(1), F(2))), (F(1, 3), (F(1), F(3))), (F(2, 3), (F(2), F(3))), (F(3, 4), (F(1, 2), F(2)))]
ORTH_TOL = 1e-25
PREC = 256


def _suite_op(name, kwargs):
    def run(env):
        return {"results": V.run_suite(name, **kwargs)}

    def check(out, env, acc):
        return [f"{label}: {detail}" for label, ok, detail in out["results"] if not ok]

    return Op(f"suite_{name}", f"suite|{name}|{kwargs}", (kwargs.get("draws", 0),), run, check)


def _orth_op(family, type_, n, params):
    if family == "jp":
        spec = mop.JPSpec(alpha=params[0], beta=params[1])
    elif family == "ml1":
        spec = mop.ML1Spec(alpha=params)
    else:
        spec = mop.ML2Spec(alpha=params[0], c=params[1])

    def run(env):
        return {"report": mop.verify_orthogonality(family, spec, n, type_, prec=PREC)}

    def check(out, env, acc):
        rep = out["report"]
        acc.note("orth_max", rep["max_residual"])
        fails = [] if rep["max_residual"] < ORTH_TOL else [f"residual {rep['max_residual']:.2e}"]
        if type_ == "I" and not abs(rep["normalization"]) > 1e-10:
            fails.append("Type I normalization vanished")
        return fails

    return Op(f"orthogonality_{family}_{type_}", f"orth|{family}|{type_}|{n}|{params}", (sum(n),), run, check)


def _trial(rng, n, i):
    """Draw one criterion-8 trial: thirteen Type I / Type II solves, eight verdicts."""

    def alphas():
        # gap k/13, shifts m/12: neither a gap nor a shifted gap is an integer
        a2 = F(rng.randint(-6, 6), 13)
        return (a2 + F(rng.randint(1, 12), 13), a2)

    def draw_t():
        return F(rng.randint(1, 23), 12)

    al, t = alphas(), draw_t()
    jp = mop.JPSpec(alpha=al, beta=F(rng.randint(0, 4), 2))
    shifted = (al[0] + t, al[1] + t)
    al2, t2 = alphas(), draw_t()
    jp2 = mop.JPSpec(alpha=al2, beta=F(rng.randint(0, 2)))
    up = mop.add_index(n, mop.unit_index(2, i))
    al2_t = tuple(a + (t2 if j == i - 1 else 0) for j, a in enumerate(al2))
    c = (F(rng.randint(1, 5)), F(rng.randint(1, 5)) + F(1, 2))
    ml2 = mop.ML2Spec(alpha=F(rng.randint(0, 4), 3), c=c)
    ml2_t = mop.ML2Spec(alpha=ml2.alpha + draw_t(), c=c)
    # (constructor name, args) per polynomial; the pairs below index into this list
    polys = [
        ("jp_typeI", (jp, n, i)),
        ("jp_typeI", (mop.JPSpec(alpha=shifted, beta=jp.beta), n, i)),
        ("jp_typeI", (mop.JPSpec(alpha=al, beta=jp.beta + t), n, i)),
        ("ml1_typeI", (mop.ML1Spec(alpha=al), n, i)),
        ("ml1_typeI", (mop.ML1Spec(alpha=shifted), n, i)),
        ("jp_typeII", (jp2, n)),
        ("jp_typeII", (jp2, up)),
        ("jp_typeII", (mop.JPSpec(alpha=al2_t, beta=jp2.beta), n)),
        ("ml1_typeII", (mop.ML1Spec(alpha=al2), n)),
        ("ml1_typeII", (mop.ML1Spec(alpha=al2), up)),
        ("ml1_typeII", (mop.ML1Spec(alpha=al2_t), n)),
        ("ml2_typeII", (ml2, n)),
        ("ml2_typeII", (ml2_t, n)),
    ]
    # interlaces(a, b): b's zeros sit between a's
    pairs = [(1, 0), (0, 2), (4, 3), (6, 5), (5, 7), (9, 8), (8, 10), (11, 12)]
    return polys, pairs


def _trial_op(idx, n, i, seed):
    polys, pairs = _trial(random.Random(seed), n, i)

    def run(env):
        solved = []
        for ctor, args in polys:
            p = getattr(mop, ctor)(*args)
            roots = R.find_roots(p, PREC)
            solved.append((p, roots, R.real_parts_sorted(roots, tau=1e-10)))
        verdicts = [bool(R.interlaces(solved[a][2], solved[b][2], 1e-20)) for a, b in pairs]
        return {"solved": solved, "verdicts": verdicts}

    def check(out, env, acc):
        fails = [f"interlacing pair {pairs[k]} violated" for k, ok in enumerate(out["verdicts"]) if not ok]
        for p, roots, _ in out["solved"]:
            bits, more = root_certificate(p, roots, PREC, real=True)
            acc.note("bits_min", bits, min)
            fails += more
        return fails

    return Op(f"interlacing_trial_{idx}", f"trial|{n}|{i}|{seed}", (sum(n),), run, check)


def slots(size):
    s = SIZES[size]
    n_small, n_ml2 = s["orth"]
    cases = [
        ("jp", "I", JP_POOL), ("jp", "II", JP_POOL), ("ml1", "I", ML1_POOL),
        ("ml1", "II", ML1_POOL), ("ml2", "I", ML2_POOL), ("ml2", "II", ML2_POOL),
    ]
    out = [
        Slot("identities", SEEDS, lambda sd: [_suite_op("identities", {"n_max": 8, "draws": s["draws"], "seed": sd})]),
        Slot("cumulants", SEEDS, lambda sd: [_suite_op("cumulants", {"seed": sd})]),
    ]
    for family, type_, pool in cases:
        # second-kind Laguerre Type I needs n_j >= 2 in every other component
        n = n_ml2 if (family, type_) == ("ml2", "I") else n_small
        out.append(Slot(f"orth_{family}_{type_}", pool, lambda p, f=family, t=type_, n=n: [_orth_op(f, t, n, p)]))
    for idx, (n, i) in enumerate(s["trials"]):
        out.append(Slot(f"trial_{idx}", SEEDS, lambda sd, idx=idx, n=n, i=i: [_trial_op(idx, n, i, sd)]))
    return out
