"""`exact`: lossless constructions and convolutions at large n, no floats.

Hypergeometric expansion with scale and shift, both finite free
convolutions at the same and at different n, Taylor shift, product,
reversal and power sums, Jacobi-Pineiro Type II on both routes, second-kind
Laguerre Type I through the additive convolution, Kampe de Feriet
factorization trees, and finite free cumulants.  Every output is an exact
rational value, checked against its recorded digest and, where the library
has one, against an independent route.
"""

from fractions import Fraction as F

from finfree import conv, hyper, mop, partitions
from finfree.poly import Polynomial

from ..common import Op, Slot, key_of

SIZES = {
    "full": {"affine": 160, "big": 240, "add": 160, "mul": 100, "ps": 32, "jp2": (60, 80), "jp2_int": 40,
             "ml2": 60, "kdf": 14, "ffc": (16, 8, 20, 9)},
    "tiny": {"affine": 8, "big": 12, "add": 8, "mul": 6, "ps": 6, "jp2": (4, 5), "jp2_int": 3,
             "ml2": 4, "kdf": 4, "ffc": (6, 4, 7, 5)},
}

# numerators and denominators of one size, so every draw costs about the same
A_POOL = [F(3, 7), F(5, 11), F(2, 9), F(4, 13)]
B_POOL = [F(5, 2), F(7, 3), F(11, 4), F(13, 5)]
AFFINE_POOL = [(a, b, s, d) for a, b, s, d in zip(A_POOL, B_POOL, (F(2, 3), F(3, 5), F(5, 7), F(4, 3)), (F(1, 5), F(2, 7), F(3, 4), F(1, 3)))]
PAIR_POOL = [(A_POOL[i], B_POOL[i], B_POOL[(i + 1) % 4] + 1) for i in range(4)]
SHIFT_POOL = [F(2, 3), F(3, 5), F(5, 7), F(4, 9)]
JP_REV_POOL = [((F(1, 2), F(3, 7)), F(1, 2)), ((F(1, 3), F(1, 5)), F(3, 2)), ((F(2, 3), F(1, 4)), F(1, 3)), ((F(3, 4), F(2, 5)), F(5, 2))]
JP_INT_POOL = [((F(1, 2), F(3, 7)), F(1)), ((F(1, 3), F(1, 5)), F(2)), ((F(2, 3), F(1, 4)), F(3)), ((F(3, 4), F(2, 5)), F(1))]
ML2_POOL = [(F(2, 3), (F(1), F(2))), (F(1, 3), (F(1), F(2))), (F(1, 3), (F(2), F(3))), (F(1, 4), (F(1), F(3)))]
KDF_POOL = [
    (F(2, 9), F(13, 2), ((F(3, 7), F(11, 2)), (F(5, 7), F(13, 3)), (F(1, 9), F(17, 4))), (F(2, 3), F(-1, 2), F(3, 4))),
    (F(4, 9), F(11, 2), ((F(2, 7), F(9, 2)), (F(4, 11), F(16, 3)), (F(5, 9), F(15, 4))), (F(3, 5), F(-2, 3), F(1, 4))),
    (F(5, 9), F(15, 2), ((F(1, 7), F(13, 2)), (F(6, 11), F(14, 3)), (F(7, 9), F(19, 4))), (F(1, 3), F(-3, 4), F(2, 5))),
    (F(7, 9), F(17, 2), ((F(6, 7), F(15, 2)), (F(2, 11), F(17, 3)), (F(4, 9), F(21, 4))), (F(5, 6), F(-1, 3), F(3, 5))),
]
ROOTS_POOL = [(F(1, 2), F(-1, 3), F(1, 4)), (F(1, 3), F(-1, 2), F(3, 4)), (F(1, 4), F(-2, 3), F(1, 2)), (F(2, 5), F(-1, 4), F(1, 3))]


def _hyper_op(name, spec, params):
    def run(env):
        return {"exact": hyper.hyper_poly(spec)}

    return Op(name, key_of(name, (spec.n,), params), (spec.n,), run)


def _pair_op(name, specs):
    """Both hypergeometric operands of one pool entry, built in one op."""
    n = specs[0].n

    def run(env):
        return {"exact": tuple(hyper.hyper_poly(spec) for spec in specs)}

    return Op(name, key_of(name, (n,), specs), (n,), run)


def _mult_op(name, src, specs):
    n = specs[0].n

    def run(env):
        return {"exact": conv.mult_conv(*env[src]["exact"], n)}

    def check(out, env, acc):
        merged = hyper.hyper_poly(hyper.hyper_mult_conv(*specs))
        return [] if out["exact"] == merged.scaled((-1) ** n) else ["mult_conv differs from the parameter-tuple merge"]

    return Op(name, key_of(name, (n,), specs), (n,), run, check)


def _add_op(name, src, specs):
    n = specs[0].n

    def run(env):
        return {"exact": conv.add_conv(*env[src]["exact"], n)}

    def check(out, env, acc):
        rhs = hyper.theorem_b_rhs(*specs)
        return [] if out["exact"].proportional_to(rhs) is not None else ["add_conv differs from the operator route"]

    return Op(name, key_of(name, (n,), specs), (n,), run, check)


def _eval_exact(p, x):
    acc = F(0)
    for c in reversed(p.to_monomial()):
        acc = acc * x + c
    return acc


POINTS = (F(1, 3), F(-2, 5), F(7, 4))


def _shift_op(src, t, specs):
    n = specs[0].n

    def run(env):
        return {"exact": env[src]["exact"][0].shift(t)}

    def check(out, env, acc):
        p = env[src]["exact"][0]
        ok = all(_eval_exact(out["exact"], x) == _eval_exact(p, x - t) for x in POINTS)
        return [] if ok else ["shifted polynomial is not p(x - t)"]

    return Op("poly_shift", key_of("poly_shift", (n,), (specs, t)), (n,), run, check)


def _mul_op(src, specs):
    n = specs[0].n

    def run(env):
        p, q = env[src]["exact"]
        return {"exact": p.mul(q)}

    def check(out, env, acc):
        p, q = env[src]["exact"]
        ok = all(_eval_exact(out["exact"], x) == _eval_exact(p, x) * _eval_exact(q, x) for x in POINTS)
        return [] if ok else ["product does not evaluate to p(x) q(x)"]

    return Op("poly_mul", key_of("poly_mul", (n, n), specs), (2 * n,), run, check)


def _reverse_op(src, specs):
    n = specs[0].n

    def run(env):
        return {"exact": env[src]["exact"][0].reverse()}

    def check(out, env, acc):
        p = env[src]["exact"][0]
        ok = out["exact"].to_monomial() == tuple(reversed(p.to_monomial())) and out["exact"].reverse() == p
        return [] if ok else ["reverse is not the coefficient mirror"]

    return Op("poly_reverse", key_of("poly_reverse", (n,), specs), (n,), run, check)


def _power_sums_op(src, k, specs):
    n = specs[0].n

    def run(env):
        return {"exact": env[src]["exact"][0].power_sums(k)}

    def check(out, env, acc):
        e = env[src]["exact"][0].monicized().e
        ps = out["exact"]
        ok = ps[0] == e[1] and ps[1] == e[1] ** 2 - 2 * e[2] and ps[2] == e[1] ** 3 - 3 * e[1] * e[2] + 3 * e[3]
        return [] if ok else ["power sums disagree with Newton's identities"]

    return Op("poly_power_sums", key_of("poly_power_sums", (n, k), specs), (k,), run, check)


def _beta_orthogonal(P, spec, n):
    """Exact Type II orthogonality against every weight x^a (1-x)^beta.

    int_0^1 x^(a+m) (1-x)^beta dx = B(a+1, beta+1) (a+1)_m / (a+beta+2)_m, so
    after dropping the Beta factor each moment condition is a rational sum
    that must vanish for k < n_j and not vanish at k = n_j.  The route uses
    no hypergeometric identity.
    """
    c = P.to_monomial()
    for a, nj in zip(spec.alpha, n):
        mu = [F(1)]
        for m in range(len(c) + nj):
            mu.append(mu[-1] * (a + 1 + m) / (a + spec.beta + 2 + m))
        sums = [sum(ci * mu[i + k] for i, ci in enumerate(c)) for k in range(nj + 1)]
        if any(sums[:nj]) or not sums[nj]:
            return False
    return True


def _jp2_op(name, n, params):
    alpha, beta = params
    spec = mop.JPSpec(alpha=alpha, beta=beta)

    def run(env):
        return {"exact": mop.jp_typeII(spec, n)}

    def check(out, env, acc):
        return [] if _beta_orthogonal(out["exact"], spec, n) else ["Type II polynomial fails exact orthogonality"]

    return Op(name, key_of("jp_typeII", n, params), (sum(n),), run, check)


def _ml2_op(m, params):
    alpha, c = params
    spec = mop.ML2Spec(alpha=alpha, c=c)

    def run(env):
        return {"exact": tuple(mop.ml2_typeI(spec, (m, m), i) for i in (1, 2))}

    return Op("ml2_typeI", key_of("ml2_typeI", (m, m), params), (m - 1,), run)


def _kdf_op(mode, n, params):
    a0, b0, groups, c = params
    spec = hyper.KdFSpec(n=n, a0=(a0,), b0=(b0,), groups=tuple(((a,), (b,)) for a, b in groups), c=c)

    def run(env):
        tree, scalar = hyper.kdf_factorize(spec, mode)
        return {"exact": (hyper.eval_tree(tree, n), scalar)}

    def check(out, env, acc):
        poly, scalar = out["exact"]
        return [] if hyper.kdf_poly(spec, mode) == poly.scaled(scalar) else ["KdF tree differs from the direct expansion"]

    return Op(f"kdf_factorize_{mode}", key_of("kdf", (n, len(groups), mode), params), (n,), run, check)


def _ffc_op(n, k, roots):
    # n roots cycled from a three-element pool entry, so both operands are real-rooted
    pts = [roots[j % 3] + j // 3 for j in range(n)]
    p = Polynomial.from_roots(pts)

    def run(env):
        return {"exact": partitions.finite_free_cumulants(p, k)}

    def check(out, env, acc):
        q = Polynomial.from_roots([x - F(1, 2) for x in pts])
        lhs = partitions.finite_free_cumulants(conv.add_conv(p, q, n), k)
        rhs = [a + b for a, b in zip(out["exact"], partitions.finite_free_cumulants(q, k))]
        return [] if lhs == rhs else ["finite free cumulants are not additive under add_conv"]

    return Op(f"finite_free_cumulants_k{k}", key_of("ffc", (n, k), roots), (k,), run, check)


def _specs(n, params):
    a, b1, b2 = params
    return hyper.HypergeometricSpec(n=n, a=(a,), b=(b1,)), hyper.HypergeometricSpec(n=n, b=(b2,))


def slots(size):
    s = SIZES[size]
    j1, j2 = s["jp2"]
    f1n, f1k, f2n, f2k = s["ffc"]

    def big(p):
        specs = _specs(s["big"], p)
        return [
            _pair_op("hyper_pair_big", specs),
            _mult_op("mult_conv_big", "hyper_pair_big", specs),
            _reverse_op("hyper_pair_big", specs),
            _power_sums_op("hyper_pair_big", s["ps"], specs),
        ]

    def same_n(p):
        # add_conv and mult_conv on the same operands, for the ROADMAP's cost ordering
        specs = _specs(s["add"], p)
        return [
            _pair_op("hyper_pair_add", specs),
            _add_op("add_conv", "hyper_pair_add", specs),
            _mult_op("mult_conv", "hyper_pair_add", specs),
            _shift_op("hyper_pair_add", SHIFT_POOL[A_POOL.index(p[0])], specs),
        ]

    def mul(p):
        specs = _specs(s["mul"], p)
        return [_pair_op("hyper_pair_mul", specs), _mul_op("hyper_pair_mul", specs)]

    affine = lambda p: hyper.HypergeometricSpec(n=s["affine"], a=(p[0],), b=(p[1],), scale=p[2], shift=p[3])  # noqa: E731
    return [
        Slot("hyper_affine", AFFINE_POOL, lambda p: [_hyper_op("hyper_affine", affine(p), p)]),
        Slot("big", PAIR_POOL, big),
        Slot("same_n", PAIR_POOL, same_n),
        Slot("mul", PAIR_POOL, mul),
        Slot("jp2_rev_a", JP_REV_POOL, lambda p: [_jp2_op("jp_typeII_rev_a", (j1, j1), p)]),
        Slot("jp2_rev_b", JP_REV_POOL, lambda p: [_jp2_op("jp_typeII_rev_b", (j2, j2), p)]),
        Slot("jp2_int", JP_INT_POOL, lambda p: [_jp2_op("jp_typeII_int", (s["jp2_int"],) * 2, p)]),
        Slot("ml2", ML2_POOL, lambda p: [_ml2_op(s["ml2"], p)]),
        Slot("kdf", KDF_POOL, lambda p: [_kdf_op("all", s["kdf"], p), _kdf_op("one", s["kdf"], p)]),
        Slot("ffc_a", ROOTS_POOL, lambda p: [_ffc_op(f1n, f1k, p)]),
        Slot("ffc_b", ROOTS_POOL, lambda p: [_ffc_op(f2n, f2k, p)]),
    ]
