"""Randomized exact verification suites.

Each suite returns a list of (name, ok, detail) triples; every identity is
checked on freshly drawn rational inputs with a seeded generator, so reruns
are reproducible.  These suites back `finfree verify` and the acceptance
tests.
"""

import random
from fractions import Fraction

from .conv import add_conv, check_identity_dilation_additive, check_identity_dilation_distribute, mult_conv
from .errors import InvalidParameters
from .hyper import (
    HypergeometricSpec,
    KdFSpec,
    additive_hg_verify,
    eval_tree,
    hyper_mult_conv,
    hyper_poly,
    kdf_factorize,
    kdf_poly,
    reversed_product_lhs,
    reversed_product_representation,
)
from .partitions import (
    cumulants_from_moments_nc,
    finite_free_cumulants,
    moments_from_cumulants_nc,
)
from .poly import Polynomial
from .series import FormalMomentSeries, free_mult, free_mult_via_kreweras, moments_from_r, r_coefficients


def _rng_fraction(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4, 5, 7)))


def _rng_nonint(rng, lo=-4, hi=6):
    """A rational guaranteed not to be an integer (safe hypergeometric input)."""
    return rng.randint(lo, hi) + Fraction(rng.choice((1, 2, 3, 4, 5, 6)), 7)


def _rng_poly(rng, n):
    return Polynomial.from_roots([_rng_fraction(rng) for _ in range(n)], n)


def suite_identities(n_max=8, draws=100, seed=20240811):
    """Exact identity suite: dilations, shift, bilinearity, the convolution
    theorems, the reversed-product trick, and the two KdF factorizations."""
    if n_max < 2:
        raise InvalidParameters(f"the identity suite draws degrees 2..n_max, got n_max = {n_max}")
    rng = random.Random(seed)
    results = []

    def run(name, fn, count=draws):
        fails = 0
        for _ in range(count):
            if not fn():
                fails += 1
        results.append((name, fails == 0, f"{count} draws, {fails} failures"))

    def dilation_mult():
        n = rng.randint(2, n_max)
        p = _rng_poly(rng, n)
        alpha = _rng_fraction(rng) or Fraction(3)
        return mult_conv(p, Polynomial.linear_power(alpha, n), n) == p.dilate(alpha)

    def dilation_compose():
        n = rng.randint(1, 6)
        p = _rng_poly(rng, n)
        a, b = Fraction(2), _rng_fraction(rng) or Fraction(3, 2)
        return p.dilate(a).dilate(b) == p.dilate(a * b)

    def dilation_distribute():
        n = rng.randint(2, 5)
        return check_identity_dilation_distribute(
            _rng_poly(rng, n), _rng_poly(rng, n), n, Fraction(2)
        )

    def dilation_additive():
        n = rng.randint(2, 5)
        return check_identity_dilation_additive(
            _rng_poly(rng, n), _rng_poly(rng, n), n, _rng_fraction(rng) or Fraction(2)
        )

    def shift_identity():
        n = rng.randint(1, n_max)
        p = _rng_poly(rng, n)
        alpha = _rng_fraction(rng)
        return add_conv(p, Polynomial.linear_power(alpha, n), n) == p.shift(alpha)

    def bilinear():
        n = rng.randint(2, 6)
        p, q, r = (_rng_poly(rng, n) for _ in range(3))
        a = _rng_fraction(rng)
        lin = p.scaled(a) + q
        ok1 = mult_conv(lin, r, n) == mult_conv(p, r, n).scaled(a) + mult_conv(q, r, n)
        ok2 = add_conv(lin, r, n) == add_conv(p, r, n).scaled(a) + add_conv(q, r, n)
        return ok1 and ok2

    def commutative_associative():
        n = rng.randint(2, 6)
        p, q, r = (_rng_poly(rng, n) for _ in range(3))
        ok = mult_conv(p, q, n) == mult_conv(q, p, n)
        ok = ok and add_conv(p, q, n) == add_conv(q, p, n)
        ok = ok and mult_conv(mult_conv(p, q, n), r, n) == mult_conv(p, mult_conv(q, r, n), n)
        ok = ok and add_conv(add_conv(p, q, n), r, n) == add_conv(p, add_conv(q, r, n), n)
        return ok

    def theorem_mult_merge():
        n = rng.randint(1, n_max)
        s1 = HypergeometricSpec(n=n, a=(_rng_nonint(rng),), b=(_rng_nonint(rng, 0, 5) + 5,))
        s2 = HypergeometricSpec(n=n, a=(_rng_nonint(rng),), b=(_rng_nonint(rng, 0, 5) + 5,))
        merged = hyper_mult_conv(s1, s2)
        lhs = mult_conv(hyper_poly(s1), hyper_poly(s2), n)
        return lhs == hyper_poly(merged).scaled((-1) ** n)

    def theorem_add_operator():
        n = rng.randint(1, 6)
        s1 = HypergeometricSpec(
            n=n, a=(_rng_nonint(rng),), b=(_rng_nonint(rng, 0, 5) + 5,), scale=(-1) ** rng.randint(0, 1)
        )
        s2 = HypergeometricSpec(n=n, b=(_rng_nonint(rng, 0, 5) + 5,), scale=(-1) ** rng.randint(0, 1))
        return additive_hg_verify(s1, s2)

    def reversed_product():
        n = rng.randint(2, 6)
        s1 = HypergeometricSpec(
            n=n, a=(_rng_nonint(rng),), b=(Fraction(1),), scale=(-1) ** rng.randint(0, 1)
        )
        s2 = HypergeometricSpec(n=n, a=(_rng_nonint(rng),), b=(_rng_nonint(rng, 0, 4) + 5,))
        lhs = reversed_product_lhs(s1, s2)
        rhs = reversed_product_representation(s1, s2)
        return lhs.proportional_to(rhs) is not None

    def kdf_trees():
        n = rng.randint(2, 5)
        r = rng.randint(1, 3)
        groups = tuple(((_rng_nonint(rng),), (_rng_nonint(rng, 0, 4) + 5,)) for _ in range(r))
        c = tuple(rng.choice((1, -1)) * (_rng_fraction(rng, 1, 5) + Fraction(1, 9)) for _ in range(r))
        spec = KdFSpec(
            n=n, a0=(_rng_nonint(rng),), b0=(_rng_nonint(rng, 0, 4) + 5,), groups=groups, c=c
        )
        ok = True
        for mode in ("all", "one"):
            tree, scal = kdf_factorize(spec, mode)
            ok = ok and kdf_poly(spec, mode) == eval_tree(tree, n).scaled(scal)
        return ok

    run("dilation via mult-conv with (x-a)^n", dilation_mult)
    run("dilation composition", dilation_compose)
    run("dilation distributes over mult-conv", dilation_distribute)
    run("common dilation factors out of add-conv", dilation_additive)
    run("shift via add-conv with (x-a)^n", shift_identity)
    run("bilinearity of both convolutions", bilinear)
    run("commutativity and associativity", commutative_associative)
    run("parameter-tuple merge (mult theorem)", theorem_mult_merge)
    run("differential-operator route (add theorem)", theorem_add_operator)
    run("reversed-product representation", reversed_product)
    run("KdF factorizations, both modes", kdf_trees, max(10, draws // 5))
    return results


def suite_cumulants(seed=20240812):
    """Finite free cumulant additivity, NC maps against enumeration, Kreweras consistency."""
    rng = random.Random(seed)
    results = []

    ok = True
    for n in range(2, 7):
        for _ in range(4):
            p, q = _rng_poly(rng, n), _rng_poly(rng, n)
            kp = finite_free_cumulants(p)
            kq = finite_free_cumulants(q)
            ks = finite_free_cumulants(add_conv(p, q, n))
            ok = ok and all(ks[j] == kp[j] + kq[j] for j in range(n))
    results.append(("finite free cumulants additive under add-conv (n <= 6)", ok, "exact"))

    ok = True
    for _ in range(10):
        r = [_rng_fraction(rng) for _ in range(6)]
        m = moments_from_cumulants_nc(r)
        ok = ok and cumulants_from_moments_nc(m) == r
        ok = ok and list(moments_from_r(r).m) == m and r_coefficients(FormalMomentSeries(tuple(m))) == r
    results.append(("NC moment-cumulant series maps equal enumeration, roundtrip to k=6", ok, "exact"))

    mp_m = FormalMomentSeries((1, 2, 5, 14))
    delta = FormalMomentSeries.point_mass(Fraction(5, 2), 4)
    via_s = free_mult(mp_m, delta)
    via_kr = free_mult_via_kreweras(mp_m, delta)
    results.append(
        (
            "Kreweras product rule matches S-multiplication on MP x delta",
            via_s.m == via_kr.m,
            f"moments {tuple(map(str, via_s.m))}",
        )
    )
    return results


def suite_mp_chain():
    """The Marchenko-Pastur pipeline end to end."""
    import numpy as np

    from .curves import moments_from_curve, stieltjes_density, support_candidates
    from .families import s_limit_hyper

    results = []
    st = s_limit_hyper(A=(), B=(Fraction(0),))
    results.append(("S(z) = 1/(z+1)", st.series(3) == [1, -1, 1, -1], str(st)))
    curve = st.curve()
    results.append(
        ("curve y^2 - u y + u = 0", curve.coeffs == {(2, 0): 1, (1, 1): -1, (0, 1): 1}, str(curve))
    )
    sup = support_candidates(curve)
    results.append(("support candidates [0, 4]", len(sup) == 2 and abs(sup[0]) < 1e-9 and abs(sup[1] - 4) < 1e-9, str(sup)))
    mom = moments_from_curve(curve, 4)
    oracle = moments_from_cumulants_nc([Fraction(1)] * 4)
    results.append(("moments (1,2,5,14) match NC oracle", list(mom.m) == oracle, str(mom.m)))
    dens = stieltjes_density(curve, [2.0])[0]
    results.append(
        ("density(2) = 1/(2 pi)", abs(dens - 1 / (2 * np.pi)) < 1e-8, f"err {abs(dens - 1/(2*np.pi)):.2e}")
    )
    return results


def suite_endpoints():
    """Closed-form endpoint values at their pinned parameter points."""
    from .families import endpoints

    results = []
    c_half = endpoints("ML1-II-r2", theta=Fraction(1, 2))
    results.append(("ML1-II c*(1/2) = 27/8", c_half == Fraction(27, 8), str(c_half)))
    c_zero = endpoints("ML1-II-r2", theta=0)
    near = float(endpoints("ML1-II-r2", theta=Fraction(1, 100000)))
    results.append(
        ("ML1-II c*(0+) -> 4", c_zero == 4 and abs(near - 4) < 1e-3, f"limit {near}")
    )
    results.append(
        ("JP-II b*(0) = 1", endpoints("JP-II-r2-B", B=0) == 1, "curve-B formula")
    )
    results.append(
        ("JP-II a*(0) = 0", endpoints("JP-II-r2-A", A=0) == 0, "curve-A formula")
    )
    results.append(
        (
            "JP-I c*(1/3) = 2.43 exactly",
            endpoints("JP-I-r2", theta=Fraction(1, 3)) == Fraction(243, 100),
            "support [-c*, 0]",
        )
    )
    return results


SUITES = {
    "identities": suite_identities,
    "cumulants": suite_cumulants,
    "mp-chain": suite_mp_chain,
    "endpoints": suite_endpoints,
}


def run_suite(name, **kwargs):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
