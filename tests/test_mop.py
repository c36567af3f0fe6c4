import random
from fractions import Fraction as F
from math import comb, factorial

import mpmath as mp
import pytest

from finfree.conv import add_conv, mult_conv
from finfree.errors import DuplicateC, InadmissibleDenominator, InvalidParameters
from finfree.families import LimitParams, family_curves
from finfree.hyper import (
    HypergeometricSpec,
    hyper_poly,
    pochhammer_falling,
    pochhammer_rising,
    reversed_product_representation,
)
from finfree.mop import (
    JPSpec,
    ML1Spec,
    ML2Spec,
    add_index,
    jp_condition_weak,
    jp_condition_window,
    jp_typeI,
    jp_typeI_blocks,
    jp_typeI_spec,
    jp_typeII,
    ml1_laguerre_factor,
    ml1_typeI,
    ml1_typeII,
    ml1_typeI_spec,
    ml2_typeI,
    ml2_typeII,
    ml2_typeII_routes,
    theorem_suite_zero_location,
    typeI_function_eval,
    unit_index,
    verify_orthogonality,
)
from finfree.poly import Polynomial
from finfree.roots import find_roots, interlaces, real_parts_sorted
from finfree.series import series_mul

JP = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1))
ML1 = ML1Spec(alpha=(F(1, 2), F(3, 7)))
ML2 = ML2Spec(alpha=F(1, 2), c=(F(1), F(2)))
ML2_R3 = ML2Spec(alpha=F(1, 3), c=(F(1), F(5, 2), F(3)))


def roots_of(p, prec=256):
    return real_parts_sorted(find_roots(p, prec), tau=1e-10)


def test_spec_validation():
    with pytest.raises(InvalidParameters):
        JPSpec(alpha=(F(1, 2), F(3, 2)), beta=F(1))  # integer difference
    with pytest.raises(InvalidParameters):
        JPSpec(alpha=(F(-3, 2),), beta=F(1))
    with pytest.raises(InvalidParameters):
        JPSpec(alpha=(F(1, 2),), beta=F(-2))
    with pytest.raises(DuplicateC):
        ML2Spec(alpha=F(1, 2), c=(F(1), F(1)))
    with pytest.raises(DuplicateC):
        ML2Spec(alpha=F(1, 2), c=(F(-1), F(2)))


def test_jp_typeI_r1_reduction():
    # r=1 is the classical 2F1 Jacobi shape: 2F1(-(n-1), a+b+n; a+1; x)
    spec = JPSpec(alpha=(F(1, 2),), beta=F(1))
    assert jp_typeI(spec, (3,), 1) == hyper_poly(
        HypergeometricSpec(n=2, a=(F(9, 2),), b=(F(3, 2),))
    )


def test_jp_typeI_decomposition():
    n = (3, 4)
    P = jp_typeI(JP, n, 1)
    blocks = jp_typeI_blocks(JP, n, 1)
    acc = hyper_poly(blocks[0])
    for b in blocks[1:]:
        acc = mult_conv(acc, hyper_poly(b), n[0] - 1)
    assert P.proportional_to(acc) is not None
    # degree n_i - 1 = 0: a constant polynomial
    assert jp_typeI(JP, (1, 3), 1).degree == 0


@pytest.mark.parametrize("family", ["jp1", "ml1-1"])
def test_typeI_limit_is_the_growth_of_the_finite_parameters(family):
    # along alpha = m A + delta, beta = m B, n = m theta the Type I parameters are
    # affine in m; their slope over theta_i is the limit's A and B (as multisets)
    theta, A, B = (F(1, 6), F(1, 3), F(1, 2)), (F(2), F(1, 2), F(5, 3)), F(3, 4)
    delta = (F(1, 7), F(2, 5), F(3, 11))

    def params(m, i):
        alpha, n = tuple(m * a + d for a, d in zip(A, delta)), tuple(int(m * t) for t in theta)
        spec = jp_typeI_spec(JPSpec(alpha, m * B), n, i) if family == "jp1" else ml1_typeI_spec(ML1Spec(alpha), n, i)
        return spec.a, spec.b

    for i in (1, 2, 3):
        (a1, b1), (a2, b2) = params(12, i), params(24, i)
        st = family_curves(family, LimitParams(theta=theta, A=A, B=B, i=i)).s_transform
        assert sorted((y - x) / 12 / theta[i - 1] for x, y in zip(a1, a2)) == sorted(st.A)
        assert sorted((y - x) / 12 / theta[i - 1] for x, y in zip(b1, b2)) == sorted(st.B)


def _jp_reversed_product(spec, n):
    """The paper's reversed-product representation of jp Type II; beta outside {0, 1}."""
    N = sum(n)
    return reversed_product_representation(
        HypergeometricSpec(n=N, b=(-spec.beta - N + 1,)),
        HypergeometricSpec(
            n=N,
            a=tuple(-N - a for a in spec.alpha),
            b=(spec.beta + 1, *(-N - nj - a for a, nj in zip(spec.alpha, n))),
        ),
    ).reverse().monicized()


def _jp_divided(spec, n):
    """Integer beta: (1-x)^beta divided out of the degree |n| + beta hypergeometric polynomial."""
    N, beta = sum(n), int(spec.beta)
    big = hyper_poly(
        HypergeometricSpec(
            n=N + beta,
            a=tuple(a + nj + 1 for a, nj in zip(spec.alpha, n)),
            b=tuple(a + 1 for a in spec.alpha),
        )
    )
    for _ in range(beta):
        big = _divide_linear(big, 1)
    return big.monicized()


def _divide_linear(p, root):
    """The quotient of p by (x - root), by synthetic division; the remainder must vanish."""
    q, acc = [], F(0)
    for c in reversed(p.to_monomial()):
        acc = acc * root + c
        q.append(acc)
    assert q.pop() == 0
    return Polynomial.from_monomial(q[::-1], p.n - 1)


def _non_integer_alphas(rng, r):
    """r values alpha_j > -1 with no integer among them or their differences; an integer
    alpha_j = 0 with n_j = 0 would make the reversed product inadmissible."""
    out = []
    while len(out) < r:
        a = F(rng.randint(-4, 20), rng.choice((2, 3, 5, 7)))
        if a > -1 and a.denominator > 1 and all((a - b).denominator > 1 for b in out):
            out.append(a)
    return tuple(out)


JP_TYPEII_CASES = [
    (JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(2)), (2, 2)),
    (JPSpec(alpha=(F(2, 3), F(1, 5)), beta=F(3)), (3, 2)),
    (JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1, 2)), (3, 0)),
    (JPSpec(alpha=(F(1, 3), F(5, 2), F(-1, 5)), beta=F(-2, 3)), (0, 2, 3)),
    (JPSpec(alpha=(F(1, 2),), beta=F(0)), (4,)),
    (JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1)), (0, 0)),
    (JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(5, 2)), (0, 0)),
]


def test_jp_typeII_matches_the_reversed_product_and_the_division_form():
    # the monic Type II polynomial is unique: the one Rodrigues route must
    # reproduce the paper's reversed product (beta outside {0, 1}) and the
    # division of (1-x)^beta out of a degree |n| + beta pFq (integer beta)
    rng = random.Random(2026)
    draws = []
    for _ in range(30):
        r = rng.randint(1, 3)
        beta = rng.choice((F(0), F(1), F(2), F(3), F(1, 2), F(-1, 3), F(5, 2), F(7, 3), F(-2, 3)))
        draws.append((JPSpec(alpha=_non_integer_alphas(rng, r), beta=beta), tuple(rng.randint(0, 4) for _ in range(r))))
    compared = {"reversed": 0, "divided": 0}
    for spec, n in JP_TYPEII_CASES + draws:
        P = jp_typeII(spec, n)
        assert P.e[0] == 1 and P.degree == sum(n)
        if spec.beta not in (0, 1):
            assert P.e == _jp_reversed_product(spec, n).e, (spec, n)
            compared["reversed"] += 1
        if spec.beta in (0, 1, 2, 3):
            assert P.e == _jp_divided(spec, n).e, (spec, n)
            compared["divided"] += 1
    assert min(compared.values()) >= 10


def test_jp_typeII_admits_a_zero_index_on_alpha_zero():
    # alpha_j = 0 with n_j = 0 puts the reversed product's denominator
    # parameter -|n| - n_j - alpha_j in -Z_{|n|+1}; the Rodrigues route needs
    # only beta > -1
    for beta, n in ((F(1, 2), (5, 0)), (F(-1, 3), (2, 0)), (F(2), (3, 0))):
        spec = JPSpec(alpha=(F(7, 5), F(0)), beta=beta)
        with pytest.raises(InadmissibleDenominator):
            _jp_reversed_product(spec, n)
        assert verify_orthogonality("jp", spec, n, "II")["max_residual"] == 0.0
    spec = JPSpec(alpha=(F(7, 5), F(0)), beta=F(2))
    assert jp_typeII(spec, (3, 0)) == _jp_divided(spec, (3, 0))


def test_ml1_typeII_matches_its_rodrigues_series():
    # e^x prod_j x^(-alpha_j) D^(n_j) x^(alpha_j + n_j) e^(-x)
    #   = e^x rF_r(alpha_j + n_j + 1; alpha_j + 1; -x), a polynomial of degree |n|;
    # the last 8 draws put alpha_j = 0 with n_j = 0 on their last weight
    rng = random.Random(41)
    for draw in range(32):
        r = draw % 3 + 1
        spec = ML1Spec(alpha=_non_integer_alphas(rng, r))
        n = tuple(rng.randint(0, 5) for _ in range(r))
        if draw >= 24:
            spec = ML1Spec(alpha=spec.alpha[:-1] + (F(0),))
            n = n[:-1] + (0,)
        N = sum(n)
        terms = []
        for k in range(N + 1):
            t = F((-1) ** k, factorial(k))
            for a, nj in zip(spec.alpha, n):
                t *= pochhammer_rising(a + nj + 1, k) / pochhammer_rising(a + 1, k)
            terms.append(t)
        exp = [F(1, factorial(k)) for k in range(N + 1)]
        rodrigues = Polynomial.from_monomial(series_mul(exp, terms, N), N).monicized()
        assert ml1_typeII(spec, n).e == rodrigues.e, (spec, n)


def test_ml1_typeII_drops_a_weight_with_a_zero_index():
    # a weight with n_j = 0 imposes no condition: the polynomial is the one of
    # the reduced system, also when alpha_j = 0 (the reversed product's
    # denominator parameter -|n| - n_j - alpha_j would sit in -Z_{|n|+1})
    assert ml1_typeII(ML1Spec(alpha=(F(7, 5), F(0))), (3, 0)) == ml1_typeII(ML1Spec(alpha=(F(7, 5),)), (3,))
    spec = ML1Spec(alpha=(F(1, 3), F(0), F(1, 2)))
    assert ml1_typeII(spec, (2, 0, 3)) == ml1_typeII(ML1Spec(alpha=(F(1, 3), F(1, 2))), (2, 3))
    assert verify_orthogonality("ml1", spec, (2, 0, 3), "II")["max_residual"] == 0.0


def test_jp_typeII_is_monic_full_degree():
    P = jp_typeII(JP, (2, 2))
    assert P.e[0] == 1 and P.degree == 4


def test_orthogonality_all_six_families_small():
    # every residual is a ratio of exact moments, so a correct constructor
    # reads exactly 0, far inside the oracle's 1e-25 gate
    cases = [
        ("jp", JP, (2, 2), "I"),
        ("jp", JP, (2, 2), "II"),
        ("ml1", ML1, (2, 2), "I"),
        ("ml1", ML1, (2, 2), "II"),
        ("ml2", ML2, (2, 2), "I"),
        ("ml2", ML2, (2, 1), "II"),
        # summing Gamma-laden float constants lost these to cancellation
        ("jp", JP, (20, 20), "I"),
        ("jp", JP, (30, 30), "I"),
        ("ml1", ML1, (30, 30), "I"),
    ]
    for family, spec, n, type_ in cases:
        rep = verify_orthogonality(family, spec, n, type_, prec=256)
        assert rep["max_residual"] == 0.0, (family, n, type_, rep["max_residual"])


def test_ml2_three_weights_exact():
    # r = 3: the closed form gives every lambda_j exactly; residuals are exact too
    spec = ML2Spec(alpha=F(1, 3), c=(F(1), F(2), F(3)))
    rep = verify_orthogonality("ml2", spec, (2, 2, 2), "I", prec=256)
    assert rep["max_residual"] == 0.0
    assert rep["normalization"] == 1 and all(c != 0 for c in rep["constants"])
    rep = verify_orthogonality("ml2", spec, (2, 1, 2), "II", prec=256)
    assert rep["max_residual"] == 0.0


def _perturbed(poly):
    e = list(poly.e)
    e[1] += F(1, 10**6)
    return Polynomial(poly.n, e)


def test_oracle_reports_a_wrong_polynomial(monkeypatch):
    # one coefficient off by 1e-6 must show far above the 1e-25 gate
    import finfree.mop as mop

    true_II, true_I = mop.jp_typeII, mop.jp_typeI
    monkeypatch.setattr(mop, "jp_typeII", lambda *a, **k: _perturbed(true_II(*a, **k)))
    monkeypatch.setattr(mop, "jp_typeI", lambda *a, **k: _perturbed(true_I(*a, **k)))
    assert verify_orthogonality("jp", JP, (2, 2), "II", prec=256)["max_residual"] >= 1e-25
    assert verify_orthogonality("jp", JP, (2, 2), "I", prec=256)["max_residual"] >= 1e-25


@pytest.mark.parametrize("spec,n", [(ML2, (2, 2)), (ML2Spec(alpha=F(1, 3), c=(F(1), F(2), F(3))), (2, 2, 2))])
def test_oracle_reports_a_wrong_ml2_typeI(monkeypatch, spec, n):
    # every condition k <= |n| - 2 is checked: no lambda is solved from them
    import finfree.mop as mop

    true_I = mop.ml2_typeI
    monkeypatch.setattr(mop, "ml2_typeI", lambda *a, **k: _perturbed(true_I(*a, **k)))
    assert verify_orthogonality("ml2", spec, n, "I", prec=256)["max_residual"] >= 1e-25


def test_typeI_normalization_is_unit():
    # with the exact constants lambda_j = c_j C_j the defining moment integral is 1
    # ml2 includes n_j in {0, 1} for j != i, where the paper's (+)-chain has no admissible block
    cases = [("jp", JP, (2, 2)), ("ml1", ML1, (2, 2)), ("ml2", ML2, (2, 2)), ("ml2", ML2, (3, 3)),
             ("ml2", ML2, (4, 2)), ("ml2", ML2_R3, (2, 2, 2)), ("ml2", ML2_R3, (2, 3, 2)),
             ("ml2", ML2, (3, 1)), ("ml2", ML2, (1, 4)), ("ml2", ML2, (3, 0)), ("ml2", ML2_R3, (1, 1, 1)),
             ("ml2", ML2_R3, (2, 1, 3)), ("ml2", ML2_R3, (0, 2, 1))]
    for family, spec, n in cases:
        rep = verify_orthogonality(family, spec, n, "I", prec=256)
        assert rep["normalization"] == 1 and rep["max_residual"] == 0.0, (family, n)


def _typeII_identity_lambda(family, spec, n, i, A):
    """lambda_i = c_i C_i from the Type I / Type II biorthogonality.

    With P the monic Type II polynomial of index n - e_i and Q_n normalized by
    int x^{|n|-1} Q_n = 1, int P Q_n = 1.  Against P every term of Q_n but
    c_i lc(A_i) x^{n_i-1} w_i integrates to 0, so lambda_i = 1 / (lc(A_i)
    R_P(n_i - 1)), A = A_i.
    """
    import finfree.mop as mop

    ni = n[i - 1]
    P = mop.constructor(family, "II")(spec, tuple(a - b for a, b in zip(n, unit_index(spec.r, i))))
    return 1 / (A.to_monomial()[ni - 1] * mop._moment_rows(P, mop.KINDS[family].weight(spec, i - 1), ni)[-1])


@pytest.mark.parametrize("family,spec,n", [
    ("jp", JP, (2, 2)), ("jp", JP, (3, 4)), ("jp", JPSpec(alpha=(F(2, 5), F(1, 3), F(1, 4)), beta=F(1, 2)), (2, 3, 2)),
    ("ml1", ML1, (2, 2)), ("ml1", ML1, (5, 3)), ("ml1", ML1Spec(alpha=(F(1, 2), F(1, 3), F(1, 5))), (2, 3, 2)),
    ("ml2", ML2, (2, 2)), ("ml2", ML2, (5, 3)), ("ml2", ML2, (3, 1)), ("ml2", ML2, (1, 1)),
    ("ml2", ML2Spec(alpha=F(0), c=(F(1, 2), F(7, 3))), (4, 6)), ("ml2", ML2Spec(alpha=F(-2, 3), c=(F(3),)), (5,)),
    ("ml2", ML2_R3, (2, 2, 2)), ("ml2", ML2_R3, (1, 1, 1)), ("ml2", ML2_R3, (2, 1, 3)),
])
def test_typeII_identity_reproduces_the_closed_form_lambdas(family, spec, n):
    # int P_{n-e_j} Q_n = 1 gives lambda_j from the Type II polynomial; for every
    # kind it must equal the closed form exactly
    import finfree.mop as mop

    polys, lam = mop._type1_components(family, spec, n)
    assert [_typeII_identity_lambda(family, spec, n, i, A) for i, A in enumerate(polys, 1)] == lam


def test_ml2_lambdas_are_the_normalized_calibration():
    # lambda from the identity equals the solution q of the first r-1 conditions
    # (q_r = 1), scaled so that the normalization moment is 1
    import finfree.mop as mop

    spec, n = ML2Spec(alpha=F(1, 2), c=(F(1), F(2))), (3, 2)
    polys, lam = mop._type1_components("ml2", spec, n)
    rows = [mop._moment_rows(p, mop.KINDS["ml2"].weight(spec, j), sum(n)) for j, p in enumerate(polys)]
    q = [-rows[1][0] / rows[0][0], F(1)]
    norm = sum(qj * row[-1] for qj, row in zip(q, rows))
    assert lam == [qj / norm for qj in q]


def test_jp_typeII_classical_orthogonality_r1():
    spec = JPSpec(alpha=(F(1, 2),), beta=F(0))
    rep = verify_orthogonality("jp", spec, (4,), "II", prec=256)
    assert rep["max_residual"] < 1e-25


def test_jp_typeII_half_beta_orthogonality():
    spec = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1, 2))
    rep = verify_orthogonality("jp", spec, (2, 2), "II", prec=256)
    assert rep["max_residual"] < 1e-25


def test_ml1_bridge_to_jp():
    n = (3, 3)
    v = hyper_poly(ml1_laguerre_factor(JP, n, 1))
    lhs = mult_conv(v, jp_typeI(JP, n, 1), n[0] - 1)
    assert lhs.proportional_to(ml1_typeI(ML1, n, 1)) is not None


def test_ml1_typeII_r1_is_laguerre():
    L = ml1_typeII(ML1Spec(alpha=(F(1, 3),)), (3,))
    assert L.e[0] == 1 and L.degree == 3
    assert all(r > 0 for r in roots_of(L))


def bounded_compositions(total, bounds):
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


def ml2_direct(spec, n):
    """The explicit double sum over bounded compositions, unnormalized:
    e_k = falling(alpha + N, k) sum_{|k| = k} prod_j C(n_j, k_j) / c_j^k_j."""
    N = sum(n)
    e = []
    for k in range(N + 1):
        s = F(0)
        for ks in bounded_compositions(k, n):
            term = F(1)
            for nj, kj, cj in zip(n, ks, spec.c):
                term *= F(comb(nj, kj), 1) / cj**kj
            s += term
        e.append(pochhammer_falling(N + spec.alpha, k) * s)
    return Polynomial(N, e)


def test_ml2_typeII_three_routes_exact():
    f, l = ml2_typeII_routes(ML2, (2, 2))
    assert ml2_direct(ML2, (2, 2)) == f == l
    spec = ML2Spec(alpha=F(2, 5), c=(F(1, 2), F(3)))
    f, l = ml2_typeII_routes(spec, (3, 2))
    assert ml2_direct(spec, (3, 2)) == f == l


def test_ml2_typeII_generating_function_matches_direct_route():
    cases = [
        (ML2, (2, 2)),
        (ML2Spec(alpha=F(2, 5), c=(F(1, 2), F(3))), (3, 2)),
        (ML2Spec(alpha=F(-1, 2), c=(F(7, 3),)), (5,)),
        (ML2Spec(alpha=F(9, 4), c=(F(1, 3), F(5, 2), F(4))), (4, 0, 6)),
        (ML2Spec(alpha=F(0), c=(F(3, 2), F(2, 7))), (11, 9)),
    ]
    for spec, n in cases:
        direct = ml2_direct(spec, n).monicized()
        got = ml2_typeII(spec, n)
        assert got == direct and got.to_json() == direct.to_json()


def test_ml2_typeI_kdf_representation():
    # mode-"one" KdF data reproduces the additive decomposition
    from finfree.hyper import KdFSpec, kdf_poly

    n, i, N = (3, 3), 1, 6
    di = ML2.c[0] / (ML2.c[0] - ML2.c[1])
    kspec = KdFSpec(
        n=n[0] - 1,
        a0=(),
        b0=(ML2.alpha + 1 + N - n[0],),
        groups=(((), ()), ((F(n[1]),), ())),
        c=(ML2.c[0], di),
    )
    assert kdf_poly(kspec, "one").proportional_to(ml2_typeI(ML2, n, 1)) is not None


def test_ml2_typeI_r1_reduction():
    # single block: 1F1(-(n_1 - 1); alpha + 1; c_1 x)
    spec = ML2Spec(alpha=F(1, 2), c=(F(3),))
    out = ml2_typeI(spec, (4,), 1)
    assert out == hyper_poly(HypergeometricSpec(n=3, b=(F(3, 2),), scale=F(3)))
    # n_j = 1 for j != i has no additive block, but the component exists
    rep = verify_orthogonality("ml2", ML2, (3, 1), "I")
    assert rep["max_residual"] == 0.0 and rep["normalization"] == 1


def _ml2_additive_decomposition(spec, n, i):
    """The paper's form of ml2 Type I: the (+)_{n_i - 1}-convolution over j of
    1F1(-(n_i - 1); alpha + 1 + |n| - n_i; c_i x) (j = i) and
    1F1(-(n_i - 1); 2 - n_j - n_i; (c_i - c_j) x) (j != i, needs n_j >= 2)."""
    N, m, ci = sum(n), n[i - 1] - 1, spec.c[i - 1]
    out = hyper_poly(HypergeometricSpec(n=m, b=(spec.alpha + 1 + N - n[i - 1],), scale=ci))
    for j, (cj, nj) in enumerate(zip(spec.c, n)):
        if j != i - 1:
            out = add_conv(out, hyper_poly(HypergeometricSpec(n=m, b=(F(2 - nj - n[i - 1]),), scale=ci - cj)), m)
    return out


def test_ml2_typeI_matches_the_additive_decomposition():
    # the generating-function product is the (+)-chain coefficient for coefficient
    rng = random.Random(16)
    rates = (F(1), F(2), F(3), F(1, 2), F(5, 2), F(7, 3), F(2, 5))
    cases = []
    for draw in range(45):
        r = draw % 3 + 1
        alpha = F(rng.randint(0, 9)) if draw % 2 else F(rng.randint(-1, 40), rng.choice((2, 3, 5)))
        spec = ML2Spec(alpha=alpha, c=rng.sample(rates, r))
        cases.append((spec, tuple(rng.randint(2, 8) for _ in range(r)), rng.randint(1, r)))
    # the benchmark's exact pool at (60, 60)
    for alpha, c in ((F(2, 3), (1, 2)), (F(1, 3), (1, 2)), (F(1, 3), (2, 3)), (F(1, 4), (1, 3))):
        cases += [(ML2Spec(alpha=alpha, c=c), (60, 60), i) for i in (1, 2)]
    for spec, n, i in cases:
        assert ml2_typeI(spec, n, i).e == _ml2_additive_decomposition(spec, n, i).e, (spec, n, i)


@pytest.mark.parametrize("family,spec,n", [
    ("jp", JP, (4, 0)), ("ml1", ML1, (3, 0)), ("ml2", ML2, (0, 3)),
    ("jp", JPSpec(alpha=(F(2, 5), F(1, 3), F(1, 4)), beta=F(1, 2)), (2, 0, 3)),
])
def test_typeI_oracle_admits_a_zero_index(family, spec, n):
    # A_{n,j} = 0 when n_j = 0: the component is the zero polynomial and its
    # constant is reported as 0
    rep = verify_orthogonality(family, spec, n, "I")
    assert rep["max_residual"] == 0.0 and rep["normalization"] == 1
    assert [c == 0 for c in rep["constants"]] == [nj == 0 for nj in n]
    vals, consts = typeI_function_eval(family, spec, n, [0.3])
    assert [c == 0 for c in consts] == [nj == 0 for nj in n] and mp.isfinite(vals[0])


def test_typeI_oracle_needs_a_positive_total_index():
    with pytest.raises(InvalidParameters, match=r"\|n\| >= 1"):
        verify_orthogonality("jp", JP, (0, 0), "I")


def test_typeI_function_sign_changes():
    # AT property: Q_n has exactly |n| - 1 sign changes inside (0, 1)
    xs = [k / 400 for k in range(1, 400)]
    vals, consts = typeI_function_eval("jp", JP, (2, 2), xs)
    signs = [mp.sign(v) for v in vals]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 3
    assert all(c != 0 for c in consts)


def test_condition_window():
    assert jp_condition_window(JP, (3, 4), 1)
    # a wide alpha gap breaks the window
    wide = JPSpec(alpha=(F(9, 2), F(3, 7)), beta=F(1))
    assert not jp_condition_window(wide, (3, 4), 2)
    assert jp_condition_weak(JP, (3, 4), 1)


def test_zero_location_suite():
    rep = theorem_suite_zero_location("jp", JP, (3, 4), 1)
    assert rep["hypothesis"] and rep["claim_checked"]
    assert rep["zeros_in_delta_r"]  # r = 2: negative half-line
    assert all(x < 0 for x in rep["roots"])
    assert rep["derivative_shift"]
    rep = theorem_suite_zero_location("ml1", ML1, (3, 4), 1)
    assert rep["hypothesis"] and rep["zeros_in_delta_r"] and rep["derivative_shift"]
    # violated hypothesis: report only, no claim
    wide = JPSpec(alpha=(F(9, 2), F(3, 7)), beta=F(1))
    rep = theorem_suite_zero_location("jp", wide, (3, 4), 2)
    assert not rep["hypothesis"] and not rep["claim_checked"]


def test_zero_location_suite_rejects_kinds_without_a_derivative_relation():
    with pytest.raises(InvalidParameters, match="covers kinds jp, ml1"):
        theorem_suite_zero_location("ml2", ML2, (3, 3), 1)


def test_zero_location_r3_odd():
    spec = JPSpec(alpha=(F(2, 5), F(1, 3), F(1, 4)), beta=F(1))
    rep = theorem_suite_zero_location("jp", spec, (2, 3, 3), 1)
    assert rep["hypothesis"] and rep["zeros_in_delta_r"]
    assert all(x > 0 for x in rep["roots"])  # r = 3: positive half-line


def test_interlacing_examples():
    t = F(3, 2)
    n, i = (4, 5), 1
    P0 = jp_typeI(JP, n, i)
    Pat = jp_typeI(JPSpec(alpha=(F(1, 2) + t, F(3, 7) + t), beta=F(1)), n, i)
    Pbt = jp_typeI(JPSpec(alpha=JP.alpha, beta=F(1) + t), n, i)
    assert interlaces(roots_of(Pat), roots_of(P0), 1e-20)  # r even: alpha+t <= base
    assert interlaces(roots_of(P0), roots_of(Pbt), 1e-20)
    n = (3, 3)
    P = jp_typeII(JP, n)
    Pp = jp_typeII(JP, add_index(n, unit_index(2, 1)))
    Pt = jp_typeII(JPSpec(alpha=(F(1, 2) + t, F(3, 7)), beta=F(1)), n)
    assert interlaces(roots_of(Pp), roots_of(P), 1e-20)
    assert interlaces(roots_of(P), roots_of(Pt), 1e-20)
    M0 = ml2_typeII(ML2, (3, 3))
    Mt = ml2_typeII(ML2Spec(alpha=F(1, 2) + 1, c=ML2.c), (3, 3))
    assert interlaces(roots_of(M0), roots_of(Mt), 1e-20)


def test_jp_typeI_decomposition_r3():
    spec = JPSpec(alpha=(F(2, 5), F(1, 3), F(1, 4)), beta=F(1))
    n = (3, 3, 3)
    P = jp_typeI(spec, n, 2)
    blocks = jp_typeI_blocks(spec, n, 2)
    acc = hyper_poly(blocks[0])
    for b in blocks[1:]:
        acc = mult_conv(acc, hyper_poly(b), n[1] - 1)
    assert P.proportional_to(acc) is not None


def test_ml2_typeII_routes_r3():
    spec = ML2Spec(alpha=F(1, 3), c=(F(1), F(2), F(7, 2)))
    f, l = ml2_typeII_routes(spec, (2, 2, 2))
    assert ml2_direct(spec, (2, 2, 2)) == f == l


# -- arity of the multi-index ---------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: jp_typeII(JPSpec(alpha=(F(1, 2), F(1, 3)), beta=0), (2, 2, 2)),  # 3 indices, 2 weights
        lambda: ml1_typeII(ML1, (4,)),
        lambda: ml2_typeII(ML2, (2, -1)),  # negative index
        lambda: jp_typeI(JP, (2,), 1),
        lambda: ml1_typeI(ML1, (2, 2), 3),  # i beyond r: was an IndexError
        lambda: ml1_typeI(ML1, (2, 2), 0),
        lambda: jp_typeI(JP, (0, 2), 1),  # Type I component of degree -1
        lambda: ml2_typeI(ML2Spec(alpha=F(1, 2), c=()), (2, 2), 1),  # no c: r = 0
    ],
)
def test_constructors_reject_a_multi_index_of_the_wrong_shape(build):
    with pytest.raises(InvalidParameters):
        build()


def test_oracle_rejects_more_indices_than_weights():
    # zipping 2 weights with 3 indices used to report max_residual == 0.0
    spec = JPSpec(alpha=(F(1, 2), F(1, 3)), beta=0)
    for type_ in ("I", "II"):
        with pytest.raises(InvalidParameters):
            verify_orthogonality("jp", spec, (2, 2, 2), type_, prec=128)


def test_kind_table_rejects_unknown_kinds():
    from finfree.errors import UnknownFamily
    from finfree.mop import constructor

    with pytest.raises(UnknownFamily):
        verify_orthogonality("jp1", JP, (2, 2), "II")
    with pytest.raises(UnknownFamily):
        constructor("laguerre", "I")
    assert constructor("ml2", "II") is ml2_typeII


@pytest.mark.parametrize("type_", ["2", "ii", "i", "III", ""])
def test_unknown_types_are_rejected(type_):
    from finfree.mop import constructor

    with pytest.raises(InvalidParameters, match="type must be 'I' or 'II'"):
        verify_orthogonality("jp", JP, (2, 2), type_)
    with pytest.raises(InvalidParameters, match="type must be 'I' or 'II'"):
        constructor("jp", type_)


def test_zero_location_suite_checks_the_index_first():
    # i = 3 with two weights used to end in an IndexError
    with pytest.raises(InvalidParameters, match="1 <= i <= 2"):
        theorem_suite_zero_location("jp", JP, (3, 3), 3)
    with pytest.raises(InvalidParameters):
        theorem_suite_zero_location("jp", JP, (0, 3), 1)
