from fractions import Fraction as F

import mpmath as mp
import pytest

from finfree.conv import mult_conv
from finfree.errors import DuplicateC, InvalidParameters, NonIntegerBetaPath
from finfree.hyper import HypergeometricSpec, hyper_poly
from finfree.mop import (
    JPSpec,
    ML1Spec,
    ML2Spec,
    add_index,
    jp_condition_weak,
    jp_condition_window,
    jp_typeI,
    jp_typeI_blocks,
    jp_typeII,
    ml1_laguerre_factor,
    ml1_typeI,
    ml1_typeII,
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

JP = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1))
ML1 = ML1Spec(alpha=(F(1, 2), F(3, 7)))
ML2 = ML2Spec(alpha=F(1, 2), c=(F(1), F(2)))


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


def test_jp_typeII_paths_agree():
    spec = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(2))
    assert jp_typeII(spec, (2, 2), path="integer") == jp_typeII(spec, (2, 2), path="reversed")
    spec = JPSpec(alpha=(F(2, 3), F(1, 5)), beta=F(3))
    assert jp_typeII(spec, (3, 2), path="integer") == jp_typeII(spec, (3, 2), path="reversed")
    with pytest.raises(NonIntegerBetaPath):
        jp_typeII(JPSpec(alpha=(F(1, 2),), beta=F(1, 2)), (2,), path="integer")


def test_jp_typeII_is_monic_full_degree():
    P = jp_typeII(JP, (2, 2))
    assert P.monic and P.degree == 4


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


def test_ml2_three_weights_calibrated_exactly():
    # r = 3 exercises the 2 x 2 exact calibration; residuals are then exact too
    spec = ML2Spec(alpha=F(1, 3), c=(F(1), F(2), F(3)))
    rep = verify_orthogonality("ml2", spec, (2, 2, 2), "I", prec=256)
    assert rep["max_residual"] == 0.0
    assert rep["constants"][-1] == 1 and all(c != 0 for c in rep["constants"])
    assert abs(rep["normalization"]) > 1e-10
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


def test_typeI_normalization_is_unit():
    # with the exact constants lambda_j = c_j C_j the defining moment integral is 1
    for family, spec in (("jp", JP), ("ml1", ML1)):
        rep = verify_orthogonality(family, spec, (2, 2), "I", prec=256)
        assert rep["normalization"] == 1


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
    assert L.monic and L.degree == 3
    assert all(r > 0 for r in roots_of(L))


def test_ml2_typeII_three_routes_exact():
    d, f, l = ml2_typeII_routes(ML2, (2, 2))
    assert d == f == l
    d, f, l = ml2_typeII_routes(ML2Spec(alpha=F(2, 5), c=(F(1, 2), F(3))), (3, 2))
    assert d == f == l


def test_ml2_typeII_generating_function_matches_direct_route():
    cases = [
        (ML2, (2, 2)),
        (ML2Spec(alpha=F(2, 5), c=(F(1, 2), F(3))), (3, 2)),
        (ML2Spec(alpha=F(-1, 2), c=(F(7, 3),)), (5,)),
        (ML2Spec(alpha=F(9, 4), c=(F(1, 3), F(5, 2), F(4))), (4, 0, 6)),
        (ML2Spec(alpha=F(0), c=(F(3, 2), F(2, 7))), (11, 9)),
    ]
    for spec, n in cases:
        direct = ml2_typeII_routes(spec, n)[0].monicized()
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
    with pytest.raises(InvalidParameters):
        ml2_typeI(ML2, (3, 1), 1)  # n_j = 1 for j != i is inadmissible


def test_typeI_function_sign_changes():
    # AT property: Q_n has exactly |n| - 1 sign changes inside (0, 1)
    xs = [k / 400 for k in range(1, 400)]
    vals, consts = typeI_function_eval("jp", JP, (2, 2), xs, prec=128)
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
    d, f, l = ml2_typeII_routes(spec, (2, 2, 2))
    assert d == f == l
