import random
from fractions import Fraction as F

import numpy as np
import pytest

from finfree.curves import moments_from_curve, stieltjes_density
from finfree.errors import BranchDegenerate, ThetaOutOfRange, UnknownFamily, VanishingFirstMoment
from finfree.families import (
    LimitParams,
    RationalSTransform,
    density_jp_typeI_r2,
    density_jp_typeII_r2,
    endpoints,
    family_curves,
    jp1_cdf,
    jp1_mass,
    jp2_cdf,
    jp2_mass,
    rational_s_equal,
    s_limit_hyper,
    s_reverse_check,
)


def test_s_limit_basic_shapes():
    assert s_limit_hyper().series(2) == [1, 0, 0]  # s = t = 0: delta_1
    st = s_limit_hyper(A=(), B=(F(0),))
    assert st.series(3) == [1, -1, 1, -1]  # 1/(z+1), Marchenko-Pastur
    st = s_limit_hyper(A=(F(0),), B=())
    assert st.series(2) == [1, 1, 0]  # z + 1


def test_degeneracy_flags():
    st = s_limit_hyper(A=(F(-1, 2),), B=(F(-1),))
    assert any("A in [-1,0)" in f for f in st.flags)
    assert any("B=-1" in f for f in st.flags)
    st = s_limit_hyper(A=(F(2),), B=(F(2),))
    assert any(f.startswith("A=B") for f in st.flags)
    # degenerate transforms are still emitted with usable series
    assert len(st.series(3)) == 4


def test_moments_s_route_equals_curve_route():
    rng = random.Random(61)
    for _ in range(8):
        A = tuple(rng.randint(1, 4) + F(1, 3) for _ in range(rng.randint(0, 2)))
        B = tuple(rng.randint(0, 3) + F(1, 7) for _ in range(rng.randint(0, 2)))
        st = RationalSTransform(A=A, B=B)
        assert st.moments(6).m == moments_from_curve(st.curve(), 6).m


def test_scaled_transform_is_dilation():
    base = RationalSTransform(A=(), B=(F(0),))
    scaled = RationalSTransform(A=(), B=(F(0),), scale=F(1, 3))
    # S_mu / 3 corresponds to dilating mu by 3: m_k -> 3^k m_k
    assert scaled.moments(4).m == tuple(F(3) ** k * m for k, m in enumerate(base.moments(4).m, 1))
    assert moments_from_curve(scaled.curve(), 4).m == scaled.moments(4).m


def test_family_jp1_figure_cubic():
    lim = family_curves("jp1", LimitParams(theta=(F(1, 3), F(2, 3)), i=1))
    assert lim.s_transform.A == (F(3), F(-2))
    assert lim.s_transform.B == (F(0), F(0))
    assert lim.curve.coeffs == {(3, 0): 1, (3, 1): -1, (1, 1): 7, (0, 1): -6}
    assert lim.moments(1).m[0] == F(-1, 4)
    assert not lim.flags


def test_family_jp1_diagonal_degenerate():
    lim = family_curves("jp1", LimitParams(theta=(F(1, 2), F(1, 2)), i=1))
    assert lim.flags  # the diagonal case is flagged, not rejected
    with pytest.raises(BranchDegenerate):
        lim.moments(2)
    with pytest.raises(VanishingFirstMoment):
        lim.s_transform.moments(2)


def test_family_jp_l_bridge():
    # limit transform of ML1 Type I = (JP Type I transform) x (Laguerre factor)
    lp = LimitParams(theta=(F(1, 3), F(2, 3)), i=1)
    jp1 = family_curves("jp1", lp)
    ml11 = family_curves("ml1-1", lp)
    laguerre = RationalSTransform(A=(), B=(F(3),))  # 1/(z + frak a_i + 1)
    assert rational_s_equal(ml11.s_transform, jp1.s_transform.multiply(laguerre))


def test_family_ml1_2_marchenko_pastur():
    lim = family_curves("ml1-2", LimitParams(theta=(F(1),)))
    assert lim.curve.coeffs == {(2, 0): 1, (1, 1): -1, (0, 1): 1}
    assert lim.moments(4).m == (1, 2, 5, 14)


def test_family_ml2_2_free_poisson():
    lim = family_curves("ml2-2", LimitParams(theta=(F(1),), c=(F(1),), A=(F(0),)))
    assert lim.moments(4).m == (1, 2, 5, 14)
    # cross-check against the plain hypergeometric limit
    assert lim.moments(4).m == s_limit_hyper(A=(), B=(F(0),)).moments(4).m


def test_family_ml2_1_k_transform():
    lim = family_curves(
        "ml2-1", LimitParams(theta=(F(1, 2), F(1, 2)), c=(F(1), F(2)), A=(F(0),), i=1)
    )
    # R(y) = 2/(1-y) + 1/(1+y): cumulants 2 + (-1)^(m-1)
    assert lim.cumulants(4) == [3, 1, 3, 1]
    m = lim.moments(2).m
    assert m[0] == 3 and m[1] == 10


def test_family_jp2_moment_scale():
    # with a beta growth limit B, curve moments belong to the delta_0 mixture
    lim0 = family_curves("jp2", LimitParams(theta=(F(1, 2), F(1, 2))))
    limB = family_curves("jp2", LimitParams(theta=(F(1, 2), F(1, 2)), B=F(1)))
    assert lim0.moment_scale == 1 and limB.moment_scale == 2
    assert limB.moments(1).m[0] == 2 * moments_from_curve(limB.curve, 1).m[0]


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        family_curves("nope", LimitParams(theta=(F(1),)))


def test_endpoints():
    assert endpoints("JP-I-r2", theta=F(1, 3)) == F(243, 100)
    assert abs(endpoints("ML1-I-r2", theta=F(1, 3)) - 10.392304845413264) < 1e-12
    assert endpoints("JP-II-r2-A", A=0) == 0
    assert endpoints("JP-II-r2-A", A=1) == F(32, 375)  # 1^3 * 2 / ((5/2)^3 (3/2))
    assert endpoints("JP-II-r2-B", B=0) == 1
    assert endpoints("ML1-II-r2", theta=F(1, 2)) == F(27, 8)
    assert endpoints("ML1-II-r2", theta=0) == 4
    with pytest.raises(ThetaOutOfRange):
        endpoints("JP-I-r2", theta=F(3, 4))
    with pytest.raises(UnknownFamily):
        endpoints("XX", theta=1)


def test_density_jp1():
    model = density_jp_typeI_r2(F(1, 3))
    assert model.support == (-2.43, 0.0)
    assert model.constants["cstar"] == F(243, 100)
    assert abs(jp1_mass(F(1, 3)) - 1) < 1e-10
    # x -> 0- law: density * x^(2/3) -> sqrt(3) nu^(1/3) / (2 pi)
    target = np.sqrt(3) * 6 ** (1 / 3) / (2 * np.pi)
    x = 1e-7
    assert abs(model(-x) * x ** (2 / 3) - target) < 4e-3 * target  # O(x^(1/3)) approach
    with pytest.raises(ThetaOutOfRange):
        density_jp_typeI_r2(F(2, 3))


def test_density_jp1_diagonal_limit_form():
    model = density_jp_typeI_r2(F(1, 2))
    assert model.support[0] == -np.inf
    # x -> 0- law: sqrt(3) / (pi (2x)^(2/3))
    x = 1e-8
    assert abs(model(-x) * (2 * x) ** (2 / 3) - np.sqrt(3) / np.pi) < 1e-3


def test_density_jp2():
    for th in (F(1, 3), F(1, 2)):
        assert abs(jp2_mass(th) - 1) < 1e-10
    model = density_jp_typeII_r2(F(1, 3))
    x = 1e-8
    t0 = np.sqrt(3) * (float(F(1, 3) * F(2, 3))) ** (1 / 3) / (2 * np.pi)
    assert abs(model(x) * x ** (2 / 3) - t0) < 3e-3 * t0
    w = 1e-10
    t1 = np.sqrt(1 - float(F(1, 3) * F(2, 3))) / np.pi
    assert abs(model(1 - w) * np.sqrt(w) - t1) < 3e-3 * t1
    # theta = 1/2 reduces to the diagonal closed form
    diag = density_jp_typeII_r2(F(1, 2))
    xs = np.linspace(0.05, 0.95, 11)
    ref = (
        np.sqrt(3)
        / (4 * np.pi)
        * (np.cbrt(1 + np.sqrt(1 - xs)) + np.cbrt(1 - np.sqrt(1 - xs)))
        / (np.cbrt(xs**2) * np.sqrt(1 - xs))
    )
    assert np.max(np.abs(diag(xs) - ref)) < 1e-14


def test_cdfs_monotone_and_normalized():
    grid = np.linspace(-2.42, -0.001, 25)
    vals = [jp1_cdf(F(1, 3), x) for x in grid]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    # the x^(-2/3) law leaves visible mass between -0.001 and 0
    assert 0.8 < vals[-1] < 1.0
    assert abs(jp1_cdf(F(1, 3), 0.0) - 1) < 1e-10
    assert abs(jp1_cdf(F(1, 3), -2.43) - 0) < 1e-10
    assert abs(jp2_cdf(F(1, 3), 1.0) - 1) < 1e-10
    assert jp2_cdf(F(1, 3), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_cached_cdfs_equal_the_uncached_computation(monkeypatch):
    import finfree.families as fam

    def table():
        return [fam.jp1_cdf(F(1, 3), x) for x in np.linspace(-2.43, 0.0, 13)] + [
            fam.jp2_cdf(th, x) for th in (F(1, 3), F(1, 2)) for x in np.linspace(0.0, 1.0, 13)
        ]

    cached = table()
    for name in ("density_jp_typeI_r2", "density_jp_typeII_r2", "jp2_mass"):
        monkeypatch.setattr(fam, name, getattr(fam, name).__wrapped__)
    assert cached == table()


def test_stieltjes_matches_closed_forms():
    lim = family_curves("jp1", LimitParams(theta=(F(1, 3), F(2, 3)), i=1))
    model = density_jp_typeI_r2(F(1, 3))
    xs = np.linspace(-2.4, -0.05, 20)
    assert np.max(np.abs(stieltjes_density(lim.curve, xs) - model(xs))) < 1e-10
    for th in (F(1, 3), F(1, 2)):
        lim = family_curves("jp2", LimitParams(theta=(th, 1 - th)))
        model = density_jp_typeII_r2(th)
        xs = np.linspace(0.02, 0.98, 20)
        assert np.max(np.abs(stieltjes_density(lim.curve, xs) - model(xs))) < 1e-10


def test_s_reverse_check():
    # 2F0-type at A=2: S_rev(w) = 1/(2 - w)
    st = RationalSTransform(A=(F(2),), B=())
    assert st.reversed_measure().series(3) == [F(1, 2), F(1, 4), F(1, 8), F(1, 16)]
    assert s_reverse_check(st, 6)
    rng = random.Random(62)
    for _ in range(6):
        A = tuple(rng.randint(1, 4) + F(1, 3) for _ in range(rng.randint(0, 2)))
        B = tuple(rng.randint(1, 3) + F(1, 7) for _ in range(rng.randint(0, 2)))
        assert s_reverse_check(RationalSTransform(A=A, B=B), 6)
    with pytest.raises(VanishingFirstMoment):
        s_reverse_check(RationalSTransform(A=(F(0),), B=(F(1),)), 4)


def test_reversed_measure_involution():
    st = RationalSTransform(A=(F(3, 2),), B=(F(1, 3), F(5, 2)))
    assert rational_s_equal(st.reversed_measure().reversed_measure(), st)


def test_escape_regime_mass_reporting():
    # a numerator limit inside (-1, 0) is flagged; the curve still reports the
    # surviving branch and its sub-unit mass |A|
    from finfree.curves import branch_mass_candidates, mass_branch_moments

    st = s_limit_hyper(A=(F(-1, 2),), B=())
    assert any("A in [-1,0)" in f for f in st.flags)
    cands = branch_mass_candidates(st.curve())
    assert any(abs(c - 0.5) < 1e-9 for c in cands)
    m0, _ = mass_branch_moments(st.curve(), F(1, 2), 2)
    assert m0 == F(1, 2)
    # regular transforms have the single unit-mass branch
    assert branch_mass_candidates(s_limit_hyper(A=(), B=(F(0),)).curve()) == [1.0]
