import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from finfree import families
from finfree.curves import (
    AlgebraicCurve,
    _v_side_coeffs,
    mass_branch_moments,
    moments_from_curve,
    reciprocal_moments_from_curve,
    stieltjes_density,
)
from finfree.errors import (
    BranchDegenerate,
    DuplicateC,
    InvalidParameters,
    ThetaOutOfRange,
    UnknownFamily,
    VanishingFirstMoment,
)
from finfree.families import (
    FamilyLimit,
    LimitParams,
    RationalSTransform,
    _gauss_legendre,
    _legendre_rule,
    _shift_product,
    density_jp_typeI_r2,
    density_jp_typeII_r2,
    endpoints,
    family_curves,
    jp1_cdf,
    jp1_mass,
    jp2_cdf,
    jp2_mass,
    s_limit_hyper,
)
from finfree.mop import ML2Spec
from finfree.series import FormalMomentSeries, s_coefficients, series_mul


def rational_s_equal(s1: RationalSTransform, s2: RationalSTransform) -> bool:
    """Equality as rational functions (cross-multiplied polynomial identity)."""
    K = len(s1.A) + len(s1.B) + len(s2.A) + len(s2.B) + 2
    lhs = [s1.scale * c for c in series_mul(_shift_product(s1.A, K), _shift_product(s2.B, K), K)]
    rhs = [s2.scale * c for c in series_mul(_shift_product(s2.A, K), _shift_product(s1.B, K), K)]
    return lhs == rhs


def s_reverse_check(st: RationalSTransform, K: int = 6) -> bool:
    """Verify S(z) S_rev(-z-1) = 1 to order K against reciprocal moments.

    Route 1: solve the identity for S_rev and expand it at 0.
    Route 2: read the reciprocal moments m_{-k} off the u = 0 branch of the
    Cauchy curve (independent of route 1) and bridge them to an S series.
    Both expansions must agree exactly.  Needs all A_i != 0 (S_rev expandable
    at 0) and all B_j != 0 (0 outside the support of mu).
    """
    if any(a == 0 for a in st.A) or any(b == 0 for b in st.B):
        raise VanishingFirstMoment("identity check needs A_i != 0 and B_j != 0")
    candidate = st.reversed_measure().series(K - 1)
    rec = reciprocal_moments_from_curve(st.curve(), K)
    if rec[0] == 0:
        raise VanishingFirstMoment("reciprocal measure has vanishing first moment")
    via_moments = s_coefficients(FormalMomentSeries(tuple(rec)).truncated(K - 1))
    return candidate[: K - 1] == via_moments


def branch_mass_candidates(curve: AlgebraicCurve):
    """Possible values of y at u = infinity: the total masses of branches.

    The physical probability branch has mass 1; in flagged escape-to-infinity
    regimes (a numerator limit inside (-1, 0)) the surviving branch carries
    mass |A| < 1, which shows up here as another real slice root.
    """
    slice0 = {i: c for (i, k), c in _v_side_coeffs(curve).items() if k == 0}
    coeffs = [float(slice0.get(i, 0)) for i in range(max(slice0), -1, -1)]
    roots = np.roots(np.trim_zeros(np.array(coeffs), "f"))
    return sorted({round(r.real, 12) for r in roots if abs(r.imag) < 1e-9})


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


def test_rational_s_transform_call():
    st = RationalSTransform(A=(F(1, 2),), B=(F(0), F(2)))
    # S(z) = (z + 3/2) / ((z + 1)(z + 3))
    assert st(1) == F(5, 16) and st(F(1)) == F(5, 16)
    value = st(1.0)
    assert isinstance(value, float) and value == pytest.approx(5 / 16)


def test_family_limit_moments_from_its_s_transform_alone():
    st = RationalSTransform(A=(F(1, 2),), B=(F(0), F(2)))
    assert FamilyLimit(family="jp1", s_transform=st).moments(6) == st.moments(6)


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


@pytest.mark.parametrize("c", [(F(1), F(1)), (F(0), F(2)), (F(-1), F(2))])
@pytest.mark.parametrize("family", ["ml2-1", "ml2-2"])
def test_family_curves_apply_the_ml2_rate_rule(family, c):
    # the limit takes the rates of ML2Spec: c_j > 0 and pairwise distinct
    params = LimitParams(theta=(F(1, 2), F(1, 2)), c=c, i=1)
    with pytest.raises(DuplicateC):
        family_curves(family, params)
    with pytest.raises(DuplicateC):
        ML2Spec(alpha=F(0), c=c)


@pytest.mark.parametrize("family", ["jp1", "jp2", "ml1-1", "ml1-2", "ml2-1", "ml2-2"])
def test_family_curves_reject_an_empty_theta(family):
    with pytest.raises(InvalidParameters, match="at least one theta_j"):
        family_curves(family, LimitParams())


@pytest.mark.parametrize("family", ["jp1", "jp2"])
def test_jacobi_pineiro_limits_need_a_nonnegative_beta_rate(family):
    # beta = B |n| + O(1) must stay above -1; jp2 divided by 1 + B = 0 at B = -1
    theta = (F(1, 2), F(1, 2))
    for B in (F(-1), F(-1, 2)):
        with pytest.raises(InvalidParameters, match="B >= 0"):
            family_curves(family, LimitParams(theta=theta, B=B, i=1))
    assert family_curves(family, LimitParams(theta=theta, B=F(0), i=1)).curve is not None


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
    assert endpoints("JP-I-r2", theta=F(1, 3)) == F(243, 100)
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


def test_jp1_cdf_and_mass_reject_the_unbounded_diagonal():
    # theta = 1/2 has support (-inf, 0]: no c*, so no edge substitution
    for call in (lambda: jp1_mass(F(1, 2)), lambda: jp1_cdf(F(1, 2), -1e9), lambda: jp1_cdf(F(1, 2), -1e300)):
        with pytest.raises(ThetaOutOfRange, match="unbounded"):
            call()
    with pytest.raises(ThetaOutOfRange):
        endpoints("JP-I-r2", theta=F(1, 2))


def test_jp1_cstar_is_one_over_kappa_minus_one():
    # the density's old edge 1/(kappa - 1), kappa = 4/27 (1+nu)^3/nu^2, nu = (1/t)(1/t - 1)
    for q in range(3, 40):
        for p in range(1, (q + 1) // 2):
            t = F(p, q)
            nu = (1 / t) * (1 / t - 1)
            kappa = F(4, 27) * (1 + nu) ** 3 / nu**2
            assert endpoints("JP-I-r2", theta=t) == 1 / (kappa - 1)


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


_PIN_THETAS = (F(1, 5), F(2, 7), F(1, 4), F(1, 3), F(2, 5))


def test_gauss_legendre_is_the_shared_96_point_rule():
    # exact for P_j P_k with j + k <= 191; P_96 vanishes at the 96 nodes
    P = np.polynomial.legendre.Legendre.basis
    for j, k in ((0, 0), (3, 5), (95, 95), (95, 96)):
        got = _gauss_legendre(lambda x: P(j)(x) * P(k)(x), -1.0, 1.0)
        assert got == pytest.approx(2 / (2 * j + 1) if j == k else 0.0, abs=1e-13), (j, k)
    assert _gauss_legendre(lambda x: P(96)(x) ** 2, -1.0, 1.0) == pytest.approx(0.0, abs=1e-13)
    assert _gauss_legendre(lambda x: x**5, 0.0, 3.0) == pytest.approx(3**6 / 6, rel=1e-14)
    x, w = _legendre_rule()
    assert len(x) == len(w) == 96 and _legendre_rule()[0] is x
    assert not (x.flags.writeable or w.flags.writeable)
    xr, wr = np.polynomial.legendre.leggauss(96)
    assert x.tobytes() == xr.tobytes() and w.tobytes() == wr.tobytes()


def test_jp_cdfs_and_masses_import_no_numpy_polynomial():
    # the rule is data: the first call in a process pays no leggauss
    src = str(Path(families.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; from fractions import Fraction as F; "
        "from finfree.families import jp1_cdf, jp1_mass, jp2_cdf, jp2_mass; "
        "jp1_cdf(F(1, 3), -0.1); jp2_cdf(F(1, 2), 0.3); jp1_mass(F(1, 3)); jp2_mass(F(1, 3)); "
        "assert 'numpy.polynomial' not in sys.modules"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_closed_form_cdfs_and_masses_keep_their_bytes():
    # SHA-256 of the float hex of both CDFs (past both ends of the support too)
    # and all masses; any change in the quadrature or the densities shows here
    vals = []
    for th in _PIN_THETAS:
        cstar = float(endpoints("jp1-r2", theta=th))
        vals += [jp1_cdf(th, x) for x in np.linspace(-1.1 * cstar, 0.1, 53)]
    for th in _PIN_THETAS + (F(1, 2),):
        vals += [jp2_cdf(th, x) for x in np.linspace(-0.1, 1.1, 53)]
    vals += [jp1_mass(th) for th in _PIN_THETAS] + [jp2_mass(th) for th in _PIN_THETAS + (F(1, 2),)]
    digest = hashlib.sha256("\n".join(float(v).hex() for v in vals).encode()).hexdigest()
    assert digest == "4c0c7a5f1decab78c33071e24fdd18a2d45102c00829e77968b1b795cab32ea4"


def test_cdf_arrays_read_the_scalar_bits():
    # the pinned grid above in one call per law: each entry is the scalar read, to the bit
    for th in _PIN_THETAS:
        xs = np.linspace(-1.1 * float(endpoints("jp1-r2", theta=th)), 0.1, 53)
        assert [v.hex() for v in jp1_cdf(th, xs).tolist()] == [jp1_cdf(th, x).hex() for x in xs]
    for th in _PIN_THETAS + (F(1, 2),):
        xs = np.linspace(-0.1, 1.1, 53)
        assert [v.hex() for v in jp2_cdf(th, xs).tolist()] == [jp2_cdf(th, x).hex() for x in xs]
    # an array keeps its shape, a 0-d one reads as a point
    assert jp2_cdf(F(1, 3), np.full((2, 3), 0.3)).shape == (2, 3)
    assert type(jp1_cdf(F(1, 3), np.array(-0.5))) is float


def test_closed_form_cdfs_and_masses_are_python_floats():
    # one x per branch: past the support, near zero, near the edge, at the edge
    th = F(1, 3)
    cstar = float(endpoints("jp1-r2", theta=th))
    vals = [jp1_cdf(th, x) for x in (0.5, 0.0, -0.1 * cstar, -0.9 * cstar, -cstar, -2.0 * cstar)]
    vals += [jp2_cdf(th, x) for x in (-0.1, 0.0, 0.3, 0.9, 1.0, 1.5)]
    vals += [jp1_mass(th), jp2_mass(th)]
    assert [type(v) for v in vals] == [float] * len(vals)


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
    st = s_limit_hyper(A=(F(-1, 2),), B=())
    assert any("A in [-1,0)" in f for f in st.flags)
    cands = branch_mass_candidates(st.curve())
    assert any(abs(c - 0.5) < 1e-9 for c in cands)
    m0, _ = mass_branch_moments(st.curve(), F(1, 2), 2)
    assert m0 == F(1, 2)
    # regular transforms have the single unit-mass branch
    assert branch_mass_candidates(s_limit_hyper(A=(), B=(F(0),)).curve()) == [1.0]
