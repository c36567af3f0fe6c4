import hashlib
import math
import random
from fractions import Fraction as F
from functools import lru_cache
from operator import mul

import numpy as np
import pytest

from finfree.curves import (
    AlgebraicCurve,
    _newton_point,
    curve_from_limits,
    curve_shifted,
    mass_branch_moments,
    moments_from_curve,
    newton_series_branch,
    reciprocal_moments_from_curve,
    solve_curve_branch,
    stieltjes_density,
    support_candidates,
    y_discriminant,
)
from finfree.errors import BranchDegenerate, BranchJump
from finfree.families import LimitParams, density_jp_typeI_r2, endpoints, family_curves
from finfree.partitions import moments_from_cumulants_nc


def mp_curve():
    return curve_from_limits(A=[], B=[F(0)])


def test_mp_curve_shape_and_moments():
    curve = mp_curve()
    assert curve.coeffs == {(2, 0): 1, (1, 1): -1, (0, 1): 1}
    mom = moments_from_curve(curve, 6)
    assert list(mom.m) == moments_from_cumulants_nc([F(1)] * 6)


def test_delta_one_curve():
    curve = curve_from_limits(A=[], B=[])
    assert moments_from_curve(curve, 5).m == (1, 1, 1, 1, 1)
    ys = solve_curve_branch(curve, [3.0, 2.0, -4.0, 1j])
    for u, y in zip([3.0, 2.0, -4.0, 1j], ys):
        assert abs(y - u / (u - 1)) < 1e-12


def test_mp_branch_selection():
    # at u = 5 the physical root of y^2 - 5y + 5 is (5 - sqrt 5)/2
    y = solve_curve_branch(mp_curve(), [5.0])[0]
    assert abs(y - (5 - math.sqrt(5)) / 2) < 1e-12


def test_mp_density_closed_form():
    xs = np.linspace(0.1, 3.9, 31)
    dens = stieltjes_density(mp_curve(), xs)
    ref = np.sqrt(xs * (4 - xs)) / (2 * np.pi * xs)
    assert np.max(np.abs(dens - ref)) < 1e-10
    assert abs(stieltjes_density(mp_curve(), [2.0])[0] - 1 / (2 * np.pi)) < 1e-10
    # a real on-axis root outside the support gives exactly zero
    outside = stieltjes_density(mp_curve(), [5.0, -1.0, 4.5])
    assert list(outside) == [0.0, 0.0, 0.0]


def _jp1_third():
    return family_curves("jp1", LimitParams(theta=(F(1, 3), F(2, 3)), i=1)).curve


def test_density_value_does_not_depend_on_its_grid():
    # the first point is reached straight down from above it; a straight line
    # from the far seed at iR to -0.03 + i eps passes the branch point u = 0
    model = density_jp_typeI_r2(F(1, 3))
    for grid in ([-0.03], [-0.1, -0.03], [-2.4, -0.03]):
        assert abs(stieltjes_density(_jp1_third(), grid)[-1] - model(-0.03)) < 1e-10


def test_density_near_the_cube_root_endpoint():
    model = density_jp_typeI_r2(F(1, 3))
    for x in (-1e-4, -1e-6):
        assert abs(stieltjes_density(_jp1_third(), [x])[0] / model(x) - 1) < 1e-8


def test_density_is_exactly_zero_outside_the_support():
    xs = np.linspace(-3.0, -0.05, 60)
    dens = stieltjes_density(_jp1_third(), xs)
    model = density_jp_typeI_r2(F(1, 3))
    assert np.max(np.abs(dens - model(xs))) < 1e-12
    beyond = xs < -float(endpoints("JP-I-r2", theta=F(1, 3)))
    assert beyond.any() and np.all(dens[beyond] == 0.0)


def test_jp2_r3_density_does_not_depend_on_its_grid():
    curve = family_curves("jp2", LimitParams(theta=(F(1, 3),) * 3)).curve
    alone = stieltjes_density(curve, [0.05])[0]
    inside = stieltjes_density(curve, np.linspace(0.0005, 0.05, 200))[-1]
    assert alone > 0 and abs(alone - inside) < 1e-12


def test_jp2_r3_density_integrates_to_the_exact_moments():
    # no closed form beyond r = 2, so the curve's exact moments pin the density;
    # it grows like (1 - x)^(-1/2) toward x = 1, and past the grid's last point
    # x_N that tail integrates to 2 d(x_N) (1 - x_N)
    limit = family_curves("jp2", LimitParams(theta=(F(1, 3),) * 3))
    a, b = 1e-4, 0.999
    xs = np.sort((a + b) / 2 + (b - a) / 2 * np.cos((2 * np.arange(500) + 1) * np.pi / 1000))
    dens = stieltjes_density(limit.curve, xs)
    for k, m in enumerate(limit.moments(2).m, start=1):
        f = xs**k * dens
        integral = np.sum((f[1:] + f[:-1]) * np.diff(xs)) / 2 + 2 * dens[-1] * (1 - xs[-1])
        assert abs(integral - float(m)) < 1e-4


def test_jp2_r3_density_at_a_point_is_its_value_at_the_end_of_a_grid():
    curve = family_curves("jp2", LimitParams(theta=(F(1, 3),) * 3)).curve
    alone = stieltjes_density(curve, [0.9])[0]
    assert abs(alone - stieltjes_density(curve, np.linspace(0.5, 0.9, 50))[-1]) < 1e-12


@pytest.mark.xfail(strict=True, reason="known wrong answer (ROADMAP direction 9(a)): from the grid [0.5, 0.9] "
                                       "the walk lands on the small pair's branch, 0.02801 against 0.87279")
def test_jp2_r3_density_at_a_point_does_not_depend_on_the_points_before_it():
    curve = family_curves("jp2", LimitParams(theta=(F(1, 3),) * 3)).curve
    alone = stieltjes_density(curve, [0.9])[0]
    assert abs(alone - 0.87279) < 1e-5
    assert abs(stieltjes_density(curve, [0.5, 0.9])[1] - alone) < 1e-12


def test_support_candidates_mp():
    sup = support_candidates(mp_curve())
    assert len(sup) == 2 and all(type(u) is float for u in sup)
    assert abs(sup[0]) < 1e-9 and abs(sup[1] - 4) < 1e-9
    disc = y_discriminant(mp_curve())
    # u^2 - 4u up to sign
    assert [c / disc[-1] for c in disc] == [F(0), F(-4), F(1)]


def _upoly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _upoly_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [F(0)] * (n - len(a))
    b = list(b) + [F(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def cofactor_discriminant(curve):
    """Oracle: Res_y(F, F_y) by cofactor expansion of the polynomial Sylvester
    matrix along the first row, as finfree computed it before interpolation.
    Each minor is cached by its column set, which changes no value or length."""
    ny = curve.deg_y
    f = [[F(0)] for _ in range(ny + 1)]  # f[i] = coeff of y^i as u-poly
    for (i, j), c in curve.coeffs.items():
        while len(f[i]) <= j:
            f[i].append(F(0))
        f[i][j] += c
    g = [_upoly_mul([F(i)], f[i]) for i in range(1, ny + 1)]  # dF/dy coeffs
    n, m = ny, ny - 1
    rows = []
    for shift in range(m):
        row = [[F(0)] for _ in range(n + m)]
        for i in range(n + 1):
            row[shift + (n - i)] = f[i]
        rows.append(row)
    for shift in range(n):
        row = [[F(0)] for _ in range(n + m)]
        for i in range(m + 1):
            row[shift + (m - i)] = g[i]
        rows.append(row)

    @lru_cache(maxsize=None)
    def det(cols):  # the minor on rows len(rows) - len(cols).. and columns cols
        top = rows[len(rows) - len(cols)]
        if len(cols) == 1:
            return top[cols[0]]
        out = [F(0)]
        for idx, j in enumerate(cols):
            if all(c == 0 for c in top[j]):
                continue
            term = _upoly_mul(top[j], det(cols[:idx] + cols[idx + 1 :]))
            if idx % 2:
                term = [-c for c in term]
            out = _upoly_add(out, term)
        return out

    return det(tuple(range(len(rows))))


def random_curve(rng, deg_y, deg_u):
    coeffs = {
        (i, j): F(rng.randint(-9, 9), rng.randint(1, 6))
        for i in range(deg_y + 1)
        for j in range(deg_u + 1)
        if rng.random() < 0.6
    }
    coeffs[(deg_y, rng.randint(0, deg_u))] = F(rng.randint(1, 9), rng.randint(1, 5))
    return AlgebraicCurve(coeffs)


def test_y_discriminant_matches_cofactor_oracle_on_random_curves():
    rng = random.Random(20261018)
    shapes = [(dy, du) for dy in range(1, 6) for du in range(4)]
    for t in range(200):
        curve = random_curve(rng, *shapes[t % len(shapes)])
        disc = y_discriminant(curve)
        assert disc == cofactor_discriminant(curve) and all(type(c) is F for c in disc), curve


def limit_params(family, r):
    theta = tuple(F(k + 1, r * (r + 1) // 2) for k in range(r))
    if family.startswith("ml2"):
        return LimitParams(theta=theta, A=(F(1, 2),), c=tuple(F(k + 1) for k in range(r)))
    return LimitParams(theta=theta)


# ml2-1's limit is R-transform pole data: it has no algebraic curve
@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("family", ["jp1", "ml1-1", "jp2", "ml1-2", "ml2-2"])
def test_y_discriminant_matches_cofactor_oracle_on_families(family, r):
    curve = family_curves(family, limit_params(family, r)).curve
    disc = y_discriminant(curve)
    assert disc == cofactor_discriminant(curve)
    assert len(disc) <= (2 * curve.deg_y - 1) * curve.deg_u + 1


def assert_discriminant_zeros(disc, sup):
    for u in sup:
        val = sum(float(c) * u**k for k, c in enumerate(disc))
        scale = sum(abs(float(c)) * abs(u) ** k for k, c in enumerate(disc))
        assert abs(val) <= 1e-6 * scale, u


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("family", ["jp1", "ml1-1", "jp2", "ml1-2", "ml2-2"])
def test_support_candidates_are_distinct_python_floats_at_discriminant_zeros(family, r):
    curve = family_curves(family, limit_params(family, r)).curve
    sup = support_candidates(curve)
    assert sup and sup == sorted(set(sup)) and all(type(u) is float for u in sup), sup
    assert_discriminant_zeros(y_discriminant(curve), sup)


@pytest.mark.parametrize("r", [5, 6])
def test_y_discriminant_beyond_the_cofactor_range(r):
    curve = family_curves("jp2", limit_params("jp2", r)).curve
    disc = y_discriminant(curve)
    assert len(disc) <= (2 * curve.deg_y - 1) * curve.deg_u + 1 and any(disc)
    sup = support_candidates(curve)
    assert sup
    assert_discriminant_zeros(disc, sup)


def test_double_branch_point_reported_once():
    # at theta = (1/4, 3/4) the jp2 discriminant has a double root at u = 1
    curve = family_curves("jp2", LimitParams(theta=(F(1, 4), F(3, 4)))).curve
    disc = y_discriminant(curve)
    assert sum(disc) == 0 and sum(k * c for k, c in enumerate(disc)) == 0
    assert len([u for u in support_candidates(curve) if abs(u - 1) < 1e-9]) == 1


def jp1_cubic():
    # r=2, theta=1/3: y^3 = u (y-1)(y+3)(y-2), the depressed cubic with nu=6
    return curve_from_limits(A=[F(3), F(-2)], B=[F(0), F(0)])


def test_jp1_cubic_shape():
    assert jp1_cubic().coeffs == {(3, 0): 1, (3, 1): -1, (1, 1): 7, (0, 1): -6}


def test_jp1_cubic_matches_closed_cubic_solution():
    # at u = -1 the curve collapses to 2y^3 - 7y + 6 = 0; the physical
    # boundary value is the root with positive imaginary part, and the
    # closed-form density pins Im y / pi
    from finfree.curves import _newton_point

    curve = jp1_cubic()
    seed = solve_curve_branch(curve, [-1.0 + 1e-9j])[0]
    y0 = _newton_point(curve, complex(-1.0), seed)
    roots = np.roots([2, 0, -7, 6])
    target = next(r for r in roots if r.imag > 1e-9)
    assert abs(y0 - target) < 1e-12
    model = density_jp_typeI_r2(F(1, 3))
    assert abs(y0.imag / np.pi - model(-1.0)) < 1e-12


def test_degenerate_branch_raises():
    # diagonal Type I curve: y^3 = u (y-1)^2 (y+2) has no series branch at
    # y(0) = 1 (the conjectured unbounded-support case)
    lhs = {(3, 0): F(1)}
    rhs = {(0, 0): F(1)}
    for fac in ({(1, 0): F(1), (0, 0): F(-1)},) * 2 + ({(1, 0): F(1), (0, 0): F(2)},):
        out = {}
        for (i1, j1), v1 in rhs.items():
            for (i2, j2), v2 in fac.items():
                out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), F(0)) + v1 * v2
        rhs = out
    curve = AlgebraicCurve({**lhs, **{(i, j + 1): -c for (i, j), c in rhs.items()}})
    with pytest.raises(BranchDegenerate):
        moments_from_curve(curve, 3)


def fraction_series_branch(g, y0, K):
    """Oracle: the branch series by per-term Fraction arithmetic, as finfree
    computed it before the integer substitution.  Each y_n solves one linear
    equation with the pivot G_y(y0, 0); powers[i][t] = [v^t] y^i."""
    y0 = F(y0)
    max_i = max(i for i, _ in g)
    terms = [(i, k, c) for (i, k), c in g.items() if k <= K]
    y = [y0]
    powers = [[F(1)] + [F(0)] * K] + [[y0**i] for i in range(1, max_i + 1)]

    def coeff(n):
        return sum(c * powers[i][n - k] for i, k, c in terms if k <= n)

    val = coeff(0)
    der = sum(i * c * powers[i - 1][0] for i, k, c in terms if k == 0 and i >= 1)
    if val != 0 or der == 0:
        raise BranchDegenerate(f"branch not simple at (y={y0}, v=0): G={val}, G_y={der}")
    for n in range(1, K + 1):
        # column n of the table with y_n = 0, then the pivot correction
        y.append(F(0))
        for i in range(1, max_i + 1):
            powers[i].append(sum(map(mul, powers[i - 1][n::-1], y)))
        y[n] = -coeff(n) / der
        for i in range(1, max_i + 1):
            powers[i][n] += i * powers[i - 1][0] * y[n]
    if any(coeff(n) != 0 for n in range(K + 1)):
        raise BranchDegenerate("series branch failed to close the curve equation")
    return y


def random_branch_curve(rng, deg_y, deg_v, y0):
    """G(y, v) as a dict with a simple root at (y0, 0): random rational
    coefficients, then the constant term that puts y0 on the v = 0 slice."""
    g = {
        (i, k): F(rng.randint(-9, 9), rng.randint(1, 6))
        for i in range(deg_y + 1)
        for k in range(deg_v + 1)
        if rng.random() < 0.6
    }
    g[(deg_y, rng.randint(0, deg_v))] = F(rng.randint(1, 9), rng.randint(1, 5))
    if sum(i * c * y0 ** (i - 1) for (i, k), c in g.items() if k == 0 and i) == 0:
        g[(1, 0)] = g.get((1, 0), 0) + 1
    g[(0, 0)] = g.get((0, 0), 0) - sum(c * y0**i for (i, k), c in g.items() if k == 0)
    return {key: c for key, c in g.items() if c}


@pytest.mark.parametrize("y0", [F(1), F(0), F(1, 2), F(-3, 2)], ids=str)
def test_branch_series_matches_fraction_oracle_on_random_curves(y0):
    rng = random.Random(f"branch {y0}")
    for deg_y in range(2, 6):
        for deg_v in (1, 2):
            g = random_branch_curve(rng, deg_y, deg_v, y0)
            for K in (0, 1, 2, 48):
                y = newton_series_branch(g, y0, K)
                assert y == fraction_series_branch(g, y0, K) and all(type(c) is F for c in y), (g, K)


@pytest.mark.parametrize("family", ["jp1", "ml1-1", "jp2", "ml1-2", "ml2-2"])
def test_branch_series_matches_fraction_oracle_on_families(family):
    from finfree.curves import _v_side_coeffs

    for r in (2, 3, 4):
        g = _v_side_coeffs(family_curves(family, limit_params(family, r)).curve)
        assert newton_series_branch(g, 1, 32) == fraction_series_branch(g, 1, 32)


@pytest.mark.parametrize("g, y0, values", [
    ({(1, 0): F(1), (0, 1): F(1)}, 1, "G=1, G_y=1"),  # y + v: y0 = 1 is off the slice
    ({(2, 0): F(1), (1, 0): F(-2), (0, 0): F(1), (0, 1): F(1)}, 1, "G=0, G_y=0"),  # (y - 1)^2 + v
    ({(2, 0): F(4), (1, 0): F(-4), (0, 0): F(1), (0, 1): F(3, 2)}, F(1, 2), "G=0, G_y=0"),
    ({(3, 0): F(2, 3), (0, 0): F(-9, 4), (1, 1): F(1)}, F(-3, 2), "G=-9/2, G_y=9/2"),
])
def test_branch_series_degenerate_modes_raise(g, y0, values):
    for solve in (newton_series_branch, fraction_series_branch):
        with pytest.raises(BranchDegenerate, match=f"v=0\\): {values}$"):
            solve(g, y0, 4)


def test_negative_truncation_order_is_a_value_error():
    with pytest.raises(ValueError, match="K = -2"):
        moments_from_curve(mp_curve(), -2)
    assert moments_from_curve(mp_curve(), 0).m == ()


def test_reciprocal_moments():
    # measure with S = (z+A+1)/(z+B+1): the u=0 branch encodes m_{-k}
    from finfree.families import RationalSTransform

    st = RationalSTransform(A=(F(2),), B=(F(1, 2),))
    rec = reciprocal_moments_from_curve(st.curve(), 4)
    # reversed measure transform: S_rev(w) = 1/S(-w-1) has moments = m_k(mu*)
    rev = st.reversed_measure()
    assert rec == list(rev.moments(4).m)


def _digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


def test_branch_expansions_keep_their_values():
    # values and digests recorded from the full-length series Newton iteration
    from finfree.families import LimitParams, RationalSTransform, family_curves, s_limit_hyper

    escape = s_limit_hyper(A=(F(-1, 2),), B=()).curve()
    m0, ms = mass_branch_moments(escape, F(1, 2), 6)
    assert (m0, ms) == (F(1, 2), [-1, 4, -24, 176, -1440, 12608])
    assert _digest(mass_branch_moments(escape, F(1, 2), 40)[1]) == "ee3ba047aa41d64d"
    jp2 = family_curves("jp2", LimitParams(theta=(F(1, 3),) * 3)).curve
    m0, ms = mass_branch_moments(jp2, 1, 40)
    assert m0 == 1 and _digest(ms) == "d2a82f41525fc548"
    st = RationalSTransform(A=(F(3, 2), F(2, 3)), B=(F(1, 2), F(5, 4)))
    assert reciprocal_moments_from_curve(st.curve(), 6) == [
        F(8, 5),
        F(1568, 375),
        F(515456, 28125),
        F(46048768, 421875),
        F(119156713472, 158203125),
        F(66742366478336, 11865234375),
    ]
    assert _digest(reciprocal_moments_from_curve(st.curve(), 40)) == "d152fbcc6dc0fdbc"


def test_curve_shifted_reduction():
    # d = 0, c = 1 must reduce to w = S(u)
    rel = curve_shifted(A=[F(2)], B=[F(1, 3)], c=1, d=0)
    # rel(w, u) = w (u + 1 + 1/3) - (u + 1 + 2) = 0
    assert rel == {(1, 1): 1, (1, 0): F(4, 3), (0, 1): -1, (0, 0): -3}


def test_curve_shifted_first_moment():
    # shifted argument x -> c x + d pushes the measure forward by
    # t -> (t - d)/c; check 1/S(0) of the relation against that
    from finfree.families import RationalSTransform

    A, B, c, d = (F(2),), (F(1, 3),), F(2), F(3)
    rel = curve_shifted(A, B, c, d)
    # slice u = 0: polynomial in w
    slice0 = {}
    for (i, j), v in rel.items():
        if j == 0:
            slice0[i] = slice0.get(i, F(0)) + v
    m1_tilde = RationalSTransform(A=A, B=B).moments(1).m[0]
    w0 = F(1) / ((m1_tilde - d) / c)  # S(0) = 1/m_1 of the mapped measure
    val = sum(v * w0**i for i, v in slice0.items())
    assert val == 0


def test_branch_jump_detection():
    # a real-axis path entering the support interior has no real branch value
    curve = mp_curve()
    with pytest.raises(BranchJump):
        solve_curve_branch(curve, [5.0, 2.0])


def exact_value_and_dy(curve, y, u):
    f = sum(c * y**i * u**j for (i, j), c in curve.coeffs.items())
    return f, sum(c * i * y ** (i - 1) * u**j for (i, j), c in curve.coeffs.items() if i)


def term_scales(curve, y, u):
    """sum |term| of F and of F_y: the scale of any float evaluation's rounding error."""
    return exact_value_and_dy(AlgebraicCurve({k: abs(c) for k, c in curve.coeffs.items()}), abs(y), abs(u))


def double_sum_value_and_dy(curve, y, u):
    """The generic double sum over the (i, j) terms that Newton evaluated before the Horner pass."""
    terms = [(i, j, float(c)) for (i, j), c in sorted(curve.coeffs.items())]
    return sum(c * y**i * u**j for i, j, c in terms), sum(c * i * y ** (i - 1) * u**j for i, j, c in terms if i >= 1)


class Probe:
    """A float u that carries itself through Newton's arithmetic unchanged and
    records (f, df) at the step f / df: the production pass, observed."""

    def __init__(self, v, seen):
        self.v, self.seen = v, seen

    def _wrap(self, v):
        return Probe(v, self.seen)

    def __add__(self, other):
        return self._wrap(self.v + getattr(other, "v", other))

    def __mul__(self, other):
        return self._wrap(self.v * getattr(other, "v", other))

    __radd__, __rmul__ = __add__, __mul__

    def __eq__(self, other):
        return self.v == getattr(other, "v", other)

    def __truediv__(self, other):
        self.seen.append((self.v, other.v))
        return self.v / other.v


def horner_value_and_dy(curve, y, u):
    seen = []
    _newton_point(curve, Probe(u, seen), y, tol=math.inf, maxiter=1)
    return seen[0]


# dyadic points, so each float (y, u) is exactly the rational one
HORNER_POINTS = [(F(y), F(u)) for y in ("-5/4", "-1/2", "3/8", "7/4", "5/2") for u in ("-3/2", "1/4", "9/8", "3")]


# the five families with a curve (ml2-1 has none) at r = 2, 3, and Marchenko-Pastur
@pytest.mark.parametrize(
    "family, r", [("mp", 1)] + [(f, r) for f in ("jp1", "ml1-1", "jp2", "ml1-2", "ml2-2") for r in (2, 3)]
)
def test_horner_pass_matches_exact_values_and_the_double_sum(family, r):
    # relative to the sum of |terms|, the scale of Horner's rounding error bound:
    # terms cancel at some points (ml1-2 at r = 3, (y, u) = (5/2, 3): F = 1/16)
    curve = mp_curve() if family == "mp" else family_curves(family, limit_params(family, r)).curve
    for y, u in HORNER_POINTS:
        exact = exact_value_and_dy(curve, y, u)
        horner = horner_value_and_dy(curve, float(y), float(u))
        double = double_sum_value_and_dy(curve, float(y), float(u))
        for h, d, e, scale in zip(horner, double, exact, term_scales(curve, y, u)):
            assert abs(h - e) <= 1e-14 * scale and abs(d - e) <= 1e-14 * scale, (curve, y, u)
        assert curve._in_y(float(u)) == pytest.approx(
            [float(sum(c * u**j for (k, j), c in curve.coeffs.items() if k == i)) for i in range(curve.deg_y, -1, -1)],
            rel=1e-15,
        )
