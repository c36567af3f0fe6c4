"""Algebraic Cauchy-transform curves: series moments, branches, densities.

A curve is a bivariate polynomial relation F(y, u) = 0 satisfied by
y = u * G(u), where G is the Cauchy transform of a limit measure.  The
physical branch is the one with y -> 1 as u -> infinity (G ~ 1/u).  Three
consumers share it:

* moments_from_curve     -- expand y = 1 + m_1/u + m_2/u^2 + ... formally;
* solve_curve_branch     -- numeric continuation of the branch over a grid;
* stieltjes_density      -- the on-axis root y0(x) reached from y(x + i eps)
                            and the Sokhotski-Plemelj density -Im y0/(pi x).

All numerics go through one Newton solve on F(., u) as a polynomial in y:
its coefficients a_i(u) are computed once per point (Horner in u), and each
iterate is one Horner pass in y that gives F and F_y together.

`newton_series_branch` expands a branch in integers: after the Taylor shift
to the root, cleared denominators and u = c Z, v = c^2 w (c the pivot), the
equation has integer coefficients and Z_n = y_n c^(2n - 1) is an integer.

Branch points are zeros of the y-discriminant Res_y(F, F_y), a polynomial in
u of degree <= (2 deg_y - 1) deg_u.  `y_discriminant` computes it exactly by
evaluation at integer u, fraction-free (Bareiss) determinants of the integer
Sylvester matrix, and Newton interpolation; `support_candidates` takes the
real roots of its square-free part.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, lcm
from operator import mul

import numpy as np

from .errors import BranchDegenerate, BranchJump, NegativeDensity, ZeroScale
from .poly import _as_coeff
from .series import FormalMomentSeries


class AlgebraicCurve:
    """F(y, u) = sum coeffs[(i, j)] y^i u^j; each coefficient is read by `poly._as_coeff`, zeros dropped."""

    def __init__(self, coeffs):
        self.coeffs = {k: c for k, v in coeffs.items() if (c := _as_coeff(v))}
        if not self.coeffs:
            raise ValueError("zero curve")
        self.deg_y = max(i for i, _ in self.coeffs)
        self.deg_u = max(j for _, j in self.coeffs)
        self._disc = None  # y_discriminant's coefficients, built by its first call
        # float rows: y^deg_y down to y^0, each from u^deg_u down to u^0
        self._rows = [
            [float(self.coeffs.get((i, j), 0)) for j in range(self.deg_u, -1, -1)] for i in range(self.deg_y, -1, -1)
        ]

    def _in_y(self, u):
        """Coefficients a_i(u) = sum_j c_ij u^j of F(., u), y^deg_y first, by Horner in u."""
        out = []
        for row in self._rows:
            a = row[0]
            for c in row[1:]:
                a = a * u + c
            out.append(a)
        return out

    def __repr__(self):
        return f"AlgebraicCurve({dict(sorted(self.coeffs.items()))})"


# -- bivariate polynomial helpers (dict {(i, j): Fraction}) ---------------------


def biv_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return out


def biv_mul(a, b):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + v1 * v2
    return out


def biv_scale(a, c):
    c = _as_coeff(c)
    return {k: c * v for k, v in a.items()}


def curve_from_limits(A, B) -> AlgebraicCurve:
    """y * prod(y + B_j) - u (y - 1) * prod(y + A_i) = 0."""
    lhs = {(1, 0): Fraction(1)}
    for bj in B:
        lhs = biv_mul(lhs, {(1, 0): Fraction(1), (0, 0): _as_coeff(bj)})
    rhs = {(1, 1): Fraction(1), (0, 1): Fraction(-1)}  # u (y - 1)
    for ai in A:
        rhs = biv_mul(rhs, {(1, 0): Fraction(1), (0, 0): _as_coeff(ai)})
    return AlgebraicCurve(biv_add(lhs, biv_scale(rhs, -1)))


def curve_shifted(A, B, c, d):
    """Implicit S-transform relation for the affinely mapped argument.

    Returns the bivariate polynomial P(w, u) = 0 satisfied by w = S(u) when
    the hypergeometric argument is mapped x -> c x + d:

        w prod_j [d u w + c(u+1+B_j)] = c^(t-s) (d w + c) prod_i [d u w + c(u+1+A_i)].

    Encoded as {(i, j): coeff} with i the power of w and j the power of u.
    A public paper formula: no limit builder uses it; the tests check it
    against the plain relation and the first moment.
    """
    c, d = _as_coeff(c), _as_coeff(d)
    if c == 0:
        raise ZeroScale("affine scale c must be nonzero")
    s, t = len(A), len(B)

    def bracket(const):
        # d u w + c(u + 1 + const) in variables (w, u)
        return {
            (1, 1): d,
            (0, 1): c,
            (0, 0): c * (1 + _as_coeff(const)),
        }

    lhs = {(1, 0): Fraction(1)}
    for bj in B:
        lhs = biv_mul(lhs, bracket(bj))
    rhs = {(1, 0): d, (0, 0): c}
    for ai in A:
        rhs = biv_mul(rhs, bracket(ai))
    rhs = biv_scale(rhs, c ** (t - s))
    out = biv_add(lhs, biv_scale(rhs, -1))
    return {k: v for k, v in out.items() if v != 0}


# -- formal moments from the physical branch -------------------------------------


def _v_side_coeffs(curve: AlgebraicCurve):
    """Substitute u = 1/v, clear v powers, strip the overall v-content.

    Returns a dict {(i, k): coeff} for G(y, v) = sum coeff y^i v^k with the
    physical point at (y, v) = (1, 0).
    """
    d = curve.deg_u
    g = {(i, d - j): c for (i, j), c in curve.coeffs.items()}
    shift = min(k for _, k in g)
    return {(i, k - shift): c for (i, k), c in g.items()}


def newton_series_branch(g, y0, K):
    """Series y(v) = y0 + y_1 v + ... + y_K v^K solving G(y, v) = 0, G a dict.

    G = sum g[(i, k)] y^i v^k, each value (and y0) read by `poly._as_coeff`,
    must have a simple root at (y0, 0).  With y0 = a/b, L the lcm of G's
    denominators and D = deg_y G, the shifted
    H(u, v) = b^D L G(y0 + u, v) = sum h_jk u^j v^k is integral, h_00 = 0 and
    the pivot c = h_10 is nonzero.  Under u = c Z, v = c^2 w, H = 0 reads
    Z = -sum h_jk c^(j + 2k - 2) Z^j w^k over j + 2k >= 2: every exponent is
    >= 0 and, as Z(0) = 0, [w^n] of the right side needs only Z_1..Z_(n-1), so
    each Z_n is an integer.  The power table powers[j][t] = [w^t] Z^j grows one
    column per order, and y_n = Z_n / c^(2n - 1) is the only division.
    """
    if K < 0:
        raise ValueError(f"truncation order K must be >= 0, got K = {K}")
    y0 = _as_coeff(y0)
    a, b = y0.as_integer_ratio()
    D = max(i for i, _ in g)
    g = {ik: _as_coeff(v) for ik, v in g.items()}
    L = reduce(lcm, (v.denominator for v in g.values()))
    h = {}
    for (i, k), v in g.items():  # L g_ik b^(D - i) (a + b u)^i, binomially
        for j in range(i + 1):
            h[j, k] = h.get((j, k), 0) + int(L * v) * comb(i, j) * a ** (i - j) * b ** (D - i + j)
    h00, c = h.get((0, 0), 0), h.get((1, 0), 0)
    if h00 != 0 or c == 0:
        G, G_y = Fraction(h00, b**D * L), Fraction(c, b**D * L)
        raise BranchDegenerate(f"branch not simple at (y={y0}, v=0): G={G}, G_y={G_y}")
    terms = [(j, k, -v * c ** (j + 2 * k - 2)) for (j, k), v in h.items() if v and k <= K and j + 2 * k >= 2]
    Z = [0]
    powers = [[1] + [0] * K, Z] + [[0] for _ in range(D - 1)]

    def rhs(n):
        return sum(v * powers[j][n - k] for j, k, v in terms if k <= n)

    for n in range(1, K + 1):
        Z.append(0)  # column n of Z^j, j >= 2, needs only Z_1..Z_(n-1)
        for j in range(2, D + 1):
            powers[j].append(sum(map(mul, powers[j - 1][n - 1 : 0 : -1], Z[1:n])))
        Z[n] = rhs(n)
    if any(Z[n] != rhs(n) for n in range(K + 1)):
        raise BranchDegenerate("series branch failed to close the curve equation")
    return [y0] + [Fraction(Z[n], c ** (2 * n - 1)) for n in range(1, K + 1)]


def moments_from_curve(curve: AlgebraicCurve, K: int) -> FormalMomentSeries:
    """m_1..m_K from F(y, u) = 0 with y = 1 + m_1/u + m_2/u^2 + ...

    Expands the physical branch at infinity (v = 1/u); raises
    BranchDegenerate unless y = 1 is a simple root of the v = 0 slice.
    """
    y = newton_series_branch(_v_side_coeffs(curve), 1, K)
    return FormalMomentSeries(tuple(y[1 : K + 1]))


def mass_branch_moments(curve: AlgebraicCurve, y0, K: int):
    """Moment expansion of the branch with y -> y0 at infinity (mass y0)."""
    y = newton_series_branch(_v_side_coeffs(curve), y0, K)
    return y[0], y[1 : K + 1]


def reciprocal_moments_from_curve(curve: AlgebraicCurve, K: int):
    """Moments of the reciprocal-root measure: m_k(mu*) = m_{-k}(mu).

    Expands the branch of y = u G(u) vanishing at u = 0, which exists and is
    simple exactly when 0 is outside the support; then
    y(u) = -sum_{k>=1} m_{-k} u^k.
    """
    g = dict(curve.coeffs)  # already in (y, u) powers; expand around u = 0
    y = newton_series_branch(g, 0, K)
    return [-c for c in y[1 : K + 1]]


# -- numeric branch tracking -------------------------------------------------------


def _newton_point(curve, u, y0, tol=1e-13, maxiter=60):
    """Newton on F(., u) from y0: a_i(u) once, then one Horner pass per iterate
    gives F and F_y together (df <- df y + f before f <- f y + a_i)."""
    lead, *rest = curve._in_y(u)
    y = complex(y0)
    for _ in range(maxiter):
        f, df = lead, 0
        for c in rest:
            df = df * y + f
            f = f * y + c
        if df == 0:
            return None
        step = f / df
        y -= step
        if abs(step) <= tol * (1 + abs(y)):
            return y
    return None


def _continue_to(curve, u_from, y_from, u_to):
    """Walk the branch from (u_from, y_from) to u_to with adaptive steps."""
    u_cur, y_cur = complex(u_from), complex(y_from)
    u_to = complex(u_to)
    frac = 1.0
    while u_cur != u_to:
        u_next = u_to if frac >= 1.0 else u_cur + frac * (u_to - u_cur)
        y_next = _newton_point(curve, u_next, y_cur)
        if y_next is None or abs(y_next - y_cur) > 0.5 * (1 + abs(y_cur)):
            frac /= 2
            if frac < 1e-12:
                raise BranchJump(f"continuation stalled near u={u_next}")
            continue
        u_cur, y_cur = u_next, y_next
        frac = min(1.0, frac * 2)
    return y_cur


def _far_start(curve, x0, u_scale):
    """A reliable far-field seed on the physical branch, straight above x0."""
    R = 64.0 * max(1.0, u_scale)
    try:
        m1 = float(moments_from_curve(curve, 1).m[0])
    except BranchDegenerate:
        m1 = 0.0
    for radius in (R, 4 * R, 16 * R, 256 * R):
        u0 = complex(x0, radius)
        y0 = _newton_point(curve, u0, 1.0 + m1 / u0)
        if y0 is not None and abs(y0 - 1.0) < 0.5:
            return u0, y0
    raise BranchJump("could not seed the physical branch at infinity")


def solve_curve_branch(curve: AlgebraicCurve, u_grid):
    """Physical-branch values y(u) along a grid, by homotopy continuation.

    The first point u0 is reached straight down from a far-field seed with
    y ~ 1 at Re u0 + iR, halving the height to Im u0 (to 1e-6 for a real u0):
    the branch is analytic in the upper half-plane, so no cut is crossed.
    The rest of the grid is followed in the given order.  Raises BranchJump
    when continuation cannot cross a discriminant neighborhood.
    """
    u_grid = [complex(u) for u in u_grid]
    if not u_grid:
        return []
    first = u_grid[0]
    u_cur, y_cur = _far_start(curve, first.real, max(abs(u) for u in u_grid))
    while u_cur.imag / 2 > max(first.imag, 1e-6):
        u_next = complex(first.real, u_cur.imag / 2)
        y_cur = _continue_to(curve, u_cur, y_cur, u_next)
        u_cur = u_next
    out = []
    for u in u_grid:
        y_cur = _continue_to(curve, u_cur, y_cur, u)
        u_cur = u
        out.append(y_cur)
    return out


_EPS = 5e-4  # height of the continuation that seeds stieltjes_density's on-axis roots


def stieltjes_density(curve: AlgebraicCurve, xs):
    """Density of the limit measure on a real grid via Sokhotski-Plemelj.

    density(x) = -Im y0 / (pi x), y0 the root of F(., x) on the real axis
    reached by Newton from y(x + i _EPS); exactly 0.0 where |Im y0| <= 1e-12.
    The grid must avoid x = 0 and support endpoints.  Raises BranchJump
    when Newton finds no on-axis root, NegativeDensity when the density
    dips below -1e-8 (branch selection error).
    """
    xs = [float(x) for x in xs]
    if any(x == 0 for x in xs):
        raise ValueError("grid must avoid x = 0")
    ys = solve_curve_branch(curve, [x + 1j * _EPS for x in xs])
    out = []
    for x, y in zip(xs, ys):
        y0 = _newton_point(curve, complex(x), y)
        if y0 is None:
            raise BranchJump(f"no on-axis root at x={x}")
        dens = 0.0 if abs(y0.imag) <= 1e-12 else -(y0.imag) / (np.pi * x)
        if dens < -1e-8:
            raise NegativeDensity(f"density {dens} < 0 at x={x}")
        out.append(dens)
    return np.asarray(out)


# -- discriminant-based support candidates ----------------------------------------


def _sylvester(f, g, zero):
    """Sylvester matrix of sum f[i] y^i and sum g[i] y^i; `zero` fills off the bands."""
    n, m = len(f) - 1, len(g) - 1
    rows = []
    for coeffs, copies in ((f, m), (g, n)):
        for shift in range(copies):
            row = [zero] * (n + m)
            row[shift : shift + len(coeffs)] = coeffs[::-1]
            rows.append(row)
    return rows


def _expansion_length(degs):
    """Length of a first-row cofactor expansion's list, from the entry degrees
    (None for a zero entry, skipped unless it is a final 1x1 minor)."""
    n = len(degs)
    entries = [[(1 << c, d) for c, d in enumerate(row) if d is not None] for row in degs]

    @lru_cache(maxsize=None)
    def best(cols):  # largest degree sum over rows n - |cols|.. with columns `cols` left
        k = n - cols.bit_count()
        if k == n - 1:
            return degs[k][cols.bit_length() - 1] or 0
        return max((d + best(cols ^ bit) for bit, d in entries[k] if cols & bit), default=0)

    return 1 + best((1 << n) - 1)


def _bareiss_det(m):
    """Determinant of a square integer matrix by fraction-free elimination: every
    division is exact, and a zero pivot swaps in a lower row (or the det is 0)."""
    m, sign, prev = [list(row) for row in m], 1, 1
    for k in range(len(m) - 1):
        swap = next((i for i in range(k, len(m)) if m[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            m[k], m[swap], sign = m[swap], m[k], -sign
        piv, tail = m[k][k], m[k][k + 1 :]
        for row in m[k + 1 :]:
            row[k + 1 :] = [(x * piv - row[k] * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = piv
    return sign * m[-1][-1]


def y_discriminant(curve: AlgebraicCurve):
    """Resultant_y(F, dF/dy) as a univariate polynomial in u (ascending), a new
    list on each call; the curve keeps it from the first.

    The Sylvester matrix is (2 deg_y - 1)-square with entries of degree <=
    deg_u, so the degree is <= D = (2 deg_y - 1) deg_u.  With L the lcm of F's
    denominators, the integer matrix of L F and L F_y is evaluated at u = 0,
    1, ..., each determinant taken by Bareiss, the values Newton-interpolated
    and divided by L^(2 deg_y - 1).  The list keeps the cofactor expansion's
    length (trailing zeros included), at most D + 1: that many points are used.
    """
    if curve._disc is None:
        curve._disc = tuple(_y_resultant(curve))
    return list(curve._disc)


def _y_resultant(curve):
    ny = curve.deg_y
    den = reduce(lcm, (c.denominator for c in curve.coeffs.values()))
    # f[i]: the coefficient of y^i in L F, an integer polynomial in u
    f = [[int(den * curve.coeffs.get((i, j), 0)) for j in range(curve.deg_u + 1)] for i in range(ny + 1)]
    degs = [max((j for j, c in enumerate(fi) if c), default=None) for fi in f]
    diffs, vals = [], []
    for u in range(_expansion_length(_sylvester(degs, degs[1:], None))):
        fu = [sum(c * u**j for j, c in enumerate(fi)) for fi in f]
        vals.append(_bareiss_det(_sylvester(fu, [i * v for i, v in enumerate(fu)][1:], 0)))
    while vals:  # forward differences: p(u) = sum_k diffs[k] (u)_k / k!
        diffs.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    top, acc = len(diffs) - 1, [diffs[-1]]
    for k in range(top - 1, -1, -1):  # acc <- acc (u - k) + diffs[k] top! / k!
        acc = [lo - k * hi for lo, hi in zip([0] + acc, acc + [0])]
        acc[0] += diffs[k] * (factorial(top) // factorial(k))
    return [Fraction(c, factorial(top) * den ** (2 * ny - 1)) for c in acc]


def _divmod_q(a, b):
    """Quotient and remainder of a by b over Q (descending lists, b[0] != 0)."""
    a, q = list(a), []
    for k in range(len(a) - len(b) + 1):
        c = a[k] / b[0]
        q.append(c)
        for j in range(1, len(b)):
            a[k + j] -= c * b[j]
    rem = a[len(q) :]
    return q, rem[next((i for i, c in enumerate(rem) if c), len(rem)) :]


def _squarefree(p):
    """p / gcd(p, p') over Q (descending, p[0] != 0): every root of p once."""
    a, b = p, [c * k for c, k in zip(p, range(len(p) - 1, 0, -1))]
    while b:
        a, b = b, _divmod_q(a, b)[1]
    return _divmod_q(p, a)[0]


def support_candidates(curve: AlgebraicCurve):
    """Real zeros of the u-discriminant: candidate support endpoints.

    Heuristic (no certification): branch points of y(u) on the real axis.
    The exact square-free part of the discriminant is taken first, so a
    multiple branch point is reported once.
    """
    disc = y_discriminant(curve)[::-1]
    disc = disc[next((i for i, c in enumerate(disc) if c), len(disc)) :]
    if not disc:
        return []
    roots = np.roots(np.array([float(c) for c in _squarefree(disc)], dtype=float))
    return sorted({float(round(r.real, 9)) for r in roots if abs(r.imag) < 1e-9})
