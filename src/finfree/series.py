"""Formal transform algebra on truncated moment series.

A moment sequence m_1..m_K determines, as formal power series,

    Cauchy   G(z)  = 1/z + m_1/z^2 + m_2/z^3 + ...
    M        M(z)  = m_1 z + m_2 z^2 + ...
    R        R(w)  = kappa_1 + kappa_2 w + ...       (free cumulants)
    S        S(w)  = (w+1)/w * Minv(w)               (needs m_1 != 0)

with the compatibility (z M(z) + z) R(z M(z) + z) = M(z) and
w S(w) = (w R(w))^{-1} (functional inverse).  Everything here is exact, and
a map returns the order its input fixes; `FormalMomentSeries.truncated`
asks for fewer terms.  Every number given, to a moment series or to a
kernel, is read by `poly._as_coeff` as the rational it denotes, so a float
is its dyadic value, as in a `Polynomial`.  The kernel of `poly`
holds a series as integer numerators over one denominator and makes one
Fraction per output coefficient; reversion is Lagrange inversion, each
coefficient one inner product of a baby and a giant power (about 2 sqrt(K)
series products, not K), and the free cumulants come from the R-transform
functional equation, not from partition enumeration.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from operator import mul

from .errors import VanishingFirstMoment
from .partitions import multiplicative_cumulant_product
from .poly import _as_coeff, _ints, _mul_ints, _reduced

# -- truncated power series kernel (coefficient lists c[0]..c[K]) -------------


def _inv_ints(a, K):
    """1/a for an integer list with a[0] != 0, as reduced numerators and denominator."""
    a0 = a[0]
    out = [a0**K]
    for k in range(1, K + 1):
        # the division is exact: out[j] carries the factor a0^(K-j)
        out.append(-(sum(map(mul, a[1 : k + 1], out[k - 1 :: -1])) // a0))
    return _reduced(out, a0 ** (K + 1))


def series_mul(a, b, K):
    (an, ad), (bn, bd) = _ints(a, K), _ints(b, K)
    return [Fraction(c, ad * bd) for c in _mul_ints(an, bn, K)]


def series_inv(a, K):
    """1/a as a series; needs a[0] != 0."""
    an, ad = _ints(a, K)
    if an[0] == 0:
        raise ZeroDivisionError("series has no inverse: constant term vanishes")
    inv, den = _inv_ints(an, K)
    return [Fraction(ad * c, den) for c in inv]


def series_compose(a, b, K):
    """a(b(w)) truncated; needs b[0] == 0.

    Baby-step giant-step (Paterson and Stockmeyer; Brent and Kung): a(b) =
    sum_q A_q (b^r)^q, r = isqrt(K), each A_q a combination of the babies
    b^0..b^(r-1), by Horner in the giant b^r, the step for (b^r)^q truncated
    at order K - q r.  That is r - 1 + K // r series products, not K (11 at K = 36).
    """
    (an, ad), (bn, bd) = _ints(a, K), _ints(b, K)
    if bn[0] != 0:
        raise ValueError("composition needs b(0) = 0")
    r = isqrt(K) or 1
    pw = [[1] + [0] * K, bn]
    for _ in range(r - 1):
        pw.append(_mul_ints(pw[-1], bn, K))

    def chunk(q, n):  # A_q over ad bd^r to order n: sum_j an_(qr+j) bn^j bd^(r-j)
        cs = [(an[q * r + j] * bd ** (r - j), pw[j]) for j in range(min(r, K + 1 - q * r)) if an[q * r + j]]
        return [sum(c * p[k] for c, p in cs) for k in range(n + 1)]

    # the partial sum for q is over ad bd^r scale, scale = bd^(r (K // r - q))
    acc, scale = chunk(K // r, K % r), 1
    for q in reversed(range(K // r)):
        scale *= bd**r
        n = K - q * r
        acc = [x + scale * c for x, c in zip(_mul_ints(acc, pw[r], n), chunk(q, n))]
    return [Fraction(c, ad * bd**r * scale) for c in acc]


def series_reversion(f, K):
    """g with f(g(w)) = w + O(w^{K+1}); needs f[0] = 0, f[1] != 0.

    Lagrange inversion: g_n = (1/n) [z^(n-1)] h(z)^n with h = z / f(z), each
    g_n one inner product of a giant power (h^r)^i and a baby power h^j, where
    r = isqrt(K) and n - 1 = i r + j - 1, 1 <= j <= r (baby-step giant-step:
    Paterson and Stockmeyer; Brent and Kung).  That is r + (K - 1) // r - 2
    series products (none at K <= 2): 9 at K = 36, where a product per power
    takes 36.  At K = 0 the result is [0].
    """
    fn, fd = _ints(f, max(K, 1))
    if fn[0] != 0 or fn[1] == 0:
        raise ValueError("reversion needs f(0) = 0 and f'(0) != 0")
    if K == 0:
        return [Fraction(0)]
    inv, hd = _inv_ints(fn[1:], K - 1)
    r = isqrt(K)
    # h^0, h^1 = z/f, ..., h^r (the babies), then h^2r, h^3r, ... (the giants)
    pw = [([1] + [0] * (K - 1), 1), _reduced([fd * c for c in inv], hd)]
    for step in [1] * (r - 1) + [r] * ((K - 1) // r - 1):
        (a, ad), (b, bd) = pw[-1], pw[step]
        pw.append(_reduced(_mul_ints(a, b, K - 1), ad * bd))
    giant = pw[:1] + pw[r:]
    g = [Fraction(0)]
    for n in range(1, K + 1):
        i, j = divmod(n - 1, r)
        (a, ad), (b, bd) = giant[i], pw[j + 1]
        g.append(Fraction(sum(map(mul, a[:n], b[n - 1 :: -1])), n * ad * bd))
    return g


# -- moment series -------------------------------------------------------------


@dataclass(frozen=True)
class FormalMomentSeries:
    """Moments m_1..m_K of a (formal) probability distribution; m_0 = 1."""

    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(map(_as_coeff, self.m)))

    @property
    def K(self):
        return len(self.m)

    @classmethod
    def point_mass(cls, c, K):
        c = _as_coeff(c)
        return cls(tuple(c**k for k in range(1, K + 1)))

    def truncated(self, K):
        """The first K moments; K < 0 (a slice from the end) and K > self.K raise."""
        if K < 0:
            raise ValueError(f"order {K} is negative")
        if K > self.K:
            raise ValueError(f"cannot extend a truncated series: order {K} exceeds the {self.K} given")
        return FormalMomentSeries(self.m[:K])


def m_series(moments: FormalMomentSeries):
    return [Fraction(0)] + list(moments.m)


def _nc_solve(known, to_cumulants):
    """One side of 1 + M(z) = C(z (1 + M(z))), C(w) = 1 + sum kappa_k w^k, from the other.

    m_k = kappa_k + sum_{j<k} kappa_j P[j][k-j] with P[j][t] = [z^t] (1+M)^j,
    filled along the anti-diagonals j + t = k.  Under z -> den z (den the
    common denominator of the known side) every coefficient is an integer.
    """
    K = len(known)
    nums, den = _ints([0] + list(known), K)
    given = [1] + [c * den ** (k - 1) for k, c in enumerate(nums) if k]
    m = [1] + [0] * K  # 1 + M(den z)
    c = [1] + [0] * K  # C(den z)
    P = [[1] + [0] * K for _ in range(K + 1)]
    for k in range(1, K + 1):
        for j in range(1, k):
            t = k - j
            P[j][t] = sum(map(mul, P[j - 1][t::-1], m[: t + 1]))
        rest = sum(c[j] * P[j][k - j] for j in range(1, k))
        if to_cumulants:
            m[k] = given[k]
            c[k] = m[k] - rest
        else:
            c[k] = given[k]
            m[k] = c[k] + rest
    out = c if to_cumulants else m
    return [Fraction(out[k], den**k) for k in range(1, K + 1)]


def r_coefficients(moments: FormalMomentSeries):
    """Free cumulants kappa_1..kappa_K of a moment series m_1..m_K."""
    return _nc_solve(moments.m, to_cumulants=True)


def moments_from_r(kappa):
    return FormalMomentSeries(tuple(_nc_solve(kappa, to_cumulants=False)))


def s_coefficients(moments: FormalMomentSeries):
    """Coefficients s_0..s_{K-1} of S(w) = (w+1)/w * Minv(w) from m_1..m_K; none at K = 0."""
    K = moments.K
    if K == 0:
        return []
    if moments.m[0] == 0:
        raise VanishingFirstMoment("S-transform needs m_1 != 0")
    t = series_reversion(m_series(moments), K)[1:]  # Minv(w)/w
    return [t[0]] + [t[j] + t[j - 1] for j in range(1, K)]


def moments_from_s(s):
    """Invert s_coefficients: moments m_1..m_K from s_0..s_{K-1} (none for an empty series)."""
    K = len(s)
    if K == 0:
        return FormalMomentSeries(())
    if s[0] == 0:
        raise VanishingFirstMoment("S(0) = 1/m_1 must be nonzero")
    # Minv(w)/w = t with s_j = t_j + t_(j-1), as s_coefficients builds s
    t = accumulate(map(_as_coeff, s), lambda prev, c: c - prev)
    return FormalMomentSeries(tuple(series_reversion([Fraction(0), *t], K)[1:]))


# -- free convolutions at series level ------------------------------------------


def free_add(ma: FormalMomentSeries, mb: FormalMomentSeries) -> FormalMomentSeries:
    """R-transforms add: the free additive convolution of moment sequences."""
    if ma.K != mb.K:
        raise ValueError("truncation orders differ")
    ra = r_coefficients(ma)
    rb = r_coefficients(mb)
    return moments_from_r([x + y for x, y in zip(ra, rb)])


def free_mult(ma: FormalMomentSeries, mb: FormalMomentSeries) -> FormalMomentSeries:
    """S-transforms multiply: the free multiplicative convolution."""
    if ma.K != mb.K:
        raise ValueError("truncation orders differ")
    if ma.K == 0:
        return FormalMomentSeries(())
    sa = s_coefficients(ma)
    sb = s_coefficients(mb)
    return moments_from_s(series_mul(sa, sb, ma.K - 1))


def free_mult_via_kreweras(ma: FormalMomentSeries, mb: FormalMomentSeries) -> FormalMomentSeries:
    """Same operation through the Kreweras-complement cumulant rule."""
    ra = r_coefficients(ma)
    rb = r_coefficients(mb)
    return moments_from_r(multiplicative_cumulant_product(ra, rb))
