"""Formal transform algebra on truncated moment series.

A moment sequence m_1..m_K determines, as formal power series,

    Cauchy   G(z)  = 1/z + m_1/z^2 + m_2/z^3 + ...
    M        M(z)  = m_1 z + m_2 z^2 + ...
    R        R(w)  = kappa_1 + kappa_2 w + ...       (free cumulants)
    S        S(w)  = (w+1)/w * Minv(w)               (needs m_1 != 0)

with the compatibility (z M(z) + z) R(z M(z) + z) = M(z) and
w S(w) = (w R(w))^{-1} (functional inverse).  Everything here is truncated
at a recorded order and exact when fed rationals.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import VanishingFirstMoment
from .partitions import (
    cumulants_from_moments_nc,
    moments_from_cumulants_nc,
    multiplicative_cumulant_product,
)

# -- truncated power series helpers (coefficient lists c[0]..c[K]) ------------


def _coeff(x):
    return Fraction(x) if isinstance(x, int) else x


def _recip(x):
    return Fraction(1) / x if isinstance(x, (int, Fraction)) else 1 / x


def series_trim(a, K):
    return [_coeff(x) for x in a[: K + 1]] + [Fraction(0)] * max(0, K + 1 - len(a))


def series_mul(a, b, K):
    a, b = series_trim(a, K), series_trim(b, K)
    out = [Fraction(0)] * (K + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(0, K + 1 - i):
            if b[j] != 0:
                out[i + j] += ai * b[j]
    return out


def series_inv(a, K):
    """1/a as a series; needs a[0] != 0."""
    a = series_trim(a, K)
    if a[0] == 0:
        raise ZeroDivisionError("series has no inverse: constant term vanishes")
    out = [_recip(a[0])]
    for k in range(1, K + 1):
        acc = sum((a[i] * out[k - i] for i in range(1, k + 1)), start=Fraction(0))
        out.append(-acc / a[0])
    return out


def series_compose(a, b, K):
    """a(b(w)) truncated; needs b[0] == 0."""
    a, b = series_trim(a, K), series_trim(b, K)
    if b[0] != 0:
        raise ValueError("composition needs b(0) = 0")
    out = [Fraction(0)] * (K + 1)
    out[0] = a[0]
    power = [Fraction(0)] * (K + 1)
    power[0] = Fraction(1)
    for i in range(1, K + 1):
        power = series_mul(power, b, K)
        if a[i] == 0:
            continue
        for j in range(K + 1):
            out[j] += a[i] * power[j]
    return out


def series_reversion(f, K):
    """g with f(g(w)) = w + O(w^{K+1}); needs f[0] = 0, f[1] != 0."""
    f = series_trim(f, K)
    if f[0] != 0 or f[1] == 0:
        raise ValueError("reversion needs f(0) = 0 and f'(0) != 0")
    g = [Fraction(0), _recip(f[1])]
    for m in range(2, K + 1):
        trial = g + [Fraction(0)] * (m - len(g))
        comp = series_compose(f, series_trim(trial, m), m)
        g.append(-comp[m] / f[1])
    return series_trim(g, K)


# -- moment series -------------------------------------------------------------


@dataclass(frozen=True)
class FormalMomentSeries:
    """Moments m_1..m_K of a (formal) probability distribution; m_0 = 1."""

    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(_coeff(x) for x in self.m))

    @property
    def K(self):
        return len(self.m)

    @classmethod
    def point_mass(cls, c, K):
        c = Fraction(c)
        return cls(tuple(c**k for k in range(1, K + 1)))

    def truncated(self, K):
        if K > self.K:
            raise ValueError("cannot extend a truncated series")
        return FormalMomentSeries(self.m[:K])


def m_series(moments: FormalMomentSeries, K=None):
    K = moments.K if K is None else K
    return [Fraction(0)] + list(moments.m[:K])


def r_coefficients(moments: FormalMomentSeries, K=None):
    """Free cumulants kappa_1..kappa_K via the non-crossing dictionary."""
    K = moments.K if K is None else K
    return cumulants_from_moments_nc(list(moments.m[:K]))


def moments_from_r(kappa, K=None):
    K = len(kappa) if K is None else K
    return FormalMomentSeries(tuple(moments_from_cumulants_nc(list(kappa[:K]))))


def s_coefficients(moments: FormalMomentSeries, K=None):
    """Coefficients s_0..s_{K-1} of S(w) = (w+1)/w * Minv(w)."""
    K = moments.K if K is None else K
    if moments.m[0] == 0:
        raise VanishingFirstMoment("S-transform needs m_1 != 0")
    minv = series_reversion(m_series(moments, K), K)
    t = minv[1:] + [Fraction(0)]  # Minv(w)/w
    s = [t[0]] + [t[j] + t[j - 1] for j in range(1, K)]
    return s[:K]


def moments_from_s(s, K=None):
    """Invert s_coefficients: moments from a truncated S series."""
    K = len(s) if K is None else K
    if s[0] == 0:
        raise VanishingFirstMoment("S(0) = 1/m_1 must be nonzero")
    s = series_trim(s, K)
    # Minv(w) = w/(w+1) * S(w)
    one_over = series_inv([Fraction(1), Fraction(1)], K)
    minv = series_mul([Fraction(0), Fraction(1)], series_mul(one_over, s, K), K)
    mser = series_reversion(minv, K)
    return FormalMomentSeries(tuple(mser[1:]))


def series_bridge(moments: FormalMomentSeries):
    """Cauchy, R and S data of a moment series, mutually consistent.

    Returns a dict with keys "cauchy" (the 1/z-expansion coefficients,
    starting with m_0 = 1), "r" (free cumulants), and "s" (S series, or None
    when m_1 = 0).  Consistency of R and S through w S(w) = (w R(w))^{-1}
    holds to the truncation order and is exercised by the tests.
    """
    K = moments.K
    r = r_coefficients(moments)
    s = None
    if moments.m[0] != 0:
        s = s_coefficients(moments)
    return {
        "cauchy": [Fraction(1)] + list(moments.m),
        "r": r,
        "s": s,
        "K": K,
    }


def r_s_consistent(r, s, K):
    """Check w S(w) and w R(w) are functional inverses to order K."""
    wr = [Fraction(0)] + list(series_trim(r, K - 1))
    ws = [Fraction(0)] + list(series_trim(s, K - 1))
    comp = series_compose(wr, ws, K)
    target = [Fraction(0), Fraction(1)] + [Fraction(0)] * (K - 1)
    return comp == target


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
    sa = s_coefficients(ma)
    sb = s_coefficients(mb)
    return moments_from_s(series_mul(sa, sb, ma.K - 1), ma.K)


def free_mult_via_kreweras(ma: FormalMomentSeries, mb: FormalMomentSeries) -> FormalMomentSeries:
    """Same operation through the Kreweras-complement cumulant rule."""
    ra = r_coefficients(ma)
    rb = r_coefficients(mb)
    return moments_from_r(multiplicative_cumulant_product(ra, rb))
