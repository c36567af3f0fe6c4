"""Limit objects of the polynomial families: S-transforms, curves, densities.

Given the growth limits of the hypergeometric parameters (a_n/n -> A_i,
b_n/n -> B_j) the limit zero distribution has the rational S-transform

    S(z) = prod_i (z + A_i + 1) / prod_j (z + B_j + 1),

and its Cauchy transform y = u G(u) lives on the genus-0 curve

    y prod_j (y + B_j) = u (y - 1) prod_i (y + A_i).

This module assembles those objects for the six multiple-orthogonality
families, carries the two r = 2 closed-form densities and the support
endpoint formulas, and verifies the reversed-measure identity
S(z) S_rev(-z-1) = 1 against reciprocal moments read off the curve.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .curves import (
    AlgebraicCurve,
    biv_add,
    biv_mul,
    biv_scale,
    curve_from_limits,
    moments_from_curve,
    reciprocal_moments_from_curve,
)
from .errors import ThetaOutOfRange, UnknownFamily, VanishingFirstMoment
from .series import FormalMomentSeries, moments_from_r, moments_from_s, s_coefficients, series_inv, series_mul

# -- rational S-transforms ------------------------------------------------------


@dataclass(frozen=True)
class RationalSTransform:
    """S(z) = scale * prod (z + A_i + 1) / prod (z + B_j + 1).

    The scale factor represents dilations (S of Dil_c mu is S_mu / c) and
    point masses (S of delta_c is 1/c); it is 1 for the plain limit theorem.
    Degenerate parameter combinations are flagged, never rejected: the
    rational expression stays meaningful.
    """

    A: tuple = ()
    B: tuple = ()
    scale: Fraction = Fraction(1)
    flags: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(Fraction(a) for a in self.A))
        object.__setattr__(self, "B", tuple(Fraction(b) for b in self.B))
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(self, "flags", tuple(self.flags))

    def __call__(self, z):
        exact = isinstance(z, (int, Fraction))
        conv = (lambda v: v) if exact else float
        num = conv(self.scale)
        for a in self.A:
            num *= z + conv(a) + 1
        den = 1
        for b in self.B:
            den *= z + conv(b) + 1
        return num / den

    def series(self, K):
        """Taylor coefficients of S at 0, exactly."""
        num = [Fraction(self.scale)]
        for a in self.A:
            num = series_mul(num, [a + 1, Fraction(1)], K)
        den = [Fraction(1)]
        for b in self.B:
            den = series_mul(den, [b + 1, Fraction(1)], K)
        return series_mul(num, series_inv(den, K), K)

    def moments(self, K) -> FormalMomentSeries:
        """Moments by series reversion of the S-transform definition."""
        s = self.series(K)
        if s[0] == 0:
            raise VanishingFirstMoment("S(0) = 0: the first moment diverges")
        return moments_from_s(s, K)

    def curve(self) -> AlgebraicCurve:
        """The Cauchy-transform curve; scale != 1 rescales u accordingly."""
        base = curve_from_limits(self.A, self.B)
        if self.scale == 1:
            return base
        # S_mu = scale * S_nu means mu = Dil_{1/scale} nu, so y_mu(u) = y_nu(scale u)
        return AlgebraicCurve({(i, j): c * self.scale**j for (i, j), c in base.coeffs.items()})

    def multiply(self, other: "RationalSTransform") -> "RationalSTransform":
        return RationalSTransform(
            A=self.A + other.A,
            B=self.B + other.B,
            scale=self.scale * other.scale,
            flags=self.flags + other.flags,
        )

    def reversed_measure(self) -> "RationalSTransform":
        """S of the reciprocal-root measure, from S(z) S_rev(-z-1) = 1.

        1/S(-w-1) = prod(B_j - w) / (scale * prod(A_i - w)); rewritten in the
        canonical (A, B, scale) shape this swaps the roles of the two lists:
        A_rev = (-B_j - 1), B_rev = (-A_i - 1), with a sign bookkeeping
        scale_rev = (-1)^(t - s) / scale.
        """
        s, t = len(self.A), len(self.B)
        return RationalSTransform(
            A=tuple(-b - 1 for b in self.B),
            B=tuple(-a - 1 for a in self.A),
            scale=Fraction(-1) ** (t - s) / self.scale,
        )


def rational_s_equal(s1: RationalSTransform, s2: RationalSTransform) -> bool:
    """Equality as rational functions (cross-multiplied polynomial identity)."""

    def poly_from_roots(shifts):
        out = [Fraction(1)]
        for c in shifts:
            out = series_mul(out, [c + 1, Fraction(1)], len(shifts) + 1)
        return out

    K = len(s1.A) + len(s1.B) + len(s2.A) + len(s2.B) + 2
    lhs = [s1.scale * c for c in series_mul(poly_from_roots(s1.A), poly_from_roots(s2.B), K)]
    rhs = [s2.scale * c for c in series_mul(poly_from_roots(s2.A), poly_from_roots(s1.B), K)]
    return lhs == rhs


_ASSUMPTION_A_WINDOW = "A in [-1,0)"


def degeneracy_flags(A, B):
    """Flags for the limit-theorem assumptions; degenerate cases are kept."""
    flags = []
    for i, a in enumerate(A):
        if -1 <= a < 0:
            flags.append(f"{_ASSUMPTION_A_WINDOW}: A[{i}]={a}")
    for j, b in enumerate(B):
        if b == -1:
            flags.append(f"B=-1: B[{j}]")
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            if a == b:
                flags.append(f"A=B: ({i},{j})")
    return tuple(flags)


def s_limit_hyper(A=(), B=()) -> RationalSTransform:
    """Rational S-transform limit for parameter growth rates A, B."""
    A = tuple(Fraction(a) for a in A)
    B = tuple(Fraction(b) for b in B)
    return RationalSTransform(A=A, B=B, flags=degeneracy_flags(A, B))


# -- limit parameters and per-family assembly -----------------------------------


@dataclass(frozen=True)
class LimitParams:
    """Growth limits defining an asymptotic regime.

    theta: multi-index proportions n_i/|n| (positive, summing to 1).
    A: per-weight alpha growth limits (or the single alpha limit).
    B: beta growth limit (Jacobi-Pineiro only).
    c: exponential rate limits (Laguerre second kind only).
    i: component index for Type I families (1-based).
    """

    theta: tuple = ()
    A: tuple = ()
    B: Fraction = Fraction(0)
    c: tuple = ()
    i: int = 1

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(Fraction(t) for t in self.theta))
        object.__setattr__(self, "A", tuple(Fraction(a) for a in self.A))
        object.__setattr__(self, "B", Fraction(self.B))
        object.__setattr__(self, "c", tuple(Fraction(x) for x in self.c))
        if self.theta:
            if any(t <= 0 for t in self.theta):
                raise ThetaOutOfRange("all theta_i must be positive")
            if sum(self.theta) != 1:
                raise ThetaOutOfRange("theta must sum to 1")


@dataclass(frozen=True)
class FamilyLimit:
    """Limit object of one family: transform and/or curve plus bookkeeping."""

    family: str
    s_transform: RationalSTransform | None = None
    curve: AlgebraicCurve | None = None
    r_poles: tuple = ()  # (weight, pole) pairs: R(y) = sum w / (pole - y)
    moment_scale: Fraction = Fraction(1)
    flags: tuple = ()

    def cumulants(self, K):
        if not self.r_poles:
            raise ValueError("family limit has no rational R-transform data")
        out = []
        for m in range(1, K + 1):
            out.append(sum(w / p**m for w, p in self.r_poles))
        return out

    def moments(self, K) -> FormalMomentSeries:
        """Limit moments m_1..m_K of the (rescaled) zero distribution."""
        if self.curve is not None:
            base = moments_from_curve(self.curve, K)
            if self.moment_scale == 1:
                return base
            return FormalMomentSeries(tuple(self.moment_scale * m for m in base.m))
        if self.r_poles:
            return moments_from_r(self.cumulants(K))
        return self.s_transform.moments(K)


def _jp1_frak(params: LimitParams):
    r = len(params.theta)
    i = params.i - 1
    A = list(params.A) if params.A else [Fraction(0)] * r
    B = params.B
    th = params.theta
    fa, fb = [], []
    for j in range(r):
        if j == i:
            fa.append((A[i] + B + 1) / th[i])
            fb.append(A[i] / th[i])
        else:
            fa.append((A[i] - A[j] - th[j]) / th[i])
            fb.append((A[i] - A[j]) / th[i])
    return fa, fb


def family_curves(family: str, params: LimitParams) -> FamilyLimit:
    """Limit object for one of the six families.

    jp1 / ml1-1:   rational S-transform (and its curve) via the frak a/b
                   parameters; Type I lives at component index params.i.
    jp2:           S-transform of the delta_0-mixed measure; moments of the
                   plain limit measure are (1+B) times the curve moments.
    ml1-2:         algebraic curve of the rescaled Type II polynomials.
    ml2-1:         rational R-transform (pole/weight data).
    ml2-2:         algebraic curve from the compound-free-Poisson relation.
    Degenerate assumption violations are flagged, not fatal.
    """
    fam = family.lower().replace("_", "-")
    if fam in ("jp1", "jp-i", "jp-typei"):
        fa, fb = _jp1_frak(params)
        st = RationalSTransform(A=tuple(fa), B=tuple(fb), flags=degeneracy_flags(fa, fb))
        return FamilyLimit(family="jp1", s_transform=st, curve=st.curve(), flags=st.flags)
    if fam in ("ml1-1", "ml1-i", "ml1-typei"):
        fa, fb = _jp1_frak(params)
        fa = [a for j, a in enumerate(fa) if j != params.i - 1]
        st = RationalSTransform(A=tuple(fa), B=tuple(fb), flags=degeneracy_flags(fa, fb))
        return FamilyLimit(family="ml1-1", s_transform=st, curve=st.curve(), flags=st.flags)
    if fam in ("jp2", "jp-ii", "jp-typeii"):
        r = len(params.theta)
        A = list(params.A) if params.A else [Fraction(0)] * r
        B = params.B
        fa = tuple((A[j] + params.theta[j]) / (1 + B) for j in range(r))
        fb = tuple(A[j] / (1 + B) for j in range(r))
        st = RationalSTransform(A=fa, B=fb, flags=degeneracy_flags(fa, fb))
        return FamilyLimit(
            family="jp2", s_transform=st, curve=st.curve(), moment_scale=1 + B, flags=st.flags
        )
    if fam in ("ml1-2", "ml1-ii", "ml1-typeii"):
        r = len(params.theta)
        A = list(params.A) if params.A else [Fraction(0)] * r
        # u prod_i (y + A_i + theta_i - u) = (u - y) prod_i (y + A_i - u)
        lhs = {(0, 1): Fraction(1)}
        for j in range(r):
            lhs = biv_mul(lhs, {(1, 0): Fraction(1), (0, 0): A[j] + params.theta[j], (0, 1): Fraction(-1)})
        rhs = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
        for j in range(r):
            rhs = biv_mul(rhs, {(1, 0): Fraction(1), (0, 0): A[j], (0, 1): Fraction(-1)})
        curve = AlgebraicCurve(biv_add(lhs, biv_scale(rhs, -1)))
        return FamilyLimit(family="ml1-2", curve=curve)
    if fam in ("ml2-1", "ml2-i", "ml2-typei"):
        r = len(params.theta)
        i = params.i - 1
        A = params.A[0] if params.A else Fraction(0)
        c = params.c
        th = params.theta
        poles = [((A + 1) / th[i], c[i])]
        for j in range(r):
            if j != i:
                poles.append((-th[j] / th[i], c[i] - c[j]))
        return FamilyLimit(family="ml2-1", r_poles=tuple(poles))
    if fam in ("ml2-2", "ml2-ii", "ml2-typeii"):
        r = len(params.theta)
        A = params.A[0] if params.A else Fraction(0)
        c = params.c
        th = params.theta
        # (y+A) sum_j theta_j prod_{k != j} (c_k u - y - A) = (y-1) prod_j (c_j u - y - A)
        bracket = [{(0, 1): ck, (1, 0): Fraction(-1), (0, 0): -A} for ck in c]
        lhs = {}
        for j in range(r):
            term = {(0, 0): th[j]}
            for k in range(r):
                if k != j:
                    term = biv_mul(term, bracket[k])
            lhs = biv_add(lhs, term)
        lhs = biv_mul(lhs, {(1, 0): Fraction(1), (0, 0): A})
        rhs = {(1, 0): Fraction(1), (0, 0): Fraction(-1)}
        for k in range(r):
            rhs = biv_mul(rhs, bracket[k])
        curve = AlgebraicCurve(biv_add(lhs, biv_scale(rhs, -1)))
        return FamilyLimit(family="ml2-2", curve=curve)
    raise UnknownFamily(f"unknown family {family!r}")


# -- closed-form densities (r = 2 examples) --------------------------------------


@dataclass(frozen=True)
class DensityModel:
    """Closed-form limit density on a real support interval.

    The r = 2 Jacobi-Pineiro models are cached per theta and shared by every
    caller, so `constants` is read-only by convention.
    """

    support: tuple
    density: object  # callable on floats / numpy arrays
    constants: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.density(np.asarray(x, dtype=float))


@lru_cache(maxsize=None)
def density_jp_typeI_r2(theta) -> DensityModel:
    """Limit density of Type I Jacobi-Pineiro at r = 2, proportions (t, 1-t).

    Supported on [-c*, 0] with c* = 27 (t(1-t) / ((1-2t)(2-t)(1+t)))^2; the
    boundary case t = 1/2 uses the stated limit form on the whole negative
    axis.  The density behaves like |x|^(-2/3) at 0 and decays like a square
    root at -c*.
    """
    t = Fraction(theta)
    if not 0 < t <= Fraction(1, 2):
        raise ThetaOutOfRange("need 0 < theta <= 1/2")
    if t == Fraction(1, 2):
        nu_lim = 2.0

        def dens_diag(x):
            x = np.abs(np.asarray(x, dtype=float))
            s = np.sqrt(1 + x)
            return (
                np.sqrt(3.0)
                / (2 * np.pi)
                * (np.cbrt(s + 1) - np.cbrt(s - 1))
                / (np.cbrt(x**2) * s)
            )

        return DensityModel(support=(-np.inf, 0.0), density=dens_diag, constants={"nu": nu_lim})
    nu = (1 / t) * (1 / t - 1)
    kappa = Fraction(4, 27) * (1 + nu) ** 3 / nu**2
    cstar = 1 / (kappa - 1)
    nu_f, c_f = float(nu), float(cstar)

    def dens(x):
        x = np.abs(np.asarray(x, dtype=float))
        s = np.sqrt(1 + x)
        q = np.sqrt(np.maximum(c_f - x, 0.0) / c_f)
        return (
            np.sqrt(3.0)
            / (2 * np.pi)
            * np.cbrt(nu_f / 2)
            * (np.cbrt(s + q) - np.cbrt(s - q))
            / (np.cbrt(x**2) * s)
        )

    return DensityModel(
        support=(-c_f, 0.0),
        density=dens,
        constants={"nu": nu, "kappa": kappa, "cstar": cstar},
    )


@lru_cache(maxsize=None)
def density_jp_typeII_r2(theta) -> DensityModel:
    """Limit density of Type II Jacobi-Pineiro at r = 2 on [0, 1].

    x^(-2/3) blow-up at 0 and (1-x)^(-1/2) blow-up at 1; theta = 1/2 is the
    diagonal (step-line) case.
    """
    t = Fraction(theta)
    if not 0 < t <= Fraction(1, 2):
        raise ThetaOutOfRange("need 0 < theta <= 1/2")
    nu = t * (t - 1)
    kappa = Fraction(4, 27) * (1 + nu) ** 3 / nu**2
    k_f = float(kappa)
    amp = float(t * (1 - t)) / 2.0

    def dens(x):
        x = np.asarray(x, dtype=float)
        a = np.sqrt(1 + (k_f - 1) * x)
        b = np.sqrt(np.maximum(1 - x, 0.0))
        return (
            np.sqrt(3.0)
            / (2 * np.pi)
            * np.cbrt(amp)
            * (np.cbrt(a + b) + np.cbrt(a - b))
            / (np.cbrt(x**2) * b)
        )

    return DensityModel(
        support=(0.0, 1.0), density=dens, constants={"nu": nu, "kappa": kappa}
    )


# gauss-legendre mass/cdf helpers with endpoint-absorbing substitutions


@lru_cache(maxsize=None)
def _legendre_rule(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(f, a, b, nodes=96):
    x, w = _legendre_rule(nodes)
    xm = 0.5 * (b + a) + 0.5 * (b - a) * x
    return 0.5 * (b - a) * float(np.sum(w * f(xm)))


def jp1_cdf(theta, x) -> float:
    """CDF of the Type I r=2 density: F(x) = mu([-c*, x]) for x in [-c*, 0]."""
    model = density_jp_typeI_r2(theta)
    lo, _ = model.support
    cstar = -lo
    t = min(max(float(-x), 0.0), cstar)
    if t == 0.0:
        return 1.0

    def from_zero(tau):
        # integral of f over [0, tau] in -x coords, cube-root substitution
        return _gauss_legendre(lambda s: model(-(s**3)) * 3 * s**2, 0.0, tau ** (1 / 3))

    if t <= 0.6 * cstar:
        return 1.0 - from_zero(t)
    # tail integral over [t, c*] with the square-root substitution
    tail = _gauss_legendre(
        lambda w: model(-(cstar - w**2)) * 2 * w, 0.0, np.sqrt(cstar - t)
    )
    return tail


def jp1_mass(theta) -> float:
    model = density_jp_typeI_r2(theta)
    cstar = -model.support[0]
    half = 0.5 * cstar
    a = _gauss_legendre(lambda s: model(-(s**3)) * 3 * s**2, 0.0, half ** (1 / 3))
    b = _gauss_legendre(lambda w: model(-(cstar - w**2)) * 2 * w, 0.0, np.sqrt(cstar - half))
    return a + b


@lru_cache(maxsize=None)
def jp2_mass(theta) -> float:
    model = density_jp_typeII_r2(theta)
    a = _gauss_legendre(lambda s: model(s**3) * 3 * s**2, 0.0, 0.5 ** (1 / 3))
    b = _gauss_legendre(lambda w: model(1 - w**2) * 2 * w, 0.0, np.sqrt(0.5))
    return a + b


def jp2_cdf(theta, x) -> float:
    """CDF of the Type II r=2 density on [0, 1]."""
    model = density_jp_typeII_r2(theta)
    x = min(max(float(x), 0.0), 1.0)
    if x == 0.0:
        return 0.0
    if x <= 0.6:
        return _gauss_legendre(lambda s: model(s**3) * 3 * s**2, 0.0, x ** (1 / 3))
    if x == 1.0:
        return jp2_mass(theta)
    tail = _gauss_legendre(lambda w: model(1 - w**2) * 2 * w, 0.0, np.sqrt(1 - x))
    return jp2_mass(theta) - tail


# -- support endpoint formulas -----------------------------------------------------


def _sqrt_exact_or_float(x: Fraction):
    """Square root, exact when the rational is a perfect square."""
    from math import isqrt

    num, den = x.numerator, x.denominator
    if num >= 0:
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
    return float(x) ** 0.5


def endpoints(family: str, **params):
    """Closed-form support endpoint for the named family.

    JP-I-r2(theta):    c* with support [-c*, 0]
    ML1-I-r2(theta):   c* with support [-c*, 0]
    JP-II-r2-A(A):     a* with support [a*, 1]
    JP-II-r2-B(B):     b* with support [0, b*]
    ML1-II-r2(theta):  c* with support [0, c*]; continuous limits at the
                       theta boundaries (27/8 at 1/2, 4 at 0+).
    Exact rationals are returned whenever the formula stays rational.
    """
    fam = family.upper()
    if fam == "JP-I-R2":
        t = Fraction(params["theta"])
        if not 0 < t < Fraction(1, 2):
            raise ThetaOutOfRange("need 0 < theta < 1/2")
        return 27 * (t * (1 - t) / ((1 - 2 * t) * (2 - t) * (1 + t))) ** 2
    if fam == "ML1-I-R2":
        t = Fraction(params["theta"])
        if not 0 < t < Fraction(1, 2):
            raise ThetaOutOfRange("need 0 < theta < 1/2")
        s = (1 - 3 * (1 - t) * t) ** 3
        root = _sqrt_exact_or_float(s)
        num = 9 * (1 - t) * t - 2 + 2 * root
        return num / (t * (1 - 2 * t) ** 2)
    if fam == "JP-II-R2-A":
        a = Fraction(params["A"])
        return a**3 * (a + 1) / ((a + Fraction(3, 2)) ** 3 * (a + Fraction(1, 2)))
    if fam == "JP-II-R2-B":
        b = Fraction(params["B"])
        return 27 * (b + 1) ** 2 / (2 * b + 3) ** 3
    if fam == "ML1-II-R2":
        t = Fraction(params["theta"])
        if not 0 <= t <= Fraction(1, 2):
            raise ThetaOutOfRange("need 0 <= theta <= 1/2")
        if t == 0:
            return Fraction(4)
        s = (1 - 3 * t * (1 - t)) ** 3
        root = _sqrt_exact_or_float(s)
        den = 9 * t * (1 - t) - 2 + 2 * root
        return 27 * t**2 * (1 - t) ** 2 / den
    raise UnknownFamily(f"no endpoint formula for {family!r}")


# -- reversed-measure identity -------------------------------------------------------


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
    via_moments = s_coefficients(FormalMomentSeries(tuple(rec)), K - 1)
    return candidate[: K - 1] == via_moments[: K - 1]
