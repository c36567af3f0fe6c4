"""Limit objects of the polynomial families: S-transforms, curves, densities.

Given the growth limits of the hypergeometric parameters (a_n/n -> A_i,
b_n/n -> B_j) the limit zero distribution has the rational S-transform

    S(z) = prod_i (z + A_i + 1) / prod_j (z + B_j + 1),

and its Cauchy transform y = u G(u) lives on the genus-0 curve

    y prod_j (y + B_j) = u (y - 1) prod_i (y + A_i).

This module assembles those objects for the six multiple-orthogonality
families and carries the two r = 2 closed-form densities and the support
endpoint formulas.  The reversed-measure identity S(z) S_rev(-z-1) = 1 of
`RationalSTransform.reversed_measure` is checked in the tests, against
reciprocal moments read off the curve (`curves.reciprocal_moments_from_curve`).
"""

from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial, reduce

import numpy as np

from .curves import (
    AlgebraicCurve,
    biv_add,
    biv_mul,
    biv_scale,
    curve_from_limits,
    moments_from_curve,
)
from .errors import InvalidParameters, ThetaOutOfRange, UnknownFamily, VanishingFirstMoment
from .mop import _check_rates, _jp_rodrigues, _ml2_factors, _typeI_blocks
from .poly import _as_coeff
from .series import FormalMomentSeries, moments_from_r, moments_from_s, series_inv, series_mul

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
        object.__setattr__(self, "A", tuple(map(_as_coeff, self.A)))
        object.__setattr__(self, "B", tuple(map(_as_coeff, self.B)))
        object.__setattr__(self, "scale", _as_coeff(self.scale))
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
        num = [self.scale * c for c in _shift_product(self.A, K)]
        return series_mul(num, series_inv(_shift_product(self.B, K), K), K)

    def moments(self, K) -> FormalMomentSeries:
        """Moments by series reversion of the S-transform definition."""
        s = self.series(K)
        if s[0] == 0:
            raise VanishingFirstMoment("S(0) = 0: the first moment diverges")
        return moments_from_s(s[:K])

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


def _shift_product(shifts, K):
    """Coefficients of prod (z + c + 1) over c in `shifts`, up to z^K."""
    out = [Fraction(1)]
    for c in shifts:
        out = series_mul(out, [c + 1, Fraction(1)], K)
    return out


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
    A, B = tuple(map(_as_coeff, A)), tuple(map(_as_coeff, B))
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
        for name in ("theta", "A", "c"):
            object.__setattr__(self, name, tuple(map(_as_coeff, getattr(self, name))))
        object.__setattr__(self, "B", _as_coeff(self.B))
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


# Limit builders of the six families (FAMILIES): each returns FamilyLimit fields.  The rational
# ones read `mop`'s parameter tables at the growth rates, over the growth rate of the degree.
def _s_limit(fa, fb, **extra):
    st = s_limit_hyper(fa, fb)
    return {"s_transform": st, "curve": st.curve(), "flags": st.flags, **extra}


def _jp1_limit(params, ml1=False):
    """S-transform of Type I component i: its 2F1-block parameters over theta_i; ml1-1 has no beta."""
    th = params.theta[params.i - 1]
    blocks = _typeI_blocks(params.A, None if ml1 else params.B, params.theta, params.i, one=0)
    return _s_limit([a / th for nums, _ in blocks for a in nums], [b / th for _, b in blocks])


def _jp2_limit(params):
    """S-transform of the delta_0-mixed measure: the Rodrigues parameters over 1 + B."""
    scale = 1 + params.B
    fa, fb = _jp_rodrigues(params.A, params.theta, one=0)
    return _s_limit([a / scale for a in fa], [b / scale for b in fb], moment_scale=scale)


def _ml1_2_limit(params):
    # u prod_i (y + A_i + theta_i - u) = (u - y) prod_i (y + A_i - u)
    lhs, rhs = {(0, 1): Fraction(1)}, {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    for a, t in zip(params.A, params.theta):
        lhs = biv_mul(lhs, {(1, 0): Fraction(1), (0, 0): a + t, (0, 1): Fraction(-1)})
        rhs = biv_mul(rhs, {(1, 0): Fraction(1), (0, 0): a, (0, 1): Fraction(-1)})
    return {"curve": AlgebraicCurve(biv_add(lhs, biv_scale(rhs, -1)))}


def _ml2_1_limit(params):
    """R-transform poles: the binomial-series factors (x, p) as weights p / theta_i at x."""
    th = params.theta[params.i - 1]
    factors = _ml2_factors(params.A[0], params.c, params.theta, params.i, one=0)
    return {"r_poles": tuple((p / th, x) for x, p in factors)}


def _ml2_2_limit(params):
    # (y+A) sum_j theta_j prod_{k != j} (c_k u - y - A) = (y-1) prod_j (c_j u - y - A)
    th, A = params.theta, params.A[0]
    bracket = [{(0, 1): ck, (1, 0): Fraction(-1), (0, 0): -A} for ck in params.c]
    lhs = {}
    for j in range(len(th)):
        lhs = biv_add(lhs, reduce(biv_mul, bracket[:j] + bracket[j + 1 :], {(0, 0): th[j]}))
    lhs = biv_mul(lhs, {(1, 0): Fraction(1), (0, 0): A})
    rhs = reduce(biv_mul, bracket, {(1, 0): Fraction(1), (0, 0): Fraction(-1)})
    return {"curve": AlgebraicCurve(biv_add(lhs, biv_scale(rhs, -1)))}


# -- closed-form densities (r = 2 examples) --------------------------------------


@dataclass(frozen=True)
class DensityModel:
    """Closed-form limit density on a real support interval."""

    support: tuple
    density: object  # callable on floats / numpy arrays

    def __call__(self, x):
        return self.density(np.asarray(x, dtype=float))


def _cardano_scale(amp):
    """sqrt(3) / (2 pi) * amp^(1/3), the constant of `_cardano`; once per model."""
    return np.sqrt(3.0) / (2 * np.pi) * np.cbrt(amp)


def _cardano(x, scale, a, b, sign, den):
    """The shared Cardano form of the r = 2 Jacobi-Pineiro laws,

        scale * (cbrt(a + b) + sign cbrt(a - b)) / (x^(2/3) den),

    scale = `_cardano_scale(amp)`: the x^(2/3) gives the |x|^(-2/3) law at 0,
    and b -> 0 the other edge.
    """
    return scale * (np.cbrt(a + b) + sign * np.cbrt(a - b)) / (np.cbrt(x**2) * den)


@lru_cache(maxsize=None)
def density_jp_typeI_r2(theta) -> DensityModel:
    """Limit density of Type I Jacobi-Pineiro at r = 2, proportions (t, 1-t).

    Supported on [-c*, 0] with c* = `endpoints("JP-I-r2", theta=t)`; the
    boundary case t = 1/2 (c* = infinity) uses the stated limit form on the
    whole negative axis.  The density behaves like |x|^(-2/3) at 0 and decays
    like a square root at -c*.
    """
    t = _as_coeff(theta)
    if not 0 < t <= Fraction(1, 2):
        raise ThetaOutOfRange("need 0 < theta <= 1/2")
    nu = (1 / t) * (1 / t - 1)
    c_f = np.inf if t == Fraction(1, 2) else float(_jp1_cstar(t))
    scale = _cardano_scale(float(nu) / 2)

    def dens(x):
        x = np.abs(x)
        s = np.sqrt(1 + x)
        q = 1.0 if c_f == np.inf else np.sqrt(np.maximum(c_f - x, 0.0) / c_f)
        return _cardano(x, scale, s, q, -1, s)

    return DensityModel(support=(-c_f, 0.0), density=dens)


@lru_cache(maxsize=None)
def density_jp_typeII_r2(theta) -> DensityModel:
    """Limit density of Type II Jacobi-Pineiro at r = 2 on [0, 1].

    x^(-2/3) blow-up at 0 and (1-x)^(-1/2) blow-up at 1; theta = 1/2 is the
    diagonal (step-line) case.
    """
    t = _as_coeff(theta)
    if not 0 < t <= Fraction(1, 2):
        raise ThetaOutOfRange("need 0 < theta <= 1/2")
    nu = t * (t - 1)
    kappa = Fraction(4, 27) * (1 + nu) ** 3 / nu**2
    k_f = float(kappa)
    scale = _cardano_scale(float(t * (1 - t)) / 2.0)

    def dens(x):
        a = np.sqrt(1 + (k_f - 1) * x)
        b = np.sqrt(np.maximum(1 - x, 0.0))
        return _cardano(x, scale, a, b, 1, b)

    return DensityModel(support=(0.0, 1.0), density=dens)


# gauss-legendre mass/cdf helpers with endpoint-absorbing substitutions


# the positive half of numpy's leggauss(96), which is exactly symmetric:
# x[i] == -x[95 - i] and w[i] == w[95 - i]
_GL_NODES = (
    "0x1.0aad9db41ed24p-6", "0x1.8fe03fd8f1665p-5", "0x1.4cfe9a44433d8p-4", "0x1.d1b2bd5ea8dedp-4",
    "0x1.2af4445425b88p-3", "0x1.6cbe0eea4ecf2p-3", "0x1.ae24e54c8365bp-3", "0x1.ef17092e0b4acp-3",
    "0x1.17c16df589d1cp-2", "0x1.37ab71a834a7ep-2", "0x1.5740e72ca83c9p-2", "0x1.76793cf117fdep-2",
    "0x1.954bfaa76531bp-2", "0x1.b3b0c39160c99p-2", "0x1.d19f58c592f54p-2", "0x1.ef0f9b6beae33p-2",
    "0x1.05fcc778dda8cp-1", "0x1.142aad9a3576ap-1", "0x1.220da75121028p-1", "0x1.2fa1f02860e0bp-1",
    "0x1.3ce3d903f9f6fp-1", "0x1.49cfc92112ad0p-1", "0x1.56623f0fc0011p-1", "0x1.6297d1a67ebb0p-1",
    "0x1.6e6d30ef16b46p-1", "0x1.79df270ca7f2fp-1", "0x1.84ea991aa3314p-1", "0x1.8f8c8804715d5p-1",
    "0x1.99c211558f960p-1", "0x1.a3887001e73f3p-1", "0x1.acdcfd262be7cp-1", "0x1.b5bd30c00af2dp-1",
    "0x1.be26a25dfb412p-1", "0x1.c61709c67d7d9p-1", "0x1.cd8c3f96a03d6p-1", "0x1.d4843dd79deb4p-1",
    "0x1.dafd208b6da2ap-1", "0x1.e0f5263024179p-1", "0x1.e66ab03a073fap-1", "0x1.eb5c438440c02p-1",
    "0x1.efc888b82da16p-1", "0x1.f3ae4cab74f04p-1", "0x1.f70c80b584621p-1", "0x1.f9e23afe86f4dp-1",
    "0x1.fc2eb6cf783d8p-1", "0x1.fdf155061469fp-1", "0x1.ff299d8fa5cb6p-1", "0x1.ffd74d7aaa774p-1",
)
_GL_WEIGHTS = (
    "0x1.0aa79616b36fep-5", "0x1.0a5f3e4f01660p-5", "0x1.09cea25ffee3dp-5", "0x1.08f5e9851bf0dp-5",
    "0x1.07d54e8a3249bp-5", "0x1.066d1fbb91d67p-5", "0x1.04bdbed0c2ae9p-5", "0x1.02c7a0d202753p-5",
    "0x1.008b4df88431dp-5", "0x1.fc12c312f69a4p-6", "0x1.f6851357f764fp-6", "0x1.f06f0e737515fp-6",
    "0x1.e9d25b1578b4bp-6", "0x1.e2b0c477fd789p-6", "0x1.db0c39e25a810p-6", "0x1.d2e6ce22e4ba1p-6",
    "0x1.ca42b6feed510p-6", "0x1.c1224c9943ca3p-6", "0x1.b78808cf6575ap-6", "0x1.ad76868d864e4p-6",
    "0x1.a2f08119a2164p-6", "0x1.97f8d355c6ce0p-6", "0x1.8c9276f9cbc01p-6", "0x1.80c083c4ab893p-6",
    "0x1.74862ea5b8b66p-6", "0x1.67e6c8dde7b8ep-6", "0x1.5ae5bf196aab9p-6", "0x1.4d869881dde21p-6",
    "0x1.3fccf5c945f4ep-6", "0x1.31bc902e22aeep-6", "0x1.23593878dc822p-6", "0x1.14a6d5f2d42abp-6",
    "0x1.05a965575fb36p-6", "0x1.ecc9ef7e07b99p-7", "0x1.cdbb630a7cc5bp-7", "0x1.ae2f92527e566p-7",
    "0x1.8e2f0c53ffce0p-7", "0x1.6dc27fbc9904cp-7", "0x1.4cf2b89333e43p-7", "0x1.2bc89dde790c6p-7",
    "0x1.0a4d2f4ea7a5fp-7", "0x1.d11305f70bdf5p-8", "0x1.8d0d86cd510d1p-8", "0x1.489c5ccbe0561p-8",
    "0x1.03d22f3a11c4ep-8", "0x1.7d83f3ee509adp-9", "0x1.e60133d38a1b1p-10", "0x1.a1bf9ee7f3970p-11",
)


@lru_cache(maxsize=None)
def _legendre_rule():
    """The 96-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only."""
    x, w = (np.array([float.fromhex(h) for h in half]) for half in (_GL_NODES, _GL_WEIGHTS))
    x, w = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(f, a, b):
    """The 96-point rule for the integral of f over [a, b]; for an array b, one
    row of nodes per bound in one (len(b), 96) grid, and an array of integrals."""
    x, w = _legendre_rule()
    b = np.asarray(b, dtype=float)[..., None]
    if not b.size:  # no bounds: f is not called
        return b[..., 0]
    xm = 0.5 * (b + a) + 0.5 * (b - a) * x
    out = 0.5 * (b[..., 0] - a) * np.sum(w * f(xm), axis=-1)
    return float(out) if out.ndim == 0 else out


def _near_zero(model, sgn, t):
    """Mass of `model` between 0 and sgn*t, for a float t or each t of an array;
    x = sgn*s^3 absorbs the |x|^(-2/3) law."""
    # each cube root by Python's float power: numpy's array power rounds a few an ulp apart
    bounds = t ** (1 / 3) if np.ndim(t) == 0 else [u ** (1 / 3) for u in t.tolist()]
    return _gauss_legendre(lambda s: model(sgn * s**3) * 3 * s**2, 0.0, bounds)


def _near_edge(model, sgn, edge, t):
    """Mass of `model` between sgn*t and sgn*edge, for a float t or each t of an
    array; x = sgn*(edge - w^2) absorbs the square-root edge (decay or blow-up)."""
    return _gauss_legendre(lambda w: model(sgn * (edge - w**2)) * 2 * w, 0.0, np.sqrt(edge - t))


def _as_read(x, out):
    """The CDF values out at the points x: a Python float for a scalar x, else an array of x's shape."""
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _jp1_bounded(theta):
    """The Type I model and its c*, finite only for theta < 1/2."""
    model = density_jp_typeI_r2(theta)
    cstar = -model.support[0]
    if cstar == np.inf:
        raise ThetaOutOfRange("need 0 < theta < 1/2: at theta = 1/2 the support is unbounded")
    return model, cstar


def jp1_cdf(theta, x):
    """CDF of the Type I r=2 density: F(x) = mu([-c*, x]) for x in [-c*, 0],
    at a point (a Python float) or at each entry of an array, all in one grid.

    Needs theta < 1/2; the theta = 1/2 support is unbounded (ThetaOutOfRange)."""
    model, cstar = _jp1_bounded(theta)
    t = np.clip(-np.asarray(x, dtype=float).ravel(), 0.0, cstar)
    out, near = np.ones_like(t), t <= 0.6 * cstar
    rows = near & (t != 0.0)
    out[rows] = 1.0 - _near_zero(model, -1, t[rows])
    out[~near] = _near_edge(model, -1, cstar, t[~near])  # NaN too, as read at a point
    return _as_read(x, out)


def jp1_mass(theta) -> float:
    model, cstar = _jp1_bounded(theta)
    half = 0.5 * cstar
    return _near_zero(model, -1, half) + _near_edge(model, -1, cstar, half)


@lru_cache(maxsize=None)
def jp2_mass(theta) -> float:
    model = density_jp_typeII_r2(theta)
    return _near_zero(model, 1, 0.5) + _near_edge(model, 1, 1.0, 0.5)


def jp2_cdf(theta, x):
    """CDF of the Type II r=2 density on [0, 1], at a point (a Python float) or
    at each entry of an array, all in one grid."""
    model = density_jp_typeII_r2(theta)
    t = np.clip(np.asarray(x, dtype=float).ravel(), 0.0, 1.0)
    out, near, mass = np.zeros_like(t), t <= 0.6, jp2_mass(theta)
    rows = near & (t != 0.0)
    out[rows] = _near_zero(model, 1, t[rows])
    rows = ~near & (t != 1.0)  # NaN too, as read at a point
    out[rows] = mass - _near_edge(model, 1, 1.0, t[rows])
    out[t == 1.0] = mass
    return _as_read(x, out)


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


# The r = 2 endpoint formulas of FAMILIES; endpoints() names each one.
def _jp1_cstar(theta):
    t = _as_coeff(theta)
    if not 0 < t < Fraction(1, 2):
        raise ThetaOutOfRange("need 0 < theta < 1/2")
    return 27 * (t * (1 - t) / ((1 - 2 * t) * (2 - t) * (1 + t))) ** 2


def _ml1_1_cstar(theta):
    t = _as_coeff(theta)
    if not 0 < t < Fraction(1, 2):
        raise ThetaOutOfRange("need 0 < theta < 1/2")
    root = _sqrt_exact_or_float((1 - 3 * (1 - t) * t) ** 3)
    return (9 * (1 - t) * t - 2 + 2 * root) / (t * (1 - 2 * t) ** 2)


def _jp2_astar(A):
    a = _as_coeff(A)
    return a**3 * (a + 1) / ((a + Fraction(3, 2)) ** 3 * (a + Fraction(1, 2)))


def _jp2_bstar(B):
    b = _as_coeff(B)
    return 27 * (b + 1) ** 2 / (2 * b + 3) ** 3


def _ml1_2_cstar(theta):
    t = _as_coeff(theta)
    if not 0 <= t <= Fraction(1, 2):
        raise ThetaOutOfRange("need 0 <= theta <= 1/2")
    if t == 0:
        return Fraction(4)
    root = _sqrt_exact_or_float((1 - 3 * t * (1 - t)) ** 3)
    return 27 * t**2 * (1 - t) ** 2 / (9 * t * (1 - t) - 2 + 2 * root)


# -- the family registry: the one place that decides the family names -------------
# Per family: canonical name, other spellings, (kind, type_) of its `mop`
# constructor, limit builder, and its r = 2 closed forms: densities and
# endpoints keyed by what follows "-r2" in their name <family>-r2[-a|-b].

Family = namedtuple("Family", "name spellings kind type_ limit densities endpoints")

FAMILIES = (
    Family("jp1", ("jp-i", "jp-typei", "jp1-typei"), "jp", "I", _jp1_limit,
           {"": density_jp_typeI_r2}, {"": _jp1_cstar}),
    Family("jp2", ("jp-ii", "jp-typeii"), "jp", "II", _jp2_limit,
           {"": density_jp_typeII_r2}, {"-a": _jp2_astar, "-b": _jp2_bstar}),
    Family("ml1-1", ("ml11", "ml1-i", "ml1-typei"), "ml1", "I", partial(_jp1_limit, ml1=True),
           {}, {"": _ml1_1_cstar}),
    Family("ml1-2", ("ml12", "ml1-ii", "ml1-typeii"), "ml1", "II", _ml1_2_limit, {}, {"": _ml1_2_cstar}),
    Family("ml2-1", ("ml21", "ml2-i", "ml2-typei"), "ml2", "I", _ml2_1_limit, {}, {}),
    Family("ml2-2", ("ml22", "ml2-ii", "ml2-typeii"), "ml2", "II", _ml2_2_limit, {}, {}),
)
_BY_SPELLING = {s: fam for fam in FAMILIES for s in (fam.name, *fam.spellings)}


def resolve(name: str) -> Family:
    """The family a spelling names; case is ignored and '_' reads as '-'."""
    fam = _BY_SPELLING.get(name.lower().replace("_", "-"))
    if fam is None:
        raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(f.name for f in FAMILIES)}")
    return fam


def closed_form(name: str, forms: str):
    """The r = 2 closed form named <family>-r2[-a|-b] among the family's `forms`
    ("densities" or "endpoints"), with <family> any spelling `resolve` accepts."""
    base, r2, sel = name.lower().replace("_", "-").partition("-r2")
    form = getattr(resolve(base), forms).get(sel) if r2 else None
    if form is None:
        raise UnknownFamily(f"unknown family {name!r} for the r = 2 {forms}, named <family>-r2[-a|-b]")
    return form


def family_curves(family: str, params: LimitParams) -> FamilyLimit:
    """Limit object of a family, named by any spelling `resolve` accepts.

    jp1 / ml1-1:   rational S-transform (and its curve) via the frak a/b
                   parameters; Type I lives at component index params.i.
    jp2:           S-transform of the delta_0-mixed measure; moments of the
                   plain limit measure are (1+B) times the curve moments.
    ml1-2, ml2-2:  algebraic curve (rescaled Type II; compound free Poisson).
    ml2-1:         rational R-transform (pole/weight data).
    theta holds r >= 1 values, A 0 (read as zeros) or r values (ml2: 0 or 1), ml2 needs r
    rates c_j > 0, pairwise distinct (the rule of ML2Spec), jp needs B >= 0
    (beta = B |n| + O(1) stays above -1), and Type I 1 <= i <= r.  Degenerate
    assumptions are flagged, not fatal.
    """
    fam, r = resolve(family), len(params.theta)
    if r == 0:
        raise InvalidParameters(f"{fam.name} needs at least one theta_j")
    nA = 1 if fam.kind == "ml2" else r
    if len(params.A) not in (0, nA):
        raise InvalidParameters(f"{fam.name} takes 0 or {nA} values A, got {len(params.A)}")
    if fam.kind == "ml2":
        if len(params.c) != r:
            raise InvalidParameters(f"{fam.name} needs one c per weight: {r}, got {len(params.c)}")
        _check_rates(params.c)
    if fam.kind == "jp" and params.B < 0:
        raise InvalidParameters(f"{fam.name} needs B >= 0, got B = {params.B}")
    if fam.type_ == "I" and not 1 <= params.i <= r:
        raise InvalidParameters(f"{fam.name} needs 1 <= i <= {r}, got i = {params.i}")
    params = params if params.A else replace(params, A=(Fraction(0),) * nA)
    return FamilyLimit(family=fam.name, **fam.limit(params))


def endpoints(family: str, **params):
    """Closed-form support endpoint <family>-r2[-a|-b], <family> any spelling.

    JP-I-r2(theta):    c* with support [-c*, 0]
    ML1-I-r2(theta):   c* with support [-c*, 0]
    JP-II-r2-A(A):     a* with support [a*, 1]
    JP-II-r2-B(B):     b* with support [0, b*]
    ML1-II-r2(theta):  c* with support [0, c*]; continuous limits at the
                       theta boundaries (27/8 at 1/2, 4 at 0+).
    Exact rationals are returned whenever the formula stays rational.
    """
    return closed_form(family, "endpoints")(**params)
