"""The six multiple-orthogonal-polynomial families and their verifiers.

Families (r weights on an interval):
  Jacobi-Pineiro          w_j = x^alpha_j (1-x)^beta   on [0, 1]
  multiple Laguerre, 1st  w_j = x^alpha_j e^(-x)       on [0, inf)
  multiple Laguerre, 2nd  w_j = x^alpha  e^(-c_j x)    on [0, inf)

Type I delivers the vector (A_{n,1}, ..., A_{n,r}) with deg A_j <= n_j - 1:
a pFq per component for Jacobi-Pineiro and ml1, a product of binomial series
for ml2.  Type II is the single monic polynomial of degree |n|, by one route
per family: the Rodrigues series for Jacobi-Pineiro, the reversed-product
representation for ml1, generating functions for ml2.  Every constructor here
is an exact rational expansion; the orthogonality oracle integrates the
results against the weights through their exact Beta/Gamma moments, which is
the one check that does not reuse the hypergeometric identities being
exercised.  Its verdicts are exact: each moment is C_j times a rational, and
the Type I constants enter only as closed-form rationals lambda_j = c_j C_j.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, inf, prod
from operator import mul

import mpmath as mp

from .conv import add_conv, mult_conv
from .errors import DuplicateC, InvalidParameters, UnknownFamily
from .hyper import (
    HypergeometricSpec,
    _ratio_table,
    hyper_poly,
    pochhammer_falling,
    pochhammer_rising,
    reversed_product_representation,
)
from .poly import Polynomial, _as_coeff, _mul_ints

# -- family specs ----------------------------------------------------------------


@dataclass(frozen=True)
class JPSpec:
    """Jacobi-Pineiro data: alpha_j > -1 pairwise non-integer-differing, beta > -1."""

    alpha: tuple
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(map(_as_coeff, self.alpha)))
        object.__setattr__(self, "beta", _as_coeff(self.beta))
        _check_alphas(self.alpha)
        if self.beta <= -1:
            raise InvalidParameters("beta must exceed -1")

    @property
    def r(self):
        return len(self.alpha)


@dataclass(frozen=True)
class ML1Spec:
    """Multiple Laguerre (first kind): alpha_j > -1 pairwise non-integer-differing."""

    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(map(_as_coeff, self.alpha)))
        _check_alphas(self.alpha)

    @property
    def r(self):
        return len(self.alpha)


@dataclass(frozen=True)
class ML2Spec:
    """Multiple Laguerre (second kind): alpha > -1, c_j > 0 pairwise distinct."""

    alpha: Fraction
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_coeff(self.alpha))
        object.__setattr__(self, "c", tuple(map(_as_coeff, self.c)))
        if self.alpha <= -1:
            raise InvalidParameters("alpha must exceed -1")
        _check_rates(self.c)

    @property
    def r(self):
        return len(self.c)


def _check_rates(c):
    """The rule on multiple Laguerre (second kind) rates, finite n or limit: c_j > 0, pairwise distinct."""
    if any(cj <= 0 for cj in c):
        raise DuplicateC("all c_j must be positive")
    if len(set(c)) != len(c):
        raise DuplicateC("c_j must be pairwise distinct")


def _check_alphas(alpha):
    if any(a <= -1 for a in alpha):
        raise InvalidParameters("every alpha_j must exceed -1")
    for i in range(len(alpha)):
        for j in range(i + 1, len(alpha)):
            if (alpha[i] - alpha[j]).denominator == 1:
                raise InvalidParameters("alpha_i - alpha_j must not be an integer")


def unit_index(r, i):
    """Multi-index e_i (1-based component i)."""
    return tuple(1 if j == i - 1 else 0 for j in range(r))


def add_index(n, e):
    return tuple(a + b for a, b in zip(n, e))


def _check_index(spec, n, i=None):
    """n holds one index n_j >= 0 per weight; Type I (i given) needs 1 <= i <= r and n_i >= 1."""
    if len(n) != spec.r or any(nj < 0 for nj in n):
        raise InvalidParameters(f"need {spec.r} indices n_j >= 0, one per weight, got n = {tuple(n)}")
    if i is not None and not (1 <= i <= spec.r and n[i - 1] >= 1):
        raise InvalidParameters(f"Type I needs 1 <= i <= {spec.r} and n_i >= 1, got i = {i}, n = {tuple(n)}")


# -- Type I constructors -----------------------------------------------------------


def _typeI_blocks(alpha, beta, n, i, one=1):
    """Per j, the (numerators; denominator) of the 2F1 blocks of Type I component i: (a_i + beta + |n|;
    a_i + one) at j = i, no numerator when beta is None (ml1), (a_i - a_j - n_j + one; a_i - a_j + one)
    at j != i.  one = 1 at a multi-index; one = 0 at the growth rates (A, B, theta) gives the leading parts."""
    ai = alpha[i - 1]
    lead = () if beta is None else (ai + beta + sum(n),)
    return [
        (lead, ai + one) if j == i - 1 else ((ai - aj - nj + one,), ai - aj + one)
        for j, (aj, nj) in enumerate(zip(alpha, n))
    ]


def _merged_blocks(blocks, m):
    """The tuple merge of the degree-m blocks: their multiplicative convolution."""
    return HypergeometricSpec(n=m, a=tuple(x for nums, _ in blocks for x in nums), b=tuple(b for _, b in blocks))


def jp_typeI_spec(spec: JPSpec, n, i) -> HypergeometricSpec:
    """Hypergeometric data of the i-th Type I Jacobi-Pineiro component."""
    return _merged_blocks(_typeI_blocks(spec.alpha, spec.beta, n, i), n[i - 1] - 1)


def jp_typeI(spec: JPSpec, n, i) -> Polynomial:
    """Type I Jacobi-Pineiro component, hypergeometric normalization.

    Degree n_i - 1; the orthogonality normalizing constant is not applied
    (verify_orthogonality reports it).
    """
    _check_index(spec, n, i)
    return hyper_poly(jp_typeI_spec(spec, n, i))


def jp_typeI_blocks(spec: JPSpec, n, i):
    """The 2F1 building blocks whose multiplicative convolution gives jp_typeI."""
    return [HypergeometricSpec(n=n[i - 1] - 1, a=a, b=(b,)) for a, b in _typeI_blocks(spec.alpha, spec.beta, n, i)]


def ml1_typeI_spec(spec: ML1Spec, n, i) -> HypergeometricSpec:
    return _merged_blocks(_typeI_blocks(spec.alpha, None, n, i), n[i - 1] - 1)


def ml1_typeI(spec: ML1Spec, n, i) -> Polynomial:
    """Type I multiple Laguerre (first kind) component, degree n_i - 1."""
    _check_index(spec, n, i)
    return hyper_poly(ml1_typeI_spec(spec, n, i))


def ml1_laguerre_factor(spec, n, i) -> HypergeometricSpec:
    """The Laguerre block linking jp_typeI and ml1_typeI multiplicatively: F(-m; ; a_i + beta + |n|)."""
    lead, _ = _typeI_blocks(spec.alpha, spec.beta, n, i)[i - 1]
    return HypergeometricSpec(n=n[i - 1] - 1, a=(), b=lead)


def _ml2_factors(alpha, c, n, i, one=1):
    """The (x, p) of the factors (1 + t/x)^p of ml2 Type I component i: (c_i, alpha + |n| - one), then
    (c_i - c_j, -n_j) for j != i with n_j > 0.  one = 0 at the growth rates (A, theta) gives the leading p."""
    ci = c[i - 1]
    return [(ci, alpha + sum(n) - one)] + [(ci - cj, -nj) for j, (cj, nj) in enumerate(zip(c, n)) if j != i - 1 and nj]


def ml2_typeI(spec: ML2Spec, n, i) -> Polynomial:
    """Type I multiple Laguerre (second kind) component, degree m = n_i - 1.

    The paper's additive decomposition is the (+)_m-convolution over j with
    n_j > 0 of 1F1(-m; alpha + 1 + |n| - n_i; c_i x) (j = i) and
    1F1(-m; 2 - n_j - n_i; (c_i - c_j) x) (j != i).  In e_k / falling(m, k) it
    is a product of binomial series: with N = |n| and L_i = e_0 (_ml2_leading),

        e_k = L_i falling(m, k) [t^k] (1 + t/c_i)^(alpha+N-1) prod_{j != i, n_j > 0} (1 + t/(c_i - c_j))^(-n_j),

    which holds for every n_j >= 0, j != i.  The factors are _ml2_factors.
    """
    _check_index(spec, n, i)
    m, factors = n[i - 1] - 1, _ml2_factors(spec.alpha, spec.c, n, i)
    lead, (gen, gd) = _ml2_leading(factors, m), _binomial_series(factors, m)
    falling, fd = _ratio_table((-m, 1), (), -1, m)
    return Polynomial._from_ints(m, [lead.numerator * f * g for f, g in zip(falling, gen)], lead.denominator * fd * gd)


def _ml2_leading(factors, m):
    """L_i = prod (-x)^m / (p + 1 - m)_m over the factors (x, p) of _ml2_factors, m = n_i - 1."""
    return prod((-x) ** m / pochhammer_rising(p + 1 - m, m) for x, p in factors)


def _binomial_series(powers, K):
    """prod (1 + t/x)^p over the pairs (x, p), as the numerators of t^0..t^K over one denominator."""
    out, d = [1] + [0] * K, 1
    for x, p in powers:
        t, td = _ratio_table((-p,), (), -1 / x, K)
        out, d = _mul_ints(out, t, K), d * td
    return out, d


# -- Type II constructors -----------------------------------------------------------


def jp_typeII(spec: JPSpec, n) -> Polynomial:
    """Monic Type II Jacobi-Pineiro polynomial of degree N = |n|, one route for every beta.

    The Rodrigues formula gives, for every beta > -1,

        (1-x)^beta P_n  ~  prod_j x^(-alpha_j) D^(n_j) x^(alpha_j + n_j) (1-x)^(beta + N)
                        ~  F(-beta-N, alpha_j+n_j+1; alpha_j+1; x),

    so P_n is the series (1-x)^(-beta) times that F, cut at x^N: one exact
    series product of two term-ratio tables.
    """
    _check_index(spec, n)
    N = sum(n)
    (a, ad), (num, den) = _ratio_table((spec.beta,), (), 1, N), _jp_rodrigues(spec.alpha, n)
    b, bd = _ratio_table((-spec.beta - N, *num), den, 1, N)
    return Polynomial._from_mono_ints(N, _mul_ints(a, b, N), ad * bd).monicized()


def _jp_rodrigues(alpha, n, one=1):
    """(alpha_j + n_j + one; alpha_j + one), jp_typeII's Rodrigues F besides -beta - N; one = 0 at the
    growth rates (A, theta) gives the leading parts."""
    return tuple(a + nj + one for a, nj in zip(alpha, n)), tuple(a + one for a in alpha)


def ml1_typeII(spec: ML1Spec, n) -> Polynomial:
    """Monic Type II multiple Laguerre (first kind), degree |n|.

    Built as the reversal of F(-|n|, 1; ; x) (x)_N F(-|n|, -|n|-alpha;
    -|n|-n-alpha; x+1), the reciprocal representation.  A weight with n_j = 0
    is left out: its pair (-|n|-alpha_j, -|n|-alpha_j) cancels in every ratio.
    """
    _check_index(spec, n)
    N = sum(n)
    kept = [(a, nj) for a, nj in zip(spec.alpha, n) if nj]
    shifted = HypergeometricSpec(
        n=N, a=tuple(-N - a for a, _ in kept), b=tuple(-N - nj - a for a, nj in kept), shift=Fraction(1)
    )
    return reversed_product_representation(shifted, None).reverse().monicized()


def ml2_typeII_routes(spec: ML2Spec, n):
    """The paper's two convolution representations, unnormalized, for exact comparison.

    factored: q^(alpha) (x)_N (p_1 (+)_N ... (+)_N p_r);
    linear:   falling(alpha+N, N) F(-N; alpha+1; x) (x)_N prod (x-1/c_j)^{n_j}.
    Both are claimed (and tested against the explicit composition sum) to
    coincide coefficient-for-coefficient.
    """
    N = sum(n)
    parts = []
    for j in range(spec.r):
        base = hyper_poly(
            HypergeometricSpec(n=n[j], b=(Fraction(N - n[j] + 1),), scale=spec.c[j])
        )
        mono = [Fraction(0)] * (N - n[j]) + [
            c * (-1) ** (N - n[j]) for c in base.to_monomial()
        ]
        parts.append(
            Polynomial.from_monomial(mono, N).scaled(
                pochhammer_falling(N, n[j]) / spec.c[j] ** n[j]
            )
        )
    acc = parts[0]
    for p in parts[1:]:
        acc = add_conv(acc, p, N)
    # the e-convention puts a global (-1)^N on the hypergeometric factor
    q_alpha = hyper_poly(
        HypergeometricSpec(n=N, a=(Fraction(1),), b=(spec.alpha + 1,))
    ).scaled((-1) ** N * pochhammer_falling(spec.alpha + N, N) / factorial(N))
    factored = mult_conv(q_alpha, acc, N)

    rate_roots = Polynomial.from_roots(
        [Fraction(1) / cj for cj, nj in zip(spec.c, n) for _ in range(nj)]
    )
    lag = hyper_poly(HypergeometricSpec(n=N, b=(spec.alpha + 1,))).scaled((-1) ** N)
    linear = mult_conv(lag, rate_roots, N).scaled(pochhammer_falling(spec.alpha + N, N))
    return factored, linear


def ml2_typeII(spec: ML2Spec, n) -> Polynomial:
    """Monic Type II multiple Laguerre (second kind), degree |n|.

    By generating functions: e_k = falling(alpha + N, k) [t^k] prod_j
    (1 + t/c_j)^{n_j}, one series product per weight; the same e_k as the
    explicit sum over bounded compositions |k| = k of prod_j C(n_j, k_j) / c_j^k_j.
    """
    _check_index(spec, n)
    N = sum(n)
    (falling, fd), (gen, gd) = _ratio_table((-spec.alpha - N, 1), (), -1, N), _binomial_series(zip(spec.c, n), N)
    return Polynomial._from_ints(N, [f * g for f, g in zip(falling, gen)], fd * gd).monicized()


# -- weights and the orthogonality oracle ----------------------------------------------
#
# Every weight has exact moments up to one transcendental factor:
#
#   int x^m w_j = C_j rho_j(m),   rho_j rational, rho_j(0) = 1,
#
# so int P x^k w_j = C_j R_j(k) with R_j(k) = sum_i p_i rho_j(i + k) exact.


def _moment_ratios(weight, top):
    """rho(0..top): (a+1)_m / (a+b+2)_m for the Beta weight, (a+1)_m / c^m for Gamma,
    as _ratio_table's (numerators, denominator)."""
    a, b, c = weight
    if c is None:
        return _ratio_table((a + 1, 1), (a + b + 2,), 1, top)
    return _ratio_table((a + 1, 1), (), 1 / c, top)


def _moment_constant(weight):
    """C = int w: B(a+1, b+1) or Gamma(a+1) c^(-a-1), at the working precision."""
    a, b, c = weight
    if c is None:
        return mp.beta(_to_mpf(a + 1), _to_mpf(b + 1))
    return mp.gamma(_to_mpf(a + 1)) * mp.power(_to_mpf(c), -_to_mpf(a + 1))


def _moment_rows(poly, weight, count):
    """R(k) = (int poly x^k w) / C for k < count, as exact Fractions."""
    mono, pd = poly._mono_ints()
    rho, rd = _moment_ratios(weight, len(mono) + count - 2)
    return [Fraction(sum(map(mul, mono, rho[k:])), pd * rd) for k in range(count)]


def _scale_free_residual(moments, top, what):
    """max_{k < top} |moments[k]| / |moments[top]|, exact when the moments are."""
    scale = abs(moments[top])
    if scale == 0:
        raise InvalidParameters(f"{what} moment vanished")
    return float(max((abs(v) for v in moments[:top]), default=0) / scale)


def _ml1_lambda(spec, n, i):
    """lambda_i = c_i C_i for ml1, exact (the Gamma factors of c_i cancel C_i):
    (-1)^{N-1} / ((n_i - 1)! prod_{k != i} (alpha_k - alpha_i)_{n_k}), N = |n|."""
    al, N = spec.alpha, sum(n)
    lam = Fraction((-1) ** (N - 1), factorial(n[i - 1] - 1))
    for k, (ak, nk) in enumerate(zip(al, n)):
        if k != i - 1:
            lam /= pochhammer_rising(ak - al[i - 1], nk)
    return lam


def _jp_lambda(spec, n, i):
    """lambda_i = c_i C_i for jp: the ml1 value times (a+1)_{N-1} / ((a+1)
    (beta+1)_{N-1}) prod_k (alpha_k + beta + N)_{n_k}, with a = alpha_i + beta."""
    beta, N, a = spec.beta, sum(n), spec.alpha[i - 1] + spec.beta
    lam = _ml1_lambda(spec, n, i)
    lam *= pochhammer_rising(a + 1, N - 1) / ((a + 1) * pochhammer_rising(beta + 1, N - 1))
    for ak, nk in zip(spec.alpha, n):
        lam *= pochhammer_rising(ak + beta + N, nk)
    return lam


def _ml2_lambda(spec, n, i):
    """lambda_i = c_i C_i for ml2: c_i^(N+n_i-2) / (L_i (alpha+1)_{N-1} (n_i-1)! prod_{j != i} (1 - c_i/c_j)^{n_j}),
    the product read off the factors (x, p) = (c_i - c_j, -n_j) of _ml2_factors as (1 - c_i/x)^p."""
    ni, ci, N = n[i - 1], spec.c[i - 1], sum(n)
    factors = _ml2_factors(spec.alpha, spec.c, n, i)
    den = _ml2_leading(factors, ni - 1) * pochhammer_rising(spec.alpha + 1, N - 1) * factorial(ni - 1)
    return ci ** (N + ni - 2) / (den * prod((1 - ci / x) ** p for x, p in factors[1:]))


def _ml2_spec(alpha, beta, c):
    if len(alpha) != 1:
        raise InvalidParameters(f"ml2 takes one alpha, shared by all weights, got {len(alpha)}")
    return ML2Spec(alpha[0], c)


# The kind table.  Per kind: the spec from raw (alpha, beta, c); weight j as
# (a, b, c), x^a (1-x)^b on [0, 1] if c is None, else x^a e^(-c x); the weights'
# interval; the exact Type I lambda_i(spec, n, i), in closed form for every
# kind; the spec of the Type I derivative relation.  `constructor` looks up
# <kind>_typeI/_typeII when called, so a rebinding (a test's patch, a tracer)
# is seen.
_Kind = namedtuple("_Kind", "spec weight support lam shifted", defaults=(None,))


class _Kinds(dict):
    def __missing__(self, family):
        raise UnknownFamily(f"unknown family kind {family!r}; known: {', '.join(self)}")


KINDS = _Kinds({
    "jp": _Kind(lambda al, beta, c: JPSpec(al, beta), lambda s, j: (s.alpha[j], s.beta, None), (0.0, 1.0),
                _jp_lambda, lambda s, i: JPSpec(add_index(s.alpha, unit_index(s.r, i)), s.beta + 1)),
    "ml1": _Kind(lambda al, beta, c: ML1Spec(al), lambda s, j: (s.alpha[j], None, Fraction(1)), (0.0, inf),
                 _ml1_lambda, lambda s, i: ML1Spec(add_index(s.alpha, unit_index(s.r, i)))),
    "ml2": _Kind(_ml2_spec, lambda s, j: (s.alpha, None, s.c[j]), (0.0, inf), _ml2_lambda),
})


def constructor(family, type_):
    """The Type I (spec, n, i) or Type II (spec, n) constructor of kind `family`."""
    KINDS[family]  # unknown kinds raise UnknownFamily
    if type_ not in ("I", "II"):
        raise InvalidParameters(f"type must be 'I' or 'II', got {type_!r}")
    return globals()[f"{family}_type{type_}"]


def _type1_components(family, spec, n):
    """Type I vector (A_1, ..., A_r) and the exact lambda_j = c_j C_j: the constant on
    A_j is c_j = lambda_j / C_j, and int x^{|n|-1} Q_n = 1; n_j = 0 gives A_j = lambda_j = 0."""
    _check_index(spec, n)
    if not sum(n):
        raise InvalidParameters(f"Type I needs |n| >= 1, got n = {tuple(n)}")
    ctor, lam = constructor(family, "I"), KINDS[family].lam
    polys = [ctor(spec, n, i) if nj else Polynomial.zero(0) for i, nj in enumerate(n, 1)]
    return polys, [lam(spec, n, i) if nj else Fraction(0) for i, nj in enumerate(n, 1)]


def verify_orthogonality(family, spec, n, type_, prec=256):
    """Exact-moment check of the defining orthogonality, scale-free residuals.

    type_="II": per weight j, residual_k = |int P x^k w_j| / |int P x^{n_j} w_j|
    for k < n_j.  type_="I": residual_k = |M_k| / |M_{|n|-1}| for k <= |n|-2,
    M_k = sum_j c_j int A_j x^k w_j = sum_j lam_j R_j(k) with lam_j exact
    (see _type1_components), so the normalization M_{|n|-1} is exactly 1.
    Every residual is a ratio of exact rationals, so a correct constructor
    gives 0.0.  Returns a dict with the max residual, the normalization datum
    (nonzero is part of the contract) and, for Type I, the constants c_j
    (c_j = 0 where n_j = 0: that A_j is the zero polynomial).
    Any type_ but "I" or "II" raises InvalidParameters.
    """
    ctor = constructor(family, type_)
    _check_index(spec, n)
    N = sum(n)
    weights = [KINDS[family].weight(spec, j) for j in range(spec.r)]
    with mp.workprec(prec + 32):
        C = [_moment_constant(w) for w in weights]
        if type_ == "II":
            P = ctor(spec, n)
            rows = [_moment_rows(P, w, nj + 1) for w, nj in zip(weights, n)]
            worst = max(_scale_free_residual(row, nj, "first non-forced") for row, nj in zip(rows, n))
            norms = [Cj * _to_mpf(row[nj]) for Cj, row, nj in zip(C, rows, n)]
            return {"max_residual": worst, "normalization": norms}
        polys, lam = _type1_components(family, spec, n)
        rows = [_moment_rows(p, w, N) for p, w in zip(polys, weights)]
        moments = [sum(l * row[k] for l, row in zip(lam, rows)) for k in range(N)]
        worst = _scale_free_residual(moments, N - 1, "Type I normalization")
        consts = [_to_mpf(l) / Cj for l, Cj in zip(lam, C)]
        return {"max_residual": worst, "normalization": _to_mpf(moments[N - 1]), "constants": consts}


def typeI_function_eval(family, spec, n, xs):
    """Values of Q_n(x) = sum_j c_j A_j(x) w_j(x) on a grid (mpmath at 256 bits), and the c_j."""
    weights = [KINDS[family].weight(spec, j) for j in range(spec.r)]
    with mp.workprec(256):
        polys, lam = _type1_components(family, spec, n)
        consts = [_to_mpf(l) / _moment_constant(w) for l, w in zip(lam, weights)]
        coeffs = [[_to_mpf(c) for c in reversed(p.to_monomial())] for p in polys]

        def weight(j, x):
            a, b, c = weights[j]
            tail = (1 - x) ** _to_mpf(b) if c is None else mp.e ** (-_to_mpf(c) * x)
            return x ** _to_mpf(a) * tail

        out = [
            mp.fsum(consts[j] * mp.polyval(coeffs[j], x) * weight(j, x) for j in range(spec.r))
            for x in map(mp.mpf, xs)
        ]
        return out, consts


def _to_mpf(x):
    """A Fraction (or int, float, mpf) as an mpf at the working precision."""
    if hasattr(x, "denominator"):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


# -- zero-location / interlacing theorem suite ----------------------------------------


def jp_condition_window(spec, n, i):
    """alpha_1 - 1 < alpha_i < min_j (alpha_j + n_j) - n_i + 1 (alphas sorted desc)."""
    al = spec.alpha
    ai = al[i - 1]
    upper = min(al[j] + n[j] for j in range(len(al))) - n[i - 1] + 1
    return max(al) - 1 < ai < upper


def jp_condition_weak(spec, n, i):
    """The weakened two-sided window implying only real-rootedness."""
    al = spec.alpha
    ai = al[i - 1]
    r = len(al)
    for j in range(r):
        if j == i - 1:
            continue
        ok1 = al[j] - 2 < ai < al[j] + n[j] - n[i - 1] + 2
        others = [k for k in range(r) if k not in (i - 1, j)]
        if others:
            ok2 = (
                max(al[k] for k in others) - 1
                < ai
                < min(al[k] + n[k] for k in others) - n[i - 1] + 1
            )
        else:
            ok2 = True
        if ok1 and ok2:
            return True
    return False


def delta_r_interval(family, r):
    """Zero-location target Delta_r: alternating half-lines for r >= 2."""
    if r == 1:
        return KINDS[family].support
    if r % 2 == 0:
        return (float("-inf"), 0.0)
    return (0.0, float("inf"))


def theorem_suite_zero_location(family, spec, n, i):
    """Hypothesis check + zero location + derivative shift for Type I families.

    Returns a report dict; when the hypothesis window fails, no location
    claim is asserted (`claim_checked` False), matching the theorem's scope.
    The weakened window is reported separately: it only implies real roots.
    Only kinds with a Type I derivative relation in KINDS (jp, ml1) are
    covered; any other kind raises InvalidParameters.  A zero counts as in
    Delta_r within 1e-18 of its ends.
    """
    from .roots import find_roots, real_parts_sorted

    _check_index(spec, n, i)
    shifted, ctor = KINDS[family].shifted, constructor(family, "I")
    if shifted is None:
        covered = ", ".join(k for k, kind in KINDS.items() if kind.shifted is not None)
        raise InvalidParameters(f"the zero-location suite covers kinds {covered}, not {family!r}")
    hyp = jp_condition_window(spec, n, i)
    weak = jp_condition_weak(spec, n, i)
    report = {"hypothesis": hyp, "weak_hypothesis": weak, "claim_checked": False}
    poly = ctor(spec, n, i)
    if hyp:
        lo, hi = delta_r_interval(family, spec.r)
        roots = real_parts_sorted(find_roots(poly), tau=1e-12)
        inside = all(lo - 1e-18 < x < hi + 1e-18 for x in roots)
        report.update({"claim_checked": True, "zeros_in_delta_r": inside, "roots": roots})
    # derivative relation: d/dx A_{n,i} is proportional to the (n - e_i) component
    if n[i - 1] >= 2:
        target = ctor(shifted(spec, i), tuple(a - b for a, b in zip(n, unit_index(spec.r, i))), i)
        report["derivative_shift"] = poly.derivative().proportional_to(target) is not None
    return report
