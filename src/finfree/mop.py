"""The six multiple-orthogonal-polynomial families and their verifiers.

Families (r weights on an interval):
  Jacobi-Pineiro          w_j = x^alpha_j (1-x)^beta   on [0, 1]
  multiple Laguerre, 1st  w_j = x^alpha_j e^(-x)       on [0, inf)
  multiple Laguerre, 2nd  w_j = x^alpha  e^(-c_j x)    on [0, inf)

Type I delivers the vector (A_{n,1}, ..., A_{n,r}) with deg A_j <= n_j - 1
through hypergeometric formulas per component; Type II the single monic
polynomial of degree |n|.  Every constructor here is an exact rational
expansion; the orthogonality oracle integrates the results against the
weights through their exact Beta/Gamma moments, which is the one check that
does not reuse the hypergeometric identities being exercised.  Its verdicts
are exact: each moment is C_j times a rational, and the Type I constants
enter only as the rationals lambda_j = c_j C_j (up to one common factor).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import mpmath as mp

from .conv import add_conv, mult_conv
from .errors import InvalidParameters, NonIntegerBetaPath, DuplicateC
from .hyper import HypergeometricSpec, hyper_poly, pochhammer_falling, pochhammer_rising
from .poly import Polynomial
from .series import series_mul

# -- family specs ----------------------------------------------------------------


def _frac_tuple(xs):
    return tuple(Fraction(x) for x in xs)


@dataclass(frozen=True)
class JPSpec:
    """Jacobi-Pineiro data: alpha_j > -1 pairwise non-integer-differing, beta > -1."""

    alpha: tuple
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frac_tuple(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
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
        object.__setattr__(self, "alpha", _frac_tuple(self.alpha))
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
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "c", _frac_tuple(self.c))
        if self.alpha <= -1:
            raise InvalidParameters("alpha must exceed -1")
        if any(cj <= 0 for cj in self.c):
            raise DuplicateC("all c_j must be positive")
        if len(set(self.c)) != len(self.c):
            raise DuplicateC("c_j must be pairwise distinct")

    @property
    def r(self):
        return len(self.c)


def _check_alphas(alpha):
    if any(a <= -1 for a in alpha):
        raise InvalidParameters("every alpha_j must exceed -1")
    for i in range(len(alpha)):
        for j in range(i + 1, len(alpha)):
            if (alpha[i] - alpha[j]).denominator == 1:
                raise InvalidParameters("alpha_i - alpha_j must not be an integer")


def _size(n):
    return sum(n)


def unit_index(r, i):
    """Multi-index e_i (1-based component i)."""
    return tuple(1 if j == i - 1 else 0 for j in range(r))


def add_index(n, e):
    return tuple(a + b for a, b in zip(n, e))


# -- Type I constructors -----------------------------------------------------------


def jp_typeI_spec(spec: JPSpec, n, i) -> HypergeometricSpec:
    """Hypergeometric data of the i-th Type I Jacobi-Pineiro component."""
    al, beta, N = spec.alpha, spec.beta, _size(n)
    ai = al[i - 1]
    a = [ai + beta + N] + [ai + 1 - al[j] - n[j] for j in range(spec.r) if j != i - 1]
    b = [ai + 1] + [ai + 1 - al[j] for j in range(spec.r) if j != i - 1]
    return HypergeometricSpec(n=n[i - 1] - 1, a=tuple(a), b=tuple(b))


def jp_typeI(spec: JPSpec, n, i) -> Polynomial:
    """Type I Jacobi-Pineiro component, hypergeometric normalization.

    Degree n_i - 1; the orthogonality normalizing constant is not applied
    (see jp_typeI_constant).
    """
    return hyper_poly(jp_typeI_spec(spec, n, i))


def jp_typeI_blocks(spec: JPSpec, n, i):
    """The 2F1 building blocks whose multiplicative convolution gives jp_typeI."""
    al, beta, N = spec.alpha, spec.beta, _size(n)
    m = n[i - 1] - 1
    ai = al[i - 1]
    out = []
    for j in range(spec.r):
        if j == i - 1:
            out.append(HypergeometricSpec(n=m, a=(ai + beta + N,), b=(ai + 1,)))
        else:
            out.append(
                HypergeometricSpec(n=m, a=(ai - al[j] - n[j] + 1,), b=(ai - al[j] + 1,))
            )
    return out


def jp_typeI_constant(spec: JPSpec, n, i, prec=256):
    """Normalizing constant c_i = lambda_i / B(alpha_i + 1, beta + 1) making the
    Type I vector satisfy the unit moment; lambda_i is exact (_typeI_lambda)."""
    with mp.workprec(prec):
        return _to_mpf(_typeI_lambda("jp", spec, n, i)) / _moment_constant(_weight("jp", spec, i - 1))


def ml1_typeI_spec(spec: ML1Spec, n, i) -> HypergeometricSpec:
    al, N = spec.alpha, _size(n)
    ai = al[i - 1]
    a = [ai + 1 - al[j] - n[j] for j in range(spec.r) if j != i - 1]
    b = [ai + 1] + [ai + 1 - al[j] for j in range(spec.r) if j != i - 1]
    return HypergeometricSpec(n=n[i - 1] - 1, a=tuple(a), b=tuple(b))


def ml1_typeI(spec: ML1Spec, n, i) -> Polynomial:
    """Type I multiple Laguerre (first kind) component, degree n_i - 1."""
    return hyper_poly(ml1_typeI_spec(spec, n, i))


def ml1_typeI_constant(spec: ML1Spec, n, i, prec=256):
    """Normalizing constant c_i = lambda_i / Gamma(alpha_i + 1), see _typeI_lambda."""
    with mp.workprec(prec):
        return _to_mpf(_typeI_lambda("ml1", spec, n, i)) / _moment_constant(_weight("ml1", spec, i - 1))


def ml1_laguerre_factor(spec, n, i) -> HypergeometricSpec:
    """The Laguerre block linking jp_typeI and ml1_typeI multiplicatively."""
    al, beta, N = spec.alpha, spec.beta, _size(n)
    return HypergeometricSpec(n=n[i - 1] - 1, a=(), b=(al[i - 1] + beta + N,))


def ml2_typeI(spec: ML2Spec, n, i) -> Polynomial:
    """Type I multiple Laguerre (second kind) via the additive decomposition.

    The i-th component is the (+)-convolution over j of

        j = i:   1F1(-(n_i - 1); alpha + 1 + |n| - n_i; c_i x)
        j != i:  1F1(-(n_i - 1); -n_j - n_i + 2; (c_i - c_j) x)

    which needs n_j >= 2 for j != i (otherwise the denominator parameter is
    inadmissible).
    """
    N = _size(n)
    m = n[i - 1] - 1
    blocks = []
    for j in range(spec.r):
        if j == i - 1:
            blocks.append(
                HypergeometricSpec(n=m, b=(spec.alpha + 1 + N - n[i - 1],), scale=spec.c[i - 1])
            )
        else:
            if n[j] < 2:
                raise InvalidParameters("additive blocks need n_j >= 2 for j != i")
            blocks.append(
                HypergeometricSpec(n=m, b=(Fraction(-n[j] - n[i - 1] + 2),), scale=spec.c[i - 1] - spec.c[j])
            )
    out = hyper_poly(blocks[0])
    for blk in blocks[1:]:
        out = add_conv(out, hyper_poly(blk), m)
    return out


# -- Type II constructors -----------------------------------------------------------


def jp_typeII(spec: JPSpec, n, path="auto") -> Polynomial:
    """Monic Type II Jacobi-Pineiro polynomial of degree |n|.

    For beta a nonnegative integer the (1-x)^beta factor is divided out of
    the degree |n| + beta hypergeometric polynomial, exactly.  Otherwise the
    reversed-product representation is used (path="reversed"); requesting
    path="integer" with non-integer beta raises NonIntegerBetaPath.
    """
    if path == "auto":
        path = "integer" if spec.beta.denominator == 1 and spec.beta >= 0 else "reversed"
    if path == "integer":
        if spec.beta.denominator != 1 or spec.beta < 0:
            raise NonIntegerBetaPath("integer-beta path needs beta in Z_{>=0}")
        N = _size(n)
        beta = int(spec.beta)
        big = hyper_poly(
            HypergeometricSpec(
                n=N + beta,
                a=tuple(spec.alpha[j] + n[j] + 1 for j in range(spec.r)),
                b=tuple(spec.alpha[j] + 1 for j in range(spec.r)),
            )
        )
        for _ in range(beta):
            big = big.divide_linear(Fraction(1))
        return big.monicized()
    return _jp_typeII_reversed(spec, n)


def _jp_typeII_reversed(spec: JPSpec, n) -> Polynomial:
    """Reversed-product route, valid for any beta > -1.

    P is (1-x)^(-beta) times a hypergeometric series, so the reversed-product
    trick applies to the factor pair ((1-x)^(-beta), (1-x)^beta P):

        P* ~ F(-N,1;;x) (x)_N [F(-N; -beta-N+1; x) (+)_N
                                (F(-N; beta+1; x) (x)_N F(-N, -N-a; -N-n-a; x))]

    and reversing back gives P up to the monic normalization.
    """
    N = _size(n)
    q = hyper_poly(
        HypergeometricSpec(
            n=N,
            a=tuple(-N - a for a in spec.alpha),
            b=tuple(-N - n[j] - spec.alpha[j] for j in range(spec.r)),
        )
    )
    inner2 = mult_conv(hyper_poly(HypergeometricSpec(n=N, b=(spec.beta + 1,))), q, N)
    inner = add_conv(
        hyper_poly(HypergeometricSpec(n=N, b=(-spec.beta - N + 1,))), inner2, N
    )
    p_star = mult_conv(hyper_poly(HypergeometricSpec(n=N, a=(Fraction(1),))), inner, N)
    return p_star.reverse().monicized()


def ml1_typeII(spec: ML1Spec, n) -> Polynomial:
    """Monic Type II multiple Laguerre (first kind), degree |n|.

    Built as the reversal of F(-|n|, 1; ; x) (x)_N F(-|n|, -|n|-alpha;
    -|n|-n-alpha; x+1), the reciprocal representation.
    """
    N = _size(n)
    shifted = hyper_poly(
        HypergeometricSpec(
            n=N,
            a=tuple(-N - a for a in spec.alpha),
            b=tuple(-N - n[j] - spec.alpha[j] for j in range(spec.r)),
            shift=Fraction(1),
        )
    )
    p_star = mult_conv(hyper_poly(HypergeometricSpec(n=N, a=(Fraction(1),))), shifted, N)
    return p_star.reverse().monicized()


def ml2_typeII_routes(spec: ML2Spec, n):
    """The three stated representations, unnormalized, for exact comparison.

    direct:   explicit double sum over bounded compositions;
    factored: q^(alpha) (x)_N (p_1 (+)_N ... (+)_N p_r);
    linear:   falling(alpha+N, N) F(-N; alpha+1; x) (x)_N prod (x-1/c_j)^{n_j}.
    All three are claimed (and tested) to coincide coefficient-for-coefficient.
    """
    N = _size(n)
    direct = _ml2_direct(spec, n)

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

    prod = Polynomial.from_roots(
        [Fraction(1) / cj for cj, nj in zip(spec.c, n) for _ in range(nj)]
    )
    lag = hyper_poly(HypergeometricSpec(n=N, b=(spec.alpha + 1,))).scaled((-1) ** N)
    linear = mult_conv(lag, prod, N).scaled(pochhammer_falling(spec.alpha + N, N))
    return direct, factored, linear


def ml2_typeII(spec: ML2Spec, n) -> Polynomial:
    """Monic Type II multiple Laguerre (second kind), degree |n|.

    By generating functions: e_k = falling(alpha + N, k) [t^k] prod_j
    (1 + t/c_j)^{n_j}, one series product per weight; the same e_k as the
    composition sum of the direct route.
    """
    N = _size(n)
    gen = [Fraction(1)]
    for nj, cj in zip(n, spec.c):
        gen = series_mul(gen, [comb(nj, k) / cj**k for k in range(nj + 1)], N)
    e, falling = [], Fraction(1)
    for k in range(N + 1):
        e.append(falling * gen[k])
        falling *= N + spec.alpha - k
    return Polynomial(N, e).monicized()


def _ml2_direct(spec: ML2Spec, n) -> Polynomial:
    """The explicit double sum over bounded compositions, unnormalized:
    e_k = falling(alpha + N, k) sum_{|k| = k} prod_j C(n_j, k_j) / c_j^k_j."""
    N = _size(n)
    e = []
    for k in range(N + 1):
        s = Fraction(0)
        for ks in _bounded_compositions(k, n):
            term = Fraction(1)
            for nj, kj, cj in zip(n, ks, spec.c):
                term *= Fraction(comb(nj, kj), 1) / cj**kj
            s += term
        e.append(pochhammer_falling(N + spec.alpha, k) * s)
    return Polynomial(N, e)


def _bounded_compositions(total, bounds):
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


# -- weights and the orthogonality oracle ----------------------------------------------
#
# Every weight has exact moments up to one transcendental factor:
#
#   int x^m w_j = C_j rho_j(m),   rho_j rational, rho_j(0) = 1,
#
# so int P x^k w_j = C_j R_j(k) with R_j(k) = sum_i p_i rho_j(i + k) exact.


def _weight(family, spec, j):
    """Weight j as (a, b, c): x^a (1-x)^b on [0, 1] if c is None, else x^a e^(-c x)."""
    if family == "jp":
        return spec.alpha[j], spec.beta, None
    if family == "ml1":
        return spec.alpha[j], None, Fraction(1)
    if family == "ml2":
        return spec.alpha, None, spec.c[j]
    raise ValueError(family)


def _moment_ratios(weight, top):
    """rho(0..top): (a+1)_m / (a+b+2)_m for the Beta weight, (a+1)_m / c^m for Gamma."""
    a, b, c = weight
    out = [Fraction(1)]
    for m in range(top):
        out.append(out[-1] * (a + 1 + m) / ((a + b + 2 + m) if c is None else c))
    return out


def _moment_constant(weight):
    """C = int w: B(a+1, b+1) or Gamma(a+1) c^(-a-1), at the working precision."""
    a, b, c = weight
    if c is None:
        return mp.beta(_to_mpf(a + 1), _to_mpf(b + 1))
    return mp.gamma(_to_mpf(a + 1)) * mp.power(_to_mpf(c), -_to_mpf(a + 1))


def _moment_rows(poly, weight, count):
    """R(k) = (int poly x^k w) / C for k < count, as exact Fractions."""
    mono = poly.to_monomial()
    rho = _moment_ratios(weight, len(mono) + count - 2)
    return [sum(p * rho[i + k] for i, p in enumerate(mono)) for k in range(count)]


def _scale_free_residual(moments, top, what):
    """max_{k < top} |moments[k]| / |moments[top]|, exact when the moments are."""
    scale = abs(moments[top])
    if scale == 0:
        raise InvalidParameters(f"{what} moment vanished")
    return float(max((abs(v) for v in moments[:top]), default=0) / scale)


def _typeI_lambda(family, spec, n, i):
    """lambda_i = c_i C_i for jp/ml1, exact: the Gamma factors of c_i cancel C_i.

    ml1: (-1)^{N-1} / ((n_i - 1)! prod_{k != i} (alpha_k - alpha_i)_{n_k}); jp
    multiplies that by (a+1)_{N-1} / ((a+1) (beta+1)_{N-1}) prod_k
    (alpha_k + beta + N)_{n_k}, with a = alpha_i + beta and N = |n|.
    """
    al, N = spec.alpha, _size(n)
    lam = Fraction((-1) ** (N - 1), factorial(n[i - 1] - 1))
    for k, (ak, nk) in enumerate(zip(al, n)):
        if k != i - 1:
            lam /= pochhammer_rising(ak - al[i - 1], nk)
    if family == "jp":
        beta = spec.beta
        a = al[i - 1] + beta
        lam *= pochhammer_rising(a + 1, N - 1) / ((a + 1) * pochhammer_rising(beta + 1, N - 1))
        for ak, nk in zip(al, n):
            lam *= pochhammer_rising(ak + beta + N, nk)
    return lam


def _type1_components(family, spec, n, weights, C, count):
    """Type I vector (A_1, ..., A_r), its rows R_j(k) for k < count, and exact
    lam with a scale s: the constant on A_j is c_j = lam_j s / C_j.

    jp/ml1: lam_j = c_j C_j in closed form, s = 1.  ml2: lam = q calibrated on
    the first r-1 rows, s = C_r; the other |n|-r conditions stay genuine checks.
    """
    ctor = {"jp": jp_typeI, "ml1": ml1_typeI, "ml2": ml2_typeI}[family]
    idx = range(1, spec.r + 1)
    polys = [ctor(spec, n, i) for i in idx]
    rows = [_moment_rows(p, w, count) for p, w in zip(polys, weights)]
    if family == "ml2":
        return polys, rows, _calibrate_type1(rows), C[-1]
    return polys, rows, [_typeI_lambda(family, spec, n, i) for i in idx], 1


def _calibrate_type1(rows):
    """Relative Type I weights q from the first r-1 moment rows, solved over Q.

    rows[j][k] = R_j(k).  Gauss-Jordan elimination gives q with q_r = 1 and
    sum_j q_j R_j(k) = 0 for k < r-1.
    """
    m = len(rows) - 1
    aug = [[rows[j][k] for j in range(m)] + [-rows[m][k]] for k in range(m)]
    for col in range(m):
        piv = next((i for i in range(col, m) if aug[i][col] != 0), None)
        if piv is None:
            raise InvalidParameters("Type I calibration rows are singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        head = aug[col][col]
        aug[col] = [v / head for v in aug[col]]
        for i in range(m):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    return [aug[k][m] for k in range(m)] + [Fraction(1)]


def verify_orthogonality(family, spec, n, type_, prec=256):
    """Exact-moment check of the defining orthogonality, scale-free residuals.

    type_="II": per weight j, residual_k = |int P x^k w_j| / |int P x^{n_j} w_j|
    for k < n_j.  type_="I": residual_k = |M_k| / |M_{|n|-1}| for k <= |n|-2,
    M_k = sum_j c_j int A_j x^k w_j = s sum_j lam_j R_j(k) with lam_j exact
    (see _type1_components; s = 1 makes the jp/ml1 normalization exactly 1).
    Every residual is a ratio of exact rationals, so a correct constructor
    gives 0.0.  Returns a dict with the max residual, the normalization datum
    (nonzero is part of the contract) and, for Type I, the constants c_j.
    """
    N = _size(n)
    weights = [_weight(family, spec, j) for j in range(spec.r)]
    with mp.workprec(prec + 32):
        C = [_moment_constant(w) for w in weights]
        if type_ == "II":
            P = {"jp": jp_typeII, "ml1": ml1_typeII, "ml2": ml2_typeII}[family](spec, n)
            rows = [_moment_rows(P, w, nj + 1) for w, nj in zip(weights, n)]
            worst = max(_scale_free_residual(row, nj, "first non-forced") for row, nj in zip(rows, n))
            norms = [Cj * _to_mpf(row[nj]) for Cj, row, nj in zip(C, rows, n)]
            return {"max_residual": worst, "normalization": norms}
        _, rows, lam, scale = _type1_components(family, spec, n, weights, C, N)
        moments = [sum(l * row[k] for l, row in zip(lam, rows)) for k in range(N)]
        worst = _scale_free_residual(moments, N - 1, "Type I normalization")
        consts = [scale * _to_mpf(l) / Cj for l, Cj in zip(lam, C)]
        return {"max_residual": worst, "normalization": scale * _to_mpf(moments[N - 1]), "constants": consts}


def typeI_function_eval(family, spec, n, xs, prec=256):
    """Values of Q_n(x) = sum_j c_j A_j(x) w_j(x) on a grid (mpmath), and the c_j."""
    weights = [_weight(family, spec, j) for j in range(spec.r)]
    with mp.workprec(prec):
        C = [_moment_constant(w) for w in weights]
        polys, _, lam, scale = _type1_components(family, spec, n, weights, C, spec.r - 1)
        consts = [scale * _to_mpf(l) / Cj for l, Cj in zip(lam, C)]
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
        return (0.0, 1.0) if family == "jp" else (0.0, float("inf"))
    if r % 2 == 0:
        return (float("-inf"), 0.0)
    return (0.0, float("inf"))


def theorem_suite_zero_location(family, spec, n, i, precision_bits=None, tau=1e-18):
    """Hypothesis check + zero location + derivative shift for Type I families.

    Returns a report dict; when the hypothesis window fails, no location
    claim is asserted (`claim_checked` False), matching the theorem's scope.
    The weakened window is reported separately: it only implies real roots.
    """
    from .roots import find_roots, real_parts_sorted

    ctor = jp_typeI if family == "jp" else ml1_typeI
    hyp = jp_condition_window(spec, n, i)
    weak = jp_condition_weak(spec, n, i)
    report = {"hypothesis": hyp, "weak_hypothesis": weak, "claim_checked": False}
    poly = ctor(spec, n, i)
    if hyp:
        lo, hi = delta_r_interval(family, spec.r)
        roots = real_parts_sorted(find_roots(poly, precision_bits), tau=1e-12)
        inside = all(lo - tau < x < hi + tau for x in roots)
        report.update({"claim_checked": True, "zeros_in_delta_r": inside, "roots": roots})
    # derivative relation: d/dx A_{n,i} is proportional to the (n - e_i) component
    if n[i - 1] >= 2:
        shifted_spec = (
            JPSpec(
                alpha=tuple(a + (1 if j == i - 1 else 0) for j, a in enumerate(spec.alpha)),
                beta=spec.beta + 1,
            )
            if family == "jp"
            else ML1Spec(
                alpha=tuple(a + (1 if j == i - 1 else 0) for j, a in enumerate(spec.alpha))
            )
        )
        n_minus = tuple(v - (1 if j == i - 1 else 0) for j, v in enumerate(n))
        deriv = poly.derivative()
        target = ctor(shifted_spec, n_minus, i)
        report["derivative_shift"] = deriv.proportional_to(target) is not None
    return report
