"""Terminating generalized hypergeometric and Kampe de Feriet constructors.

A terminating series with numerator parameter -n,

    F(-n, a; b; z) = sum_{k=0}^{n} (-n)_k (a)_k / ((b)_k k!) * z^k,

is a polynomial of degree <= n whenever no denominator parameter lies in
{0, -1, ..., -n}; the degree equals n exactly iff no numerator parameter
lies in {0, -1, ..., -(n-1)}.  All parameters here are exact rationals:
the specs and the Pochhammer symbols read every number by `poly._as_coeff`
(a float is its dyadic value; a string or a bool raises), and every
expansion is exact: each coefficient table comes from one ratio
recurrence, and the products of tables, the affine argument (a Taylor
shift) and the additive convolution run on the integer kernel of `poly`.

The module also carries the structural theorems used throughout: the
multiplicative-convolution merge of parameter tuples, the differential
operator route for the additive convolution, the reversed-product trick,
and the two factorizations of Kampe de Feriet polynomials into convolution
expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, perm, prod
from typing import ClassVar

from .conv import add_conv, mult_conv
from .errors import (
    DegreeDeficient,
    DegreeMismatch,
    InadmissibleDenominator,
    ZeroDegree,
    ZeroMultiplier,
    ZeroScale,
)
from .poly import Polynomial, _as_coeff, _degree, _mul_ints


def pochhammer_rising(a, k: int) -> Fraction:
    """(a)^rising_k = a (a+1) ... (a+k-1); empty product for k = 0."""
    if k < 0:
        raise ValueError(f"order {k} is negative")
    a = _as_coeff(a)
    u, v = a.numerator, a.denominator
    return Fraction(prod(u + i * v for i in range(k)), v**k)


def pochhammer_falling(a, k: int) -> Fraction:
    """(a)^falling_k = a (a-1) ... (a-k+1) = (-1)^k (-a)^rising_k; empty product for k = 0."""
    return (-1) ** k * pochhammer_rising(-_as_coeff(a), k)


def _check_denominators(params, n):
    """No denominator parameter may lie in {0, -1, ..., -n}."""
    for bk in params:
        if bk.denominator == 1 and -n <= bk <= 0:
            raise InadmissibleDenominator(f"denominator parameter {bk} in -Z_{n + 1}")


def _ratio_table(num, den, c, n):
    """t_k = c^k prod (num)_k / (prod (den)_k k!) for k = 0..n, by the term ratio,
    as (nums, d): t_k = nums[k] / d, primitive (d is the lcm of the reduced
    denominators).

    With each parameter read once as u/v, the ratio t_{k+1}/t_k is one
    integer quotient top/bot,

        c_u prod_den v prod_num (u + k v) / (c_v prod_num v (k+1) prod_den (u + k v)).

    The running numerator x_k of t_k over D_k = m_0 ... m_(k-1) steps as
    x_(k+1) = x_k top / g, m_k = bot / g with g = gcd(x_k top, bot), one gcd
    against the small bot; D_n is then the lcm of the denominators, and
    nums[k] = x_k m_k ... m_(n-1).  Once a term vanishes the rest are zero,
    but every denominator is still checked.  Parameters and c are ints or Fractions.
    """
    num = [(x.numerator, x.denominator) for x in num]
    den = [(y.numerator, y.denominator) for y in den]
    top0 = c.numerator * prod(v for _, v in den)
    bot0 = c.denominator * prod(v for _, v in num)
    x, xs, ms = 1, [1], []
    for k in range(n):
        bot = bot0 * (k + 1)
        for u, v in den:
            bot *= u + k * v
        if bot == 0:
            raise InadmissibleDenominator("coefficient table hits a vanishing denominator; spec not full-degree")
        if x:
            top = top0
            for u, v in num:
                top *= u + k * v
            x *= top
        g = gcd(x, bot) if bot > 0 else -gcd(x, bot)
        x //= g
        xs.append(x)
        ms.append(bot // g)
    d = 1
    for k in range(n, 0, -1):
        xs[k] *= d
        d *= ms[k - 1]
    xs[0] = d
    return xs, d


@dataclass(frozen=True)
class HypergeometricSpec:
    """Data of a terminating hypergeometric polynomial.

    Represents F(-n, a; b; scale * x + shift), expanded to an exact
    polynomial of ambient degree n; scale = -1 gives the argument -x.
    """

    n: int
    a: tuple = ()
    b: tuple = ()
    scale: Fraction = Fraction(1)
    shift: Fraction = Fraction(0)
    # Not a setting: the benchmark's recorded digests (bench/digests.json) key
    # a spec by its dataclass fields, `sign` at 0 among them; this constant
    # keeps those keys until the digests are recorded again.
    sign: ClassVar[int] = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _degree(self.n))
        object.__setattr__(self, "a", tuple(map(_as_coeff, self.a)))
        object.__setattr__(self, "b", tuple(map(_as_coeff, self.b)))
        object.__setattr__(self, "scale", _as_coeff(self.scale))
        object.__setattr__(self, "shift", _as_coeff(self.shift))
        if self.scale == 0:
            raise ZeroScale("argument scale must be nonzero")
        _check_denominators(self.b, self.n)


def hyper_poly(spec: HypergeometricSpec) -> Polynomial:
    """Expand the spec to a Polynomial in x (hypergeometric normalization).

    The constant term is 1 whenever shift = 0; monicization is a separate,
    explicit call on the result.  The scale rides in the term ratio, which
    gives F(scale x); the shift is then one Taylor shift, x -> x + shift/scale.
    """
    n = spec.n
    table = Polynomial._from_mono_ints(n, *_ratio_table((-n,) + spec.a, spec.b, spec.scale, n))
    return table.shift(-spec.shift / spec.scale) if spec.shift else table


def hyper_derivative(spec: HypergeometricSpec) -> HypergeometricSpec:
    """Spec of the derivative: n -> n-1, a -> a+1, b -> b+1 (same argument map).

    hyper_poly of the result is proportional to d/dx of hyper_poly(spec).
    """
    if spec.n < 1:
        raise ZeroDegree("derivative needs degree >= 1")
    return HypergeometricSpec(
        n=spec.n - 1,
        a=tuple(ai + 1 for ai in spec.a),
        b=tuple(bj + 1 for bj in spec.b),
        scale=spec.scale,
        shift=spec.shift,
    )


def hyper_mult_conv(spec1: HypergeometricSpec, spec2: HypergeometricSpec) -> HypergeometricSpec:
    """Parameter-tuple merge for the multiplicative convolution.

    With p, q the two plain-argument hypergeometric polynomials of common
    degree n, the coefficient formula gives exactly

        mult_conv(p, q, n) == (-1)^n * hyper_poly(merged spec).

    (The global (-1)^n is forced by the e_j sign convention; the two sides
    agree up to that explicit scalar.)
    """
    if spec1.n != spec2.n:
        raise DegreeMismatch("specs must share the degree")
    if _argument_parity(spec1) or _argument_parity(spec2):
        raise ValueError("tuple merge is stated for plain argument x")
    return HypergeometricSpec(n=spec1.n, a=spec1.a + spec2.a, b=spec1.b + spec2.b)


# -- Differential-operator route for the additive convolution -----------------


def _argument_parity(spec: HypergeometricSpec) -> int:
    """The l of an argument (-1)^l x: 1 iff scale = -1.  The operator-series
    theorems are stated for these two arguments only; any other raises ValueError."""
    if abs(spec.scale) != 1 or spec.shift:
        raise ValueError("the operator series are stated for arguments (+-) x")
    return spec.scale == -1


def _operator_series(spec: HypergeometricSpec):
    """Truncated symbol of F(-b-n+1; -a-n+1; (-1)^(i+j+l+1) t) to order n,
    for the factor F(-n, a; b; (-1)^l x) that `spec` describes, as
    _ratio_table's (numerators, denominator).

    Only the first n+1 coefficients act on x^n, so the (generally
    non-terminating) series is cut there.
    """
    n, sgn = spec.n, (-1) ** (len(spec.a) + len(spec.b) + _argument_parity(spec) + 1)
    return _ratio_table(tuple(-bk - n + 1 for bk in spec.b), tuple(-ak - n + 1 for ak in spec.a), sgn, n)


def theorem_b_rhs(spec1: HypergeometricSpec, spec2: HypergeometricSpec) -> Polynomial:
    """Apply the two operator symbols to x^n; equals p (+)_n q up to scalar (arguments (+-) x only)."""
    if spec1.n != spec2.n:
        raise DegreeMismatch("specs must share the degree")
    n = spec1.n
    (a, ad), (b, bd) = _operator_series(spec1), _operator_series(spec2)
    s = _mul_ints(a, b, n)
    # S(d/dx)[x^n] = sum_k s_k n^(k)_falling x^(n-k)
    return Polynomial._from_mono_ints(n, [s[n - m] * perm(n, n - m) for m in range(n + 1)], ad * bd)


def additive_hg_verify(spec1: HypergeometricSpec, spec2: HypergeometricSpec) -> bool:
    """Check the coefficient formula against the operator route, up to scalar (arguments (+-) x only)."""
    operator = theorem_b_rhs(spec1, spec2)
    direct = add_conv(hyper_poly(spec1), hyper_poly(spec2), spec1.n)
    if direct.is_zero and operator.is_zero:
        return True
    return direct.proportional_to(operator) is not None


# -- Lemma: reversed product as a convolution ---------------------------------


def reversed_product_representation(spec1: HypergeometricSpec, spec2: HypergeometricSpec | None) -> Polynomial:
    """Right side of the reversed-product trick.

    spec1/spec2 describe the two (+)-factors F(-n, a_k; b_k; (-1)^{l_k} x);
    the polynomial p is the product of the associated symbol series
    F(-b_k-n+1; -a_k-n+1; (-1)^{i_k+j_k+l_k+1} x), assumed of degree exactly
    n.  Returns F(-n,1;;x) (x)_n [p1 (+)_n p2], which is proportional to the
    reversed polynomial p*.  Pass spec2=None for a single factor.
    """
    n = spec1.n
    if spec2 is not None and spec2.n != n:
        raise DegreeMismatch("specs must share the degree")
    inner = hyper_poly(spec1)
    if spec2 is not None:
        inner = add_conv(inner, hyper_poly(spec2), n)
    # F(-n, 1; ; x): e_k = C(n,k) (n-k)! up to the global sign convention
    return mult_conv(hyper_poly(HypergeometricSpec(n=n, a=(Fraction(1),))), inner, n)


def reversed_product_lhs(spec1: HypergeometricSpec, spec2: HypergeometricSpec | None) -> Polynomial:
    """The reversed product p* itself, for checking the representation.

    Multiplies the two symbol series mod x^(n+1) and reverses; raises
    DegreeDeficient when the (truncated) product has degree < n, in which
    case p* would drop degree and the representation does not apply.
    Arguments (+-) x only, as in theorem_b_rhs.
    """
    n = spec1.n
    s, d = _operator_series(spec1)
    if spec2 is not None:
        b, bd = _operator_series(spec2)
        s, d = _mul_ints(s, b, n), d * bd
    if s[n] == 0:
        raise DegreeDeficient("product has degree < n; reversal drops degree")
    return Polynomial._from_mono_ints(n, s[::-1], d)


# -- Kampe de Feriet polynomials ----------------------------------------------


@dataclass(frozen=True)
class KdFSpec:
    """Kampe de Feriet polynomial data.

    groups[k] = (a_k, b_k) are the parameter tuples of variable k = 1..r;
    (a0, b0) is the shared group tied to -n; c holds the argument multipliers.
    """

    n: int
    a0: tuple = ()
    b0: tuple = ()
    groups: tuple = ()  # tuple of (a_k tuple, b_k tuple)
    c: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n", _degree(self.n))
        object.__setattr__(self, "a0", tuple(map(_as_coeff, self.a0)))
        object.__setattr__(self, "b0", tuple(map(_as_coeff, self.b0)))
        groups = tuple((tuple(map(_as_coeff, a)), tuple(map(_as_coeff, b))) for a, b in self.groups)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "c", tuple(map(_as_coeff, self.c)))
        if len(self.c) != len(self.groups):
            raise ValueError("need one multiplier per variable group")
        if any(ck == 0 for ck in self.c):
            raise ZeroMultiplier("all argument multipliers must be nonzero")
        _check_denominators(self.b0 + tuple(bk for _, b in self.groups for bk in b), self.n)

    @property
    def r(self) -> int:
        return len(self.groups)


def kdf_poly(spec: KdFSpec, mode: str = "all") -> Polynomial:
    """Expansion of the multi-sum, as a polynomial in x, by generating functions.

    mode="all": arguments (c_1 x, ..., c_r x).
    mode="one": arguments (c_1 x, c_2, ..., c_r) -- every variable but the
    first is frozen at its multiplier.

    With head_k = (-n)_k (a0)_k / (b0)_k and G_m(t) = sum_l (a_m)_l / ((b_m)_l l!) (c_m t)^l,
    mode "all" gives x^k the coefficient head_k [t^k] prod_m G_m, and mode "one"
    gives x^l the coefficient [t^l] G_1 * sum_{k>=l} head_k [t^(k-l)] prod_{m>=2} G_m.
    """
    n = spec.n
    if mode not in ("all", "one"):
        raise ValueError("mode must be 'all' or 'one'")
    if mode == "one" and not spec.groups:
        raise ValueError("mode 'one' needs a variable group")
    head, d = _ratio_table((-n, 1) + spec.a0, spec.b0, 1, n)
    tables = [_ratio_table(a, b, c, n) for (a, b), c in zip(spec.groups, spec.c)]
    first, fd = tables.pop(0) if mode == "one" else (None, 1)
    g = [1] + [0] * n
    for t, td in tables:
        g, d = _mul_ints(g, t, n), d * td
    if mode == "all":
        return Polynomial._from_mono_ints(n, [h * x for h, x in zip(head, g)], d)
    # sum_{k>=l} head_k g_{k-l} is [t^(n-l)] of (head reversed) * g
    corr = _mul_ints(head[::-1], g, n)
    return Polynomial._from_mono_ints(n, [first[l] * corr[n - l] for l in range(n + 1)], d * fd)


# expression tree nodes for the factorizations


@dataclass(frozen=True)
class Leaf:
    spec: HypergeometricSpec


@dataclass(frozen=True)
class Mult:
    left: object
    right: object


@dataclass(frozen=True)
class Add:
    terms: tuple


@dataclass(frozen=True)
class Rev:
    inner: object


def eval_tree(node, n: int) -> Polynomial:
    """Evaluate a convolution expression tree at ambient degree n."""
    if isinstance(node, Leaf):
        return hyper_poly(node.spec)
    if isinstance(node, Mult):
        return mult_conv(eval_tree(node.left, n), eval_tree(node.right, n), n)
    if isinstance(node, Add):
        out = eval_tree(node.terms[0], n)
        for t in node.terms[1:]:
            out = add_conv(out, eval_tree(t, n), n)
        return out
    if isinstance(node, Rev):
        return eval_tree(node.inner, n).reverse()
    raise TypeError(f"unknown tree node {node!r}")


def _swapped_spec(n, a, b, c_mult):
    """F(-n, -b-n+1; -a-n+1; (-1)^(i+j) x / c): the swapped-tuple building block."""
    i, j = len(a), len(b)
    return HypergeometricSpec(
        n=n,
        a=tuple(-bk - n + 1 for bk in b),
        b=tuple(-ak - n + 1 for ak in a),
        scale=(-1) ** (i + j) / c_mult,
    )


def kdf_factorize(spec: KdFSpec, mode: str = "all"):
    """Convolution expression equal to kdf_poly(spec, mode) up to a scalar.

    Returns (tree, scalar) with kdf_poly == scalar * eval_tree(tree, n),
    exactly; the scalar is recovered by coefficient comparison.
    """
    target = kdf_poly(spec, mode)  # also validates the mode
    if not spec.groups:
        raise ValueError("the factorization needs a variable group")
    n = spec.n
    if mode == "all":
        q0 = Leaf(_swapped_spec(n, spec.a0, spec.b0, Fraction(1)))
        qs = tuple(Leaf(_swapped_spec(n, a, b, c)) for (a, b), c in zip(spec.groups, spec.c))
        tree = Rev(Mult(q0, qs[0] if len(qs) == 1 else Add(qs)))
    else:
        q0 = Leaf(HypergeometricSpec(n=n, a=spec.a0, b=spec.b0, scale=-1))
        a1, b1 = spec.groups[0]
        q1 = Leaf(HypergeometricSpec(n=n, a=a1, b=b1, scale=-spec.c[0]))
        rest = tuple(
            Leaf(_swapped_spec(n, a, b, c))
            for (a, b), c in zip(spec.groups[1:], spec.c[1:])
        )
        tree = Mult(q1, Add((q0,) + rest) if rest else q0)
    value = eval_tree(tree, n)
    if target.is_zero and value.is_zero:
        return tree, Fraction(1)  # any scalar satisfies the identity
    scalar = target.proportional_to(value)
    if scalar is None:
        raise AssertionError("factorization does not match the direct expansion")
    return tree, scalar
