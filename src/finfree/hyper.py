"""Terminating generalized hypergeometric and Kampe de Feriet constructors.

A terminating series with numerator parameter -n,

    F(-n, a; b; z) = sum_{k=0}^{n} (-n)_k (a)_k / ((b)_k k!) * z^k,

is a polynomial of degree <= n whenever no denominator parameter lies in
{0, -1, ..., -n}; the degree equals n exactly iff no numerator parameter
lies in {0, -1, ..., -(n-1)}.  All parameters here are exact rationals and
every expansion is exact.

The module also carries the structural theorems used throughout: the
multiplicative-convolution merge of parameter tuples, the differential
operator route for the additive convolution, the reversed-product trick,
and the two factorizations of Kampe de Feriet polynomials into convolution
expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conv import add_conv, mult_conv
from .errors import (
    DegreeDeficient,
    DegreeMismatch,
    InadmissibleDenominator,
    ZeroDegree,
    ZeroMultiplier,
    ZeroScale,
)
from .poly import Polynomial


def pochhammer_rising(a, k: int) -> Fraction:
    """(a)^rising_k = a (a+1) ... (a+k-1); empty product for k = 0."""
    a = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def pochhammer_falling(a, k: int) -> Fraction:
    """(a)^falling_k = a (a-1) ... (a-k+1); empty product for k = 0."""
    a = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= a - i
    return out


def _tuple_of_fractions(xs):
    return tuple(Fraction(x) for x in xs)


@dataclass(frozen=True)
class HypergeometricSpec:
    """Data of a terminating hypergeometric polynomial.

    Represents F(-n, a; b; (-1)^sign * (scale * x + shift)), expanded to an
    exact polynomial of ambient degree n.
    """

    n: int
    a: tuple = ()
    b: tuple = ()
    scale: Fraction = Fraction(1)
    shift: Fraction = Fraction(0)
    sign: int = 0

    def __post_init__(self):
        object.__setattr__(self, "a", _tuple_of_fractions(self.a))
        object.__setattr__(self, "b", _tuple_of_fractions(self.b))
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(self, "shift", Fraction(self.shift))
        if self.n < 0:
            raise ValueError("degree must be nonnegative")
        if self.scale == 0:
            raise ZeroScale("argument scale must be nonzero")
        if self.sign not in (0, 1):
            raise ValueError("sign flag must be 0 or 1")
        for bk in self.b:
            if bk.denominator == 1 and -self.n <= bk <= 0:
                raise InadmissibleDenominator(f"denominator parameter {bk} in -Z_{self.n + 1}")

    @property
    def full_degree(self) -> bool:
        """True iff the expanded polynomial has degree exactly n."""
        return all(not (ak.denominator == 1 and -(self.n - 1) <= ak <= 0) for ak in self.a)

    def term_coefficients(self):
        """r_k = (-n)_k (a)_k / ((b)_k k!) for k = 0..n, exactly."""
        r = [Fraction(1)]
        for k in range(self.n):
            num = Fraction(-self.n + k)
            for ai in self.a:
                num *= ai + k
            den = Fraction(k + 1)
            for bj in self.b:
                den *= bj + k
            r.append(r[-1] * num / den)
        return r


def hyper_poly(spec: HypergeometricSpec) -> Polynomial:
    """Expand the spec to a Polynomial in x (hypergeometric normalization).

    The constant term is 1 whenever shift = 0; monicization is a separate,
    explicit call on the result.
    """
    n = spec.n
    r = spec.term_coefficients()
    s = -1 if spec.sign else 1
    mono = [Fraction(0)] * (n + 1)
    if spec.shift == 0:
        c_pow = Fraction(1)
        for k in range(n + 1):
            mono[k] = r[k] * (s**k) * c_pow
            c_pow *= spec.scale
    else:
        # expand ((-1)^l (c x + d))^k binomially
        from math import comb

        for k in range(n + 1):
            rk = r[k] * (s**k)
            if rk == 0:
                continue
            for m in range(k + 1):
                mono[m] += rk * comb(k, m) * spec.scale**m * spec.shift ** (k - m)
    return Polynomial.from_monomial(mono, n)


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
        sign=spec.sign,
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
    for s in (spec1, spec2):
        if s.scale != 1 or s.shift != 0 or s.sign != 0:
            raise ValueError("tuple merge is stated for plain argument x")
    return HypergeometricSpec(n=spec1.n, a=spec1.a + spec2.a, b=spec1.b + spec2.b)


# -- Differential-operator route for the additive convolution -----------------


def _operator_series(n: int, a: tuple, b: tuple, l: int):
    """Truncated symbol of F(-b-n+1; -a-n+1; (-1)^(i+j+l+1) t) to order n.

    Only the first n+1 coefficients act on x^n, so the (generally
    non-terminating) series is cut there.
    """
    i, j = len(a), len(b)
    sgn = (-1) ** (i + j + l + 1)
    num = tuple(-bk - n + 1 for bk in b)
    den = tuple(-ak - n + 1 for ak in a)
    coeffs = [Fraction(1)]
    for k in range(n):
        top = Fraction(1)
        for nu in num:
            top *= nu + k
        bot = Fraction(k + 1)
        for de in den:
            bot *= de + k
        if bot == 0:
            raise InadmissibleDenominator("operator series hits a vanishing denominator; spec not full-degree")
        coeffs.append(coeffs[-1] * top / bot * sgn)
    # absorb the sign into each power: coefficient of t^k gets sgn^k; done above per step
    return coeffs


def theorem_b_rhs(spec1: HypergeometricSpec, spec2: HypergeometricSpec) -> Polynomial:
    """Apply the two operator symbols to x^n; equals p (+)_n q up to scalar."""
    if spec1.n != spec2.n:
        raise DegreeMismatch("specs must share the degree")
    n = spec1.n
    s1 = _operator_series(n, spec1.a, spec1.b, spec1.sign)
    s2 = _operator_series(n, spec2.a, spec2.b, spec2.sign)
    prod = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(s1):
        if ci == 0:
            continue
        for j in range(0, n + 1 - i):
            if s2[j] != 0:
                prod[i + j] += ci * s2[j]
    # S(d/dx)[x^n] = sum_k s_k n^(k)_falling x^(n-k)
    mono = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        mono[n - k] = prod[k] * pochhammer_falling(n, k)
    return Polynomial.from_monomial(mono, n)


def additive_hg_verify(spec1: HypergeometricSpec, spec2: HypergeometricSpec) -> bool:
    """Check the coefficient formula against the operator route, up to scalar."""
    for s in (spec1, spec2):
        if s.scale != 1 or s.shift != 0:
            raise ValueError("verification is stated for arguments (+-) x")
    n = spec1.n
    direct = add_conv(hyper_poly(spec1), hyper_poly(spec2), n)
    operator = theorem_b_rhs(spec1, spec2)
    if direct.is_zero and operator.is_zero:
        return True
    return direct.proportional_to(operator) is not None


# -- Lemma: reversed product as a convolution ---------------------------------


def _two_f_zero_spec(n: int) -> HypergeometricSpec:
    """F(-n, 1; ; x): e_k = C(n,k) (n-k)! up to the global sign convention."""
    return HypergeometricSpec(n=n, a=(Fraction(1),), b=())


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
    return mult_conv(hyper_poly(_two_f_zero_spec(n)), inner, n)


def reversed_product_lhs(spec1: HypergeometricSpec, spec2: HypergeometricSpec | None) -> Polynomial:
    """The reversed product p* itself, for checking the representation.

    Multiplies the two symbol series mod x^(n+1) and reverses; raises
    DegreeDeficient when the (truncated) product has degree < n, in which
    case p* would drop degree and the representation does not apply.
    """
    n = spec1.n
    s1 = _operator_series(n, spec1.a, spec1.b, spec1.sign)
    s2 = [Fraction(1)] + [Fraction(0)] * n
    if spec2 is not None:
        s2 = _operator_series(n, spec2.a, spec2.b, spec2.sign)
    prod = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(s1):
        for j in range(0, n + 1 - i):
            prod[i + j] += ci * s2[j]
    if prod[n] == 0:
        raise DegreeDeficient("product has degree < n; reversal drops degree")
    return Polynomial.from_monomial(prod, n).reverse()


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
        object.__setattr__(self, "a0", _tuple_of_fractions(self.a0))
        object.__setattr__(self, "b0", _tuple_of_fractions(self.b0))
        object.__setattr__(
            self,
            "groups",
            tuple((_tuple_of_fractions(a), _tuple_of_fractions(b)) for a, b in self.groups),
        )
        object.__setattr__(self, "c", _tuple_of_fractions(self.c))
        if len(self.c) != len(self.groups):
            raise ValueError("need one multiplier per variable group")
        if any(ck == 0 for ck in self.c):
            raise ZeroMultiplier("all argument multipliers must be nonzero")
        for tup in (self.b0,) + tuple(b for _, b in self.groups):
            for bk in tup:
                if bk.denominator == 1 and -self.n <= bk <= 0:
                    raise InadmissibleDenominator(f"denominator parameter {bk} in -Z_{self.n + 1}")

    @property
    def r(self) -> int:
        return len(self.groups)


def _group_term(a: tuple, b: tuple, l: int):
    """(a)_l / ((b)_l l!)"""
    return pochhammer_rising_tuple(a, l) / (pochhammer_rising_tuple(b, l) * pochhammer_rising(1, l))


def pochhammer_rising_tuple(tup, k: int) -> Fraction:
    out = Fraction(1)
    for t in tup:
        out *= pochhammer_rising(t, k)
    return out


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def kdf_poly(spec: KdFSpec, mode: str = "all") -> Polynomial:
    """Direct multi-sum expansion, as a polynomial in x.

    mode="all": arguments (c_1 x, ..., c_r x).
    mode="one": arguments (c_1 x, c_2, ..., c_r) -- every variable but the
    first is frozen at its multiplier.
    """
    n, r = spec.n, spec.r
    if mode not in ("all", "one"):
        raise ValueError("mode must be 'all' or 'one'")
    mono = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        head = (
            pochhammer_rising(-n, k)
            * pochhammer_rising_tuple(spec.a0, k)
            / pochhammer_rising_tuple(spec.b0, k)
        )
        if head == 0:
            continue
        for ls in _compositions(k, r):
            term = head
            for m, lm in enumerate(ls):
                am, bm = spec.groups[m]
                term *= _group_term(am, bm, lm) * spec.c[m] ** lm
            if mode == "all":
                mono[k] += term
            else:
                mono[ls[0]] += term
    return Polynomial.from_monomial(mono, n)


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
        scale=Fraction(1) / Fraction(c_mult),
        sign=(i + j) % 2,
    )


def kdf_factorize(spec: KdFSpec, mode: str = "all"):
    """Convolution expression equal to kdf_poly(spec, mode) up to a scalar.

    Returns (tree, scalar) with kdf_poly == scalar * eval_tree(tree, n),
    exactly; the scalar is recovered by coefficient comparison.
    """
    n = spec.n
    if mode == "all":
        q0 = Leaf(_swapped_spec(n, spec.a0, spec.b0, 1))
        qs = tuple(Leaf(_swapped_spec(n, a, b, c)) for (a, b), c in zip(spec.groups, spec.c))
        tree = Rev(Mult(q0, qs[0] if len(qs) == 1 else Add(qs)))
    elif mode == "one":
        q0 = Leaf(HypergeometricSpec(n=n, a=spec.a0, b=spec.b0, sign=1))
        a1, b1 = spec.groups[0]
        q1 = Leaf(HypergeometricSpec(n=n, a=a1, b=b1, scale=spec.c[0], sign=1))
        rest = tuple(
            Leaf(_swapped_spec(n, a, b, c))
            for (a, b), c in zip(spec.groups[1:], spec.c[1:])
        )
        tree = Mult(q1, Add((q0,) + rest) if rest else q0)
    else:
        raise ValueError("mode must be 'all' or 'one'")
    value = eval_tree(tree, n)
    target = kdf_poly(spec, mode)
    scalar = target.proportional_to(value)
    if scalar is None:
        raise AssertionError("factorization does not match the direct expansion")
    return tree, scalar
