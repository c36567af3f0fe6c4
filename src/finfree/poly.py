"""Polynomials in the signed elementary-symmetric coefficient convention.

A polynomial of ambient degree n is stored through the n+1 numbers e_0..e_n
with

    p(x) = sum_{j=0}^{n} x^{n-j} (-1)^j e_j.

For a monic p with roots l_1..l_n, e_j is the j-th elementary symmetric
polynomial of the roots.  Both finite free convolutions are native in this
convention, which is why it is the canonical form; converters to and from
the ordinary monomial basis are lossless.

A polynomial is stored as one primitive integer vector over one
denominator: e_j = nums[j] / den with den > 0 and gcd(nums..., den) = 1, so
equal polynomials store equal integers.  The kernels (here, in `conv`,
`hyper`, `mop` and `roots`) read and write that form, one content gcd per
output polynomial, and a chain of them builds no Fraction.  `.e`, the tuple
of Fractions, is a view of it, built on first use and cached.  Every
coefficient and scalar is read as the rational it denotes (`_as_coeff`):
ints and other rationals as themselves, floats and mpmath reals as their
exact dyadic values, so no arithmetic here rounds.  `_as_coeff` is the one
reader of the numbers that enter any exact object of the package: the
moment series and their kernels, the hypergeometric and family specs, the
limit objects and the algebraic curves.

The list helpers below (`_ints`, `_mul_ints`, `_reduced`, `_newton_solve`)
serve `series` as well: a vector of numbers becomes integer numerators
over one common denominator, and the loops run on Python ints.

`_mul_ints` is the one exact product of integer vectors (`conv`, `series`,
`hyper`, `mop` and `Polynomial.mul` call it): the schoolbook sum on Python
ints, or past a crossover the multi-modular convolution of `multimodular`,
which the first such product imports (with numpy).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from math import comb, gcd, isfinite, lcm
from numbers import Rational, Real
from operator import add, index, mul, sub

import mpmath as mp

from .errors import DegreeMismatch, ZeroDegree, ZeroDilation, ZeroLeading

# -- integer-numerator kernel --------------------------------------------------

# lcm and gcd are folded pairwise: a star-argument call builds one tuple per
# vector, and the small ones linger in the interpreter's tuple free list,
# which measurably raised peak RSS.


def _ints(a, K):
    """a[0..K], zero-padded, as integer numerators over one denominator; every entry
    but an int is read by `_as_coeff`."""
    a = [x if type(x) is int else _as_coeff(x) for x in a[: K + 1]]
    a += [0] * (K + 1 - len(a))
    den = reduce(lcm, [x.denominator for x in a])
    return [x.numerator * (den // x.denominator) for x in a], den


def _reduced(nums, den):
    """Cancel the common factor of the numerators and the denominator."""
    c = reduce(gcd, nums, den)
    return ([x // c for x in nums], den // c) if c > 1 else (nums, den)


def _mul_ints(a, b, K):
    """Integer lists multiplied and truncated at degree K: K+1 integers, entries past a
    list's end read as zero.  The one exact product of the package, with two methods
    that return the same integers: the schoolbook sum below, and past a crossover the
    multi-modular convolution of `multimodular.product`, imported (with numpy) by the
    first product that takes it.  The crossover, with ab and bb the bit lengths of the
    operands' largest entries: (K+1)^2 (ab bb / (ab + bb) + 48) >= 1.5e6, read from
    K = 32 on, for K < 2^13 and ab + bb <= 2^15 (`multimodular` says why).
    """
    if 32 <= K < 1 << 13 and a and b:
        a, b = a[: K + 1], b[: K + 1]
        ab, bb = max(map(abs, a)).bit_length(), max(map(abs, b)).bit_length()
        if ab and bb and ab + bb <= 1 << 15 and (K + 1) ** 2 * (ab * bb // (ab + bb) + 48) >= 1_500_000:
            from . import multimodular

            return multimodular.product(a, b, K)
    return _mul_schoolbook(a, b, K)


def _mul_schoolbook(a, b, K):
    """out[k] = sum_i a[i] b[k-i], k = 0..K, in Python ints; entries past a list's end are zero
    (map stops at the shorter operand, and an empty sum is 0)."""
    lb, rb = len(b), b[::-1]
    out = [sum(map(mul, a, rb[lb - 1 - k :])) for k in range(min(K + 1, lb))]
    if lb <= K:
        out += [sum(map(mul, a[k - lb + 1 :], rb)) for k in range(lb, K + 1)]
    return out


def _newton_solve(known, to_power_sums):
    """Newton's identities k s_k = sum_{i=1..k} (-1)^(i-1) s_{k-i} p_i (s_0 = 1), solved for
    the power sums p_1.. from the elementary values s_1.. in `known` (to_power_sums), or
    back."""
    s, p = [1], [None]
    for k, x in enumerate(known, start=1):
        # rest = sum_{i<k} (-1)^(i-1) s_{k-i} p_i: odd i minus even i
        rest = sum(map(mul, s[k - 1 : 0 : -2], p[1:k:2])) - sum(map(mul, s[k - 2 : 0 : -2], p[2:k:2]))
        if to_power_sums:
            s.append(x)
            p.append(k * x - rest if k % 2 else rest - k * x)
        else:
            p.append(x)
            s.append((rest + x if k % 2 else rest - x) / k)
    return p[1:] if to_power_sums else s[1:]


def _as_coeff(x):
    """A coefficient or scalar as the Fraction it denotes: ints and other rationals
    (numpy integers too) as themselves, floats (numpy's of any width too) and mpmath
    reals as their exact dyadic values.  bool, complex and non-numeric values raise
    TypeError, non-finite ones ValueError."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(x, Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, (complex, mp.mpc)):
        raise TypeError(f"coefficients must be real, got {x}")
    if isinstance(x, mp.mpf):
        sign, man, exp, _ = x._mpf_
        if exp and not man:
            raise ValueError(f"coefficient {x} is not finite")
        return Fraction(-man if sign else man) * Fraction(2) ** exp
    if not isinstance(x, Real):
        raise TypeError(f"{type(x).__name__} is not a polynomial coefficient")
    if not isfinite(x):
        raise ValueError(f"coefficient {x} is not finite")
    return Fraction(*x.as_integer_ratio())


def _degree(n):
    """A degree as a Python int: ints and other integers (numpy's too) as themselves;
    bool and non-integers raise TypeError, a negative degree ValueError."""
    if isinstance(n, bool):
        raise TypeError("bool is not a degree")
    n = index(n)
    if n < 0:
        raise ValueError("ambient degree must be nonnegative")
    return n


def _alternate(v):
    """(-1)^j v_j: e_j = (-1)^j c_(n-j) between the e-order and the monomial coefficients."""
    return [-x if j % 2 else x for j, x in enumerate(v)]


class Polynomial:
    """Immutable dense polynomial with an explicit ambient degree n.

    The ambient degree can exceed the actual degree (leading e_j may vanish);
    the convolutions are defined relative to the ambient degree, so it is part
    of the value.
    """

    __slots__ = ("n", "_e", "_nums", "_den")

    exact = True  # every coefficient is rational

    def __init__(self, n, coeffs_e):
        e = tuple(map(_as_coeff, coeffs_e))
        den = reduce(lcm, [x.denominator for x in e], 1)
        self._init(n, [x.numerator * (den // x.denominator) for x in e], den)  # primitive already
        object.__setattr__(self, "_e", e)

    def _init(self, n, nums, den):
        """Store e_j = nums[j] / den (n+1 integers, den != 0), made primitive by one
        content gcd.  Every constructor ends here."""
        n = _degree(n)
        if len(nums) != n + 1:
            raise ValueError(f"need exactly n+1={n + 1} coefficients, got {len(nums)}")
        c = reduce(gcd, nums, den)
        if den < 0:
            c = -c
        if c != 1:
            nums, den = [x // c for x in nums], den // c
        for name, value in (("n", n), ("_e", None), ("_nums", tuple(nums)), ("_den", den)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return type(self)._from_ints, (self.n, self._nums, self._den)

    @classmethod
    def _from_ints(cls, n, nums, den):
        """e_j = nums[j] / den for n+1 integers and den != 0, made primitive."""
        p = object.__new__(cls)
        p._init(n, nums, den)
        return p

    @classmethod
    def _from_mono_ints(cls, n, mono, den):
        """Monomial coefficients mono[m] / den of x^m, m = 0..len(mono) - 1 <= n."""
        return cls._from_ints(n, _alternate([0] * (n + 1 - len(mono)) + mono[::-1]), den)

    def _mono_ints(self):
        """The monomial numerators c_0..c_n of the integer form, and its denominator."""
        return _alternate(self._nums)[::-1], self._den

    @property
    def e(self):
        """e_0..e_n as Fractions, built once from the integer form, then cached."""
        if self._e is None:
            den = self._den
            object.__setattr__(self, "_e", tuple(Fraction(c, den) for c in self._nums))
        return self._e

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_monomial(cls, coeffs, n=None):
        """Build from monomial coefficients c_0..c_m (ascending powers)."""
        coeffs = [_as_coeff(c) for c in coeffs]
        if n is None:
            n = len(coeffs) - 1
        if len(coeffs) - 1 > n:
            raise ValueError("more coefficients than ambient degree allows")
        return cls(n, _alternate([Fraction(0)] * (n + 1 - len(coeffs)) + coeffs[::-1]))

    @classmethod
    def from_roots(cls, roots, n=None):
        """Monic polynomial with the given roots, exactly (`.scaled(c)` for c times it).

        Each root r = u/v contributes the integer factor (v x - u); the
        product's denominator is the product of every v.
        """
        roots = [_as_coeff(r) for r in roots]
        if n is None:
            n = len(roots)
        if len(roots) > n:
            raise ValueError("more roots than ambient degree")
        mono, den = [1], 1
        for r in roots:
            u, v = r.numerator, r.denominator
            mono = [-u * mono[0]] + [v * a - u * b for a, b in zip(mono, mono[1:])] + [v * mono[-1]]
            den *= v
        return cls._from_mono_ints(n, mono, den)

    @classmethod
    def linear_power(cls, alpha, n):
        """(x - alpha)^n in ambient degree n; e_j = C(n,j) alpha^j."""
        a = _as_coeff(alpha)
        u, v = a.numerator, a.denominator
        return cls._from_ints(n, [comb(n, j) * u**j * v ** (n - j) for j in range(n + 1)], v**n)

    @classmethod
    def zero(cls, n):
        return cls._from_ints(n, [0] * (n + 1), 1)

    # -- basic structure -----------------------------------------------------

    @property
    def is_zero(self):
        return not any(self._nums)

    @property
    def degree(self):
        """Actual degree, or -1 for the zero polynomial."""
        for j, c in enumerate(self._nums):
            if c:
                return self.n - j
        return -1

    def to_monomial(self):
        """Coefficients c_0..c_n of ascending powers."""
        return tuple(_alternate(self.e)[::-1])

    # -- elementary transforms ------------------------------------------------

    def dilate(self, alpha):
        """alpha^n * p(x/alpha); roots scale by alpha; e_j -> alpha^j e_j."""
        a = _as_coeff(alpha)
        if a == 0:
            raise ZeroDilation("dilation scale must be nonzero")
        n, u, v = self.n, a.numerator, a.denominator
        return Polynomial._from_ints(n, [c * u**j * v ** (n - j) for j, c in enumerate(self._nums)], self._den * v**n)

    def shift(self, alpha):
        """p(x - alpha), expanded exactly (Taylor shift).

        With alpha = u/v and monomial coefficients N_m / D, r(y) = v^n D p(y / v)
        has the integer coefficients N_m v^(n-m).  A Taylor shift by -u (integer
        steps only) gives r(y - u) = sum_k t_k y^k, and p(x - alpha) =
        r(v x - u) / (v^n D) = sum_k t_k v^k x^k / (v^n D).
        """
        a = _as_coeff(alpha)
        if a == 0:
            return self
        n, u, v = self.n, a.numerator, a.denominator
        mono, den = self._mono_ints()
        t = [c * v ** (n - m) for m, c in enumerate(mono)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                t[j] -= u * t[j + 1]
        return Polynomial._from_mono_ints(n, [c * v**k for k, c in enumerate(t)], den * v**n)

    def reverse(self):
        """Reversed polynomial p*(x) = x^n p(1/x); roots map t -> 1/t, e_j -> (-1)^n e_(n-j)."""
        nums = self._nums
        return Polynomial._from_ints(self.n, [-c for c in reversed(nums)] if self.n % 2 else nums[::-1], self._den)

    def derivative(self):
        """d/dx p, with ambient degree n-1: e_j -> (n - j) e_j."""
        n = self.n
        if n == 0:
            return Polynomial.zero(0)
        return Polynomial._from_ints(n - 1, [(n - j) * c for j, c in enumerate(self._nums[:n])], self._den)

    # -- arithmetic ------------------------------------------------------------

    def scaled(self, c):
        """c * p, same ambient degree."""
        c = _as_coeff(c)
        return Polynomial._from_ints(self.n, [c.numerator * x for x in self._nums], self._den * c.denominator)

    def _combine(self, other, op):
        """self op other coefficientwise, op = add or sub."""
        if self.n != other.n:
            raise DegreeMismatch(f"ambient degrees ({self.n}, {other.n}) differ")
        a, ad, b, bd = self._nums, self._den, other._nums, other._den
        g = gcd(ad, bd)
        ka, kb = bd // g, ad // g  # over lcm(ad, bd) = ad * ka
        return Polynomial._from_ints(self.n, [op(x * ka, y * kb) for x, y in zip(a, b)], ad * ka)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def mul(self, other):
        """Plain polynomial product; ambient degrees add."""
        n = self.n + other.n
        (a, ad), (b, bd) = self._mono_ints(), other._mono_ints()
        return Polynomial._from_mono_ints(n, _mul_ints(a, b, n), ad * bd)

    def monicized(self):
        """p / e_0; requires full ambient degree."""
        if self.degree < self.n:
            raise ZeroLeading("cannot monicize: leading coefficient vanishes")
        return Polynomial._from_ints(self.n, self._nums, self._nums[0])

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.n, self._nums, self._den))

    def proportional_to(self, other):
        """Return scalar c with self == c * other, or None if not proportional."""
        if self.n != other.n:
            return None
        a, ad, b, bd = self._nums, self._den, other._nums, other._den
        j = next((j for j, y in enumerate(b) if y), None)
        if j is None or not a[j] or any(x * b[j] != y * a[j] for x, y in zip(a, b)):
            return None
        return Fraction(a[j] * bd, b[j] * ad)

    def __repr__(self):
        return f"Polynomial(n={self.n}, e={list(self.e)})"

    # -- moments from coefficients --------------------------------------------------

    def power_sums(self, kmax):
        """Power sums p_k = sum lambda_i^k for k = 1..kmax via Newton's identities, exactly.

        Requires full ambient degree (e_0 != 0).  kmax may exceed n (the power
        sums go on); a negative kmax raises ValueError.
        """
        if kmax < 0:
            raise ValueError(f"order {kmax} is negative")
        if self.degree < self.n:
            raise ZeroLeading("power sums need e_0 != 0")
        nums = self._nums  # sigma_j of the root multiset: nums[j] / nums[0]
        sigma = [Fraction(c, nums[0]) for c in nums[1 : kmax + 1]]
        return _newton_solve(sigma + [0] * (kmax - len(sigma)), to_power_sums=True)

    def root_moments(self, kmax):
        """Normalized moments m_k = (1/n) sum lambda^k, k = 1..kmax, exactly; n >= 1."""
        if self.n == 0:
            raise ZeroDegree("root moments need degree >= 1")
        return [p / self.n for p in self.power_sums(kmax)]

    # -- JSON wire format ---------------------------------------------------------

    def to_json(self):
        """{"n": int, "e": ["p/q", ...]} with decimal-free rational strings."""
        return json.dumps({"n": self.n, "e": [str(c) for c in self.e]})

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(obj["n"], [Fraction(s) for s in obj["e"]])
