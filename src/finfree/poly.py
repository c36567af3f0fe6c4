"""Polynomials in the signed elementary-symmetric coefficient convention.

A polynomial of ambient degree n is stored through the n+1 numbers e_0..e_n
with

    p(x) = sum_{j=0}^{n} x^{n-j} (-1)^j e_j.

For a monic p with roots l_1..l_n, e_j is the j-th elementary symmetric
polynomial of the roots.  Both finite free convolutions are native in this
convention, which is why it is the canonical form; converters to and from
the ordinary monomial basis are lossless.

An exact polynomial is stored as one primitive integer vector over one
denominator: e_j = nums[j] / den with den > 0 and gcd(nums..., den) = 1, so
equal polynomials store equal integers.  The kernels (here, in `conv`,
`hyper`, `mop` and `roots`) read and write that form, one content gcd per
output polynomial, and a chain of them builds no Fraction.  `.e`, the tuple
of Fractions, is built from it on first use and cached.  A polynomial built
from rationals (`Polynomial(n, e)`, `from_monomial`) keeps its Fractions and
derives the integer form once, on first use by a kernel.  Floats / mpmath
values are tolerated for evaluation-style work and keep their tuple, but
any operation that must be exact refuses them with FloatBackendRejected.

The list helpers below (`_ints`, `_mul_ints`, `_reduced`, `_newton_solve`)
serve `series` as well: a vector of rationals becomes integer numerators
over one common denominator, and the loops run on Python ints.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from operator import add, mul, sub

from .errors import FloatBackendRejected, ZeroDilation, ZeroLeading

_EXACT_TYPES = (int, Fraction)

# -- integer-numerator kernel --------------------------------------------------


def _require_exact(values):
    if not all(isinstance(x, _EXACT_TYPES) for x in values):
        raise FloatBackendRejected("exact operation: coefficients must be ints or Fractions")


# lcm and gcd are folded pairwise: a star-argument call builds one tuple per
# vector, and the small ones linger in the interpreter's tuple free list,
# which measurably raised peak RSS.


def _ints(a, K):
    """a[0..K] (ints or Fractions, zero-padded) as integer numerators over one denominator."""
    a = list(a[: K + 1]) + [0] * max(0, K + 1 - len(a))
    _require_exact(a)
    den = reduce(lcm, [x.denominator for x in a])
    return [x.numerator * (den // x.denominator) for x in a], den


def _reduced(nums, den):
    """Cancel the common factor of the numerators and the denominator."""
    c = reduce(gcd, nums, den)
    return ([x // c for x in nums], den // c) if c > 1 else (nums, den)


def _mul_ints(a, b, K):
    """Integer lists, each with at least K+1 entries, multiplied and truncated at degree K."""
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(K + 1)]


def _order(K, known):
    """The order of a map whose input fixes `known` coefficients: K, or `known` when K
    is None.  A larger K would read coefficients nobody gave as 0, and a negative one
    would slice from the end, so both raise."""
    if K is None:
        return known
    if K < 0:
        raise ValueError(f"order {K} is negative")
    if K > known:
        raise ValueError(f"cannot extend a truncated series: order {K} exceeds the {known} given")
    return K


def _newton_solve(known, to_power_sums):
    """Newton's identities k s_k = sum_{i=1..k} (-1)^(i-1) s_{k-i} p_i (s_0 = 1), solved for
    the power sums p_1.. from the elementary values s_1.. in `known` (to_power_sums), or
    back.  s_0 is the int 1, so floats stay floats."""
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


def _signed(c, j):
    """(-1)^j c, exactly: an mpf keeps all its bits whatever mp.prec is."""
    if j % 2 == 0:
        return c
    if hasattr(c, "_mpf_"):
        from mpmath import libmp

        return c.context.make_mpf(libmp.mpf_neg(c._mpf_))
    return -c


def _as_coeff(x):
    """Normalize ints to Fraction; pass anything else through unchanged."""
    if isinstance(x, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(x, int):
        return Fraction(x)
    return x


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

    def __init__(self, n, coeffs_e):
        coeffs_e = tuple(_as_coeff(c) for c in coeffs_e)
        if n < 0:
            raise ValueError("ambient degree must be nonnegative")
        if len(coeffs_e) != n + 1:
            raise ValueError(f"need exactly n+1={n + 1} coefficients, got {len(coeffs_e)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_e", coeffs_e)
        object.__setattr__(self, "_nums", None)
        object.__setattr__(self, "_den", None)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _from_ints(cls, n, nums, den):
        """e_j = nums[j] / den for n+1 integers and den != 0, made primitive by one content gcd."""
        c = reduce(gcd, nums, den)
        if den < 0:
            c = -c
        if c != 1:
            nums, den = [x // c for x in nums], den // c
        p = object.__new__(cls)
        for name, value in (("n", n), ("_e", None), ("_nums", tuple(nums)), ("_den", den)):
            object.__setattr__(p, name, value)
        return p

    @classmethod
    def _from_mono_ints(cls, n, mono, den):
        """Monomial coefficients mono[m] / den of x^m, m = 0..len(mono) - 1 <= n."""
        return cls._from_ints(n, _alternate([0] * (n + 1 - len(mono)) + mono[::-1]), den)

    def _int_form(self):
        """(nums, den) with e_j = nums[j] / den, primitive; a polynomial built from
        rationals reads it off its Fractions once.  Float or mpmath coefficients
        raise FloatBackendRejected."""
        if self._nums is None:
            nums, den = _ints(self._e, self.n)  # reduced Fractions over their lcm: primitive
            object.__setattr__(self, "_nums", tuple(nums))
            object.__setattr__(self, "_den", den)
        return self._nums, self._den

    def _mono_ints(self):
        """The monomial numerators c_0..c_n of the integer form, and its denominator."""
        nums, den = self._int_form()
        return _alternate(nums)[::-1], den

    @property
    def e(self):
        """e_0..e_n: Fractions for an exact polynomial (built once, then cached), else the values given."""
        if self._e is None:
            den = self._den
            object.__setattr__(self, "_e", tuple(Fraction(c, den) for c in self._nums))
        return self._e

    def _stored(self):
        """The integer numerators when known, else the coefficients: either has the zeros of e."""
        return self._e if self._nums is None else self._nums

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_monomial(cls, coeffs, n=None):
        """Build from monomial coefficients c_0..c_m (ascending powers)."""
        coeffs = [_as_coeff(c) for c in coeffs]
        if n is None:
            n = len(coeffs) - 1
        if len(coeffs) - 1 > n:
            raise ValueError("more coefficients than ambient degree allows")
        coeffs = coeffs + [Fraction(0)] * (n + 1 - len(coeffs))
        e = [_signed(coeffs[n - j], j) for j in range(n + 1)]
        return cls(n, e)

    @classmethod
    def from_roots(cls, roots, n=None, leading=1):
        """Monic-times-`leading` polynomial with the given roots, exactly.

        Each root r = u/v contributes the integer factor (v x - u); the
        product's denominator is that of `leading` times every v.
        """
        roots = [_as_coeff(r) for r in roots]
        leading = _as_coeff(leading)
        _require_exact(roots + [leading])
        if n is None:
            n = len(roots)
        if len(roots) > n:
            raise ValueError("more roots than ambient degree")
        mono, den = [leading.numerator], leading.denominator
        for r in roots:
            u, v = r.numerator, r.denominator
            mono = [-u * mono[0]] + [v * a - u * b for a, b in zip(mono, mono[1:])] + [v * mono[-1]]
            den *= v
        return cls._from_mono_ints(n, mono, den)

    @classmethod
    def linear_power(cls, alpha, n):
        """(x - alpha)^n in ambient degree n; e_j = C(n,j) alpha^j."""
        a = _as_coeff(alpha)
        if not isinstance(a, Fraction):
            return cls(n, [comb(n, j) * a**j for j in range(n + 1)])
        u, v = a.numerator, a.denominator
        return cls._from_ints(n, [comb(n, j) * u**j * v ** (n - j) for j in range(n + 1)], v**n)

    @classmethod
    def zero(cls, n):
        return cls._from_ints(n, [0] * (n + 1), 1)

    @classmethod
    def x_power(cls, n):
        """x^n, i.e. e_0 = 1 and all other e_j = 0."""
        return cls._from_ints(n, [1] + [0] * n, 1)

    # -- basic structure -----------------------------------------------------

    @property
    def exact(self):
        return self._nums is not None or all(isinstance(c, _EXACT_TYPES) for c in self._e)

    @property
    def is_zero(self):
        return not any(self._stored())

    @property
    def degree(self):
        """Actual degree, or -1 for the zero polynomial."""
        for j, c in enumerate(self._stored()):
            if c != 0:
                return self.n - j
        return -1

    @property
    def monic(self):
        return self._e[0] == 1 if self._nums is None else self._nums[0] == self._den

    def to_monomial(self):
        """Coefficients c_0..c_n of ascending powers."""
        n, e = self.n, self.e
        return tuple(_signed(e[n - m], n - m) for m in range(n + 1))

    def coeff(self, m):
        """Monomial coefficient of x^m."""
        return _signed(self.e[self.n - m], self.n - m)

    # -- elementary transforms ------------------------------------------------

    def dilate(self, alpha):
        """alpha^n * p(x/alpha); roots scale by alpha; e_j -> alpha^j e_j."""
        a = _as_coeff(alpha)
        if a == 0:
            raise ZeroDilation("dilation scale must be nonzero")
        if not (isinstance(a, Fraction) and self.exact):
            return Polynomial(self.n, [a**j * c for j, c in enumerate(self.e)])
        (nums, den), n, u, v = self._int_form(), self.n, a.numerator, a.denominator
        return Polynomial._from_ints(n, [c * u**j * v ** (n - j) for j, c in enumerate(nums)], den * v**n)

    def shift(self, alpha):
        """p(x - alpha), expanded exactly (Taylor shift).

        With alpha = u/v and monomial coefficients N_m / D, r(y) = v^n D p(y / v)
        has the integer coefficients N_m v^(n-m).  A Taylor shift by -u (integer
        steps only) gives r(y - u) = sum_k t_k y^k, and p(x - alpha) =
        r(v x - u) / (v^n D) = sum_k t_k v^k x^k / (v^n D).
        """
        a = _as_coeff(alpha)
        _require_exact([a])
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
        if not self.exact:
            return Polynomial.from_monomial(list(reversed(self.to_monomial())), self.n)
        nums, den = self._int_form()
        return Polynomial._from_ints(self.n, [-c for c in reversed(nums)] if self.n % 2 else nums[::-1], den)

    def derivative(self):
        """d/dx p, with ambient degree n-1: e_j -> (n - j) e_j."""
        n = self.n
        if n == 0:
            return Polynomial.zero(0)
        if not self.exact:
            mono = self.to_monomial()
            return Polynomial.from_monomial([m * mono[m] for m in range(1, n + 1)], n - 1)
        nums, den = self._int_form()
        return Polynomial._from_ints(n - 1, [(n - j) * c for j, c in enumerate(nums[:n])], den)

    def evaluate(self, x):
        """Horner evaluation; works for Fraction, float, complex, mpmath."""
        mono = self.to_monomial()
        acc = mono[-1] * (x * 0 + 1) if not isinstance(x, _EXACT_TYPES) else mono[-1]
        for m in range(self.n - 1, -1, -1):
            acc = acc * x + mono[m]
        return acc

    # -- arithmetic ------------------------------------------------------------

    def scaled(self, c):
        """c * p, same ambient degree."""
        c = _as_coeff(c)
        if not (isinstance(c, Fraction) and self.exact):
            return Polynomial(self.n, [c * v for v in self.e])
        nums, den = self._int_form()
        return Polynomial._from_ints(self.n, [c.numerator * x for x in nums], den * c.denominator)

    def _combine(self, other, op):
        """self op other coefficientwise, op = add or sub."""
        if self.n != other.n:
            raise ValueError("ambient degrees differ")
        if not (self.exact and other.exact):
            return Polynomial(self.n, list(map(op, self.e, other.e)))
        (a, ad), (b, bd) = self._int_form(), other._int_form()
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
        return Polynomial._from_mono_ints(n, _mul_ints(a + [0] * other.n, b + [0] * self.n, n), ad * bd)

    def divide_linear(self, root):
        """Exact division by (x - root); raises if the remainder is nonzero."""
        mono = list(self.to_monomial())
        n = self.n
        q = [Fraction(0)] * n
        acc = mono[n]
        for m in range(n - 1, -1, -1):
            q[m] = acc
            acc = mono[m] + acc * _as_coeff(root)
        if acc != 0:
            raise ValueError(f"nonzero remainder {acc} dividing by (x - {root})")
        return Polynomial.from_monomial(q, n - 1)

    def monicized(self):
        """p / e_0; requires full ambient degree."""
        if self.degree < self.n:
            raise ZeroLeading("cannot monicize: leading coefficient vanishes")
        if not self.exact:
            c = self.e[0]
            return Polynomial(self.n, [v / c for v in self.e])
        nums, _ = self._int_form()
        return Polynomial._from_ints(self.n, nums, nums[0])

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial) or self.n != other.n:
            return False
        if self.exact and other.exact:
            return self._int_form() == other._int_form()
        return self.e == other.e

    def __hash__(self):
        return hash((self.n, self.e))

    def proportional_to(self, other):
        """Return scalar c with self == c * other, or None if not proportional."""
        if self.n != other.n:
            return None
        if self.exact and other.exact:
            (a, ad), (b, bd) = self._int_form(), other._int_form()
            j = next((j for j, y in enumerate(b) if y), None)
            if j is None or not a[j] or any(x * b[j] != y * a[j] for x, y in zip(a, b)):
                return None
            return Fraction(a[j] * bd, b[j] * ad)
        c = None
        for a, b in zip(self.e, other.e):
            if b == 0:
                if a != 0:
                    return None
                continue
            r = a / b
            if c is None:
                c = r
            elif r != c:
                return None
        if c is None or c == 0:
            return None
        return c

    def __repr__(self):
        return f"Polynomial(n={self.n}, e={list(self.e)})"

    # -- moments from coefficients --------------------------------------------------

    def power_sums(self, kmax):
        """Power sums p_k = sum lambda_i^k for k = 1..kmax via Newton's identities.

        Requires full ambient degree (e_0 != 0); exact in the rational backend.
        kmax may exceed n (the power sums go on); a negative kmax raises ValueError.
        """
        if kmax < 0:
            raise ValueError(f"order {kmax} is negative")
        if self.degree < self.n:
            raise ZeroLeading("power sums need e_0 != 0")
        if self.exact:  # sigma_j of the root multiset
            nums, _ = self._int_form()
            sigma = [Fraction(c, nums[0]) for c in nums[1 : kmax + 1]]
        else:
            sigma = [c / self.e[0] for c in self.e[1 : kmax + 1]]
        return _newton_solve(sigma + [0] * (kmax - len(sigma)), to_power_sums=True)

    def root_moments(self, kmax):
        """Normalized moments m_k = (1/n) sum lambda^k, k = 1..kmax, exactly."""
        return [p / self.n for p in self.power_sums(kmax)]

    # -- JSON wire format ---------------------------------------------------------

    def to_json(self):
        """{"n": int, "e": ["p/q", ...]} with decimal-free rational strings."""
        if not self.exact:
            raise FloatBackendRejected("JSON literals are exact; convert float-backend values first")
        return json.dumps({"n": self.n, "e": [str(Fraction(c)) for c in self.e]})

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(int(obj["n"]), [Fraction(s) for s in obj["e"]])
