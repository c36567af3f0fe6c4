import random
from fractions import Fraction as F
from functools import reduce
from math import comb, factorial, gcd, perm

import pytest

from finfree.conv import (
    add_conv,
    check_identity_dilation_additive,
    check_identity_dilation_distribute,
    mult_conv,
)
from finfree.errors import DegreeMismatch
from finfree.hyper import HypergeometricSpec, hyper_poly
from finfree.poly import Polynomial, _ints
from finfree.roots import find_roots, interlaces, real_parts_sorted


def rand_poly(rng, n, lo=-8, hi=8):
    return Polynomial.from_roots([F(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)])


def test_mult_conv_coefficient_example():
    p = Polynomial.from_roots([1, 1])  # x^2 - 2x + 1
    q = Polynomial.from_roots([1, 2])  # x^2 - 3x + 2
    out = mult_conv(p, q, 2)
    assert out.to_monomial() == (F(2), F(-3), F(1))  # e_1 = 2*3/2, e_2 = 1*2/1


def test_mult_conv_is_dilation_with_linear_power():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 8)
        p = rand_poly(rng, n)
        assert mult_conv(p, Polynomial.linear_power(3, n), n) == p.dilate(3)


def test_add_conv_examples():
    p = Polynomial.from_monomial([2, -3, 1])
    assert add_conv(p, Polynomial.linear_power(0, 2), 2) == p  # shift by 0
    out = add_conv(Polynomial.from_roots([1, 1, 1]), Polynomial.from_roots([2, 2, 2]), 3)
    assert out == Polynomial.from_roots([3, 3, 3])


def test_add_conv_is_shift_with_linear_power():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 8)
        p = rand_poly(rng, n)
        assert add_conv(p, Polynomial.linear_power(F(-2), n), n) == p.shift(F(-2))


def test_dilation_identities():
    rng = random.Random(13)
    for _ in range(10):
        n = 5
        p, q = rand_poly(rng, n), rand_poly(rng, n)
        assert check_identity_dilation_distribute(p, q, n, F(2))
        assert check_identity_dilation_distribute(p, q, n, F(1))
        assert check_identity_dilation_additive(p, q, n, F(-3, 2))


def test_bilinearity_commutativity_associativity():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(2, 8)
        p, q, r = (rand_poly(rng, n) for _ in range(3))
        a = F(rng.randint(-5, 5), rng.randint(1, 3)) or F(2)
        lin = p.scaled(a) + q
        assert mult_conv(lin, r, n) == mult_conv(p, r, n).scaled(a) + mult_conv(q, r, n)
        assert add_conv(lin, r, n) == add_conv(p, r, n).scaled(a) + add_conv(q, r, n)
        assert mult_conv(p, q, n) == mult_conv(q, p, n)
        assert add_conv(p, q, n) == add_conv(q, p, n)
        assert mult_conv(mult_conv(p, q, n), r, n) == mult_conv(p, mult_conv(q, r, n), n)
        assert add_conv(add_conv(p, q, n), r, n) == add_conv(p, add_conv(q, r, n), n)


def test_zero_result_rule():
    # p (+)_n q = 0 exactly when deg p + deg q < n
    p = Polynomial.from_monomial([1, 1], n=4)  # degree 1
    q = Polynomial.from_monomial([3, 0, 1], n=4)  # degree 2
    assert add_conv(p, q, 4).is_zero
    q2 = Polynomial.from_monomial([3, 0, 0, 1], n=4)  # degree 3
    assert not add_conv(p, q2, 4).is_zero


def test_errors():
    p = Polynomial.from_roots([1, 2])
    q = Polynomial.from_roots([1, 2, 3])
    with pytest.raises(DegreeMismatch):
        mult_conv(p, q, 2)
    # float coefficients are the dyadic rationals they denote: no refusal, no rounding
    f = Polynomial(2, [1.0, 0.5, 0.25])
    assert add_conv(f, p, 2) == add_conv(Polynomial(2, [1, F(1, 2), F(1, 4)]), p, 2)


def test_real_rootedness_preservation():
    rng = random.Random(15)
    for _ in range(6):
        n = rng.randint(3, 12)
        p, q = rand_poly(rng, n), rand_poly(rng, n)
        assert find_roots(add_conv(p, q, n), 192).separators is not None
        pp = rand_poly(rng, n, lo=0, hi=8)
        qq = rand_poly(rng, n, lo=0, hi=8)
        prod = mult_conv(pp, qq, n)
        roots = real_parts_sorted(find_roots(prod, 192), tau=1e-20)
        assert all(r >= -1e-20 for r in roots)


def test_interlacing_preservation():
    # p <= p~ built by interleaved root draws; q with nonnegative roots
    rng = random.Random(16)
    for _ in range(5):
        n = 5
        cuts = sorted(F(rng.randint(0, 400) + 81 * k, 10) for k in range(2 * n))
        p_roots = cuts[0::2]
        pt_roots = cuts[1::2]
        p = Polynomial.from_roots(p_roots)
        pt = Polynomial.from_roots(pt_roots)
        q = rand_poly(rng, n, lo=0, hi=8)
        a = real_parts_sorted(find_roots(mult_conv(p, q, n), 192), tau=1e-15)
        b = real_parts_sorted(find_roots(mult_conv(pt, q, n), 192), tau=1e-15)
        assert interlaces(a, b, tau=1e-18)
        a = real_parts_sorted(find_roots(add_conv(p, q, n), 192), tau=1e-15)
        b = real_parts_sorted(find_roots(add_conv(pt, q, n), 192), tau=1e-15)
        assert interlaces(a, b, tau=1e-18)


def add_conv_oracle(p, q, n):
    """The coefficient formula with one Fraction per term."""
    ep = [p.e[i] / perm(n, i) for i in range(n + 1)]
    eq = [q.e[j] / perm(n, j) for j in range(n + 1)]
    return Polynomial(n, [perm(n, k) * sum((ep[i] * eq[k - i] for i in range(k + 1)), F(0)) for k in range(n + 1)])


def scaled_content_bits(p, n):
    """Bits of the gcd of p's integer numerators times (n-i)!: the content add_conv divides out."""
    nums, _ = _ints(p.e, n)
    return reduce(gcd, (c * factorial(n - i) for i, c in enumerate(nums))).bit_length()


def padded_hyper(n, m, a, b):
    """F(-m, a; b; x) of degree m in ambient degree n >= m."""
    return Polynomial(n, [F(0)] * (n - m) + list(hyper_poly(HypergeometricSpec(m, a, b)).e))


def test_add_conv_matches_per_term_oracle():
    rng = random.Random(17)
    denoms = (1, 2, 3, 7, 12, 97, 1024, 3**9, 10**12 + 39)

    def mixed(n, deg):
        mono = [F(rng.randint(-50, 50), rng.choice(denoms)) for _ in range(deg)]
        mono.append(F(rng.randint(1, 9), rng.choice(denoms)))  # degree exactly deg
        return Polynomial.from_monomial(mono, n)

    for n in (0, 1, 2, 7, 23, 40):
        for _ in range(3):
            p, q = mixed(n, rng.randint(0, n)), mixed(n, rng.randint(0, n))
            out = add_conv(p, q, n)
            assert out == add_conv_oracle(p, q, n)
            assert out.is_zero == (p.degree + q.degree < n)
        assert add_conv(Polynomial.zero(n), mixed(n, n), n) == Polynomial.zero(n)

    # F(-n, a; b; +-x) (+)_n F(-n; b'; +-x), as in the benchmark's exact pool: the
    # factorial-scaled numerators share hundreds of bits, which add_conv divides out.
    pairs = [(F(3, 7), F(5, 2), F(7, 3)), (F(5, 11), F(11, 4), F(13, 5)), (F(-2, 9), F(7, 3), F(1, 2))]
    for n in (24, 40, 60):
        zero = Polynomial.zero(n)
        for (a, b, b2), (s1, s2) in zip(pairs, ((1, 1), (-1, 1), (1, -1))):
            p = hyper_poly(HypergeometricSpec(n, (a,), (b,), scale=s1))
            q = hyper_poly(HypergeometricSpec(n, (), (b2,), scale=s2))
            assert scaled_content_bits(q, n) > 2 * n
            for x, y in ((p, q), (q, p), (zero, q), (p, zero)):
                assert add_conv(x, y, n) == add_conv_oracle(x, y, n)
            assert add_conv(zero, q, n) == add_conv(p, zero, n) == zero

    # degree-deficient (15 + 24 < 40) gives zero; one degree more leaves only e_n
    p = padded_hyper(40, 15, (F(3, 7),), (F(5, 2),))
    q = padded_hyper(40, 24, (), (F(7, 3),))
    assert add_conv(p, q, 40) == add_conv_oracle(p, q, 40) == Polynomial.zero(40)
    q = padded_hyper(40, 25, (), (F(7, 3),))
    out = add_conv(p, q, 40)
    assert out == add_conv_oracle(p, q, 40)
    assert out.degree == 0


def test_mult_conv_and_dilate_match_their_fraction_products():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(0, 12)
        p, q = (
            Polynomial(n, [F(rng.randint(-99, 99), rng.choice((1, 3, 64, 10**9 + 7))) for _ in range(n + 1)])
            for _ in range(2)
        )
        assert mult_conv(p, q, n).e == tuple(F(p.e[k] * q.e[k], comb(n, k)) for k in range(n + 1))
        alpha = rng.choice((F(rng.randint(-9, 9) or 1, rng.randint(1, 9)), rng.randint(1, 5)))
        assert p.dilate(alpha).e == tuple(F(alpha) ** j * c for j, c in enumerate(p.e))


def test_a_chain_of_kernels_stays_on_primitive_integers():
    p = Polynomial.from_roots([F(1, 3), F(-2, 5), F(7, 2)])
    q = Polynomial.linear_power(F(2, 7), 3)
    out = mult_conv(add_conv(p.shift(F(1, 2)), q.dilate(F(-3, 4)), 3), p.reverse(), 3).scaled(F(5, 6)) - q
    assert out._e is None  # no Fraction built yet: .e is made on first use
    lhs = add_conv_oracle(Polynomial(3, p.shift(F(1, 2)).e), Polynomial(3, q.dilate(F(-3, 4)).e), 3).e
    want = [F(5, 6) * F(x * y, comb(3, k)) - z for k, (x, y, z) in enumerate(zip(lhs, p.reverse().e, q.e))]
    assert out.e == tuple(want)
    nums, den = out._nums, out._den
    assert den > 0 and reduce(gcd, nums, den) == 1
    for n in range(9):
        a, b = rand_poly(random.Random(n), n), rand_poly(random.Random(n + 50), n)
        for r in (mult_conv(a, b, n), add_conv(a, b, n)):
            nums, den = r._nums, r._den
            assert den > 0 and reduce(gcd, nums, den) == 1
