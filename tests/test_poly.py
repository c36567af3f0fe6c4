import json
import random
from fractions import Fraction as F
from functools import reduce
from math import comb, gcd

import mpmath as mp
import pytest

from finfree.errors import FloatBackendRejected, ZeroDilation, ZeroLeading
from finfree.poly import Polynomial, _newton_solve


def rand_poly(rng, n):
    return Polynomial.from_roots([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])


def test_e_convention():
    p = Polynomial.from_monomial([2, -3, 1])  # (x-1)(x-2)
    assert p.e == (F(1), F(3), F(2))
    assert p.monic and p.degree == 2 and p.exact


def test_mpf_coefficients_keep_their_bits_at_default_precision():
    from mpmath import libmp

    with mp.workprec(200):
        c = mp.mpf(1) / 3
    p = Polynomial.from_monomial([c, -1, 1])
    assert p.e[2] == c and p.to_monomial()[0] == c and p.coeff(0) == c
    q = Polynomial.from_monomial([1, c, 1])  # odd position: e_1 = -c
    assert q.e[1]._mpf_ == libmp.mpf_neg(c._mpf_)
    assert q.to_monomial()[1] == c and q.coeff(1) == c


def test_dilate_examples():
    p = Polynomial.from_monomial([2, -3, 1])
    assert p.dilate(1) == p
    # dilate(x-1, 2) = 2((x/2) - 1) = x - 2
    assert Polynomial.from_monomial([-1, 1]).dilate(2).to_monomial() == (F(-2), F(1))
    assert Polynomial.from_monomial([-1.0, 1.0]).dilate(2).to_monomial() == (-2.0, 1.0)  # float backend
    with pytest.raises(ZeroDilation):
        p.dilate(0)


def test_dilate_composition_random():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 6)
        p = rand_poly(rng, n)
        a, b = F(2), F(3)
        assert p.dilate(a).dilate(b) == p.dilate(a * b)


def test_shift_examples():
    x2 = Polynomial.from_monomial([0, 0, 1])
    assert x2.shift(1).to_monomial() == (F(1), F(-2), F(1))
    p = Polynomial.from_monomial([2, -3, 1])
    assert p.shift(0) == p
    assert p.shift(-1).to_monomial() == (F(0), F(-1), F(1))  # x^2 - x


def test_reverse_examples():
    p = Polynomial.from_monomial([2, -3, 1])
    assert p.reverse().to_monomial() == (F(1), F(-3), F(2))  # 2x^2-3x+1 reversed order
    rng = random.Random(2)
    for _ in range(10):
        q = rand_poly(rng, rng.randint(1, 6))
        if q.coeff(0) != 0:
            assert q.reverse().reverse() == q
    # roots map t -> 1/t
    xn = Polynomial.from_roots([F(2), F(-3), F(1, 5)])
    rev = xn.reverse()
    for r in (F(1, 2), F(-1, 3), F(5)):
        assert rev.evaluate(r) == 0


def test_evaluate():
    p = Polynomial.from_monomial([2, -3, 1])
    assert p.evaluate(F(1)) == 0
    assert p.evaluate(F(0)) == 2
    assert p.evaluate(complex(0, 1)) == complex(1, -3)


def test_shift_evaluate_consistency_exact_and_float():
    rng = random.Random(3)
    p = rand_poly(rng, 5)
    a = F(7, 3)
    for x in (F(1, 2), F(-4), F(9, 7)):
        assert p.shift(a).evaluate(x) == p.evaluate(x - a)
    # float backend at given precision: relative error within 2^(-prec+10)
    with mp.workprec(128):
        x = mp.mpf(3) / 7
        lhs = p.shift(a).evaluate(x)
        rhs = p.evaluate(x - mp.mpf(7) / 3)
        assert abs(lhs - rhs) <= mp.mpf(2) ** (-118) * (1 + abs(rhs))


def test_power_sums_newton_identities():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(1, 8)
        roots = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        p = Polynomial.from_roots(roots)
        for k in range(1, 5):
            assert p.power_sums(k)[-1] == sum(r**k for r in roots)
    assert Polynomial.from_monomial([2, -3, 1]).root_moments(2) == [F(3, 2), F(5, 2)]
    # point mass: m_k = c^k
    pm = Polynomial.from_roots([F(5, 3)] * 4)
    assert pm.root_moments(3) == [F(5, 3), F(25, 9), F(125, 27)]


def test_newton_identities_round_trip_past_the_degree():
    # power sums -> elementary values -> power sums; past n the elementary values vanish
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 7)
        p = rand_poly(rng, n).scaled(F(rng.randint(1, 9), rng.randint(1, 9)))
        for kmax in (1, n, n + 4):
            ps = p.power_sums(kmax)
            sigma = _newton_solve(ps, to_power_sums=False)
            assert sigma == ([c / p.e[0] for c in p.e[1:]] + [0] * kmax)[:kmax]
            assert _newton_solve(sigma, to_power_sums=True) == ps
    assert _newton_solve([], to_power_sums=True) == []
    # floats stay floats: x^2 - 3x + 2 has power sums 3, 5, 9
    assert Polynomial(2, [1.0, 3.0, 2.0]).power_sums(3) == [3.0, 5.0, 9.0]


def test_json_roundtrip_bit_exact():
    rng = random.Random(5)
    p = rand_poly(rng, 6).scaled(F(22, 7))
    text = p.to_json()
    obj = json.loads(text)
    assert all("." not in s for s in obj["e"])  # decimal-free rational strings
    assert Polynomial.from_json(text) == p


def test_float_backend_flag_and_json_rejection():
    q = Polynomial(2, [1.0, 2.0, 3.0])
    assert not q.exact
    with pytest.raises(FloatBackendRejected):
        q.to_json()


def test_ambient_degree_bookkeeping():
    p = Polynomial.from_monomial([1, 1], n=4)  # x + 1 in ambient degree 4
    assert p.n == 4 and p.degree == 1
    with pytest.raises(ZeroLeading):
        p.monicized()


def test_divide_linear():
    p = Polynomial.from_roots([F(1), F(1), F(2)])
    q = p.divide_linear(F(1))
    assert q.to_monomial() == Polynomial.from_roots([F(1), F(2)]).to_monomial()
    with pytest.raises(ValueError):
        p.divide_linear(F(5))


# -- the exact kernel against the per-term Fraction loops it replaced ----------

DENOMS = (1, 2, 3, 7, 12, 97, 1024, 3**9, 10**12 + 39)


def rand_rational(rng):
    return F(rng.randint(-50, 50), rng.choice(DENOMS))


def rand_mixed(rng, n, deficit=0):
    """Ambient degree n, coefficients with mixed denominators, actual degree n - deficit."""
    return Polynomial.from_monomial([rand_rational(rng) for _ in range(n + 1 - deficit)], n)


def shift_oracle(p, a):
    mono, n = p.to_monomial(), p.n
    out = [F(0)] * (n + 1)
    for m in range(n, -1, -1):
        for k in range(m, -1, -1):
            out[k] += mono[m] * comb(m, k) * (-a) ** (m - k)
    return Polynomial.from_monomial(out, n)


def mul_oracle(p, q):
    a, b = p.to_monomial(), q.to_monomial()
    out = [F(0)] * (p.n + q.n + 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return Polynomial.from_monomial(out, p.n + q.n)


def from_roots_oracle(roots, n, leading):
    mono = [F(leading)]
    for r in roots:
        mono = [mono[0] * (-r)] + [mono[k] * (-r) + mono[k - 1] for k in range(1, len(mono))] + [mono[-1]]
    return Polynomial.from_monomial(mono, n)


def test_shift_matches_binomial_oracle():
    rng = random.Random(31)
    alphas = [F(-7, 3), F(5, 10**12 + 39), F(-1, 2**40), F(3), F(-11, 97)]
    for n in (0, 1, 2, 5, 17, 40):
        for deficit in (0, min(n, 3)):
            p = rand_mixed(rng, n, deficit)
            for a in alphas + [rand_rational(rng) or F(1)]:
                assert p.shift(a) == shift_oracle(p, a)
        assert Polynomial.zero(n).shift(F(-2, 3)) == Polynomial.zero(n)
    p = rand_mixed(rng, 9)
    assert p.shift(0) is p and p.shift(F(0)) is p


def test_mul_matches_convolution_oracle():
    rng = random.Random(32)
    for _ in range(12):
        n, m = rng.randint(0, 40), rng.randint(0, 40)
        p, q = rand_mixed(rng, n, rng.randint(0, n)), rand_mixed(rng, m)
        assert p.mul(q) == mul_oracle(p, q) == q.mul(p)
    assert rand_mixed(rng, 6).mul(Polynomial.zero(4)) == Polynomial.zero(10)


def test_from_roots_matches_product_oracle():
    rng = random.Random(33)
    for _ in range(12):
        k = rng.randint(0, 40)
        roots = [rand_rational(rng) for _ in range(k)]
        n = k + rng.randint(0, 3)
        leading = rng.choice((1, F(-5, 7), F(3, 10**12 + 39)))
        assert Polynomial.from_roots(roots, n, leading) == from_roots_oracle(roots, n, leading)


# -- the stored form: one primitive integer vector over one denominator ------------


def is_primitive(p):
    nums, den = p._int_form()
    return den > 0 and reduce(gcd, nums, den) == 1


def e_of_mono(mono):
    """e_j = (-1)^j c_(n-j), one Fraction per coefficient."""
    n = len(mono) - 1
    return tuple(F(mono[n - j]) * (-1) ** j for j in range(n + 1))


def test_every_producer_matches_its_fraction_oracle_and_stores_primitive_integers():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(0, 9)
        roots = [rand_rational(rng) for _ in range(n)]
        lead = rand_rational(rng) or F(5, 3)
        p = Polynomial.from_roots(roots, n, lead)
        q = Polynomial.from_roots([rand_rational(rng) for _ in range(rng.randint(0, n))], n)
        assert p.e == from_roots_oracle(roots, n, lead).e  # the oracles below read p.e and q.e
        pe, qe, mono = p.e, q.e, p.to_monomial()
        a, c = rand_rational(rng) or F(-3, 2), rand_rational(rng)
        cases = [
            (Polynomial.linear_power(a, n), [comb(n, j) * a**j for j in range(n + 1)]),
            (Polynomial.zero(n), [0] * (n + 1)),
            (Polynomial.x_power(n), [1] + [0] * n),
            (p.dilate(a), [a**j * x for j, x in enumerate(pe)]),
            (p.scaled(c), [c * x for x in pe]),
            (p + q, [x + y for x, y in zip(pe, qe)]),
            (p - q, [x - y for x, y in zip(pe, qe)]),
            (p.shift(a), shift_oracle(p, a).e),
            (p.mul(q), mul_oracle(p, q).e),
            (p.reverse(), e_of_mono(mono[::-1])),
            (p.derivative(), e_of_mono([m * mono[m] for m in range(1, n + 1)]) if n else [0]),
            (p.monicized(), [x / pe[0] for x in pe]),
            (Polynomial.from_json(p.to_json()), pe),
        ]
        if n:
            cases.append((p.divide_linear(roots[0]), from_roots_oracle(roots[1:], n - 1, lead).e))
        for out, want in cases:
            assert out.e == tuple(want) and all(type(x) is F for x in out.e)
            assert is_primitive(out)


def test_equal_polynomials_store_equal_integers_and_hash_alike():
    forms = [
        Polynomial(2, [1, -3, 2]),
        Polynomial(2, [F(1), F(-3), F(2)]),
        Polynomial.from_monomial([2, 3, 1]),
        Polynomial._from_ints(2, [4, -12, 8], 4),  # unreduced
        Polynomial._from_ints(2, [-2, 6, -4], -2),  # negative denominator
    ]
    for p in forms:
        assert p == forms[0] and hash(p) == hash(forms[0]) and p._int_form() == ((1, -3, 2), 1)
    half = Polynomial._from_ints(1, [-6, 9], -12)
    assert half == Polynomial(1, [F(1, 2), F(-3, 4)]) and half._int_form() == ((2, -3), 4)
    assert hash(half) == hash(Polynomial(1, [F(1, 2), F(-3, 4)]))
    assert half != Polynomial._from_ints(1, [2, -3], 5) and half != Polynomial._from_ints(2, [0, 2, -3], 4)
    # exact against float-backed: coefficientwise, as between the numbers themselves
    assert Polynomial(1, [1, 2]) == Polynomial(1, [1.0, 2.0])
    assert hash(Polynomial(1, [1, 2])) == hash(Polynomial(1, [1.0, 2.0]))
    assert Polynomial(1, [1, 2]) != Polynomial(1, [1.0, 2.5])
    assert Polynomial(1, [F(1, 3), 2]) != Polynomial(1, [1 / 3, 2.0])
    assert Polynomial(2, [1.0, 3.0, 2.0]).power_sums(3) == [3.0, 5.0, 9.0]


def test_power_sums_reject_a_negative_order_and_go_on_past_n():
    p = Polynomial.from_roots([1, 2, 3])
    with pytest.raises(ValueError, match="order -2"):
        p.power_sums(-2)
    with pytest.raises(ValueError, match="order -1"):
        p.root_moments(-1)
    assert p.power_sums(0) == []
    assert p.power_sums(5) == [6, 14, 36, 98, 276]


@pytest.mark.parametrize("bad", [0.5, mp.mpf(1) / 3])
def test_exact_kernel_rejects_float_and_mpf(bad):
    exact = Polynomial.from_monomial([1, F(2, 3), 1])
    inexact = Polynomial.from_monomial([bad, 1, 1])
    with pytest.raises(FloatBackendRejected):
        inexact.shift(F(1, 2))
    with pytest.raises(FloatBackendRejected):
        exact.shift(bad)
    with pytest.raises(FloatBackendRejected):
        inexact.mul(exact)
    with pytest.raises(FloatBackendRejected):
        exact.mul(inexact)
    with pytest.raises(FloatBackendRejected):
        Polynomial.from_roots([1, bad])
    with pytest.raises(FloatBackendRejected):
        Polynomial.from_roots([1, 2], leading=bad)
