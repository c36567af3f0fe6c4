import copy
import json
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from functools import reduce
from math import comb, gcd
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from finfree import multimodular, poly
from finfree.conv import add_conv, mult_conv
from finfree.errors import ZeroDegree, ZeroDilation, ZeroLeading
from finfree.partitions import finite_free_cumulants
from finfree.poly import Polynomial, _newton_solve


def rand_poly(rng, n):
    return Polynomial.from_roots([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])


def horner(p, x):
    """p(x) from the monomial coefficients, in the type of x (Fraction or mpmath)."""
    mono = p.to_monomial()
    acc = mono[-1] * (x * 0 + 1)
    for m in range(p.n - 1, -1, -1):
        acc = acc * x + mono[m]
    return acc


def test_e_convention():
    p = Polynomial.from_monomial([2, -3, 1])  # (x-1)(x-2)
    assert p.e == (F(1), F(3), F(2))
    assert p.e[0] == 1 and p.degree == 2 and p.exact


def test_mpf_coefficients_keep_their_bits_at_default_precision():
    with mp.workprec(200):
        c = mp.mpf(1) / 3
    _, man, exp, _ = c._mpf_
    exact = F(man, 2**-exp)  # all 200 bits, whatever mp.prec is now
    p = Polynomial.from_monomial([c, -1, 1])
    assert p.e[2] == exact and p.to_monomial()[0] == exact
    q = Polynomial.from_monomial([1, c, 1])  # odd position: e_1 = -c
    assert q.e[1] == -exact
    assert q.to_monomial()[1] == exact


def test_dilate_examples():
    p = Polynomial.from_monomial([2, -3, 1])
    assert p.dilate(1) == p
    # dilate(x-1, 2) = 2((x/2) - 1) = x - 2
    assert Polynomial.from_monomial([-1, 1]).dilate(2).to_monomial() == (F(-2), F(1))
    assert Polynomial.from_monomial([-1.0, 1.0]).dilate(2.0).to_monomial() == (F(-2), F(1))  # floats read exactly
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
        if q.to_monomial()[0] != 0:
            assert q.reverse().reverse() == q
    # roots map t -> 1/t
    xn = Polynomial.from_roots([F(2), F(-3), F(1, 5)])
    rev = xn.reverse()
    for r in (F(1, 2), F(-1, 3), F(5)):
        assert horner(rev, r) == 0


def test_shift_evaluate_consistency_exact_and_float():
    rng = random.Random(3)
    p = rand_poly(rng, 5)
    a = F(7, 3)
    for x in (F(1, 2), F(-4), F(9, 7)):
        assert horner(p.shift(a), x) == horner(p, x - a)
    # float backend at given precision: relative error within 2^(-prec+10)
    with mp.workprec(128):
        x = mp.mpf(3) / 7
        lhs = horner(p.shift(a), x)
        rhs = horner(p, x - mp.mpf(7) / 3)
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
    # float coefficients are read exactly: x^2 - 3x + 2 has power sums 3, 5, 9
    assert Polynomial(2, [1.0, 3.0, 2.0]).power_sums(3) == [3, 5, 9]


def test_json_roundtrip_bit_exact():
    rng = random.Random(5)
    p = rand_poly(rng, 6).scaled(F(22, 7))
    text = p.to_json()
    obj = json.loads(text)
    assert all("." not in s for s in obj["e"])  # decimal-free rational strings
    assert Polynomial.from_json(text) == p


@pytest.mark.parametrize("n", ["1.0", "2.5", "true", '"1"'])
def test_from_json_refuses_a_degree_that_is_not_an_integer(n):
    with pytest.raises(TypeError):
        Polynomial.from_json(f'{{"n": {n}, "e": ["1", "2"]}}')


def test_float_coefficients_are_exact_and_serialize():
    q = Polynomial(2, [1.0, 0.5, -3.25])
    assert q.exact and q.e == (1, F(1, 2), F(-13, 4)) and all(type(x) is F for x in q.e)
    assert json.loads(q.to_json())["e"] == ["1", "1/2", "-13/4"]
    assert Polynomial.from_json(q.to_json()) == q


def test_ambient_degree_bookkeeping():
    p = Polynomial.from_monomial([1, 1], n=4)  # x + 1 in ambient degree 4
    assert p.n == 4 and p.degree == 1
    with pytest.raises(ZeroLeading):
        p.monicized()


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
        assert Polynomial.from_roots(roots, n).scaled(leading) == from_roots_oracle(roots, n, leading)


# -- the stored form: one primitive integer vector over one denominator ------------


def is_primitive(p):
    nums, den = p._nums, p._den
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
        p = Polynomial.from_roots(roots, n).scaled(lead)
        q = Polynomial.from_roots([rand_rational(rng) for _ in range(rng.randint(0, n))], n)
        assert p.e == from_roots_oracle(roots, n, lead).e  # the oracles below read p.e and q.e
        pe, qe, mono = p.e, q.e, p.to_monomial()
        a, c = rand_rational(rng) or F(-3, 2), rand_rational(rng)
        cases = [
            (Polynomial.linear_power(a, n), [comb(n, j) * a**j for j in range(n + 1)]),
            (Polynomial.zero(n), [0] * (n + 1)),
            (Polynomial.linear_power(0, n), [1] + [0] * n),
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
        assert p == forms[0] and hash(p) == hash(forms[0]) and (p._nums, p._den) == ((1, -3, 2), 1)
    half = Polynomial._from_ints(1, [-6, 9], -12)
    assert half == Polynomial(1, [F(1, 2), F(-3, 4)]) and (half._nums, half._den) == ((2, -3), 4)
    assert hash(half) == hash(Polynomial(1, [F(1, 2), F(-3, 4)]))
    assert half != Polynomial._from_ints(1, [2, -3], 5) and half != Polynomial._from_ints(2, [0, 2, -3], 4)
    # floats compare as the dyadic rationals they denote
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


def test_root_moments_of_a_constant_raise_zero_degree():
    # a constant has no roots: its power sums are empty sums, its moments undefined
    c = Polynomial.linear_power(0, 0)
    assert c.power_sums(2) == [0, 0]
    with pytest.raises(ZeroDegree, match="degree >= 1"):
        c.root_moments(2)
    with pytest.raises(ZeroDegree):
        Polynomial(0, [F(3, 2)]).root_moments(0)


@pytest.mark.parametrize("bad", [0.5, mp.mpf(1) / 3])
def test_kernels_read_float_and_mpf_as_their_dyadic_values(bad):
    _, man, exp, _ = mp.mpf(bad)._mpf_
    d = F(man, 2**-exp)  # the dyadic rational bad denotes
    assert d.denominator in (2, 2**54)  # 1/3 rounded to 53 bits, not 1/3
    exact = Polynomial.from_monomial([1, F(2, 3), 1])
    p, pd = Polynomial.from_monomial([bad, 1, 1]), Polynomial.from_monomial([d, 1, 1])
    assert p == pd and (p._nums, p._den) == (pd._nums, pd._den) and hash(p) == hash(pd)
    assert p.shift(F(1, 2)) == pd.shift(F(1, 2)) and exact.shift(bad) == exact.shift(d)
    assert p.mul(exact) == pd.mul(exact) and exact.mul(p) == exact.mul(pd)
    assert add_conv(p, exact, 2) == add_conv(pd, exact, 2)
    assert mult_conv(exact, p, 2) == mult_conv(exact, pd, 2)
    assert finite_free_cumulants(Polynomial(2, [1, bad, bad])) == finite_free_cumulants(Polynomial(2, [1, d, d]))


# -- the input rule: each coefficient or scalar is the rational it denotes ----------

BUILDERS = {
    "init": lambda c: Polynomial(2, [1, c, 2]),
    "from_monomial": lambda c: Polynomial.from_monomial([c, -1, 1]),
    "from_roots": lambda c: Polynomial.from_roots([1, c]),
    "linear_power": lambda c: Polynomial.linear_power(c, 3),
    "dilate": lambda c: Polynomial.from_roots([1, 2]).dilate(c),
    "shift": lambda c: Polynomial.from_roots([1, 2]).shift(c),
    "scaled": lambda c: Polynomial.from_roots([1, 2]).scaled(c),
}

REFUSED = [
    (float("nan"), ValueError, "coefficient nan is not finite"),
    (-float("inf"), ValueError, "coefficient -inf is not finite"),
    (mp.mpf("inf"), ValueError, "coefficient +inf is not finite"),
    (mp.mpf("nan"), ValueError, "coefficient nan is not finite"),
    (1j, TypeError, "coefficients must be real, got 1j"),
    (complex(2, 0), TypeError, "coefficients must be real, got (2+0j)"),
    (mp.mpc(1, 1), TypeError, "coefficients must be real, got (1.0 + 1.0j)"),
    (np.complex128(3), TypeError, "coefficients must be real"),
    (True, TypeError, "bool is not a polynomial coefficient"),
    (np.float64("inf"), ValueError, "coefficient inf is not finite"),
    ("1/2", TypeError, "str is not a polynomial coefficient"),
    (None, TypeError, "NoneType is not a polynomial coefficient"),
]


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("bad, error, message", REFUSED)
def test_non_finite_complex_bool_and_non_numeric_values_are_refused_at_construction(build, bad, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build(bad)


def test_numpy_and_mpmath_scalars_give_the_polynomial_of_their_fractions():
    values = [(np.int64(3), F(3)), (np.float64(0.75), F(3, 4)), (np.float32(-2.0), F(-2)), (mp.mpf(0.75), F(3, 4))]
    for build in BUILDERS.values():
        for x, want in values:
            got, ref = build(x), build(want)
            assert got == ref and (got._nums, got._den) == (ref._nums, ref._den)
            assert all(type(c) is int for c in got._nums + (got._den,))
    p = Polynomial(1, [np.int64(1), np.int64(2)])
    assert p.exact and mult_conv(p, p, 1) == mult_conv(Polynomial(1, [1, 2]), Polynomial(1, [1, 2]), 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Polynomial(-1, []),
        lambda: Polynomial.zero(-1),
        lambda: Polynomial.linear_power(F(1, 2), -2),
        lambda: Polynomial._from_ints(-1, [], 1),
        lambda: Polynomial.from_monomial([], n=-1),
    ],
    ids=["init", "zero", "linear_power", "from_ints", "from_monomial"],
)
def test_every_constructor_refuses_a_negative_ambient_degree(build):
    with pytest.raises(ValueError, match="ambient degree must be nonnegative"):
        build()


def test_copy_deepcopy_and_pickle_round_trip():
    for p in (Polynomial.from_roots([1, F(2, 3)], 4).scaled(F(-5, 7)), Polynomial.zero(0), Polynomial(2, [0.5, 1, 3])):
        p.e  # a cached .e is not part of the value
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and (q._nums, q._den) == (p._nums, p._den) and hash(q) == hash(p) and q.e == p.e
        assert pickle.loads(pickle.dumps(p, protocol=0)) == p


# -- the exact product: schoolbook sum and multi-modular convolution ------------


def product_oracle(a, b, K):
    """The schoolbook loop the package started from, on copies padded to K+1 entries."""
    a, b = (list(v[: K + 1]) + [0] * (K + 1 - len(v[: K + 1])) for v in (a, b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(K + 1)]


def signed_vector(rng, n, top_bits):
    """n signed integers whose bit lengths run from 1 to top_bits, a few of them zero."""
    return [0 if rng.random() < 0.05 else rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, top_bits)) or 1
            for _ in range(n)]


@pytest.mark.parametrize("K", [47, 48, 64, 160, 600])
def test_modular_product_matches_the_schoolbook_oracle(K):
    rng = random.Random(4000 + K)
    # 24-bit limbs are summed 128 at a time, so entries past 3072 bits take more than one sum
    for top_a, top_b in [(1, 1), (40, 3), (300, 700), (3100, 64), (3300, 3500)]:
        if K == 600 and top_a * top_b > 10**5:  # keep the oracle's bit products small at K = 600
            a = signed_vector(rng, K, 40) + [rng.getrandbits(top_a) | 1]
            b = [rng.getrandbits(top_b) | 1] + signed_vector(rng, K // 3, 50)
        else:
            a, b = signed_vector(rng, K + 1, top_a), signed_vector(rng, K + 1, top_b)
        want = product_oracle(a, b, K)
        assert multimodular.product(a, b, K) == want == poly._mul_schoolbook(a, b, K)
        assert poly._mul_ints(a, b, K) == want


@pytest.mark.parametrize("K", [47, 160])
def test_modular_product_at_the_magnitude_bound(K):
    # every term of an output with the same sign: |c_k| reaches m A B, the bound the primes
    # must cover (one prime fewer leaves M below 2 |c_k| for some of these)
    for bits in (1, 19, 20, 21, 59, 60, 61, 333, 1000, 3072, 3073):
        A = 2**bits - 1
        for a, b in (([A] * (K + 1), [A] * (K + 1)), ([-A] * (K + 1), [A] * (K + 1)), ([-A] * (K + 1), [-1] * (K + 1))):
            assert multimodular.product(a, b, K) == product_oracle(a, b, K)


def test_modular_product_of_multiples_of_the_moduli():
    # a is divisible by the first P moduli and each b_j by all but one of them: the limb sums
    # are exact multiples of those primes, every output's residue vanishes there, and the
    # lift rests on the moduli that the wider product adds
    rng = random.Random(4100)
    column, _, _, M, _ = multimodular._moduli(multimodular._prime_count(2 * 2100 + 8))
    primes = [int(p) for p in column.ravel()]
    a = [M * rng.getrandbits(30) * rng.choice((-1, 1)) for _ in range(65)]
    b = [(M // rng.choice(primes)) * rng.getrandbits(40) for _ in range(65)]
    assert multimodular.product(a, b, 64) == product_oracle(a, b, 64)


def test_product_edge_cases_on_both_methods():
    rng = random.Random(4200)
    K = 48
    wide = signed_vector(rng, K + 1, 900)
    one = [0] * 17 + [rng.getrandbits(2000)] + [0] * (K - 17)
    cases = [
        ([0] * (K + 1), wide),  # an all-zero operand
        ([], wide),
        (one, wide),  # a single nonzero entry
        (one, [0] * 5 + [-3]),
        ([-x - 1 for x in map(abs, wide)], [-(1 << 700)] * (K + 1)),  # all negative
        (signed_vector(rng, 3 * K, 500), signed_vector(rng, 2 * K, 500)),  # longer than K+1
        (signed_vector(rng, 10, 500), signed_vector(rng, K, 500)),  # shorter: padded by zeros
        (wide[:20] + [0] * 40, wide[5:30] + [0] * 7),  # trailing zeros
    ]
    for a, b in cases:
        want = product_oracle(a, b, K)
        assert multimodular.product(a, b, K) == want
        assert poly._mul_schoolbook(a, b, K) == want
        assert poly._mul_ints(a, b, K) == want == poly._mul_ints(b, a, K)


def mono_value(p, x):
    """p(x) exactly: sum_m c_m u^m v^(n-m) over v^n den, for x = u/v and monomial numerators c_m."""
    mono, den = p._mono_ints()
    u, v = x.numerator, x.denominator
    return F(sum(c * u**m * v ** (p.n - m) for m, c in enumerate(mono)), v**p.n * den)


def test_large_products_on_the_modular_method_match_their_routes(monkeypatch):
    from finfree import hyper

    calls = []
    monkeypatch.setattr(multimodular, "product", lambda a, b, K, f=multimodular.product: calls.append(K) or f(a, b, K))
    n = 300
    specs = (hyper.HypergeometricSpec(n=n, a=(F(3, 7),), b=(F(5, 2),)), hyper.HypergeometricSpec(n=n, b=(F(10, 3),)))
    p, q = (hyper.hyper_poly(s) for s in specs)
    s, pq = add_conv(p, q, n), p.mul(q)
    assert calls == [n, 2 * n]
    assert s.proportional_to(hyper.theorem_b_rhs(*specs)) is not None
    for x in (F(1, 3), F(-2, 5), F(7, 4)):
        assert mono_value(pq, x) == mono_value(p, x) * mono_value(q, x)


def test_workload_products_take_the_method_their_size_calls_for(monkeypatch):
    # limits (K <= 36, numerators up to ~300 bits), verify (K <= 9) and zeros (K <= 36) stay
    # schoolbook; in `exact` the four large products go modular, and ml2_typeI (K = 59,
    # 276 bits) and jp_typeII_int (K = 80, one side of 1 bit) stay schoolbook
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    from bench.common import build
    from bench.workloads import exact, limits, verify, zeros

    modular, current = [], [None]
    monkeypatch.setattr(multimodular, "product", lambda a, b, K, f=multimodular.product: modular.append(current[0]) or f(a, b, K))
    for module in (limits, verify, zeros, exact):
        name = module.__name__.rsplit(".", 1)[1]
        env = {}
        for op in build(module.slots("full"), name, 1):
            current[0] = f"{name}:{op.name}"
            env[op.name] = op.run(env)
    assert sorted(modular) == ["exact:add_conv", "exact:jp_typeII_rev_a", "exact:jp_typeII_rev_b", "exact:poly_mul"]


def test_the_exact_layers_import_numpy_only_for_a_modular_product():
    src = str(Path(poly.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; import finfree, finfree.hyper, finfree.conv, finfree.cli; from finfree.poly import _mul_ints; "
        "_mul_ints([3**200] * 37, [5**100] * 37, 36); assert 'numpy' not in sys.modules; "
        "_mul_ints([3**200] * 161, [5**100] * 161, 160); assert 'numpy' in sys.modules"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
