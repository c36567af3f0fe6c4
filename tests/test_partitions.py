import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod

import pytest

from finfree.conv import add_conv
from finfree.errors import NotComparable, TooLarge
from finfree.hyper import HypergeometricSpec, hyper_poly
from finfree.partitions import (
    _canon,
    _nc_kreweras_types,
    _nc_types,
    _size,
    cumulants_from_moments_nc,
    cumulants_to_elementary,
    enumerate_nc,
    enumerate_partitions,
    finite_free_cumulants,
    is_noncrossing,
    kreweras,
    mobius,
    moments_from_cumulants_nc,
    multiplicative_cumulant_product,
    one_block,
    refines,
    singletons,
)
from finfree.poly import Polynomial


def partition_product(values, pi):
    """prod over blocks V of values[|V|]; values is 1-indexed by block size."""
    out = F(1)
    for block in pi:
        out *= values[len(block)]
    return out


@lru_cache(maxsize=None)
def _partitions_cached(k):
    return tuple(enumerate_partitions(k))


def mobius_zeta_inverse(sigma, pi):
    """Moebius value by direct recursive inversion of zeta (test oracle)."""
    sigma, pi = _canon(sigma), _canon(pi)
    if not refines(sigma, pi):
        raise NotComparable("sigma does not refine pi")
    if sigma == pi:
        return 1
    total = 0
    for rho in _partitions_cached(_size(pi)):
        if rho != pi and refines(sigma, rho) and refines(rho, pi):
            total += mobius_zeta_inverse(sigma, rho)
    return -total


def _falling_pref(n, j):
    falling = F(1)
    for i in range(j):
        falling *= n - i
    return falling / (F(n) ** j * factorial(j))


@lru_cache(maxsize=None)
def _weighted_partitions(j):
    return [(pi, mobius(singletons(j), pi)) for pi in enumerate_partitions(j)]


def mobius_system_cumulants(p, upto=None):
    """Oracle: solve e_j = n^(j)/(n^j j!) sum_{pi in P(j)} n^|pi| mu(0_j, pi) kappa_pi for increasing j."""
    n = p.n
    m = n if upto is None else min(upto, n)
    e = [c / p.e[0] for c in p.e]
    kappa = [None]  # 1-indexed
    for j in range(1, m + 1):
        acc, coeff_full = F(0), None
        for pi, mu in _weighted_partitions(j):
            if len(pi) == 1:
                coeff_full = F(n) * mu
            else:
                acc += F(n) ** len(pi) * mu * partition_product(kappa, pi)
        kappa.append((e[j] / _falling_pref(n, j) - acc) / coeff_full)
    return kappa[1:]


def mobius_system_elementary(kappa, n):
    """Oracle: e_0..e_m from kappa through the same Moebius sum."""
    values = [None] + [F(k) for k in kappa]
    e = [F(1)]
    for j in range(1, len(kappa) + 1):
        tot = sum(
            (F(n) ** len(pi) * mu * partition_product(values, pi) for pi, mu in _weighted_partitions(j)),
            start=F(0),
        )
        e.append(_falling_pref(n, j) * tot)
    return e


def test_counts():
    assert [len(enumerate_partitions(k)) for k in (1, 2, 3, 4, 5)] == [1, 2, 5, 15, 52]
    assert [len(enumerate_nc(k)) for k in (1, 2, 3, 4, 5)] == [1, 2, 5, 14, 42]


def test_nc_generated_directly():
    for k in range(1, 11):
        assert len(enumerate_nc(k)) == comb(2 * k, k) // (k + 1)
    for k in range(1, 9):
        ncs = enumerate_nc(k)
        assert len(set(ncs)) == len(ncs)
        assert set(ncs) == {p for p in enumerate_partitions(k) if is_noncrossing(p)}


def test_guard():
    with pytest.raises(TooLarge):
        enumerate_partitions(13)


def test_mobius_examples_and_recursion():
    assert mobius(singletons(1), one_block(1)) == 1
    assert mobius(singletons(2), one_block(2)) == -1
    parts = enumerate_partitions(4)
    for s in parts:
        for p in parts:
            if refines(s, p):
                assert mobius(s, p) == mobius_zeta_inverse(s, p)
                if s != p:
                    total = sum(mobius(s, r) for r in parts if refines(s, r) and refines(r, p))
                    assert total == 0
    with pytest.raises(NotComparable):
        mobius(((1, 2), (3,)), ((1, 3), (2,)))


def test_kreweras():
    assert kreweras(singletons(3)) == one_block(3)
    assert kreweras(one_block(3)) == singletons(3)
    assert kreweras(((1,), (2, 3))) == ((1, 3), (2,))
    for k in (4, 5):
        ncs = enumerate_nc(k)
        images = [kreweras(p) for p in ncs]
        assert all(is_noncrossing(q) for q in images)
        assert len(set(images)) == len(ncs)  # bijection
        assert all(len(p) + len(kreweras(p)) == k + 1 for p in ncs)


def kreweras_interval_oracle(pi):
    """Kr(pi) on {1..k} by the interval rule: j' and m' (j < m) share a block iff no
    block of pi has some elements in {j+1..m} and some outside."""
    k = sum(len(b) for b in pi)
    group = list(range(k + 1))
    for j in range(1, k + 1):
        for m in range(j + 1, k + 1):
            if all(sum(j < x <= m for x in b) in (0, len(b)) for b in pi):
                old = group[m]
                group = [group[j] if g == old else g for g in group]
    blocks = {}
    for j in range(1, k + 1):
        blocks.setdefault(group[j], []).append(j)
    return tuple(sorted(tuple(b) for b in blocks.values()))


def crosses_oracle(pi):
    """Some a < b < c < d with a, c in one block and b, d in another."""
    where = {x: i for i, b in enumerate(pi) for x in b}
    xs = sorted(where)
    for a, b, c, d in combinations(xs, 4):
        if where[a] == where[c] != where[b] == where[d]:
            return True
    return False


def test_kreweras_matches_the_interval_rule():
    for k in range(1, 9):
        for pi in enumerate_nc(k):
            assert kreweras(pi) == kreweras_interval_oracle(pi), pi


def test_kreweras_twice_rotates_the_labels():
    for k in range(1, 9):
        for pi in enumerate_nc(k):
            rotated = tuple(sorted(tuple(sorted((x - 2) % k + 1 for x in b)) for b in pi))
            assert kreweras(kreweras(pi)) == rotated, pi


def test_kreweras_refuses_a_crossing_partition():
    with pytest.raises(ValueError, match="crossing"):
        kreweras(((1, 3), (2, 4)))
    for pi in enumerate_partitions(6):
        if not is_noncrossing(pi):
            with pytest.raises(ValueError):
                kreweras(pi)


def test_noncrossing_is_genus_zero():
    for k in range(1, 8):
        for pi in enumerate_partitions(k):
            assert is_noncrossing(pi) == (not crosses_oracle(pi)), pi
    assert not is_noncrossing(((1, 5), (3, 7)))
    assert is_noncrossing(((1, 7), (3, 5)))
    assert kreweras(((1, 7), (3, 5))) == ((1, 5), (3,), (7,))


def test_partitions_of_different_ground_sets_are_not_comparable():
    for sigma, pi in [(((1,), (4,)), ((1, 2),)), (((1,), (2,)), ((1, 2, 3),)), (((1, 2, 3),), ((1, 2),))]:
        assert not refines(sigma, pi)
        with pytest.raises(NotComparable):
            mobius(sigma, pi)
    assert mobius(singletons(2), one_block(2)) == -1
    assert mobius(((4,), (9,)), ((4, 9),)) == -1  # labels need not be 1..k


def test_orders_past_the_input_raise_value_errors():
    # the NC maps answer to the order their input fixes, the product to the shorter input
    r = [F(1), F(2)]
    assert len(moments_from_cumulants_nc(r)) == len(cumulants_from_moments_nc(r)) == 2
    assert multiplicative_cumulant_product(r, r + [F(1)]) == multiplicative_cumulant_product(r, r)
    with pytest.raises(ValueError, match="n = 0"):
        cumulants_to_elementary([F(1), F(2)], 0)
    with pytest.raises(ValueError, match="order -1 is negative"):
        finite_free_cumulants(Polynomial.from_roots([1, 2]), upto=-1)
    assert finite_free_cumulants(Polynomial.from_roots([1, 2]), upto=0) == []
    assert moments_from_cumulants_nc([]) == [] and cumulants_to_elementary([], 0) == [1]


def test_finite_free_cumulants_point_mass():
    assert finite_free_cumulants(Polynomial.from_roots([2, 2, 2])) == [F(2), F(0), F(0)]


def test_finite_free_cumulants_read_float_coefficients_exactly():
    want = finite_free_cumulants(Polynomial(2, [1, F(1, 2), F(1, 4)]))
    assert finite_free_cumulants(Polynomial(2, [1.0, 0.5, 0.25])) == want == [F(1, 4), F(-3, 8)]


def test_kappa1_is_mean():
    rng = random.Random(31)
    for n in (2, 4, 6):
        p = Polynomial.from_roots([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
        assert finite_free_cumulants(p, upto=1)[0] == p.root_moments(1)[0]


def test_cumulant_additivity_and_roundtrip():
    rng = random.Random(32)
    for n in (3, 5, 6):
        roots = lambda: [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        p, q = Polynomial.from_roots(roots()), Polynomial.from_roots(roots())
        kp, kq = finite_free_cumulants(p), finite_free_cumulants(q)
        ks = finite_free_cumulants(add_conv(p, q, n))
        assert ks == [a + b for a, b in zip(kp, kq)]
        assert cumulants_to_elementary(kp, n) == [c / p.e[0] for c in p.e]


def test_generating_function_matches_mobius_system():
    rng = random.Random(35)
    for n in range(1, 8):
        for _ in range(3):
            e = [F(rng.randint(1, 9), rng.randint(1, 5))] + [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            p = Polynomial(n, e)
            kappa = finite_free_cumulants(p)
            assert kappa == mobius_system_cumulants(p)
            assert finite_free_cumulants(p, upto=3) == mobius_system_cumulants(p, upto=3)
            assert cumulants_to_elementary(kappa, n) == mobius_system_elementary(kappa, n)
            # past the ambient degree e_j vanishes on both routes
            if n <= 5:
                longer = kappa + [F(1, 3)] * 2
                assert cumulants_to_elementary(longer, n) == mobius_system_elementary(longer, n)


def test_cumulants_past_the_enumeration_wall():
    # n = 30, 20 cumulants: the Moebius system would need Bell(20) ~ 5e13 partitions
    rng = random.Random(36)
    n, upto = 30, 20
    roots = lambda: [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    p, q = Polynomial.from_roots(roots()), Polynomial.from_roots(roots())
    kp, kq = finite_free_cumulants(p, upto=upto), finite_free_cumulants(q, upto=upto)
    assert len(kp) == upto
    assert finite_free_cumulants(add_conv(p, q, n), upto=upto) == [a + b for a, b in zip(kp, kq)]
    assert cumulants_to_elementary(kp, n) == [c / p.e[0] for c in p.e[: upto + 1]]


def test_moments_from_roots_match_cumulant_inversion():
    # moments computed from roots equal moments recovered through the
    # cumulant dictionary, exactly
    rng = random.Random(33)
    for n in (4, 6, 8):
        p = Polynomial.from_roots([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
        kappa = finite_free_cumulants(p)
        e = cumulants_to_elementary(kappa, n)
        q = Polynomial(n, e)
        assert q.root_moments(n) == p.root_moments(n)


def test_nc_moment_cumulant():
    # free Poisson rate 1: all free cumulants 1, moments are Catalan
    assert moments_from_cumulants_nc([F(1)] * 4) == [1, 2, 5, 14]
    # point mass at a: only chains of singleton-powered products contribute
    assert moments_from_cumulants_nc([F(3), 0, 0, 0]) == [3, 9, 27, 81]
    rng = random.Random(34)
    for _ in range(10):
        r = [F(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(6)]
        assert cumulants_from_moments_nc(moments_from_cumulants_nc(r)) == r


def test_multiplicative_cumulant_product():
    ra = [F(2), F(1, 3), F(-1, 7), F(5), F(4, 9)]
    identity = [F(1), 0, 0, 0, 0]
    assert multiplicative_cumulant_product(ra, identity) == ra
    rb = [F(1, 2), F(3), F(0), F(-2), F(7, 5)]
    assert multiplicative_cumulant_product(ra, rb) == multiplicative_cumulant_product(rb, ra)


def test_nc_block_type_counts_follow_kreweras_formula():
    # NC(k) holds k! / ((k - b + 1)! prod_i m_i!) partitions with m_i blocks of size i, b blocks in all
    integer_partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for k in range(1, 10):
        types = dict(_nc_types(k))
        assert len(types) == integer_partitions[k] and sum(types.values()) == comb(2 * k, k) // (k + 1)
        for sizes, count in types.items():
            assert sum(sizes) == k
            ms = Counter(sizes).values()
            assert count == factorial(k) // (factorial(k - len(sizes) + 1) * prod(map(factorial, ms)))
        pairs = dict(_nc_kreweras_types(k))
        marginal = Counter()
        for (sa, sb), count in pairs.items():
            assert len(sa) + len(sb) == k + 1 and sum(sb) == k
            assert pairs[sb, sa] == count  # Kr is a bijection and Kr^2 a rotation
            marginal[sa] += count
        assert marginal == types


def per_partition_cumulant_product(ra, rb):
    """The loop over every pi in NC(j) that the block-type sum replaced."""
    va, vb = [None] + ra, [None] + rb
    return [
        sum((partition_product(va, pi) * partition_product(vb, kreweras(pi)) for pi in enumerate_nc(j)), start=F(0))
        for j in range(1, len(ra) + 1)
    ]


def test_block_type_sums_match_the_per_partition_loops():
    rng = random.Random(77)
    for _ in range(3):
        ra, rb = ([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8)] for _ in range(2))
        assert multiplicative_cumulant_product(ra, rb) == per_partition_cumulant_product(ra, rb)
        va = [None] + ra
        moments = [sum((partition_product(va, pi) for pi in enumerate_nc(k)), start=F(0)) for k in range(1, 9)]
        assert moments_from_cumulants_nc(ra) == moments
        assert cumulants_from_moments_nc(moments) == ra


def test_multiplicative_rule_consistent_with_s_transforms():
    from finfree.series import FormalMomentSeries, free_mult, free_mult_via_kreweras

    mp_moments = FormalMomentSeries((1, 2, 5, 14))
    delta = FormalMomentSeries.point_mass(F(5, 2), 4)
    assert free_mult(mp_moments, delta).m == free_mult_via_kreweras(mp_moments, delta).m


def test_finite_cumulant_limit_bridge():
    # p_n = 1F1(-n; beta_n; n x) with beta_n / n -> 1 has limit cumulants
    # kappa_j -> 2 (the free compound law with S(z) = 1/(z+2)); Richardson in
    # 1/n sharpens the finite-n values
    vals = {}
    for n in (16, 32, 64):
        p = hyper_poly(HypergeometricSpec(n=n, b=(F(n),), scale=F(n)))
        vals[n] = finite_free_cumulants(p, upto=4)
    for j in range(4):
        raw_err = abs(float(vals[64][j]) - 2)
        rich = 2 * vals[64][j] - vals[32][j]
        rich2 = 2 * vals[32][j] - vals[16][j]
        assert abs(float(rich) - 2) < 0.35 * raw_err + 1e-12
        # extrapolated values keep improving with n
        assert abs(float(rich) - 2) <= abs(float(rich2) - 2) + 1e-12
