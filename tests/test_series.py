import random
from fractions import Fraction as F
from math import isqrt

import pytest

from finfree import partitions, series
from finfree.conv import add_conv
from finfree.curves import moments_from_curve
from finfree.errors import VanishingFirstMoment
from finfree.families import LimitParams, family_curves, s_limit_hyper
from finfree.hyper import HypergeometricSpec, hyper_poly
from finfree.partitions import cumulants_from_moments_nc, finite_free_cumulants, moments_from_cumulants_nc
from finfree.poly import Polynomial, _ints, _mul_ints, _reduced
from finfree.series import (
    FormalMomentSeries,
    free_add,
    free_mult,
    free_mult_via_kreweras,
    m_series,
    moments_from_r,
    moments_from_s,
    r_coefficients,
    s_coefficients,
    series_compose,
    series_inv,
    series_mul,
    series_reversion,
)


def r_s_consistent(r, s, K):
    """Check w S(w) and w R(w) are functional inverses to order K."""
    comp = series_compose([0] + list(r), [0] + list(s), K)
    target = [F(int(k == 1)) for k in range(K + 1)]
    return comp == target


def test_series_helpers():
    a = [F(1), F(2), F(3)]
    b = [F(1), F(-1)]
    assert series_mul(a, b, 3) == [F(1), F(1), F(1), F(-3)]
    inv = series_inv(b, 4)
    assert series_mul(b, inv, 4) == [F(1), F(0), F(0), F(0), F(0)]
    f = [F(0), F(2), F(1)]
    g = series_reversion(f, 5)
    assert series_compose(f, g, 5) == [F(0), F(1), F(0), F(0), F(0), F(0)]


def test_reversion_at_order_48_is_an_exact_inverse():
    f = [F(0)] + list(s_limit_hyper(A=(F(2, 3),), B=(F(3, 2), F(1, 4))).moments(48).m)
    assert series_compose(f, series_reversion(f, 48), 48) == [0, 1] + [0] * 47


def reversion_by_every_power(f, K):
    """Lagrange inversion with one series product per power h^n, h = z/f."""
    fn, fd = _ints(f, max(K, 1))
    if K == 0:
        return [F(0)]
    inv, hd = series._inv_ints(fn[1:], K - 1)
    h = [fd * c for c in inv]  # h = z/f over hd
    g = [F(0)]
    power, pd = [1] + [0] * (K - 1), 1
    for n in range(1, K + 1):
        power, pd = _reduced(_mul_ints(power, h, K - 1), pd * hd)
        g.append(F(power[n - 1], n * pd))
    return g


def _random_f(rng, K, mixed=False):
    # f = a_1 w + a_2 w^2 + ..., a_1 of either sign; mixed: some entries plain ints
    f = [F(0), F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))]
    for _ in range(K - 1):
        c = rng.randint(-9, 9)
        f.append(c if mixed and rng.random() < 0.5 else F(c, rng.randint(1, 7)))
    return f


def test_reversion_matches_the_product_per_power_oracle():
    # every K in 0..40 crosses each change of r = isqrt(K): K = 1, 4, 9, 16, 25, 36
    rng = random.Random(32)
    for K in range(41):
        cases = [_random_f(rng, K), _random_f(rng, K, mixed=True), [0, -2] + _random_f(rng, K)[2:]]
        cases.append(([0, 1, 0, 1] + [0] * K)[: K + 1] if K >= 1 else [0, 1])  # f = w + w^3: h has zeros
        for f in cases:
            g = series_reversion(f, K)
            assert g == reversion_by_every_power(f, K), (K, f)
            assert len(g) == K + 1 and all(type(x) is F for x in g)
    assert series_reversion([0, 1, 0, 1], 3) == [0, 1, 0, -1]


def test_reversion_takes_about_two_sqrt_k_products(monkeypatch):
    calls = []

    def counted(a, b, K):
        calls.append(K)
        return _mul_ints(a, b, K)

    monkeypatch.setattr(series, "_mul_ints", counted)
    rng = random.Random(33)
    for K in (1, 2, 3, 4, 36, 48):
        calls.clear()
        f = _random_f(rng, K)
        assert series_reversion(f, K) == reversion_by_every_power(f, K)
        assert len(calls) <= (isqrt(K) + K // isqrt(K) if K > 4 else K), (K, len(calls))


def compose_by_every_power(a, b, K):
    """a(b) with one series product per power b^i."""
    (an, ad), (bn, bd) = _ints(a, K), _ints(b, K)
    # a(b) = sum_i a_i b^i = sum_i an_i bd^(K-i) bn^i / (ad bd^K)
    out = [an[0] * bd**K] + [0] * K
    power = [1] + [0] * K
    for i in range(1, K + 1):
        power = _mul_ints(power, bn, K)
        if an[i]:
            c = an[i] * bd ** (K - i)
            for j in range(i, K + 1):
                out[j] += c * power[j]
    return [F(c, ad * bd**K) for c in out]


def test_compose_matches_the_product_per_power_oracle(monkeypatch):
    calls = []

    def counted(a, b, K):
        calls.append(K)
        return _mul_ints(a, b, K)

    rng = random.Random(71)
    # every K in 0..40 crosses each change of r = isqrt(K)
    for K in range(41):
        r = isqrt(K) or 1
        a = _random_f(rng, K, mixed=True)
        a[0] = F(rng.randint(-9, 9), rng.randint(1, 5))
        cases = [(a, _random_f(rng, K)), (_random_f(rng, K), _random_f(rng, K, mixed=True))]
        cases.append(([F(0)] * K + [F(1)], [0, 1, 0, 1][: K + 1]))  # a = w^K, b = w + w^3
        cases.append(([3, 0, 0, 2][: K + 1], [0, F(1, 2), F(-1, 3)][: K + 1]))  # short inputs, zero-padded
        for a, b in cases:
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(series, "_mul_ints", counted)
                got = series_compose(a, b, K)
            assert got == compose_by_every_power(a, b, K), (K, a, b)
            assert len(got) == K + 1 and all(type(x) is F for x in got)
            assert len(calls) == r - 1 + K // r, (K, len(calls))
    assert series_compose([1, 2], [0, 1], 1) == [1, 2]


def test_reversion_route_matches_the_curve_route_at_order_40():
    for A, B in (((F(2, 3),), (F(3, 2), F(1, 4))), ((), (F(1, 2),)), ((F(1, 4),), (F(3, 2), F(1, 3)))):
        st = s_limit_hyper(A=A, B=B)
        assert st.moments(40).m == moments_from_curve(st.curve(), 40).m, (A, B)
    m = s_limit_hyper(A=(F(2, 3),), B=(F(3, 2), F(1, 4))).moments(36)
    assert moments_from_s(s_coefficients(m)) == m


def test_series_maps_match_enumeration_oracles():
    rng = random.Random(52)
    for k in range(1, 9):
        for _ in range(3):
            x = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k)]
            assert list(moments_from_r(x).m) == moments_from_cumulants_nc(x)
            assert r_coefficients(FormalMomentSeries(tuple(x))) == cumulants_from_moments_nc(x)


def test_production_path_enumerates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("partition enumeration on the production path")

    for name in ("_partitions_raw", "_nc_cached", "_nc_types", "_nc_kreweras_types"):
        monkeypatch.setattr(partitions, name, refuse)
    ma = FormalMomentSeries((F(1), F(3, 2), F(7, 3), F(4), F(13, 2), F(11)))
    mb = FormalMomentSeries((F(2), F(3), F(5), F(9), F(17), F(33)))
    free_add(ma, mb)
    free_mult(ma, mb)
    finite_free_cumulants(Polynomial.from_roots([F(1), F(-2), F(1, 3), F(5, 2)]))
    theta = (F(1, 3), F(2, 3))
    for family, params in (
        ("jp1", LimitParams(theta=theta, i=1)),
        ("ml1-1", LimitParams(theta=theta, i=1)),
        ("jp2", LimitParams(theta=theta)),
        ("ml1-2", LimitParams(theta=theta)),
        ("ml2-1", LimitParams(theta=theta, A=(F(1, 2),), c=(F(1), F(3)), i=1)),
        ("ml2-2", LimitParams(theta=theta, A=(F(1, 2),), c=(F(1), F(3)))),
    ):
        assert len(family_curves(family, params).moments(8).m) == 8


def test_point_mass_bridge():
    m = FormalMomentSeries.point_mass(3, 6)
    assert r_coefficients(m) == [F(3), 0, 0, 0, 0, 0]
    assert s_coefficients(m) == [F(1, 3), 0, 0, 0, 0, 0]


def test_free_poisson_bridge():
    # moments 1,2,5,14,...: R(w) = 1/(1-w), S(w) = 1/(1+w)
    m = FormalMomentSeries((1, 2, 5, 14, 42, 132))
    r, s = r_coefficients(m), s_coefficients(m)
    assert r == [F(1)] * 6
    assert s == [F(1), F(-1), F(1), F(-1), F(1), F(-1)]
    assert r_s_consistent(r, s, 6)


def test_bridge_roundtrips():
    rng = random.Random(51)
    m = FormalMomentSeries(tuple(F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(6)))
    assert moments_from_r(r_coefficients(m)).m == m.m
    m1 = FormalMomentSeries((F(2),) + tuple(F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(5)))
    assert moments_from_s(s_coefficients(m1)).m == m1.m
    assert r_s_consistent(r_coefficients(m1), s_coefficients(m1), 6)


def test_float_moments_are_read_as_their_rationals():
    assert FormalMomentSeries((1.0, 0.5)) == FormalMomentSeries((F(1), F(1, 2)))
    assert FormalMomentSeries.point_mass(0.5, 3) == FormalMomentSeries((0.5, 0.25, 0.125))
    assert all(type(x) is F for x in FormalMomentSeries.point_mass(0.5, 3).m)


def test_vanishing_first_moment():
    m = FormalMomentSeries((0, 1, 0, 2))
    with pytest.raises(VanishingFirstMoment):
        s_coefficients(m)


def test_order_zero_gives_empty_results():
    # every map truncated at order 0 returns no coefficients ([0] for a reversion)
    empty = FormalMomentSeries(())
    assert s_limit_hyper(A=(F(2, 3),), B=(F(3, 2),)).moments(0) == empty
    assert free_add(empty, empty) == empty and free_mult(empty, empty) == empty
    assert series_reversion([F(0), F(2)], 0) == [F(0)]
    assert s_coefficients(FormalMomentSeries((F(1), F(3))).truncated(0)) == []
    assert moments_from_s([]) == empty
    assert r_coefficients(empty) == [] and s_coefficients(empty) == []
    assert r_s_consistent([], [], 0)


def test_order_zero_keeps_the_first_coefficient_checks():
    for f in ([F(1), F(2)], [F(0)]):
        with pytest.raises(ValueError, match="f\\(0\\) = 0 and f'\\(0\\) != 0"):
            series_reversion(f, 0)
    for s in ([F(0), F(1)], [F(0)]):
        with pytest.raises(VanishingFirstMoment):
            moments_from_s(s)


def test_maps_refuse_an_order_past_their_input():
    # a series known to order 2 says nothing about m_3: truncated may not pad with zeros
    m = FormalMomentSeries((F(1), F(2)))
    with pytest.raises(ValueError, match="cannot extend a truncated series: order 3 exceeds the 2 given"):
        m.truncated(3)
    with pytest.raises(ValueError, match="order -1 is negative"):
        m.truncated(-1)  # a slice m[:-1] would drop the last moment silently
    # every map answers to the order its input fixes, and truncated asks for fewer
    assert m_series(m) == [F(0), F(1), F(2)] and m.truncated(2) == m
    assert len(r_coefficients(m)) == 2 and r_coefficients(m.truncated(1)) == [F(1)]
    assert len(s_coefficients(m)) == 2 and s_coefficients(m.truncated(1)) == [F(1)]
    assert moments_from_r([F(1), F(1)]).m == (F(1), F(2))
    assert moments_from_s([F(1), F(-1)]).m == (F(1), F(2))


def test_free_add_point_masses():
    da = FormalMomentSeries.point_mass(F(2), 5)
    db = FormalMomentSeries.point_mass(F(1, 3), 5)
    assert free_add(da, db).m == FormalMomentSeries.point_mass(F(7, 3), 5).m


def test_free_mult_scaling_and_kreweras():
    mp_m = FormalMomentSeries((1, 2, 5, 14, 42, 132))
    scaled = free_mult(mp_m, FormalMomentSeries.point_mass(2, 6))
    assert scaled.m == tuple(m * F(2) ** k for k, m in enumerate(mp_m.m, start=1))
    ma = FormalMomentSeries((F(1), F(3, 2), F(7, 3), F(4), F(13, 2), F(11)))
    mb = FormalMomentSeries((F(2), F(3), F(5), F(9), F(17), F(33)))
    assert free_mult(ma, mb).m == free_mult_via_kreweras(ma, mb).m


def test_finite_n_bridge_to_free_add():
    # Laguerre-type sequences: p_n = F(-n; b n; n x) has limit S = 1/(z+B+1);
    # moments of p_n (+)_n q_n approach the free additive convolution of the
    # two limit laws at rate O(1/n)
    K = 4
    lim_p = s_limit_hyper(A=(), B=(F(1),)).moments(K)
    lim_q = s_limit_hyper(A=(), B=(F(3),)).moments(K)
    target = free_add(lim_p, lim_q)
    errs = []
    for n in (16, 32, 64):
        p = hyper_poly(HypergeometricSpec(n=n, b=(F(n),), scale=F(n)))
        q = hyper_poly(HypergeometricSpec(n=n, b=(F(3 * n),), scale=F(n)))
        conv = add_conv(p, q, n)
        memp = conv.root_moments(K)
        errs.append(max(abs(float(a - b)) / abs(float(b)) for a, b in zip(memp, target.m)))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.08  # O(1/n) at n = 64
    assert errs[1] < 0.7 * errs[0] and errs[2] < 0.7 * errs[1]
