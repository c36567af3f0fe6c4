import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from finfree import roots as roots_module
from finfree.conv import mult_conv
from finfree.errors import DegreeGapTooLarge, NonConvergence, NonRealRoots
from finfree.hyper import HypergeometricSpec, hyper_poly
from finfree.mop import JPSpec, jp_typeI, jp_typeII
from finfree.poly import Polynomial
from finfree.roots import (
    EmpiricalDistribution,
    default_precision,
    empirical,
    find_roots,
    interlaces,
    is_real_rooted,
    real_parts_sorted,
)


def test_factored_quadratic():
    rts = sorted(float(z.real) for z in find_roots(Polynomial.from_monomial([2, -3, 1]), 128))
    assert rts == pytest.approx([1.0, 2.0], abs=1e-30)


def test_laguerre_quadratic_roots():
    p = hyper_poly(HypergeometricSpec(n=2, b=(1,)))  # 1 - 2x + x^2/2
    rts = sorted(float(z.real) for z in find_roots(p, 128))
    assert rts == pytest.approx([2 - 2**0.5, 2 + 2**0.5], abs=1e-14)


def test_multiple_root_cluster():
    rts = find_roots(Polynomial.from_roots([1, 1, 1, 1]), 192)
    assert max(float(abs(z - 1)) for z in rts) < 1e-12


def test_zero_roots_and_cofactor():
    p = Polynomial.from_roots([0, 0, F(1, 3), 5])
    rts = sorted(float(z.real) for z in find_roots(p, 128))
    assert rts == pytest.approx([0.0, 0.0, 1 / 3, 5.0], abs=1e-25)


def test_wide_dynamic_range():
    p = Polynomial.from_roots([F(1, 10**6), F(1, 1000), 1, 1000])
    rts = sorted(float(z.real) for z in find_roots(p, 128))
    assert rts == pytest.approx([1e-6, 1e-3, 1.0, 1e3], rel=1e-20)
    # roots 2^80 apart: differences of points more than 2^64 apart in scale
    p = Polynomial.from_roots([F(1, 10**12), F(3, 10**7), 1, 10**12])
    rts = sorted(float(z.real) for z in find_roots(p, 128))
    assert rts == pytest.approx([1e-12, 3e-7, 1.0, 1e12], rel=1e-20)


def test_conjugate_symmetry():
    p = Polynomial.from_monomial([5, 1, -2, 1, 1])
    with mp.workprec(200):
        rts = find_roots(p, 160)
        for z in rts:
            conj = mp.conj(z)
            assert min(abs(conj - w) for w in rts) < mp.mpf(2) ** -150


def test_default_precision_schedule(monkeypatch):
    assert default_precision(50) == 256
    assert default_precision(100) == 256
    assert default_precision(101) == 384
    assert default_precision(299) == 512
    assert default_precision(900) == 1280
    monkeypatch.setenv("FINFREE_PREC_BITS", "777")
    assert default_precision(900) == 777


def test_stability_under_precision_doubling():
    p = hyper_poly(HypergeometricSpec(n=12, a=(F(36),), b=(F(3, 2),)))
    key = lambda z: (float(z.real), float(z.imag))
    r1 = sorted(find_roots(p, 128), key=key)
    r2 = sorted(find_roots(p, 256), key=key)
    assert max(float(abs(a - b)) for a, b in zip(r1, r2)) < 2**-64


def test_is_real_rooted():
    assert not is_real_rooted(Polynomial.from_monomial([1, 0, 1]), 128, 1e-10)[0]
    ok, margin = is_real_rooted(
        hyper_poly(HypergeometricSpec(n=4, a=(10,), b=(F(1, 2),))), 192, 1e-20
    )
    assert ok and margin < 1e-40
    # (x-1)^2 (x^2 + 1e-30): tiny imaginary pair well above the scaled tau
    tiny = Polynomial.from_monomial([F(1, 10**30), 0, 1]).mul(Polynomial.from_roots([1, 1]))
    ok, margin = is_real_rooted(tiny, 256, tau=1e-20)
    assert not ok and margin > 1e-16


def test_moments_match_newton_identities():
    rng = random.Random(41)
    for n in (4, 7, 10):
        roots = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        p = Polynomial.from_roots(roots)
        dist = empirical(p, 192)
        newton = [float(x) for x in p.root_moments(4)]
        numeric = [z.real for z in dist.moments(4)]
        for a, b in zip(newton, numeric):
            assert abs(a - b) < 1e-12 * (1 + abs(a))


def test_interlacing_verdicts():
    assert interlaces([1, 3], [2]).case == "degree-drop"
    assert interlaces([1, 3], [2]).relation == "strict"
    assert interlaces([1, 3], [2, 4]).case == "equal-degree"
    assert bool(interlaces([1, 3], [2, 4]))
    assert interlaces([1, 4], [2, 3]).relation == "none"
    assert interlaces([1, 2], [2, 3], tau=0).relation == "weak"
    with pytest.raises(DegreeGapTooLarge):
        interlaces([1, 2, 3, 4], [1, 2])


def test_histogram_and_ks():
    dist = EmpiricalDistribution([mp.mpc(k, 0) / 10 for k in range(1, 11)])
    rows = dist.histogram(5, range_=(0.0, 1.0))
    assert len(rows) == 5
    assert sum(r[2] for r in rows) == 10
    # density columns integrate to one
    total = sum((r[1] - r[0]) * r[3] for r in rows)
    assert total == pytest.approx(1.0)
    uniform_cdf = lambda x: min(max(x, 0.0), 1.0)
    assert dist.ks_distance(uniform_cdf) <= 0.1 + 1e-12  # bounded by 1/n
    # point mass against its own cdf: within 1/n of zero
    pm = EmpiricalDistribution([mp.mpc(2, 0)] * 8)
    assert pm.ks_distance(lambda x: 1.0 if x >= 2 else 0.0) <= 1 / 8 + 1e-12


def test_ks_requires_real_spectrum():
    dist = EmpiricalDistribution([mp.mpc(0, 1), mp.mpc(0, -1)])
    with pytest.raises(NonRealRoots):
        dist.ks_distance(lambda x: 0.5)


def test_real_parts_sorted_guard():
    with pytest.raises(NonRealRoots):
        real_parts_sorted([mp.mpc(1, 0.5)], tau=1e-8)


# -- the integer-mantissa Aberth kernel, checked from outside -------------------


def _certify(p, rts, prec):
    """Adams residual at `prec` bits and pairwise-disjoint inclusion discs.

    Plain mpmath at four times the working precision, from the exact
    coefficients: r_i = deg |p(z_i)| / |a_n prod_{j != i} (z_i - z_j)| bounds
    the distance to a true root, and discs meeting neither another disc nor
    its mirror image hold one real root each.
    """
    deg = p.degree
    assert len(rts) == deg
    with mp.workprec(4 * (prec + 32)):
        cs = [mp.mpf(c.numerator) / c.denominator for c in p.to_monomial()[: deg + 1]]
        zs = [mp.mpc(z) for z in rts]
        radii = []
        for i, z in enumerate(zs):
            pv, s = cs[-1], abs(cs[-1])
            for c in reversed(cs[:-1]):
                pv = pv * z + c
                s = s * abs(z) + abs(c)
            assert abs(pv) <= 4 * deg * mp.mpf(2) ** -prec * s
            prod = cs[-1]
            for j, w in enumerate(zs):
                if j != i:
                    prod *= z - w
            radii.append(deg * abs(pv) / abs(prod))
        for i in range(deg):
            for j in range(deg):
                if i != j:
                    gap = radii[i] + radii[j]
                    assert abs(zs[i] - zs[j]) > gap and abs(mp.conj(zs[i]) - zs[j]) > gap
        return min(-mp.log(r / abs(z), 2) for r, z in zip(radii, zs))


def test_jp_typeII_degree_36_certified():
    p = jp_typeII(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1, 2)), (18, 18))
    assert p.degree == 36
    assert _certify(p, find_roots(p), default_precision(36)) > 200


def test_jp_typeI_degree_39_certified():
    p = jp_typeI(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1)), (40, 80), 1)
    assert p.degree == 39
    assert _certify(p, find_roots(p), default_precision(39)) > 200


def test_mult_conv_degree_24_real_parts_pinned():
    p, q = (hyper_poly(HypergeometricSpec(n=24, b=(b,))) for b in (F(5, 2), F(7, 3)))
    r = mult_conv(p, q, 24)
    pinned = [
        "0x1.63c326077bc75p-2", "0x1.7f1061f0e27dfp+0", "0x1.fc0fd0dd3bd5bp+1", "0x1.0ae1c3333decbp+3",
        "0x1.e7e6dadb75319p+3", "0x1.966e5c0eb4d04p+4", "0x1.3cd3703ccfcc7p+5", "0x1.d5ffc207f861cp+5",
        "0x1.4f7103579029dp+6", "0x1.d06257557af0cp+6", "0x1.399509502645cp+7", "0x1.9efbb6251081dp+7",
        "0x1.0e01eefc6c774p+8", "0x1.5a7ba21c00ef8p+8", "0x1.b77e7073160b5p+8", "0x1.14182b10019c2p+9",
        "0x1.583f8bcab1af1p+9", "0x1.aab96a387a0a0p+9", "0x1.076d45425b85dp+10", "0x1.449f621f465fbp+10",
        "0x1.90565a039d4e2p+10", "0x1.f004b7e56af68p+10", "0x1.36e6c532afda3p+11", "0x1.9174f8ac1ea34p+11",
    ]
    assert sorted(float(z.real) for z in find_roots(r)) == [float.fromhex(h) for h in pinned]


def test_float_and_mpf_coefficients_read_exactly():
    dyadic = [F(3, 4), F(-5, 2), F(1, 8), F(-7, 16), F(2)]
    expect = find_roots(Polynomial.from_monomial(dyadic), 160)
    assert find_roots(Polynomial.from_monomial([float(c) for c in dyadic]), 160) == expect
    assert find_roots(Polynomial.from_monomial([mp.mpf(c.numerator) / c.denominator for c in dyadic]), 160) == expect
    # an mpf with more bits than a float holds; the Polynomial keeps them
    # only under the caller's precision
    with mp.workprec(200):
        third = mp.mpf(1) / 3
        from_mpf = find_roots(Polynomial.from_monomial([third, -1, 1]), 256)
    _, man, exp, _ = third._mpf_
    assert from_mpf == find_roots(Polynomial.from_monomial([F(man) * F(2) ** exp, -1, 1]), 256)


def test_nonconvergence_carries_roots_and_residuals(monkeypatch):
    sweeps = roots_module._aberth_sweeps
    monkeypatch.setattr(
        roots_module, "_aberth_sweeps", lambda c, d, lcs, pts, wp, budget: sweeps(c, d, lcs, pts, wp, 1)
    )
    p = hyper_poly(HypergeometricSpec(n=12, a=(F(36),), b=(F(3, 2),)))
    with pytest.raises(NonConvergence) as caught:
        find_roots(p, 128)
    err = caught.value
    assert len(err.roots) == len(err.residuals) == 12
    assert all(isinstance(z, mp.mpc) for z in err.roots)
    assert max(err.residuals) > 0
