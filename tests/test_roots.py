import math
import random
import re
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from finfree import aberth as aberth_module
from finfree import roots as roots_module
from finfree.conv import mult_conv
from finfree.errors import DegreeGapTooLarge, InvalidParameters, NonConvergence, NonRealRoots
from finfree.families import jp1_cdf, jp2_cdf
from finfree.hyper import HypergeometricSpec, hyper_poly
from finfree.mop import JPSpec, ML1Spec, jp_typeI, jp_typeII, ml1_typeII
from finfree.poly import Polynomial, _as_coeff
from finfree.roots import (
    EmpiricalDistribution,
    default_precision,
    find_roots,
    interlaces,
    real_parts_sorted,
)
from test_root_bits import JP_PARAMS, TRIAL


def test_factored_quadratic():
    rts = sorted(float(z.real) for z in find_roots(Polynomial.from_monomial([2, -3, 1]), 128))
    assert rts == pytest.approx([1.0, 2.0], abs=1e-30)


def test_roots_need_no_math_exp2(monkeypatch):
    # math.exp2 is Python 3.11+; the package supports 3.10
    import math

    monkeypatch.delattr(math, "exp2")
    rts = sorted(float(z.real) for z in find_roots(Polynomial.from_monomial([6, -5, 1]), 128))
    assert rts == pytest.approx([2.0, 3.0], abs=1e-30)
    rts = find_roots(jp_typeII(JPSpec(alpha=(F(1, 2),), beta=F(1)), (6,)), 128)
    assert len(rts) == 6 and all(z.imag == 0 and 0 < z.real < 1 for z in rts)


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
    # the precision comes from arguments only: the former override variable is ignored
    monkeypatch.setenv("FINFREE_PREC_BITS", "777")
    assert default_precision(900) == 1280


@pytest.mark.parametrize("bits", [-40, -5, 0])
def test_non_positive_precision_is_rejected(bits):
    with pytest.raises(InvalidParameters, match=f"got {bits}"):
        find_roots(Polynomial.from_roots([1, 2, 3]), bits)


def test_stability_under_precision_doubling():
    p = hyper_poly(HypergeometricSpec(n=12, a=(F(36),), b=(F(3, 2),)))
    key = lambda z: (float(z.real), float(z.imag))
    r1 = sorted(find_roots(p, 128), key=key)
    r2 = sorted(find_roots(p, 256), key=key)
    assert max(float(abs(a - b)) for a, b in zip(r1, r2)) < 2**-64


def test_real_verdicts_skip_abs_only_on_exactly_real_roots():
    with mp.workprec(256):
        real = [mp.mpc(3), mp.mpc(-1), mp.mpc(2)]
        assert real_parts_sorted(real) == [-1.0, 2.0, 3.0]
        with pytest.raises(NonRealRoots):
            real_parts_sorted(real + [mp.mpc(1, 1e-3)])
        assert real_parts_sorted(real + [mp.mpc(1, 1e-30)], tau=1e-20) == [-1.0, 1.0, 2.0, 3.0]


def test_moments_match_newton_identities():
    rng = random.Random(41)
    for n in (4, 7, 10):
        roots = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        p = Polynomial.from_roots(roots)
        dist = find_roots(p)
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

    # the margin is the smallest gap of the chain p1, q1, p2, q2, ... (, pn)
    def verdict(p, q):
        v = interlaces(p, q)
        return v.relation, v.case, v.margin

    assert verdict([1, 5, 6], [3, 5.5]) == ("strict", "degree-drop", 0.5)
    assert verdict([1, 5], [3, 5.25]) == ("strict", "equal-degree", 0.25)
    assert verdict([1, 3], [0, 4]) == ("none", "equal-degree", -1.0)
    assert verdict([1, 3], [3]) == ("weak", "degree-drop", 0.0)
    assert verdict([], []) == ("weak", "equal-degree", 0.0)
    assert verdict([7], []) == ("weak", "degree-drop", 0.0)
    assert verdict([2], [1, 3]) == ("none", "degree-drop", float("-inf"))
    # a verdict is a tuple of three, yet only "none" is falsy: the benchmark's trials read bool()
    pairs = [([1, 3], [2]), ([1, 3], [3]), ([1, 3], [0, 4]), ([2], [1, 3])]
    assert [(v.relation, bool(v)) for v in (interlaces(p, q) for p, q in pairs)] == [
        ("strict", True), ("weak", True), ("none", False), ("none", False)]


def test_histogram_and_ks():
    dist = EmpiricalDistribution([mp.mpc(k, 0) / 10 for k in range(1, 11)])
    rows = dist.histogram(5, range_=(0.0, 1.0))
    assert len(rows) == 5
    assert sum(r[2] for r in rows) == 10
    # density columns integrate to one
    total = sum((r[1] - r[0]) * r[3] for r in rows)
    assert total == pytest.approx(1.0)
    uniform_cdf = lambda x: np.clip(x, 0.0, 1.0)
    assert dist.ks_distance(uniform_cdf) <= 0.1 + 1e-12  # bounded by 1/n


def test_histogram_range_needs_finite_real_parts():
    # 2^1100 reads inf as a double: no bins span it, unless range_ is given
    dist = EmpiricalDistribution([mp.mpc(0), mp.mpc(mp.mpf(2) ** 1100)])
    with pytest.raises(InvalidParameters, match="a root's is inf as a double"):
        dist.histogram(4)
    assert [r[2] for r in dist.histogram(2, range_=(0.0, 1.0))] == [1, 0]


def test_ks_requires_real_spectrum():
    dist = EmpiricalDistribution([mp.mpc(0, 1), mp.mpc(0, -1)])
    with pytest.raises(NonRealRoots):
        dist.ks_distance(lambda x: 0.5)


def _ks_two_calls(xs, cdf):
    """KS with the lower side of each step read a hair left of the root: two model calls per root."""
    n, stat, i = len(xs), 0.0, 0
    while i < n:
        j = i
        while j < n and xs[j] == xs[i]:
            j += 1
        x = xs[i]
        below, at = cdf(x - 1e-9 * (1 + abs(x))), cdf(x)
        stat = max(stat, abs(j / n - float(at)), abs(i / n - float(below)))
        i = j
    return stat


# the first parameters of the benchmark's jp pools, at its degrees, against their limit laws
KS_JP = [
    (lambda: jp_typeI(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1)), (30, 60), 1), lambda x: jp1_cdf(F(1, 3), x)),
    (lambda: jp_typeI(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1)), (40, 80), 1), lambda x: jp1_cdf(F(1, 3), x)),
    (lambda: jp_typeII(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1)), (14, 14)), lambda x: jp2_cdf(F(1, 2), x)),
    (lambda: jp_typeII(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1, 2)), (18, 18)), lambda x: jp2_cdf(F(1, 2), x)),
]


@pytest.mark.parametrize("build, cdf", KS_JP, ids=["jp1-30", "jp1-40", "jp2-14", "jp2-18"])
def test_ks_of_a_continuous_law_matches_the_two_call_oracle(build, cdf):
    dist = find_roots(build())
    assert abs(dist.ks_distance(cdf) - _ks_two_calls(dist.real_sorted(), cdf)) <= 1e-7


def test_ks_and_cdf_arrays_keep_the_scalar_bits_on_the_pool_roots(monkeypatch):
    # the jp1 and jp2 polynomials of the benchmark's pool against the limit laws it reads
    laws = [(jp1_cdf, F(1, 3))] * 8 + [(jp2_cdf, F(1, 2))] * 8
    for p, (cdf, th) in zip(_zeros_pool(monkeypatch), laws):
        dist = find_roots(p)
        xs = np.array(dist.real_sorted())
        at = [cdf(th, x) for x in xs]
        assert [v.hex() for v in cdf(th, xs).tolist()] == [v.hex() for v in at]
        # the KS distance of the per-root reads, one model call per root
        n = len(xs)
        want = max(max(abs((i + 1) / n - v), abs(i / n - v)) for i, v in enumerate(at))
        assert dist.ks_distance(lambda x: cdf(th, x)).hex() == want.hex()


def test_ks_reads_the_model_once_per_distinct_root():
    calls = []
    uniform = lambda x: calls.append(x.tolist()) or np.clip(x, 0.0, 1.0)
    dist = EmpiricalDistribution([mp.mpc(x) for x in (0.1, 0.5, 0.5, 0.9)])
    assert dist.ks_distance(uniform) == pytest.approx(0.25)
    assert calls == [[0.1, 0.5, 0.9]]  # one call, on the distinct roots
    # a model that returns one value reads it at every root
    assert dist.ks_distance(lambda x: 0.5) == 0.5
    # ties: the empirical CDF steps from 0 to 1 at the one root, 1/2 off the model on both sides
    assert EmpiricalDistribution([mp.mpc(0.5)] * 8).ks_distance(uniform) == 0.5


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
    # at the default precision too
    with mp.workprec(200):
        third = mp.mpf(1) / 3
    from_mpf = find_roots(Polynomial.from_monomial([third, -1, 1]), 256)
    _, man, exp, _ = third._mpf_
    assert from_mpf == find_roots(Polynomial.from_monomial([F(man) * F(2) ** exp, -1, 1]), 256)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf"), mp.mpf("inf"), mp.mpf("nan")])
def test_non_finite_coefficients_are_refused(c):
    # refused where the polynomial is built, before any root is sought
    with pytest.raises(ValueError, match=re.escape(f"coefficient {c} is not finite")):
        Polynomial.from_monomial([c, -1, 1])
    with pytest.raises(ValueError, match=re.escape(f"coefficient {c} is not finite")):
        Polynomial(2, [1, c, 1])


@pytest.mark.parametrize("c", [mp.mpc(1, 1), 1j, complex(2, 0)])
def test_complex_coefficients_are_refused(c):
    with pytest.raises(TypeError, match="coefficients must be real"):
        Polynomial.from_monomial([c, -1, 1])
    with pytest.raises(TypeError, match="coefficients must be real"):
        Polynomial(2, [1, c, 1])


def test_nonconvergence_carries_roots_and_residuals(monkeypatch):
    sweeps = roots_module._aberth_sweeps
    monkeypatch.setattr(
        roots_module, "_aberth_sweeps", lambda forms, pts, wp, budget, kernels: sweeps(forms, pts, wp, 1, kernels)
    )
    p = hyper_poly(HypergeometricSpec(n=12, a=(F(36),), b=(F(3, 2),)))
    with pytest.raises(NonConvergence) as caught:
        find_roots(p, 128)
    err = caught.value
    assert len(err.roots) == len(err.residuals) == 12
    assert all(isinstance(z, mp.mpc) for z in err.roots)
    assert max(err.residuals) > 0


# -- the real path: Descartes-signed seeds, real sweeps, exact certificate ---------


def _complex_path_only(monkeypatch):
    """Close the Descartes gate, so find_roots runs only the complex path."""
    monkeypatch.setattr(roots_module, "_sign_changes", lambda cs: -1)


def _no_complex_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the complex path ran")

    monkeypatch.setattr(roots_module, "_initial_points", refuse)


def _exact_value(p, x):
    return sum(c * x**k for k, c in enumerate(p.to_monomial()))


@pytest.mark.parametrize(
    "p, prec",
    [
        (Polynomial.from_monomial([1, -1, 1]), 128),  # x^2 - x + 1: complex pair
        (Polynomial.from_roots([1, 1]), 128),  # double root
        (Polynomial.from_monomial([F(1, 10**30), 0, 1]).mul(Polynomial.from_roots([1, 1])), 256),
    ],
)
def test_uncertified_real_path_falls_back_to_complex_roots(monkeypatch, p, prec):
    # Descartes lets every root be real, so the real path is tried first
    mono = p.to_monomial()
    alternated = [-c if k % 2 else c for k, c in enumerate(mono)]
    assert roots_module._sign_changes(mono) + roots_module._sign_changes(alternated) == p.degree
    tried = []
    real_points = roots_module._real_points
    with monkeypatch.context() as m:
        m.setattr(roots_module, "_real_points", lambda *a: tried.append(1) or real_points(*a))
        got = find_roots(p, prec)
    assert tried
    with monkeypatch.context() as m:
        _complex_path_only(m)
        want = find_roots(p, prec)
    assert got == want
    assert roots_module.real_root_certificate(p, got) is None


def test_mixed_sign_real_roots_take_the_real_path(monkeypatch):
    _no_complex_path(monkeypatch)
    rts = [F(-7, 2), -1, F(-1, 5), F(1, 3), 2, F(9, 2)]
    p = Polynomial.from_roots(rts)
    got = find_roots(p, 128)
    assert all(z.imag == 0 for z in got)
    assert sorted(float(z.real) for z in got) == pytest.approx([float(r) for r in rts], rel=1e-30)
    # symmetric spectrum, every other coefficient zero
    sym = Polynomial.from_roots([F(k, 3) for k in range(-6, 7) if k])
    got = find_roots(sym, 128)
    assert all(z.imag == 0 for z in got) and len(got) == 12
    assert roots_module.real_root_certificate(sym, got) is not None


def test_real_path_roots_have_exactly_zero_imaginary_part():
    p = hyper_poly(HypergeometricSpec(n=12, a=(F(36),), b=(F(3, 2),)))
    got = find_roots(p, 128)
    assert all(isinstance(z, mp.mpc) and z.imag == 0 for z in got)
    # a zero root factored out exactly keeps the cofactor on the real path
    got = find_roots(Polynomial.from_roots([0, F(1, 3), 5]), 128)
    assert [z.imag for z in got] == [0, 0, 0]


def test_certificate_isolates_and_rejects():
    p = Polynomial.from_roots([F(1, 3), F(4, 3), F(7, 3), F(10, 3)])
    rts = find_roots(p, 128)
    seps = roots_module.real_root_certificate(p, rts)
    xs = sorted(_as_coeff(z.real) for z in rts)
    assert len(seps) == 5 and all(isinstance(s, F) for s in seps)
    for i, x in enumerate(xs):
        assert seps[i] < x < seps[i + 1]
    values = [_exact_value(p, s) for s in seps]
    assert all(a * b < 0 for a, b in zip(values, values[1:]))
    # a duplicated approximation, a perturbed one, a complex one, a short list
    assert roots_module.real_root_certificate(p, [rts[0], rts[0], rts[2], rts[3]]) is None
    # moved inward, the largest approximation leaves the largest root outside every interval
    assert roots_module.real_root_certificate(p, [rts[0], rts[1], rts[2], rts[3] - mp.mpf(0.45)]) is None
    # an approximation in a neighbour's interval still isolates every root there
    assert roots_module.real_root_certificate(p, [rts[0], rts[1] + mp.mpf(0.6), rts[2], rts[3]]) is not None
    assert roots_module.real_root_certificate(p, [rts[0], rts[1], rts[2], rts[3] + 1j * mp.mpf(2) ** -100]) is None
    assert roots_module.real_root_certificate(p, rts[:3]) is None
    # plain floats are dyadic approximations too
    assert roots_module.real_root_certificate(p, [1 / 3, 4 / 3, 7 / 3, 10 / 3]) is not None


def test_certificate_reads_roots_by_the_input_rule():
    # a rational that is not dyadic is rounded once at the working precision; a dyadic one is read whole
    assert roots_module.real_root_certificate(Polynomial.from_roots([F(1, 3), 2]), [F(1, 3), 2]) is not None
    half = Polynomial.from_roots([F(1, 2), 2])
    for roots in ([F(1, 2), 2], [np.float32(0.5), 2], [np.float64(0.5), np.int64(2)]):
        assert roots_module.real_root_certificate(half, roots) == [0, 1, 3]
    # complex scalars of any width are read by their real part, and one off the line has no certificate
    for kind in (complex, np.complex64, np.complex128, mp.mpc):
        assert roots_module.real_root_certificate(half, [kind(0.5), kind(2)]) == [0, 1, 3]
        assert roots_module.real_root_certificate(half, [kind(0.5, 1), kind(2)]) is None
    # what the input rule refuses is refused here too
    for bad in (Decimal("0.5"), "0.5", True):
        with pytest.raises(TypeError):
            roots_module.real_root_certificate(half, [bad, 2])


def test_certificate_reads_each_root_to_its_last_bit():
    rts = [F(1, 3), F(1, 3) + F(1, 2**70), F(2)]
    p = Polynomial.from_roots(rts)
    got = find_roots(p, 128)
    assert float(got[0].real) == float(got[1].real)  # one double for both close roots
    seps = roots_module.real_root_certificate(p, got)
    assert len(seps) == 4 and all(a < r < b for a, r, b in zip(seps, rts, seps[1:]))
    # the same roots rounded to doubles cannot be separated
    assert roots_module.real_root_certificate(p, [float(z.real) for z in got]) is None


def _product():
    """The roots-complex product of tests/test_cli.py: two real roots and a conjugate pair."""
    return mult_conv(hyper_poly(HypergeometricSpec(n=4, a=(3, F(5, 2)), b=(1, F(7, 3)))),
                     hyper_poly(HypergeometricSpec(n=4, a=(2,), b=(3,))), 4)


# (polynomial, bits, whether the solve proves every root real and simple)
SOLVES = [
    (lambda: Polynomial.from_roots([0]), None, True),
    (lambda: Polynomial.from_roots([0, 0]), None, False),
    (lambda: Polynomial.from_roots([0, 1]), None, True),
    (lambda: Polynomial.from_roots([0, 0, 1]), None, False),
    (lambda: Polynomial.from_roots([0, F(1, 3), -2]), None, True),
    (lambda: Polynomial.from_monomial([0, 5]), 128, True),
    *((build, 256, True) for build in TRIAL),
    (_product, None, False),
]


@pytest.mark.parametrize("build, bits, certified", SOLVES,
                         ids=["x", "x2", "x(x-1)", "x2(x-1)", "x(x-1/3)(x+2)", "5x",
                              *(f"trial-{k}" for k in range(len(TRIAL))), "roots-complex"])
def test_the_solve_keeps_the_certificate_it_proved(build, bits, certified):
    p = build()
    got = find_roots(p, bits)
    assert type(got) is EmpiricalDistribution and len(got) == p.degree
    seps = got.separators
    assert (seps is not None) == certified == (roots_module.real_root_certificate(p, got) is not None)
    if certified:
        xs = sorted(_as_coeff(z.real) for z in got)
        assert len(seps) == p.degree + 1 and all(a < x < b for a, x, b in zip(seps, xs, seps[1:]))
        values = [_exact_value(p, s) for s in seps]
        assert all(a * b < 0 for a, b in zip(values, values[1:]))


# (polynomial, the number of values of each isolation its solve runs): one per solve, of p's own
# roots, a simple zero root with the rest; with two, the gate isolates the cofactor's and only picks the path
ISOLATIONS = [
    (lambda: Polynomial.from_roots([F(1, 3), 2, 5]), [3]),
    (lambda: Polynomial.from_roots([0]), [1]),
    (lambda: Polynomial.from_monomial([0, 5]), [1]),
    (lambda: Polynomial.from_roots([0, 1]), [2]),
    (lambda: Polynomial.from_roots([0, F(1, 3), -2]), [3]),
    (lambda: Polynomial.from_roots([0, 0, 1]), [1]),
    (lambda: Polynomial.from_roots([0] + [F(k, 7) for k in range(1, 40)]), [40]),
    (lambda: Polynomial.from_roots([0, 0]), []),
]


@pytest.mark.parametrize("build, isolations", ISOLATIONS,
                         ids=["(x-1/3)(x-2)(x-5)", "x", "5x", "x(x-1)", "x(x-1/3)(x+2)", "x2(x-1)", "x(x-k/7)", "x2"])
def test_a_solve_isolates_once_with_a_simple_zero_root_among_the_rest(build, isolations, monkeypatch):
    p = build()
    calls = []
    isolate = roots_module._isolate
    monkeypatch.setattr(roots_module, "_isolate", lambda nums, vals: calls.append(len(vals)) or isolate(nums, vals))
    monkeypatch.setattr(roots_module, "real_root_certificate", None)  # the solve proves its own certificate
    got = find_roots(p)
    assert calls == isolations
    assert (got.separators is not None) == (isolations == [p.degree])


def test_the_measure_is_the_tuple_of_the_roots():
    p = Polynomial.from_roots([F(1, 3), 2, 5])
    got = find_roots(p, 128)
    assert isinstance(got, tuple) and len(got) == 3 and got.separators is not None
    again = EmpiricalDistribution(got)
    assert again == got and again.separators is None  # built from roots, it proves nothing


@pytest.mark.xfail(strict=True, reason="known wrong answer (ROADMAP direction 1): the worst root "
                                       "of the 256-bit solve agrees with the 768-bit one to 2^-81 only")
def test_roots_carry_the_requested_bits():
    p = jp_typeII(JP_PARAMS, (50, 50))
    got, ref = (sorted(find_roots(p, bits), key=lambda z: z.real) for bits in (256, 768))
    with mp.workprec(1024):
        assert all(abs(x - y) <= abs(y) * mp.mpf(2) ** -256 for x, y in zip(got, ref))


JP2_DEGREE_36 = [
    "0x1.a2a8d0f348377p-13", "0x1.43f8f1105d644p-10", "0x1.e7786f94eb46bp-9", "0x1.0b15740b36792p-7",
    "0x1.e99333044f460p-7", "0x1.900a360fc11edp-6", "0x1.2db7cacb9eb85p-5", "0x1.acfb244b33d32p-5",
    "0x1.2361253e62e6dp-4", "0x1.7dbdf40d1e129p-4", "0x1.e58c17005f7eep-4", "0x1.2d43a938b1937p-3",
    "0x1.6e190b22fcc6ap-3", "0x1.b4ec597bc1209p-3", "0x1.00a535f0d5c4dp-2", "0x1.295459605028dp-2",
    "0x1.5433a6ca3862fp-2", "0x1.80e9a6fc78d92p-2", "0x1.af1492b7ddb11p-2", "0x1.de4b9d0d3df95p-2",
    "0x1.0710275401a70p-1", "0x1.1f0ff7772cb59p-1", "0x1.36ea7bb8b4a7bp-1", "0x1.4e6446e9dcbb4p-1",
    "0x1.654200075fc8cp-1", "0x1.7b491f6c8d367p-1", "0x1.9040a8edb3481p-1", "0x1.a3f1e0b07f886p-1",
    "0x1.b628f8a195765p-1", "0x1.c6b5b47795449p-1", "0x1.d56c024c9fc63p-1", "0x1.e22485f781ca5p-1",
    "0x1.ecbd15747e712p-1", "0x1.f51924da8851cp-1", "0x1.fb22208bebb73p-1", "0x1.fec7b4883c5e3p-1",
]
JP1_DEGREE_39 = [
    "-0x1.a8d6c3e64b610p+0", "-0x1.43827fdd21e56p+0", "-0x1.02a357b1c3223p+0", "-0x1.a7bf4b388b1edp-1",
    "-0x1.60586c500c5b0p-1", "-0x1.27e72769a0738p-1", "-0x1.f46fb97e9d784p-2", "-0x1.a934e59fd3076p-2",
    "-0x1.6a76fbcdaa9dep-2", "-0x1.359e4c15dffc7p-2", "-0x1.08c35569104cep-2", "-0x1.c4ec3b84b2ddbp-3",
    "-0x1.83353265ba9c8p-3", "-0x1.4aa2b2e9a4495p-3", "-0x1.19cf8363d870fp-3", "-0x1.df340c6a7f5cfp-4",
    "-0x1.9628fd5d5daf6p-4", "-0x1.56f33147a7dedp-4", "-0x1.2047c87e9e25fp-4", "-0x1.e21da5bae8208p-5",
    "-0x1.90b2f70ed0231p-5", "-0x1.4ab4d7550479ap-5", "-0x1.0ebfa6d0187fbp-5", "-0x1.b73ac4fecd2ecp-6",
    "-0x1.607c32d3cc3eap-6", "-0x1.1763b2f47ddb9p-6", "-0x1.b48f04e74155cp-7", "-0x1.4f57e02256023p-7",
    "-0x1.f8f2ea1935ce9p-8", "-0x1.731e4dd75d4c1p-8", "-0x1.08de38887291ep-8", "-0x1.6c8a6aeb230b1p-9",
    "-0x1.defcd8c16a0a4p-10", "-0x1.281aec44d8c42p-10", "-0x1.50dd1540cadc2p-11", "-0x1.53b5800c22757p-12",
    "-0x1.1b44a746b0661p-13", "-0x1.4ebd0e61629d1p-15", "-0x1.5c241c9b3caabp-18",
]


def _jp1_degree_39():
    return jp_typeI(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1)), (40, 80), 1)


def test_jp_typeII_degree_36_takes_the_real_path(monkeypatch):
    _no_complex_path(monkeypatch)
    p = jp_typeII(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1, 2)), (18, 18))
    rts = find_roots(p)
    assert all(z.imag == 0 for z in rts)
    assert _certify(p, rts, default_precision(36)) > 200
    assert len(roots_module.real_root_certificate(p, rts)) == 37
    assert sorted(float(z.real) for z in rts) == [float.fromhex(h) for h in JP2_DEGREE_36]


def test_jp_typeI_degree_39_takes_the_real_path(monkeypatch):
    _no_complex_path(monkeypatch)
    p = _jp1_degree_39()
    rts = find_roots(p)
    assert all(z.imag == 0 for z in rts)
    assert _certify(p, rts, default_precision(39)) > 200
    assert len(roots_module.real_root_certificate(p, rts)) == 40
    assert sorted(float(z.real) for z in rts) == [float.fromhex(h) for h in JP1_DEGREE_39]


# -- the float stage: seeds swept on doubles before the big-integer rungs ---------


def _patch_real_kernel(monkeypatch, k, kernel):
    """Replace entry k of the real kernel table, in aberth and in roots alike."""
    table = aberth_module._REAL[:k] + (kernel,) + aberth_module._REAL[k + 1 :]
    monkeypatch.setattr(aberth_module, "_REAL", table)
    monkeypatch.setattr(roots_module, "_REAL", table)


def _record_sweeps(monkeypatch):
    """Per _aberth_sweeps call: (kernel table, wp, converged, _rstep calls)."""
    calls, steps = [], [0]
    rstep = aberth_module._rstep

    def counting(*args):
        steps[0] += 1
        return rstep(*args)

    def sweeps(forms, pts, wp, budget, kernels):
        before = steps[0]
        pts, ok = aberth_module._aberth_sweeps(forms, pts, wp, budget, kernels)
        name = "float" if kernels is aberth_module._FLOATS else "real" if kernels is aberth_module._REAL else "complex"
        calls.append((name, wp, ok, steps[0] - before))
        return pts, ok

    _patch_real_kernel(monkeypatch, 3, counting)
    monkeypatch.setattr(roots_module, "_aberth_sweeps", sweeps)
    return calls


def test_float_stage_seeds_every_big_integer_rung_once(monkeypatch):
    _no_complex_path(monkeypatch)
    calls = _record_sweeps(monkeypatch)
    p = _jp1_degree_39()
    find_roots(p)
    (kernels, wp, ok, _), *rungs = calls
    assert (kernels, wp, ok) == ("float", 52, True)
    # after the float stage the real climb takes the top rung alone, with the real kernels
    assert [(kernels, wp, ok) for kernels, wp, ok, _ in rungs] == [("real", default_precision(39) + 32, True)]
    # 112 Aberth steps; the 170-bit base rung took 252 from the Newton-polygon seeds alone, and
    # 88 from the float stage's points, before 39 more on the top rung
    assert rungs[0][3] <= 120


@pytest.mark.parametrize(
    "rts",
    [
        [F(1, 2**700), F(1, 3), F(2**700)],
        # beyond the range of doubles, where the real sweeps' Aberth sum runs exactly
        [F(1, 2**1100), F(1, 3), F(2**1100)],
        [F(1, 2**1500), F(1, 7), F(5, 3), F(2**1200)],
    ],
)
def test_float_stage_is_skipped_where_doubles_overflow(monkeypatch, rts):
    _no_complex_path(monkeypatch)
    calls = _record_sweeps(monkeypatch)
    exact_sum, exact = aberth_module._REAL[2], [0]

    def counting(*args):
        exact[0] += 1
        return exact_sum(*args)

    _patch_real_kernel(monkeypatch, 2, counting)
    p = Polynomial.from_roots(rts)
    got = find_roots(p, 128)
    assert "float" not in [kernels for kernels, *_ in calls]
    # one scale of doubles holds 2^+-700; past 2^+-960 the exact sum runs on the triples (m, 0, e)
    assert (exact[0] > 0) == (max(rts) > 2**960)
    assert all(z.imag == 0 for z in got)
    seps = roots_module.real_root_certificate(p, got)
    assert seps is not None and all(a < r < b for a, r, b in zip(seps, rts, seps[1:]))


def _record_gate(monkeypatch):
    """The verdicts of the float stage's condition gate, and the centres of every
    Taylor expansion it builds."""
    verdicts, built = [], []
    conditioned, expansion = roots_module._conditioned, roots_module._expansion

    def gate(fc, ys):
        verdicts.append(conditioned(fc, ys))
        return verdicts[-1]

    def spy(nums, den, c, s):
        built.append(c)
        return expansion(nums, den, c, s)

    monkeypatch.setattr(roots_module, "_conditioned", gate)
    monkeypatch.setattr(roots_module, "_expansion", spy)
    return verdicts, built


def test_well_conditioned_float_stages_build_no_expansion(monkeypatch):
    verdicts, built = _record_gate(monkeypatch)
    for make in TRIAL:  # conditioning 3..12 bits: the one-rung rule already trusts the doubles
        find_roots(make(), 256)
    assert (verdicts, built) == ([], [])
    find_roots(_jp1_degree_39())  # every point's condition stays below 2^35
    assert (verdicts, built) == ([True], [])
    # near 1 the monomial form of jp2 (18, 18) cancels some 55 bits: the stage re-expands on the positive side
    find_roots(jp_typeII(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1, 2)), (18, 18)))
    assert verdicts == [True, False]
    assert 0 < len(built) <= roots_module._CENTRES and all(c > 0 for c in built)


def test_float_expansion_is_the_taylor_shift_rounded_once():
    p = jp_typeII(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1, 2)), (6, 6))
    nums, den = p._mono_ints()
    for c, s in ((0.875, -1), (0.3125, 0), (-1.5, 2)):
        got = roots_module._expansion(nums, den, c, s)
        exact = [x * F(2) ** (s * k) for k, x in enumerate(p.shift(-F(c) * F(2) ** s).to_monomial())]
        # one power of two scales every coefficient, so each double is the exact one rounded
        k = max(range(len(got)), key=lambda k: abs(got[k]))
        scale = F(2) ** round(math.log2(abs(exact[k] / F(got[k]))))
        assert got == [float(x / scale) for x in exact]
        assert 0.5 <= abs(got[k]) < 4


def _zeros_pool(monkeypatch):
    """The 24 polynomials of the benchmark's `zeros` pool at its full degrees."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from bench.workloads.zeros import JP1_POOL, JP2_INT_POOL, JP2_REV_POOL, ML1_POOL, SIZES

    size = SIZES["full"]
    polys = [jp_typeI(JPSpec(alpha=a, beta=b), (k, 2 * k), 1) for k in size["jp1"] for a, b in JP1_POOL]
    polys += [jp_typeII(JPSpec(alpha=a, beta=b), (m, m)) for m, pool in zip(size["jp2"], (JP2_INT_POOL, JP2_REV_POOL))
              for a, b in pool]
    return polys + [ml1_typeII(ML1Spec(alpha=a), (m, m)) for m in size["ml1"] for a in ML1_POOL]


def test_real_solves_of_the_zeros_pool_take_few_evaluations_per_root(monkeypatch):
    # big-integer evaluations per root, from 5.0 (jp2 m14) to 7.4 (ml1 m14); with a base rung
    # between the float stage and the top rung, 6.0 to 8.6
    _no_complex_path(monkeypatch)
    evals, rhorner = [0], aberth_module._rhorner

    def counting(*args):
        evals[0] += 1
        return rhorner(*args)

    _patch_real_kernel(monkeypatch, 0, counting)
    for p in _zeros_pool(monkeypatch):
        evals[0] = 0
        got = find_roots(p)
        assert evals[0] <= 7.5 * p.degree
        assert got.separators is not None


# -- the ladder: the float stage stands in for the base rung wherever it runs ---------


def _record_climbs(monkeypatch):
    """Per _climb call: (rungs climbed, real)."""
    calls = []
    climb = roots_module._climb

    def spy(ladder, mono, dmono, lcs, pts, real):
        calls.append((len(ladder), real))
        return climb(ladder, mono, dmono, lcs, pts, real)

    monkeypatch.setattr(roots_module, "_climb", spy)
    return calls


def _force_two_rungs(monkeypatch):
    """Give every real climb the two-rung ladder [cond + 96, target] wherever that
    ladder has two rungs, as before the float stage could stand in for the base.
    Returns the rungs climbed per call."""
    calls = []
    climb = roots_module._climb

    def two_rungs(ladder, mono, dmono, lcs, pts, real):
        b = [abs(u).bit_length() - v.bit_length() if u else None for u, v in mono]
        base, target = roots_module._conditioning_bits(b, len(mono) - 1) + 96, ladder[-1]
        if real and base * 4 < target * 3:
            ladder = [base, target]
        calls.append(len(ladder))
        return climb(ladder, mono, dmono, lcs, pts, real)

    monkeypatch.setattr(roots_module, "_climb", two_rungs)
    return calls


def test_real_solves_after_the_float_stage_climb_one_rung(monkeypatch):
    _no_complex_path(monkeypatch)
    calls = _record_climbs(monkeypatch)
    for make in TRIAL:  # conditioning 3..12 bits: 3 (53 - cond) >= cond + 96
        find_roots(make(), 256)
    assert calls == [(1, True)] * len(TRIAL)
    # conditioning 39 and 54 bits: the stage reads the points' conditions, and the top rung follows it
    calls.clear()
    find_roots(jp_typeII(JP_PARAMS, (14, 14)))
    find_roots(jp_typeI(JP_PARAMS, (30, 60), 1))
    assert calls == [(1, True)] * 2
    # the float stage is skipped (the terms of p out at 2^700 overflow doubles): both rungs run
    calls.clear()
    find_roots(Polynomial.from_roots([F(1, 2**700), F(1, 3), F(2**700)]), 1200)
    assert calls == [(2, True)]


def test_one_rung_ladder_keeps_the_two_rung_doubles_and_certificate(monkeypatch):
    rng = random.Random(33)
    polys = []
    for _ in range(40):
        n = rng.randint(3, 12)
        rts = set()
        while len(rts) < n:
            rts.add(F(rng.choice((-1, 1)) * rng.randint(1, 400), rng.randint(1, 60)))
        polys.append(Polynomial.from_roots(sorted(rts)))
    # and the benchmark's pool, where the float stage reads the conditions of its points
    for p in polys + _zeros_pool(monkeypatch):
        with monkeypatch.context() as m:
            one_rung = _record_climbs(m)
            got = find_roots(p)
        with monkeypatch.context() as m:
            two_rungs = _force_two_rungs(m)
            want = find_roots(p)
        assert (one_rung, two_rungs) == ([(1, True)], [2])
        assert sorted(float(z.real) for z in got) == sorted(float(z.real) for z in want)
        assert got.separators is not None and got.separators == want.separators


# -- the pair kernels: oracles of the real kernels on the triples (m, 0, e) ---------
#
# The real path once kept its points as pairs (m, e) meaning m 2^e.  These are
# its kernels unchanged; the real kernels must give the same bits.


def _rnorm(m, e, P):
    s = m.bit_length() - P
    if s >= 0:
        return m >> s, e + s
    return m << -s, e + s


def _radd(a, b, P):
    if not b[0]:
        return a
    if not a[0]:
        return b
    if a[1] < b[1]:
        a, b = b, a
    d = a[1] - b[1]
    if d > P + 2:
        return a
    return _rnorm((a[0] << d) + b[0], b[1], P)


def _rdiv(a, b, P):
    """a / b for b != 0 and a of at most P + 1 bits."""
    s = P + 2 + b[0].bit_length() - a[0].bit_length()
    return _rnorm((a[0] << s) // b[0], a[1] - b[1] - s, P)


def _renorm(a, P):
    """A pair or a triple normalized to P bits."""
    return _rnorm(*a, P) if len(a) == 2 else aberth_module._norm(*a, P)


def _pair_rstep(x, pv, dv, s, P):
    """_step on pairs, as x - p / (p' - p s); s may have fewer than P bits."""
    if not dv[0]:
        return _radd(_radd(x, (x[0], x[1] - 10), P), _rnorm(1, -20, P), P), False
    ps = _rnorm(-pv[0] * s[0], pv[1] + s[1], P)
    den = _radd(_rnorm(*dv, P), ps, P)
    step = _rdiv(pv, den if den[0] else dv, P)
    return _radd(x, (-step[0], step[1]), P), step[0] != 0


def _pair_sum(x, pts, P):
    """_aberth_sum on the triples (m, 0, e) of the pairs, as (real part, exponent)."""
    return aberth_module._aberth_sum((x[0], 0, x[1]), [(m, 0, e) for m, e in pts], P)[::2]


def _triple(a):
    return a[0], 0, a[1]


def _random_pair(rng, bits, spread):
    """A pair of at most bits bits, zero one time in twenty, either sign, its
    exponent within spread binades of 2^0."""
    e = rng.randint(-spread, spread)
    if rng.random() < 0.05:
        return 0, e
    m = rng.getrandbits(rng.randint(1, bits)) or 1
    return rng.choice((-1, 1)) * m, e - m.bit_length()


@pytest.mark.parametrize("P", [69, 200, 304, 600])
def test_norm_on_real_triples_is_the_pair_renorm_to_the_bit(P):
    rng = random.Random(P)
    for spread in (0, 8, 80, 300, 1200):
        for _ in range(400):
            a = _random_pair(rng, 2 * P, spread)
            want = _triple(_renorm(a, P))
            assert aberth_module._norm(a[0], 0, a[1], P) == aberth_module._rnorm(*a, P) == want
            b = _random_pair(rng, P, spread)
            assert aberth_module._radd(_triple(a), _triple(b), P) == _triple(_radd(a, b, P))


@pytest.mark.parametrize("P", [69, 200, 304, 600])
def test_real_step_divides_as_the_pair_rdiv_to_the_bit(P):
    # _rstep divides p by p' - p s inline; a zero p' takes _step's nudge
    rng = random.Random(P)
    for spread in (0, 8, 80, 300, 1200):
        for _ in range(400):
            x = _rnorm(*_random_pair(rng, P, spread), P)
            pv, dv = _random_pair(rng, P + 1, spread), _random_pair(rng, P + 1, spread)
            s = _random_pair(rng, rng.choice((53, P)), spread)
            if rng.random() < 0.05:  # p' - p s vanishes: the step divides by p'
                pv, s = (rng.choice((-1, 1)) * rng.getrandbits(20) or 1, pv[1]), (rng.getrandbits(20) or 1, s[1])
                dv = _rnorm(pv[0] * s[0], pv[1] + s[1], P)
            got = aberth_module._rstep(_triple(x), _triple(pv), _triple(dv), _triple(s), P)
            want, moved = _pair_rstep(x, pv, dv, s, P)
            assert got == (_triple(want), moved)


# -- the real path's Aberth sum: on doubles, exact where doubles cannot hold it -----


# the exact Aberth sum written on pairs: the oracle of the real sweep's exact sum
def _raberth_sum(x, pts, P):
    """_aberth_sum on pairs: one division per term."""
    xm, xe = x
    diffs = []
    low = None
    for wm, we in pts:
        k = xe - we
        if 0 <= k <= 64:
            dm, de = (xm << k) - wm, we
        elif -64 <= k < 0:
            dm, de = xm - (wm << -k), xe
        elif k > 0:
            dm, de = xm - (wm >> k), xe
        else:
            dm, de = (xm >> -k) - wm, we
        b = dm.bit_length()
        if not b:
            continue
        if low is None or de + b < low:
            low = de + b
        diffs.append((dm, de))
    if low is None:
        return 0, 0
    ea = -low - P - 4
    s = 0
    for dm, de in diffs:
        k = -de - ea
        if k >= 0:
            s += (1 << k) // dm
    return _rnorm(s, ea, P)


@pytest.mark.parametrize("P", [69, 200, 304, 600])
def test_pair_fallback_is_the_pair_sum_to_the_bit(P):
    # the real sweep's exact sum is _aberth_sum on the triples (m, 0, e): each
    # term floor(d 2^s / d^2) is the pair sum's floor(2^s / d)
    rng = random.Random(P)

    def point(spread):
        if rng.random() < 0.05:
            return 0, rng.randint(-spread, spread)
        return rng.choice((-1, 1)) * rng.randrange(1 << (P - 1), 1 << P), rng.randint(-spread, spread) - P

    for spread in (0, 8, 80, 300, 1200):  # binades, out past the doubles' 2^+-1024
        for n in (1, 1, 2, 3, 5, 8, 13, 24) * 5:
            pts = [point(spread) for _ in range(n)]
            pts += rng.sample(pts, rng.randint(0, n // 2))  # coincident points
            rng.shuffle(pts)
            triples = [_triple(w) for w in pts]
            for x in pts + [point(spread)]:
                got = aberth_module._REAL[2](_triple(x), triples, P)
                assert got == _triple(_raberth_sum(x, pts, P)) == _triple(_pair_sum(x, pts, P))


def _points(xs, P=200):
    return [_triple(aberth_module._mantissa(x.numerator, x.denominator, P)) for x in xs]


def _sum_of(s):
    return F(s[0]) * F(2) ** s[2]


def test_aberth_sum_on_doubles_matches_the_pair_sum():
    rng = random.Random(2014)
    for _ in range(50):
        n = rng.randint(2, 40)
        xs = {F(rng.choice((-1, 1)) * rng.randint(1, 2**40), 2**40) * F(2) ** rng.randint(-60, 60) for _ in range(n)}
        pts = _points(sorted(xs))
        ys, sc = aberth_module._doubles(pts)
        for i, x in enumerate(pts):
            terms = [1 / (_sum_of(x) - _sum_of(w)) for w in pts if w != x]
            got = aberth_module._dsum(ys, i, sc)
            exact = _sum_of(aberth_module._REAL[2](x, pts, 200))
            assert got is not None
            assert abs(_sum_of(got) - exact) <= F(1, 2**30) * sum(abs(t) for t in terms)


def test_aberth_sum_leaves_unresolved_differences_to_pairs():
    def sums(xs):
        ys, sc = aberth_module._doubles(_points(xs))
        return [aberth_module._dsum(ys, i, sc) is not None for i in range(len(xs))]

    third = F(1, 3)
    # two distinct points with one double: the exact sum runs for both, not for the third point
    assert sums([third, third * (1 + F(1, 2**60)), F(3)]) == [False, False, True]
    # distinct doubles closer than 2^-40 of their size
    assert sums([third, third * (1 + F(1, 2**45)), F(3)]) == [False, False, True]
    assert sums([third, third * (1 + F(1, 2**30)), F(3)]) == [True, True, True]
    # one scale of doubles holds 2^-900 .. 2^900, but not 2^-1100 .. 2^1100
    assert sums([F(1, 2**900), third, F(2**900)]) == [True, True, True]
    ys, _ = aberth_module._doubles(_points([F(1, 2**1100), third, F(2**1100)]))
    assert [y != y for y in ys] == [True, False, True]
    assert sums([F(1, 2**1100), third, F(2**1100)]) == [False, False, False]


def test_real_and_complex_paths_agree_to_the_float():
    p = jp_typeII(JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1, 2)), (18, 18))
    real = sorted(float(z.real) for z in find_roots(p))
    with pytest.MonkeyPatch.context() as m:
        _complex_path_only(m)
        cplx = sorted(float(z.real) for z in find_roots(p))
    assert real == cplx


def test_coarsest_separator_against_brute_force():
    def twos(v):
        return 99 if v == 0 else (v & -v).bit_length() - 1

    rng = random.Random(17)
    for _ in range(400):
        lo = rng.randint(-300, 300)
        hi = lo + rng.randint(0, 80)
        got = roots_module._coarsest(lo, hi)
        assert lo <= got <= hi
        assert twos(got) == max(twos(v) for v in range(lo, hi + 1))
