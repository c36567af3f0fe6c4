"""The root finder's fixed per-call work, pinned to the bit: the roots of a
fixed set of polynomials, the mantissa-to-mpc conversion, and the Adams test
settled from the largest term the Newton polygon gives, each against the
form it replaced.

The roots of both paths are pinned twice: as doubles, which no change of
the iteration's path may move, and to the last bit of the working
precision, which any such change does."""

import hashlib
import math
import random
from bisect import bisect_left
from fractions import Fraction as F

import mpmath as mp
import pytest

from finfree import aberth, mop
from finfree.aberth import _adams_holds, _hull, _to_mpc
from finfree.poly import Polynomial
from finfree.roots import find_roots

JP = mop.JPSpec(alpha=(F(2, 13), F(-1, 13)), beta=F(0))
SHIFTED = (F(193, 156), F(157, 156))
JP2 = mop.JPSpec(alpha=(F(4, 13), F(-5, 13)), beta=F(1))
AL2_T = (F(25, 39), F(-5, 13))
ML2_C = (F(5), F(3, 2))

# the thirteen solves of one interlacing trial (n = (4, 4), i = 1), at 256 bits
TRIAL = [
    lambda: mop.jp_typeI(JP, (4, 4), 1),
    lambda: mop.jp_typeI(mop.JPSpec(alpha=SHIFTED, beta=F(0)), (4, 4), 1),
    lambda: mop.jp_typeI(mop.JPSpec(alpha=JP.alpha, beta=F(13, 12)), (4, 4), 1),
    lambda: mop.ml1_typeI(mop.ML1Spec(alpha=JP.alpha), (4, 4), 1),
    lambda: mop.ml1_typeI(mop.ML1Spec(alpha=SHIFTED), (4, 4), 1),
    lambda: mop.jp_typeII(JP2, (4, 4)),
    lambda: mop.jp_typeII(JP2, (5, 4)),
    lambda: mop.jp_typeII(mop.JPSpec(alpha=AL2_T, beta=F(1)), (4, 4)),
    lambda: mop.ml1_typeII(mop.ML1Spec(alpha=JP2.alpha), (4, 4)),
    lambda: mop.ml1_typeII(mop.ML1Spec(alpha=JP2.alpha), (5, 4)),
    lambda: mop.ml1_typeII(mop.ML1Spec(alpha=AL2_T), (4, 4)),
    lambda: mop.ml2_typeII(mop.ML2Spec(alpha=F(4, 3), c=ML2_C), (4, 4)),
    lambda: mop.ml2_typeII(mop.ML2Spec(alpha=F(23, 12), c=ML2_C), (4, 4)),
]
JP_PARAMS = mop.JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1))


def _complex_cases():
    rng = random.Random(5)
    return [
        Polynomial.from_monomial([1] * 7),
        Polynomial.from_monomial([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(20)] + [1]),
    ]


def _digest(solves):
    h = hashlib.sha256()
    for p, bits in solves:
        h.update(repr([(z.real._mpf_, z.imag._mpf_) for z in find_roots(p, bits)]).encode())
    return h.hexdigest()


def _real_solves():
    solves = [(make(), 256) for make in TRIAL]
    return solves + [(mop.jp_typeII(JP_PARAMS, (14, 14)), None), (mop.jp_typeI(JP_PARAMS, (30, 60), 1), None)]


def test_real_path_roots_keep_their_doubles():
    h = hashlib.sha256()
    for p, bits in _real_solves():
        rts = find_roots(p, bits)
        assert not any(z.imag for z in rts)
        h.update(repr([x.hex() for x in sorted(float(z.real) for z in rts)]).encode())
    assert h.hexdigest() == "c7182223f88a497966dafc4a2deae165c47b0e181007ff0b8cb38fe473506204"


def test_real_path_roots_keep_their_bits():
    assert _digest(_real_solves()) == "df698ec67e375424685291e1602a4917c36932934fd2ef245401f63ae01b95bb"


def test_ill_conditioned_real_solves_keep_their_bits():
    # conditioning 39 and 54 bits, so the float stage reads its points' conditions: the jp2 (14, 14)
    # points reach 2^50 in the monomial form, and its top rung starts from the Taylor re-expansions
    assert _digest(_real_solves()[len(TRIAL) :]) == "84c6b70337237c6576e2011d57685cfdd50a00371aa741946651f6447a1d644b"


def test_complex_path_roots_keep_their_bits():
    solves = [(p, bits) for p in _complex_cases() for bits in (None, 200)]
    assert any(z.imag for z in find_roots(solves[0][0]))
    assert _digest(solves) == "49770bb325ad7b27cf415d62f593ba6dfcd829e51b625b6cf458c12bbb60a88f"


def test_complex_path_roots_keep_their_doubles():
    # an imaginary part within 2^-100 (1 + |z|) of zero is iteration noise and reads 0.0
    h = hashlib.sha256()
    for p in _complex_cases():
        for bits in (None, 200):
            rts = [(z.real, z.imag if abs(z.imag) > 2.0**-100 * (1 + abs(z)) else 0) for z in find_roots(p, bits)]
            h.update(repr(sorted((float(x).hex(), float(y).hex()) for x, y in rts)).encode())
    assert h.hexdigest() == "1904e981e511c022697cc194cd3034102766120fd6e0143bdc8a4216aea2aa6b"


@pytest.mark.parametrize("prec", [53, 288, 600])
def test_mantissa_to_mpc_rounds_as_mpf_does(prec):
    rng = random.Random(prec)
    with mp.workprec(prec):
        for _ in range(500):
            re, im = (rng.choice((0, 1, -1)) * rng.getrandbits(rng.randint(1, 304)) for _ in range(2))
            e = rng.randint(-400, 400)
            got, want = _to_mpc((re, 0, e)), mp.mpc(mp.mpf((re, e)))
            assert (got.real._mpf_, got.imag._mpf_) == (want.real._mpf_, want.imag._mpf_)
            got, want = _to_mpc((re, im, e)), mp.mpc(mp.mpf((re, e)), mp.mpf((im, e)))
            assert (got.real._mpf_, got.imag._mpf_) == (want.real._mpf_, want.imag._mpf_)


def _adams_full_sum(log_pv, log_eps, lcs, lz):
    """The Adams test as it was before the early accept: always the full sum."""
    if lz == -math.inf:
        return log_pv <= log_eps + lcs[0][1]
    t = [lc + k * lz for k, lc in lcs]
    top = max(t)
    if log_pv > log_eps + top + math.log2(len(t)):  # above even the largest bound
        return False
    return log_pv <= log_eps + top + math.log2(sum(2.0 ** (x - top) for x in t))


def test_adams_test_agrees_with_the_full_sum():
    rng = random.Random(2014)
    cases = 0
    for _ in range(3000):
        n = rng.randint(1, 40)
        ks = [0] + sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        lcs = [(k, rng.uniform(-60, 60)) for k in ks]
        lz = -math.inf if rng.random() < 0.05 else rng.uniform(-12, 12)
        log_eps = rng.uniform(-700, -10)
        if lz == -math.inf:
            edge = log_eps + lcs[0][1]
        else:
            t = [lc + k * lz for k, lc in lcs]
            top = max(t)
            edge = log_eps + top
            full = edge + math.log2(sum(2.0 ** (x - top) for x in t))
        probes = [edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)]
        probes += [edge + rng.uniform(-5, 5), -math.inf]
        if lz != -math.inf:
            probes += [full, math.nextafter(full, math.inf), math.nextafter(full, -math.inf)]
        for log_pv in probes:
            assert _adams_holds(log_pv, log_eps, lcs, lz, _hull(lcs)) == _adams_full_sum(log_pv, log_eps, lcs, lz)
            cases += 1
    assert cases > 20000


def _degenerate_lcs(rng, n):
    """Pairs (k, log2 |c_k|) whose hull has ties: a collinear run, equal values, or two pairs."""
    kind = rng.randrange(3)
    ks = [0] + sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    if kind == 0:  # on one line, slope and intercept exact in binary
        a, b = rng.randint(-40, 40) / 4, rng.randint(-16, 16) / 8
        return [(k, a + b * k) for k in ks]
    if kind == 1:
        lc = rng.uniform(-60, 60)
        return [(k, lc) for k in ks]
    return [(0, rng.uniform(-60, 60)), (n, rng.uniform(-60, 60))]


def test_adams_test_agrees_with_the_full_sum_on_degenerate_hulls():
    rng = random.Random(34)
    for _ in range(2000):
        n = rng.randint(1, 40)
        lcs = _degenerate_lcs(rng, n)
        _, radii = hull = _hull(lcs)
        # log2 |z| on an edge's negated slope ties two vertices
        lz = rng.choice(radii) if radii and rng.random() < 0.5 else rng.uniform(-12, 12)
        log_eps = rng.uniform(-700, -10)
        t = [lc + k * lz for k, lc in lcs]
        top = max(t)
        edge = log_eps + top
        full = edge + math.log2(sum(2.0 ** (x - top) for x in t))
        far = edge + math.log2(len(t))
        for b in (edge, full, far):
            for log_pv in (b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf), b + rng.uniform(-1, 1)):
                assert _adams_holds(log_pv, log_eps, lcs, lz, hull) == _adams_full_sum(log_pv, log_eps, lcs, lz)


def test_hull_bisection_finds_the_largest_term():
    rng = random.Random(96)
    for _ in range(3000):
        n = rng.randint(1, 300)
        lcs = _degenerate_lcs(rng, n) if rng.random() < 0.3 else [
            (k, rng.uniform(-5000, 5000)) for k in [0] + sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        ]
        verts, radii = _hull(lcs)
        assert verts[0] == lcs[0] and verts[-1] == lcs[-1] and radii == sorted(radii)
        for lz in [rng.uniform(-1200, 1200) for _ in range(3)] + radii[:3]:
            k, lc = verts[bisect_left(radii, lz)]
            top = max(c + j * lz for j, c in lcs)
            assert top - 1e-9 <= lc + k * lz <= top


def test_adams_full_sum_runs_rarely_on_the_trial_solves(monkeypatch):
    calls = {"test": 0, "sum": 0}

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)

        return g

    monkeypatch.setattr(aberth, "_adams_holds", counted("test", aberth._adams_holds))
    monkeypatch.setattr(aberth, "_adams_sum", counted("sum", aberth._adams_sum))
    for make in TRIAL:
        find_roots(make(), 256)
    assert calls["test"] > 400 and calls["sum"] <= 0.1 * calls["test"], calls
