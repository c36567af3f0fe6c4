"""Multiprecision root extraction and empirical root distributions.

The finder is Aberth-Ehrlich simultaneous iteration in software floating
point on Python integers (`aberth.py`).  The coefficients are read exactly
as the polynomial's integer numerators over one denominator and converted
once per rung.  A precision ladder polishes from a cheap pass up
to the requested precision, each root to the Adams residual criterion.
Roots come back as mpmath complex numbers at the working precision.

Both paths keep every point as a triple (re, im, exp), and share one sweep
driver; find_roots picks the path and passes it down:

* the real path, tried first when Descartes' rule of signs allows every
  root to be real (sign changes of p(x) and p(-x) summing to the degree).
  It seeds real points of the counted signs at the radii of the Newton
  polygon of the coefficient magnitudes and first sweeps them on hardware
  doubles, where p scaled to its root scale fits them.  Where p is not so
  well conditioned that doubles are trusted outright and a swept point's
  condition sum |c_k| |x|^k / |x p'(x)| exceeds 2^40, the monomial form
  has cancelled all but 13 of its bits (jp2 near x = 1), and the sweeps go
  on with p read, for each point, from the exact Taylor expansion about
  the nearest of a few short dyadic centres spread over the points (0
  among them), rounded to doubles once.  This stage only moves the seeds:
  the big-integer rung after it takes every root to the Adams criterion and
  the certificate proves them, so the stage changes how much that rung does
  (and the bits below the criterion), never what is found or proved.  It
  stands in for the base rung: where it ran, the real climb takes the top
  rung alone, whose cubic steps pass the base rung's precision on the way;
  only where it is skipped (doubles overflow) do both rungs run.  The
  climb sweeps the points (m, 0, exp) with the real kernels, one
  multiplication per Horner step instead of three; each step's Aberth sum
  runs on doubles, and exactly only where doubles cannot resolve it.
  Its result stands only with an exact certificate
  (real_root_certificate): p, evaluated by integer Horner at dyadic
  separators between the sorted roots and beyond both ends, alternates
  strictly in sign, which proves deg p simple real roots, each isolated.
  These roots have imaginary part exactly 0.
* the complex path, run when the gate, the sweeps or the certificate
  fails (the real sweeps give up once they stall).  Starting points spread
  over the Newton-polygon circles, so clustered scales are seeded at their
  own magnitude.

Default precision: 256 bits for degree <= 100, plus 128 bits per additional
100 degrees; every entry point takes an explicit precision instead.
"""

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .aberth import _COMPLEX, _FLOATS, _REAL, _aberth_sweeps, _horner, _hull, _mantissa, _norm, _to_mpc
from .errors import (
    DegreeGapTooLarge,
    InvalidParameters,
    NonConvergence,
    NonRealRoots,
    ZeroDegree,
)
from .poly import Polynomial, _alternate, _as_coeff, _taylor_shift


def default_precision(n: int) -> int:
    """Precision schedule in bits for degree n."""
    if n <= 100:
        return 256
    return 256 + 128 * math.ceil((n - 100) / 100)


def _newton_annuli(lcs):
    """(log2 radius, count) for each edge of the Newton polygon of the pairs
    (k, log2 |c_k|), innermost first: its estimate of the root magnitudes."""
    verts, radii = _hull(lcs)
    return [(r, j - i) for r, (i, _), (j, _) in zip(radii, verts, verts[1:])]


def _dyadic(z, log2_r):
    """The float or complex z times 2^log2_r as a triple, a float exactly."""
    e = math.floor(log2_r)
    z *= 2.0 ** (log2_r - e)
    if isinstance(z, complex):
        return int(z.real * 2**53), int(z.imag * 2**53), e - 53
    m, d = z.as_integer_ratio()
    return m, 0, e + 1 - d.bit_length()


def _initial_points(lcs):
    """Starting triples on Newton-polygon circles (Bini-style): each annulus
    is seeded with equispaced angles and a rotating offset."""
    points = []
    golden = 0.7639320225
    for log2_r, count in _newton_annuli(lcs):
        base = len(points)
        for t in range(count):
            angle = 2 * math.pi * (t + 0.5 + golden * base) / count + 0.4
            points.append(_dyadic(cmath.rect(1.0, angle), log2_r))
    return points


def _real_points(lcs, n, neg):
    """Distinct real starting points (m, 0, e) on the Newton-polygon radii, neg of them negative.

    An annulus holding c roots gets c magnitudes spread geometrically
    within a factor sqrt(2) of its radius; the signs are dealt out evenly
    over all magnitudes in increasing order.
    """
    mags = [log2_r + (t + 0.5) / count - 0.5 for log2_r, count in _newton_annuli(lcs) for t in range(count)]
    return [_dyadic(-1.0 if (i + 1) * neg // n > i * neg // n else 1.0, r) for i, r in enumerate(mags)]


def _sign_changes(cs):
    """Sign changes along the nonzero entries of cs (Descartes' bound on positive roots)."""
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _climb(ladder, mono, dmono, lcs, pts, real):
    """Sweeps the points pts up the precision ladder, with the real kernels
    if real, else the Gaussian ones; each rung's coefficient mantissas are
    built when it runs.

    A failed rung ends a real climb, whose stalled points would only stall
    again; a complex climb goes on to polish at the next rung.
    """
    kernels = _REAL if real else _COMPLEX
    for level, wp in enumerate(ladder):
        coeffs, dcoeffs = ([_mantissa(*c, wp + 16) for c in reversed(cs)] for cs in (mono, dmono))
        pts = [_norm(r, i, e, wp + 16) for r, i, e in pts]
        pts, ok = _aberth_sweeps([(0, coeffs, dcoeffs, lcs)], pts, wp, 120 if level else 500, kernels)
        if not ok and real:
            break
    return pts, ok


def _float_stage(nums, den, b, lcs, pts, trusted):
    """The real seeds pts, moved by Aberth sweeps on floats at the root scale,
    or None where the stage is skipped.

    p = sum nums[k] x^k / den is scaled to q(y) = p(2^s y) / 2^t, 2^s the
    geometric root scale and 2^t the largest term at |y| = 1, both read from
    the bit lengths b.  The stage is skipped unless every nonzero coefficient
    of q is a normal double and every term of q stays below 2^1000 out to the
    outermost seed.  Where the sweeps leave a point whose condition
    sum |q_k| |y|^k / |y q'(y)| exceeds 2^_KAPPA, so that doubles keep fewer
    than 13 bits of it, they go on from their points in the forms of
    _centres: each point reads p, p' and its Adams bound from the exact
    Taylor expansion about its nearest centre, rounded to doubles once.  The
    conditions are not read where the caller already trusts doubles to keep
    53 - cond >= 38 bits, so that one cubic step from them reaches the base
    rung.  A point that ends coincident with another keeps its seed.
    """
    n = len(nums) - 1
    s = (b[0] - b[n]) // n
    t = max(bk + k * s for k, bk in enumerate(b) if bk is not None)
    fc = _doubles_of(nums, den, s, t)
    outer = max(m.bit_length() + e for m, _, e in pts)
    if max(lc + k * outer for k, lc in lcs) - t > 1000 or any(u and abs(f) < 2.0**-1022 for u, f in zip(nums, fc)):
        return None
    ys = [math.ldexp(m, e - s) for m, _, e in pts]
    form = _float_form(0.0, fc)
    ys, _ = _aberth_sweeps([form], ys, 52, 500, _FLOATS)
    if not (trusted or _conditioned(fc, ys)):
        forms = [_float_form(c, _expansion(nums, den, c, s)) if c else form for c in _centres(ys)]
        ys, _ = _aberth_sweeps(forms, ys, 52, 500, _FLOATS)
    return [z if ys.count(y) > 1 else _dyadic(y, s) for z, y in zip(pts, ys)]


# doubles keep about 53 - log2(condition) bits of a point; the float stage
# re-expands p where some point's condition exceeds 2^_KAPPA
_KAPPA = 40
# centres of the re-expanded float stage on each side of 0 that holds points: with
# 4, one jp2 (18, 18) polynomial kept 5 base-rung evaluations per root, with 5 at most 3.8
_CENTRES = 5


def _doubles_of(ints, den, s, t):
    """The coefficients ints[k] 2^(k s - t) / den in y of sum ints[k] x^k / (den 2^t),
    x = 2^s y, as doubles, each rounded once."""
    return [(u << max(k * s - t, 0)) / (den << max(t - k * s, 0)) for k, u in enumerate(ints)]


def _float_form(c, fc):
    """The sweep form about c of the polynomial with float coefficients fc from degree 0 up."""
    lcs = [(k, math.log2(abs(f))) for k, f in enumerate(fc) if f]
    return c, fc[::-1], [k * f for k, f in enumerate(fc)][:0:-1], lcs


def _conditioned(fc, ys):
    """Whether every point y has condition sum |f_k| |y|^k <= 2^_KAPPA |y q'(y)| in
    q = sum f_k y^k, both sides by Horner in doubles (one that overflows fails)."""
    terms = list(zip([abs(f) for f in fc], [k * f for k, f in enumerate(fc)]))[::-1]
    limit = 2.0**_KAPPA
    for y in ys:
        a, bound, yq = abs(y), 0.0, 0.0
        for f, g in terms:
            bound = bound * a + f
            yq = yq * y + g
        if not bound <= limit * abs(yq):
            return False
    return True


def _centres(ys):
    """0, and _CENTRES short dyadics spread evenly over the hull of the points on
    each side of 0 that holds any, ascending."""
    cs = {0.0}
    for side in (-1.0, 1.0):
        mags = [side * y for y in ys if side * y > 0]
        if mags:
            lo, hi = min(mags), max(mags)
            for i in range(_CENTRES):
                m, e = math.frexp(lo + (hi - lo) * (i + 0.5) / _CENTRES)
                cs.add(side * math.ldexp(round(m * 16), e - 4))  # 4 significant bits
    return sorted(cs)


def _expansion(nums, den, c, s):
    """The doubles of p(2^s (c + w)) in w, scaled by a power of two to a largest
    coefficient near 1, from the exact Taylor shift of p to 2^s c."""
    a = Fraction(c) * Fraction(2) ** s
    v = a.denominator
    ts, d = _taylor_shift(nums, -a.numerator, v), den * v ** (len(nums) - 1)
    t = max(u.bit_length() + k * s for k, u in enumerate(ts) if u) - d.bit_length()
    return _doubles_of(ts, d, s, t)


def find_roots(p: Polynomial, precision_bits: int | None = None):
    """The zero counting measure of p: its roots as mpmath complex numbers,
    deterministically, in an EmpiricalDistribution whose `separators` are the
    exact real-root certificate the solve proved, or None.

    Iterates until every root satisfies the Adams residual criterion at the
    working precision (precision_bits + 32 guard bits), climbing a precision
    ladder whose base rung has min(conditioning estimate + 96, working
    precision) bits.  When Descartes' rule of signs allows every root to be
    real, a real path runs first: real seeds, moved by sweeps on doubles
    where they fit, then sweeps with the real kernels and the exact
    certificate of real_root_certificate on p's roots, a simple zero root
    with the rest, kept as `separators`; its roots have imaginary part
    exactly 0.  Where the doubles ran, the real climb takes the top rung
    alone: its cubic steps pass the base rung's precision for less than the
    base rung's acceptance pass costs.  Near a root doubles keep about
    53 - cond bits (cond the conditioning estimate); where one cubic step
    from them, 3 (53 - cond) bits, would not reach the base rung, the
    doubles' sweeps also read each point's condition and go on about Taylor
    re-expansions of p where the monomial form leaves it above 2^40 (see
    _float_stage).  If the gate, the sweeps or the certificate fails, the
    complex path runs from complex seeds up the whole ladder.  Raises
    NonConvergence with partial diagnostics if the last rung of the complex
    path fails to converge, InvalidParameters for precision_bits < 1.
    """
    if precision_bits is not None and precision_bits < 1:
        raise InvalidParameters(f"precision_bits must be >= 1, got {precision_bits}")
    deg = p.degree
    if deg < 1:
        raise ZeroDegree("constant polynomial has no roots to find")
    nums, den = p._mono_ints()
    # factor out x^m exactly: m zero roots, then the cofactor
    m = next(i for i, c in enumerate(nums) if c)
    # the certificate is p's: a simple zero root is isolated with the rest; with two, the gate only picks the path
    gate, zero = (nums[: deg + 1], [(0, 0, 0)]) if m == 1 else (nums[m : deg + 1], [])
    nums = nums[m : deg + 1]
    deg -= m
    if deg == 0:
        return _measure(m, [], _isolate(gate, zero) if m == 1 else None)
    # each coefficient as a reduced pair (u, v): bit lengths and logarithms read the value
    mono = [(c // g, den // g) for c, g in zip(nums, [math.gcd(c, den) for c in nums])]
    prec = default_precision(deg) if precision_bits is None else precision_bits
    target = prec + 32
    b = [abs(u).bit_length() - v.bit_length() if u else None for u, v in mono]
    cond = _conditioning_bits(b, deg)
    base = min(cond + 96, target)
    ladder = [target] if base * 4 >= target * 3 else [base, target]
    dmono = [(k * u, v) for k, (u, v) in enumerate(mono)][1:]
    lcs = [(k, math.log2(abs(u)) - math.log2(v)) for k, (u, v) in enumerate(mono) if u]
    # Descartes: at most neg negative and pos positive roots, so all real needs pos + neg = deg
    neg = _sign_changes(_alternate(nums))
    ok, seps = False, None
    if _sign_changes(nums) + neg == deg:
        seeds = _real_points(lcs, deg, neg)
        # doubles near a root keep about 53 - cond bits: where one cubic step from there passes the
        # base rung, the stage trusts them without reading the points' conditions
        moved = _float_stage(nums, den, b, lcs, seeds, 3 * (53 - cond) >= base)
        pts, ok = _climb(ladder if moved is None else ladder[-1:], mono, dmono, lcs, moved or seeds, True)
        seps = _isolate(gate, zero + pts) if ok else None
        ok = seps is not None
    if not ok:
        pts, ok = _climb(ladder, mono, dmono, lcs, _initial_points(lcs), False)
    with mp.workprec(target):
        roots = [_to_mpc(z) for z in pts]
        if not ok:
            coeffs = [_mantissa(*c, target + 16) for c in reversed(mono)]
            res = [abs(_to_mpc(_horner(coeffs, z, target + 16))) for z in pts]
            raise NonConvergence("Aberth iteration did not converge", roots=roots, residuals=res)
    return _measure(m, roots, seps if m < 2 else None)


def _measure(m, roots, seps):
    """The measure of m zero roots and the cofactor's roots, kept with p's certificate seps, or None."""
    dist = EmpiricalDistribution([mp.mpc(0)] * m + roots)
    dist.separators = seps
    return dist


def _conditioning_bits(b, deg):
    """Spread of coefficient magnitudes at the geometric root scale, from the
    bit lengths b of the coefficients (None for zero; c_0 and c_deg are nonzero).

    Evaluating p near its roots cancels roughly this many bits, so the base
    rung of the precision ladder must see past it.
    """
    log2_r = (b[0] - b[deg]) / deg  # |c_0 / c_n|^(1/deg)
    vals = [bk + k * log2_r for k, bk in enumerate(b) if bk is not None]
    return int(max(vals) - min(vals))


# -- the real-root certificate ---------------------------------------------------
#
# Integer coefficients a_0..a_n, n distinct dyadic approximations x_i sorted,
# and n + 1 dyadic separators s_0 < x_0 < s_1 < ... < x_{n-1} < s_n: if the
# signs of p(s_0), ..., p(s_n) alternate strictly, each (s_i, s_{i+1}) holds a
# root, so p has n simple real roots, the i-th in the interval around x_i.


def _coarsest(lo, hi):
    """The integer in [lo, hi] divisible by the largest power of two."""
    if lo <= 0 <= hi:
        return 0
    if hi < 0:
        return -_coarsest(-hi, -lo)
    s = ((lo - 1) ^ hi).bit_length() - 1
    return hi >> s << s


def _sign_at(nums, u, k):
    """Sign of sum_j nums[j] (u 2^k)^j, exactly."""
    n = len(nums) - 1
    acc = nums[n]
    if k >= 0:
        x = u << k
        for c in reversed(nums[:n]):
            acc = acc * x + c
    else:  # 2^(-k n) p(u 2^k) = sum_j nums[j] u^j 2^(-k (n - j))
        for j in range(n - 1, -1, -1):
            acc = acc * u + (nums[j] << -k * (n - j))
    return (acc > 0) - (acc < 0)


def _isolate(nums, vals):
    """Separators for the real triples (m, 0, e) vals as Fractions, or None.

    nums are integer coefficients from a_0 up.  Each separator is the
    shortest dyadic in the middle half between two neighbouring values, or
    beyond an end by a quarter to three quarters of the nearest gap.
    """
    n = len(vals)
    E = min((e for m, _, e in vals if m), default=0) - 3  # makes every gap a multiple of 8
    xs = sorted(m << (e - E) if m else 0 for m, _, e in vals)
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    if any(g <= 0 for g in gaps):
        return None
    first = gaps[0] if gaps else max(abs(xs[0]), 8)
    last = gaps[-1] if gaps else first
    windows = [(xs[0] - 3 * first // 4, xs[0] - first // 4)]
    windows += [(a + g // 4, b - g // 4) for a, b, g in zip(xs, xs[1:], gaps)]
    windows.append((xs[-1] + last // 4, xs[-1] + 3 * last // 4))
    seps, prev = [], 0
    for lo, hi in windows:
        s = _coarsest(lo, hi)
        tz = (s & -s).bit_length() - 1 if s else 0
        u, k = s >> tz, E + tz
        sign = _sign_at(nums, u, k)
        if not sign or sign == prev:
            return None
        prev = sign
        seps.append(Fraction(u << k) if k >= 0 else Fraction(u, 1 << -k))
    return seps


def real_root_certificate(p: Polynomial, roots):
    """Isolating separators s_0 < ... < s_n for exactly real roots of p, or None.

    roots are approximations, each real read by the input rule (`_as_coeff`):
    a dyadic value (as find_roots returns them) to its last bit, any other
    rational rounded once at the working precision.  The separators are dyadic
    Fractions, one between each pair of sorted neighbours and one beyond
    each end, at which p, evaluated exactly, alternates strictly in sign: a
    proof that p has n = deg p simple real roots, the i-th sorted one alone
    in (s_i, s_{i+1}) with roots[i].  None when the roots are not n finite
    values with imaginary part 0, or the signs do not alternate (multiple
    roots, complex roots, or approximations too coarse to separate).
    """
    deg = p.degree
    if deg < 1 or len(roots) != deg:
        return None
    vals = [_exact_real(z) for z in roots]
    if None in vals:
        return None
    return _isolate(p._mono_ints()[0][: deg + 1], vals)


def _exact_real(z):
    """The real z as the exact triple (m, 0, e) with z = m 2^e, None if z is not finite or has an imaginary
    part: read by `_as_coeff`, a dyadic value whole, any other rational rounded once at the working precision."""
    if isinstance(z, (mp.mpc, complex, np.complexfloating)):
        if z.imag:
            return None
        z = z.real
    try:
        q = _as_coeff(z)
    except ValueError:  # not finite
        return None
    if q.denominator & (q.denominator - 1):
        q = _as_coeff(mp.fdiv(q.numerator, q.denominator))
    return q.numerator, 0, 1 - q.denominator.bit_length()


def real_parts_sorted(roots, tau=1e-20):
    """Sorted real parts; raises NonRealRoots if any root is genuinely complex."""
    for z in roots:  # a real-path root has imaginary part exactly 0: no abs(z)
        if z.imag and abs(z.imag) > tau * (1 + abs(z)):
            raise NonRealRoots(f"root {z} has non-negligible imaginary part")
    return sorted(float(z.real) for z in roots)


class EmpiricalDistribution(tuple):
    """Zero counting measure: unit mass 1/n at every root (with multiplicity), a
    tuple of the roots.  `separators` are the dyadic Fractions of the real-root
    certificate that find_roots proved for them (see real_root_certificate), or
    None where it proved none and for a measure built from roots directly."""

    separators = None

    def moments(self, kmax: int):
        """m_k = (1/n) sum root^k for k = 1..kmax (complex floats)."""
        with mp.workprec(96):
            return [complex(mp.fsum(z**k for z in self) / len(self)) for k in range(1, kmax + 1)]

    def real_sorted(self):
        return real_parts_sorted(self, 1e-12)

    def histogram(self, bins: int, range_=None):
        """Uniform-bin density histogram rows (bin_lo, bin_hi, count, density);
        without range_ the bins span the real parts, which must be finite doubles."""
        xs = self.real_sorted()
        if range_ is None:
            range_ = min(xs), max(xs)
            bad = [x for x in range_ if not math.isfinite(x)]
            if bad:
                raise InvalidParameters(f"histogram needs finite real parts, but a root's is {bad[0]} as a double")
        counts, edges = np.histogram(xs, bins=bins, range=range_)
        width = edges[1] - edges[0]
        return [
            (float(edges[i]), float(edges[i + 1]), int(counts[i]), float(counts[i] / (len(self) * width)))
            for i in range(bins)
        ]

    def ks_distance(self, cdf) -> float:
        """Kolmogorov-Smirnov sup-distance to a continuous model CDF (real spectra only).

        The model is called once, on the float array of the distinct sorted
        roots, and returns an array of its values there (or one value for all):
        with i roots below a root x and j at or below it, the empirical CDF steps
        at x from i/n to j/n.
        """
        xs = np.array(self.real_sorted())
        n = len(xs)
        if not n:
            return 0.0
        i = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
        j = np.r_[i[1:], n]
        at = np.asarray(cdf(xs[i]), dtype=float)
        return float(np.max(np.maximum(abs(j / n - at), abs(i / n - at))))


# -- interlacing verdicts -------------------------------------------------------


class InterlacingVerdict(NamedTuple):
    """Outcome of an interlacing comparison between two sorted real spectra."""

    relation: str  # "strict", "weak", or "none"
    case: str  # "equal-degree" or "degree-drop"
    margin: float

    def __bool__(self):
        return self.relation != "none"


def interlaces(p_roots, q_roots, tau=0.0) -> InterlacingVerdict:
    """Check p <= q in the interlacing order (q's roots between p's).

    Equal length m = n: l1(p) <= l1(q) <= l2(p) <= ... <= ln(p) <= ln(q);
    one shorter: l1(p) <= l1(q) <= l2(p) <= ... <= l_{n-1}(q) <= ln(p).
    tau is an absolute slack for float inputs; the margin reported is the
    worst signed gap (negative = violated).
    """
    p_roots = sorted(float(x) for x in p_roots)
    q_roots = sorted(float(x) for x in q_roots)
    n, m = len(p_roots), len(q_roots)
    if abs(n - m) > 1:
        raise DegreeGapTooLarge(f"cannot interlace lengths {n} and {m}")
    if m == n + 1:  # q has more roots; p cannot be interlaced by q this way
        return InterlacingVerdict("none", "degree-drop", float("-inf"))
    # the chain is the consecutive gaps of p_1, q_1, p_2, q_2, ... (, p_n)
    seq = [x for pair in zip(p_roots, q_roots) for x in pair] + p_roots[m:]
    chain = [b - a for a, b in zip(seq, seq[1:])]
    case = "equal-degree" if m == n else "degree-drop"
    margin = min(chain) if chain else 0.0
    if margin > 0:
        return InterlacingVerdict("strict", case, margin)
    if margin >= -tau:
        return InterlacingVerdict("weak", case, margin)
    return InterlacingVerdict("none", case, margin)
