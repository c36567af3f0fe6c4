"""Multiprecision root extraction and empirical root distributions.

The finder is Aberth-Ehrlich simultaneous iteration in software floating
point on Python integers.  Every complex value is a Gaussian-integer
mantissa with its own binary exponent, (re, im, exp) meaning
(re + i im) 2^exp, cut back to P = wp + 16 bits after each multiply or
divide; no value shares a scale with another, so a polynomial whose
coefficients span thousands of bits costs no more per step than a tame
one.  The coefficients are read exactly (floats and mpmath reals are the
dyadic rationals they denote) and converted once per rung.  Starting points
spread over circles whose radii come from the Newton polygon of the
coefficient magnitudes (so clustered scales are seeded at their own
magnitude), and a precision ladder polishes from a cheap pass up to the
requested precision.  Convergence per root uses the Adams criterion
|p(z)| <= eps * sum |c_k| |z|^k, which is the tightest residual a
backward-stable evaluation can certify; both sides are compared as base-2
logarithms.  Roots come back as mpmath complex numbers at the working
precision.

Default precision: 256 bits for degree <= 100, plus 128 bits per additional
100 degrees; the FINFREE_PREC_BITS environment variable overrides it.
"""

import math
import os
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import (
    DegreeGapTooLarge,
    NonConvergence,
    NonRealRoots,
    ZeroDegree,
)
from .poly import Polynomial


def default_precision(n: int) -> int:
    """Precision schedule in bits, overridable via FINFREE_PREC_BITS."""
    env = os.environ.get("FINFREE_PREC_BITS")
    if env:
        return int(env)
    if n <= 100:
        return 256
    return 256 + 128 * math.ceil((n - 100) / 100)


def _initial_points(coeffs_abs, n):
    """Starting points on Newton-polygon circles (Bini-style).

    coeffs_abs[k] = |monomial coefficient of x^k|; for each edge of the upper
    convex hull of (k, log |c_k|) the corresponding annulus of root magnitudes
    is seeded with equispaced angles and a rotating offset.
    """
    logs = [mp.log(c) if c > 0 else mp.mpf("-inf") for c in coeffs_abs]
    hull = []  # indices on the upper hull, left to right
    for k in range(n + 1):
        if logs[k] == mp.mpf("-inf"):
            continue
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            # keep hull upper-convex: slope(i,j) >= slope(j,k)
            if (logs[j] - logs[i]) * (k - j) <= (logs[k] - logs[j]) * (j - i):
                hull.pop()
            else:
                break
        hull.append(k)
    points = []
    golden = 0.7639320225
    for (i, j) in zip(hull, hull[1:]):
        radius = mp.exp((logs[i] - logs[j]) / (j - i))
        count = j - i
        base = len(points)
        for t in range(count):
            angle = 2 * mp.pi * (t + 0.5 + golden * base) / count + 0.4
            points.append(radius * mp.exp(1j * angle))
    return points


# -- Gaussian-integer floating point ---------------------------------------------
#
# A complex value is a triple (re, im, exp) standing for (re + i im) 2^exp.
# Normalized triples have max(|re|, |im|) in [2^(P-1), 2^P); zero is (0, 0, e)
# for any e.  Right shifts floor, so each cut costs at most one unit in the
# last of the P places.


def _norm(r, i, e, P):
    s = max(r.bit_length(), i.bit_length()) - P
    if s >= 0:
        return r >> s, i >> s, e + s
    return r << -s, i << -s, e + s


def _is_zero(a):
    return not (a[0] or a[1])


def _add(a, b, P):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return b
    if a[2] < b[2]:
        a, b = b, a
    d = a[2] - b[2]
    if d > P + 2:  # b lies below the last place of a
        return a
    return _norm((a[0] << d) + b[0], (a[1] << d) + b[1], b[2], P)


def _neg(a):
    return -a[0], -a[1], a[2]


def _mul(a, b, P):
    ar, ai, ae = a
    br, bi, be = b
    return _norm(ar * br - ai * bi, ar * bi + ai * br, ae + be, P)


def _div(a, b, P):
    """a / b = a conj(b) / |b|^2, for b != 0 and a of at most P + 1 bits."""
    ar, ai, ae = a
    br, bi, be = b
    nrm = br * br + bi * bi
    tr = ar * br + ai * bi
    ti = ai * br - ar * bi
    s = P + 2 + nrm.bit_length() - max(tr.bit_length(), ti.bit_length())  # >= bits of b
    return _norm((tr << s) // nrm, (ti << s) // nrm, ae - be - s, P)


def _log2_abs(a):
    """log2 |a| as a float (-inf for zero)."""
    r, i, e = a
    b = max(r.bit_length(), i.bit_length())
    if not b:
        return -math.inf
    s = b - 60
    if s > 0:
        r, i, e = r >> s, i >> s, e + s
    return math.log2(math.hypot(r, i)) + e


def _mantissa(c, P):
    """A Fraction as (m, e) with c ~ m 2^e, |m| in [2^(P-1), 2^P); zero as (0, _FAR)."""
    if not c:
        return 0, _FAR
    num, den = c.numerator, c.denominator
    e = num.bit_length() - den.bit_length() - P
    m = (num << -e) // den if e <= 0 else num // (den << e)
    if m.bit_length() > P:
        m, e = m >> 1, e + 1
    return m, e


# exponent of a zero coefficient: every other value outranks it, and a right
# shift by the distance gives 0 at once
_FAR = -(1 << 60)


def _exact(c):
    """A real coefficient as the rational it denotes; floats and mpf are dyadic."""
    if isinstance(c, mp.mpf):
        sign, man, exp, _ = c._mpf_
        if exp and not man:
            raise ValueError(f"coefficient {c} is not finite")
        return Fraction(-man if sign else man) * Fraction(2) ** exp
    return Fraction(c)


def _from_mpc(z, P):
    (rm, re_), (im, ie) = (_mantissa(_exact(x), P) for x in (z.real, z.imag))
    return _add((rm, 0, re_), (0, im, ie), P)


def _to_mpc(a):
    """An mpc at the current mpmath precision."""
    return mp.mpc(mp.mpf((a[0], a[2])), mp.mpf((a[1], a[2])))


# -- the Aberth-Ehrlich kernel -----------------------------------------------------


def _horner(coeffs, z, P):
    """p(z) as an unnormalized triple; coeffs holds (m, e) with c_k = m 2^e, from c_n down.

    Each product with z takes three multiplications; it is cut to P bits, and
    the coefficient is added at the exponent of the larger of the two.
    """
    zr, zi, ze = z
    zs, zd = zr + zi, zi - zr
    (ar, ae), *rest = coeffs
    ai = 0
    for m, e in rest:
        k1 = zr * (ar + ai)
        tr = k1 - ai * zs
        ti = k1 + ar * zd
        b = tr.bit_length()
        s = ti.bit_length()
        if s > b:
            b = s
        if b > P:
            s = b - P
            tr >>= s
            ti >>= s
            te = ae + ze + s
        elif b:
            s = P - b
            tr <<= s
            ti <<= s
            te = ae + ze - s
        else:  # the product vanished exactly
            ar, ai, ae = m, 0, e
            continue
        d = te - e
        if d >= 0:
            ar, ai, ae = tr + (m >> d), ti, te
        else:
            ar, ai, ae = m + (tr >> -d), ti >> -d, e
    return ar, ai, ae


def _adams_holds(log_pv, log_eps, lcs, lz):
    """log2 |p(z)| <= log_eps + log2 sum_k |c_k| |z|^k, given log2 |z| and the
    pairs (k, log2 |c_k|) over the nonzero c_k (c_0 among them)."""
    if lz == -math.inf:
        return log_pv <= log_eps + lcs[0][1]
    t = [lc + k * lz for k, lc in lcs]
    top = max(t)
    if log_pv > log_eps + top + math.log2(len(t)):  # above even the largest bound
        return False
    return log_pv <= log_eps + top + math.log2(sum(math.exp2(x - top) for x in t))


def _aberth_sum(z, pts, P):
    """sum over the points w != z of 1 / (z - w), normalized.

    The terms are summed exactly at one exponent set P + 4 bits below the
    largest term, so each term is rounded once.
    """
    zr, zi, ze = z
    diffs = []
    low = None
    for wr, wi, we in pts:
        k = ze - we
        if 0 <= k <= 64:
            dr, di, de = (zr << k) - wr, (zi << k) - wi, we
        elif -64 <= k < 0:
            dr, di, de = zr - (wr << -k), zi - (wi << -k), ze
        elif k > 0:  # w is some 2^63 times smaller than z, or more
            dr, di, de = zr - (wr >> k), zi - (wi >> k), ze
        else:
            dr, di, de = (zr >> -k) - wr, (zi >> -k) - wi, we
        b = dr.bit_length()
        s = di.bit_length()
        if s > b:
            b = s
        if not b:  # z itself, or a coincident point
            continue
        if low is None or de + b < low:
            low = de + b
        diffs.append((dr, di, de))
    if low is None:
        return 0, 0, 0
    ea = -low - P - 4
    sr = si = 0
    for dr, di, de in diffs:
        s = -de - ea
        if s >= 0:  # otherwise the term lies below the last place
            nrm = dr * dr + di * di
            sr += (dr << s) // nrm
            si -= (di << s) // nrm
    return _norm(sr, si, ea, P)


def _aberth_sweeps(coeffs, dcoeffs, lcs, pts, wp, max_sweeps):
    """Gauss-Seidel Aberth-Ehrlich sweeps on normalized triples at P = wp + 16 bits.

    coeffs and dcoeffs are the (m, e) pairs of p and p' from the top degree
    down; lcs feeds the Adams bound; pts is updated in place.
    """
    P = wp + 16
    n = len(pts)
    # stop at the Horner noise floor: n-step evaluation carries ~n ulps
    log_eps = math.log2(4 * n) - wp
    one = _norm(1, 0, 0, P)
    nudge = _norm(1, 0, -20, P)
    converged = [False] * n
    for sweep in range(max_sweeps):
        moved = False
        for i in range(n):
            if converged[i]:
                continue
            z = pts[i]
            pv = _horner(coeffs, z, P)
            if _adams_holds(_log2_abs(pv), log_eps, lcs, _log2_abs(z)):
                converged[i] = True
                continue
            dv = _horner(dcoeffs, z, P)
            if _is_zero(dv):
                pts[i] = _add(_add(z, (z[0], z[1], z[2] - 10), P), nudge, P)
                continue
            newton = _div(pv, dv, P)
            denom = _add(one, _neg(_mul(newton, _aberth_sum(z, pts, P), P)), P)
            step = newton if _is_zero(denom) else _div(newton, denom, P)
            pts[i] = _add(z, _neg(step), P)
            moved = moved or not _is_zero(step)
        if all(converged):
            return pts, True
        if not moved:
            break
    return pts, all(converged)


def find_roots(p: Polynomial, precision_bits: int | None = None):
    """All roots of p as mpmath complex numbers, deterministically.

    Iterates until every root satisfies the Adams residual criterion at the
    working precision (precision_bits + 32 guard bits), climbing a precision
    ladder from 64 bits.  Raises NonConvergence with partial diagnostics if
    the last rung fails to converge.  Coefficients must be real: Fractions,
    ints, floats or mpmath reals.
    """
    deg = p.degree
    if deg < 1:
        raise ZeroDegree("constant polynomial has no roots to find")
    mono = [_exact(c) for c in p.to_monomial()[: deg + 1]]
    # factor out x^m exactly: m zero roots, then the cofactor
    m = next(i for i, c in enumerate(mono) if c != 0)
    zero_roots = [mp.mpc(0)] * m
    mono = mono[m:]
    deg -= m
    if deg == 0:
        return zero_roots
    prec = default_precision(deg) if precision_bits is None else precision_bits
    target = prec + 32
    base = min(max(64, _conditioning_bits(mono, deg) + 96), target)
    ladder = [target] if base * 4 >= target * 3 else [base, target]
    dmono = [k * c for k, c in enumerate(mono)][1:]
    lcs = [(k, math.log2(abs(c.numerator)) - math.log2(c.denominator)) for k, c in enumerate(mono) if c]
    pts = None
    for level, wp in enumerate(ladder):
        P = wp + 16
        coeffs = [_mantissa(c, P) for c in reversed(mono)]
        dcoeffs = [_mantissa(c, P) for c in reversed(dmono)]
        if pts is None:
            with mp.workprec(wp):
                seeds = _initial_points([mp.mpf((abs(m), e)) for m, e in reversed(coeffs)], deg)
            pts = [_from_mpc(z, P) for z in seeds]
        else:
            pts = [_norm(*z, P) for z in pts]
        pts, ok = _aberth_sweeps(coeffs, dcoeffs, lcs, pts, wp, 500 if level == 0 else 120)
    with mp.workprec(wp):
        roots = [_to_mpc(z) for z in pts]
        if not ok:
            res = [abs(_to_mpc(_horner(coeffs, z, P))) for z in pts]
            raise NonConvergence("Aberth iteration did not converge", roots=roots, residuals=res)
    return zero_roots + roots


def _conditioning_bits(mono, deg):
    """Spread of coefficient magnitudes at the geometric root scale.

    Evaluating p near its roots cancels roughly this many bits, so the base
    rung of the precision ladder must see past it.
    """
    b = [abs(c.numerator).bit_length() - c.denominator.bit_length() if c else None for c in mono]
    if b[0] is None or b[deg] is None:
        known = [x for x in b if x is not None]
        return int(max(known) - min(known)) if len(known) > 1 else 0
    log2_r = (b[0] - b[deg]) / deg  # |c_0 / c_n|^(1/deg)
    vals = [bk + k * log2_r for k, bk in enumerate(b) if bk is not None]
    return int(max(vals) - min(vals))


def is_real_rooted(p: Polynomial, precision_bits=None, tau=1e-20):
    """True iff every root satisfies |Im z| <= tau * (1 + |z|)."""
    rts = find_roots(p, precision_bits)
    margin = max(abs(z.imag) / (1 + abs(z)) for z in rts)
    return float(margin) <= tau, float(margin)


def real_parts_sorted(roots, tau=1e-20):
    """Sorted real parts; raises NonRealRoots if any root is genuinely complex."""
    for z in roots:
        if abs(z.imag) > tau * (1 + abs(z)):
            raise NonRealRoots(f"root {z} has non-negligible imaginary part")
    return sorted(float(z.real) for z in roots)


class EmpiricalDistribution:
    """Zero counting measure: unit mass 1/n at every root (with multiplicity)."""

    def __init__(self, roots):
        self.roots = list(roots)
        self.n = len(self.roots)
        self._cache = {}

    @classmethod
    def from_polynomial(cls, p: Polynomial, precision_bits=None):
        return cls(find_roots(p, precision_bits))

    def moments(self, kmax: int):
        """m_k = (1/n) sum root^k for k = 1..kmax (complex floats)."""
        out = []
        for k in range(1, kmax + 1):
            if k not in self._cache:
                with mp.workprec(96):
                    self._cache[k] = complex(mp.fsum(z**k for z in self.roots) / self.n)
            out.append(self._cache[k])
        return out

    def real_sorted(self, tau=1e-12):
        return real_parts_sorted(self.roots, tau)

    def histogram(self, bins: int, range_=None):
        """Uniform-bin density histogram rows (bin_lo, bin_hi, count, density)."""
        xs = self.real_sorted()
        lo, hi = range_ if range_ is not None else (min(xs), max(xs))
        counts, edges = np.histogram(xs, bins=bins, range=(lo, hi))
        width = edges[1] - edges[0]
        return [
            (float(edges[i]), float(edges[i + 1]), int(counts[i]), float(counts[i] / (self.n * width)))
            for i in range(bins)
        ]

    def ks_distance(self, cdf) -> float:
        """Kolmogorov-Smirnov sup-distance to a model CDF (real spectra only).

        Handles tied roots and atomic model CDFs: at each distinct root the
        empirical CDF is compared on both sides, the lower side against the
        model's left limit.
        """
        xs = self.real_sorted()
        n = len(xs)
        stat = 0.0
        i = 0
        while i < n:
            j = i
            while j < n and xs[j] == xs[i]:
                j += 1
            x = xs[i]
            below = cdf(x - 1e-9 * (1 + abs(x)))
            at = cdf(x)
            stat = max(stat, abs(j / n - float(at)), abs(i / n - float(below)))
            i = j
        return stat


def empirical(p: Polynomial, precision_bits=None) -> EmpiricalDistribution:
    return EmpiricalDistribution.from_polynomial(p, precision_bits)


# -- interlacing verdicts -------------------------------------------------------


class InterlacingVerdict:
    """Outcome of an interlacing comparison between two sorted real spectra."""

    def __init__(self, relation, case, margin):
        self.relation = relation  # "strict", "weak", or "none"
        self.case = case  # "equal-degree" or "degree-drop"
        self.margin = margin

    def __bool__(self):
        return self.relation in ("strict", "weak")

    def __repr__(self):
        return f"InterlacingVerdict({self.relation}, {self.case}, margin={self.margin:g})"


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
    if m == n:
        chain = []
        for i in range(n):
            chain.append(q_roots[i] - p_roots[i])
            if i + 1 < n:
                chain.append(p_roots[i + 1] - q_roots[i])
        case = "equal-degree"
    elif m == n - 1:
        chain = []
        for i in range(m):
            chain.append(q_roots[i] - p_roots[i])
            chain.append(p_roots[i + 1] - q_roots[i])
        case = "degree-drop"
    else:  # m == n + 1: q has more roots; p cannot be interlaced by q this way
        return InterlacingVerdict("none", "degree-drop", float("-inf"))
    margin = min(chain) if chain else 0.0
    if margin > 0:
        return InterlacingVerdict("strict", case, margin)
    if margin >= -tau:
        return InterlacingVerdict("weak", case, margin)
    return InterlacingVerdict("none", case, margin)
