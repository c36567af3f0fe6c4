"""Software floating point on Python integers, and the Aberth-Ehrlich sweeps
that `roots.find_roots` runs on it and, as a first stage, on hardware floats;
there p may be read about several centres, each point in the Taylor
expansion about its nearest one.

Every value is a Gaussian-integer mantissa with its own binary exponent,
(re, im, exp) meaning (re + i im) 2^exp; on the real path im = 0 and the
real kernels read only re and exp.  On both paths values are cut back to
P = wp + 16 bits after each multiply or divide; no value shares a scale
with another, so a polynomial whose coefficients span thousands of bits
costs no more per step than a tame one.  Convergence per root uses the
Adams criterion |p(z)| <= eps * sum |c_k| |z|^k, which is the tightest
residual a backward-stable evaluation can certify; both sides are compared
as base-2 logarithms.  The largest term eps |c_k| |z|^k is read off the
Newton polygon (the upper hull of the pairs (k, log2 |c_k|), built once per
sweep call) by bisecting its edge slopes with log2 |z|, in O(log n).  A
residual below that term is accepted and one more than log2 n above it is
rejected; the O(n) sum is formed only in the band between, so every
decision is the full test's.

On the real path the Aberth sum S = sum 1 / (x - w) runs on doubles, over
a double copy of every point, and enters the update x - p / (p' - p S) as
one value; the exact Gaussian-integer sum runs only where the doubles
cannot hold the points or resolve a difference.  p and p' stay on big
integers and the Adams test decides at the working precision, so an error
in S changes only the path the points take.
"""

import math
from bisect import bisect_left

import mpmath as mp
from mpmath.libmp import from_man_exp


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


def _mantissa(num, den, P):
    """num / den (den > 0) as (m, e) with num / den ~ m 2^e, |m| in [2^(P-1), 2^P), m the
    floor of num / den 2^-e: a function of the value alone; zero as (0, _FAR)."""
    if not num:
        return 0, _FAR
    e = num.bit_length() - den.bit_length() - P
    m = (num << -e) // den if e <= 0 else num // (den << e)
    if m.bit_length() > P:
        m, e = m >> 1, e + 1
    return m, e


# exponent of a zero coefficient: every other value outranks it, and a right
# shift by the distance gives 0 at once
_FAR = -(1 << 60)


# -- real floating point on the triples (m, 0, e) ---------------------------------


def _rnorm(m, e, P):
    s = m.bit_length() - P
    if s >= 0:
        return m >> s, 0, e + s
    return m << -s, 0, e + s


def _radd(a, b, P):
    if not b[0]:
        return a
    if not a[0]:
        return b
    if a[2] < b[2]:
        a, b = b, a
    d = a[2] - b[2]
    if d > P + 2:
        return a
    return _rnorm((a[0] << d) + b[0], b[2], P)


def _rlog2_abs(a):
    m, _, e = a
    b = m.bit_length()
    if not b:
        return -math.inf
    s = b - 60
    if s > 0:
        m, e = m >> s, e + s
    return math.log2(abs(m)) + e


def _to_mpc(a):
    """A triple as an mpc at the current mpmath precision, rounded once, as mp.mpc(mp.mpf(...)) would."""
    prec, rnd = mp.mp._prec_rounding
    return mp.mp.make_mpc((from_man_exp(a[0], a[2], prec, rnd), from_man_exp(a[1], a[2], prec, rnd)))


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


def _hull(lcs):
    """The Newton polygon of the pairs (k, log2 |c_k|): the vertices of their
    upper convex hull, left to right, and the negated slopes of its edges,
    ascending (the log2 radii of the root annuli)."""
    verts = []
    for k, lc in lcs:
        while len(verts) >= 2:
            (i, a), (j, b) = verts[-2:]
            # keep the hull upper-convex: slope(i,j) > slope(j,k)
            if (b - a) * (k - j) > (lc - b) * (j - i):
                break
            verts.pop()
        verts.append((k, lc))
    return verts, [(a - b) / (j - i) for (i, a), (j, b) in zip(verts, verts[1:])]


def _adams_holds(log_pv, log_eps, lcs, lz, hull):
    """log2 |p(z)| <= log_eps + log2 sum_k |c_k| |z|^k, given log2 |z|, the
    pairs (k, log2 |c_k|) over the nonzero c_k (c_0 among them) and their _hull.

    The largest term sits at the hull vertex whose edges' negated slopes
    bracket log2 |z|.  That term, one of the terms, settles every point
    below it or more than log2(len(lcs)) above it; only the band between
    forms the sum."""
    if lz == -math.inf:
        return log_pv <= log_eps + lcs[0][1]
    verts, radii = hull
    k, lc = verts[bisect_left(radii, lz)]
    top = lc + k * lz
    if log_pv <= log_eps + top:  # below one term; the sum can only be larger
        return True
    if log_pv > log_eps + top + math.log2(len(lcs)) + 1e-6:  # the margin covers rounding in the hull
        return False
    return _adams_sum(log_pv, log_eps, lcs, lz)


def _adams_sum(log_pv, log_eps, lcs, lz):
    """The Adams test by the full sum, for finite lz."""
    t = [lc + k * lz for k, lc in lcs]
    top = max(t)
    return log_pv <= log_eps + top + math.log2(sum(2.0 ** (x - top) for x in t))


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


def _rhorner(coeffs, x, P):
    """_horner on the real part of x: one multiplication per step."""
    xm, _, xe = x
    (am, ae), *rest = coeffs
    for m, e in rest:
        t = am * xm
        b = t.bit_length()
        if b > P:
            s = b - P
            t >>= s
            te = ae + xe + s
        elif b:
            s = P - b
            t <<= s
            te = ae + xe - s
        else:  # the product vanished exactly
            am, ae = m, e
            continue
        d = te - e
        if d >= 0:
            am, ae = t + (m >> d), te
        else:
            am, ae = m + (t >> -d), e
    return am, 0, ae


def _step(z, pv, dv, s, P):
    """The Aberth update of the triple z from p(z), p'(z) and the Aberth sum s, and whether it moved."""
    if _is_zero(dv):  # a critical point: nudge off it
        return _add(_add(z, (z[0], z[1], z[2] - 10), P), _norm(1, 0, -20, P), P), False
    newton = _div(pv, dv, P)
    denom = _add(_norm(1, 0, 0, P), _neg(_mul(newton, s, P)), P)
    step = newton if _is_zero(denom) else _div(newton, denom, P)
    return _add(z, _neg(step), P), not _is_zero(step)


def _rstep(x, pv, dv, s, P):
    """_step on real parts, as x - p / (p' - p s), one division; s may have fewer than P bits."""
    if not dv[0]:  # a critical point: _step's nudge
        return _step(x, pv, dv, s, P)
    ps = _rnorm(-pv[0] * s[0], pv[2] + s[2], P)
    den = _radd(_rnorm(dv[0], dv[2], P), ps, P)
    dm, _, de = den if den[0] else dv
    k = P + 2 + dm.bit_length() - pv[0].bit_length()  # pv has at most P + 1 bits
    step = _rnorm((pv[0] << k) // dm, pv[2] - de - k, P)
    return _radd(x, (-step[0], 0, step[2]), P), step[0] != 0


# -- the Aberth sum of the real path on doubles --------------------------------------
#
# Each real point x keeps a double copy y = x 2^-sc, sc one scale per sweep
# call, and S = sum 1 / (y - v) 2^-sc is summed on the copies.  A copy lies
# within 2^+-_SPAN of 1, or is NaN; with every difference kept above
# _SEP |y|, no term or sum leaves the normal doubles.  Where a copy is NaN or
# a difference is not resolved, the exact sum runs instead (_aberth_sum).

_SPAN = 960
_SEP = 2.0**-40


def _double(x, sc):
    """The real point x times 2^-sc as a double; NaN unless within 2^+-_SPAN of 1."""
    m, _, e = x
    b = m.bit_length()
    if not b:
        return 0.0
    if not -_SPAN < b + e - sc <= _SPAN:
        return math.nan
    if b > 60:
        m, e = m >> (b - 60), e + b - 60
    return math.ldexp(m, e - sc)


def _doubles(pts):
    """Double copies of the real points pts and their scale 2^sc, sc halfway
    between the largest and smallest nonzero binade."""
    tops = [m.bit_length() + e for m, _, e in pts if m]
    sc = (min(tops) + max(tops)) // 2 if tops else 0
    return [_double(x, sc) for x in pts], sc


def _dsum(ys, i, sc):
    """The Aberth sum at point i from the copies ys, as a real triple; None where a
    copy is NaN, another copy equals y_i, or a difference is below _SEP |y_i|."""
    y = ys[i]
    ts = [1 / (y - v) for v in ys if v != y]
    lim = 1 / (_SEP * abs(y)) if y else math.inf
    if len(ts) + 1 < len(ys) or not (max(ts, default=0) < lim and min(ts, default=0) > -lim):
        return None
    t = sum(ts)
    if not math.isfinite(t):
        return None
    m, d = t.as_integer_ratio()
    return m, 0, 1 - d.bit_length() - sc


# -- hardware floats ---------------------------------------------------------------
#
# The real path's first stage runs on Python floats; P is ignored, and a step
# that would leave the finite doubles is not taken.


def _fhorner(coeffs, x, P):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _fsum(x, pts, P):
    return sum(1 / (x - w) for w in pts if w != x)


def _fstep(x, pv, dv, s, P):
    den = dv - pv * s
    y = x - pv / (den or dv) if dv else x + x / 1024 + 2.0**-20
    return (y, y != x) if math.isfinite(y) else (x, False)


# Horner, log2 |.|, the exact Aberth sum and the update, per path
_COMPLEX = (_horner, _log2_abs, _aberth_sum, _step)
_REAL = (_rhorner, _rlog2_abs, _aberth_sum, _rstep)
_FLOATS = (_fhorner, lambda x: math.log2(abs(x)) if x else -math.inf, _fsum, _fstep)

# real sweeps, on big integers or floats, without a newly converged point before they count as stalled
_PATIENCE = 24


def _aberth_sweeps(forms, pts, wp, max_sweeps, kernels):
    """Gauss-Seidel Aberth-Ehrlich sweeps with the kernels of one path: _COMPLEX
    or _REAL at P = wp + 16 bits on normalized triples, or _FLOATS with wp = 52.

    forms are the expansions (c, coeffs, dcoeffs, lcs) of p about centres c,
    ascending: coeffs and dcoeffs are the coefficients of p(c + w) and p'(c + w)
    in w from the top degree down, as (m, e) pairs or floats, and lcs feeds the
    Adams bound.  A point z is read in the form of its nearest centre, at
    w = z - c; only floats have more than one form, the triples the one about 0.
    pts is updated in place.  Real sweeps give up once _PATIENCE sweeps in a row
    converge no further point, as real points chasing complex roots do.
    """
    P = wp + 16
    n = len(pts)
    # stop at the Horner noise floor: n-step evaluation carries ~n ulps
    log_eps = math.log2(4 * n) - wp
    horner, log2_abs, aberth_sum, step = kernels
    forms = [(c, coeffs, dcoeffs, lcs, _hull(lcs)) for c, coeffs, dcoeffs, lcs in forms]
    cuts = [(a[0] + b[0]) / 2 for a, b in zip(forms, forms[1:])]
    c, coeffs, dcoeffs, lcs, hull = forms[0]
    patience = max_sweeps if kernels is _COMPLEX else _PATIENCE
    ys, sc = _doubles(pts) if kernels is _REAL else (None, 0)
    converged = [False] * n
    left, last = n, 0
    for sweep in range(max_sweeps):
        moved = False
        for i in range(n):
            if converged[i]:
                continue
            z = w = pts[i]
            if cuts:
                c, coeffs, dcoeffs, lcs, hull = forms[bisect_left(cuts, z)]
                w = z - c
            pv = horner(coeffs, w, P)
            if _adams_holds(log2_abs(pv), log_eps, lcs, log2_abs(w), hull):
                converged[i] = True
                left, last = left - 1, sweep
                continue
            dv = horner(dcoeffs, w, P)
            s = _dsum(ys, i, sc) if ys else None
            pts[i], stepped = step(z, pv, dv, aberth_sum(z, pts, P) if s is None else s, P)
            if ys:
                ys[i] = _double(pts[i], sc)
            moved = moved or stepped
        if not left:
            return pts, True
        if not moved or sweep - last >= patience:
            break
    return pts, False
