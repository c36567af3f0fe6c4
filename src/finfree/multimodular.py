"""Exact products of integer vectors by multi-modular convolution.

`poly._mul_ints`, the one exact product of the package, calls `product` past
its crossover and imports this module (and numpy) at the first such call.
The method (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5):
both vectors are reduced modulo P primes below 2^20 whose product M exceeds
2 m A B (m the most terms that meet in one output, A and B the largest
magnitudes), convolved per prime, and each coefficient is lifted back by the
CRT, centred in (-M/2, M/2].  numpy float64 carries the residues, and every
value it holds is an integer below 2^53, so nothing rounds:

- a residue is a sum of <= 128 products limb * (2^(24 j) mod p) < 2^24 2^20;
- a convolution sum has m <= 2^13 products of residues in (-p, p): < 2^53 - p;
- a CRT sum has P < 2^17 products v_i * (16-bit limb of M / p_i) < 2^20 2^16.

The crossover in `_mul_ints`: with K+1 outputs and the operands' largest
entries of ab and bb bits, this method runs when (K+1)^2 (ab bb / (ab + bb)
+ 48) >= 1.5e6.  Per output pair the schoolbook sum costs a Python step plus
a multiply of ab by bb bits, and this method (ab + bb)/20 primes times one
float multiply-add, plus ~0.3 ms fixed.  The rule is fitted on an in-process
table of both at K = 24..240 and 1..2048 bits, where it never picks the
slower method (the ROADMAP, aim 1).  So K = 36 stays schoolbook up to ~2000
bits a side, and so do K = 59 at 276 x 276 bits and K = 80 with a side of 1
bit; K = 120 at 246 x 772 bits comes here.  The rule is not read below K = 32
(it would need ~2800 bits a side there).  K < 2^13 keeps the convolution
sums below 2^53, and ab + bb <= 2^15 keeps the CRT table below ~1650 x 2060
16-bit limbs (6.8 MB; four times that as floats while a product runs).
"""

from functools import lru_cache
from math import log2, prod

import numpy as np

_LIMBS_PER_SUM = 128  # 24-bit limbs of an operand per residue sum
_BLOCK = 16  # primes, then outputs, per pass: the working arrays are blocks of rows


def _mod(x, p, pinv):
    """x mod p in place, for float arrays of integers with |x| + p <= 2^53.  The quotient
    is rint(x * (1/p)), which is within 2^-18 of x / p and so is floor(x / p) or one more;
    x - p * quotient then lies in (-p, p), and adding p to the negative ones (the
    correction) puts it in [0, p)."""
    q = x * pinv
    np.rint(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    return x


@lru_cache(maxsize=1)
def _primes(window):
    """The primes in [2^20 - window, 2^20), descending: a sieve by the primes below 2^10."""
    base = (1 << 20) - window
    keep, small = bytearray([1]) * window, bytearray([1]) * 1024
    for q in range(2, 1024):
        if small[q]:
            small[q * q :: q] = bytes(len(range(q * q, 1024, q)))
            start = -base % q
            keep[start::q] = bytes(len(range(start, window, q)))
    return [base + i for i in range(window - 1, -1, -1) if keep[i]]


def _prime_count(bits):
    """The fewest of the primes below 2^20 (taken from the top) whose product exceeds
    2^bits: each of the first P lies in a window of 20 P + 512 below 2^20, which holds
    more than P primes."""
    P = bits // 20 + 1
    while P * log2((1 << 20) - 20 * P - 512) <= bits:
        P += 1
    return P


@lru_cache(maxsize=4)
def _moduli(P):
    """The P primes as a column, with 1/p, the CRT weights y_i = (M/p_i)^(-1) mod p_i, M,
    and the 16-bit limbs of every M/p_i (one row each)."""
    window = 20 * P + 512
    ps = _primes(1 << (window - 1).bit_length())[:P]
    assert len(ps) == P and ps[-1] >= (1 << 20) - window
    M = prod(ps)
    cofactors = [M // p for p in ps]
    y = [pow(c % p, -1, p) for c, p in zip(cofactors, ps)]
    width = (M.bit_length() + 15) // 16 * 2
    limbs = np.frombuffer(b"".join(c.to_bytes(width, "little") for c in cofactors), "<u2").reshape(P, -1)
    p = np.array(ps, dtype=float)[:, None]
    return p, 1 / p, np.array(y, dtype=float)[:, None], M, limbs


def _powers(L, p, pinv):
    """T[i, j] = 2^(24 j) mod p_i for j < L, by doubling the filled columns."""
    T = np.empty((len(p), L))
    T[:, 0] = 1
    step, h = _mod(np.full(p.shape, float(1 << 24)), p, pinv), 1  # step = 2^(24 h) mod p
    while h < L:
        m = min(h, L - h)
        T[:, h : h + m] = _mod(T[:, :m] * step, p, pinv)
        step, h = _mod(step * step, p, pinv), h + m
    return T


def product(a, b, K):
    """a * b truncated at degree K, as `poly._mul_ints` returns it: K+1 integers, entries
    past a list's end read as zero."""
    a, b = a[: K + 1], b[: K + 1]
    ends = [max((i + 1 for i, x in enumerate(v) if x), default=0) for v in (a, b)]
    a, b = a[: ends[0]], b[: ends[1]]  # trailing zeros are not reduced
    la, lb = len(a), len(b)
    if not (la and lb):
        return [0] * (K + 1)
    m, n = min(la, lb), min(K + 1, la + lb - 1)
    assert m <= 1 << 13
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + m.bit_length() + 1
    P = _prime_count(bits)  # M > 2^bits > 2 m A B
    p_all, pinv_all, y_all, M, crt = _moduli(P)
    assert M.bit_length() > bits and P < 1 << 17

    # 24-bit limbs of |x| for both operands, one row each
    v = a + b
    L = (max(map(abs, v)).bit_length() + 23) // 24
    raw = np.frombuffer(b"".join(abs(x).to_bytes(3 * L, "little") for x in v), np.uint8).reshape(len(v), L, 3)
    limbs = raw[:, :, 2].astype(float)  # composed in place: no temporary of its size
    limbs *= 256
    limbs += raw[:, :, 1]
    limbs *= 256
    limbs += raw[:, :, 0]
    del raw
    neg = [i for i, x in enumerate(v) if x < 0]

    # c[i, k] = v_i = (a * b)_k (M/p_i)^(-1) mod p_i, a block of primes at a time
    c, powers = np.empty((P, n)), _powers(L, p_all, pinv_all)
    for s in range(0, P, _BLOCK):
        p, pinv, T = p_all[s : s + _BLOCK], pinv_all[s : s + _BLOCK], powers[s : s + _BLOCK]
        r = _mod(T[:, :_LIMBS_PER_SUM] @ limbs[:, :_LIMBS_PER_SUM].T, p, pinv)
        for j in range(_LIMBS_PER_SUM, L, _LIMBS_PER_SUM):
            r += _mod(T[:, j : j + _LIMBS_PER_SUM] @ limbs[:, j : j + _LIMBS_PER_SUM].T, p, pinv)
        if L > _LIMBS_PER_SUM:
            _mod(r, p, pinv)
        r[:, neg] *= -1
        cb = c[s : s + _BLOCK]
        for i, ri in enumerate(r):
            cb[i] = np.convolve(ri[:la], ri[la:])[:n]
        _mod(cb, p, pinv)
        cb *= y_all[s : s + _BLOCK]
        _mod(cb, p, pinv)
    del limbs

    # x_k = sum_i v_i (M/p_i) < P M, a block of outputs at a time: X[k, j] = sum_i v_i
    # (limb j of M/p_i) is its 16-bit column j, below 2^53.  The 4 planes of 16 bits of
    # the columns are 4 integers with a slot of 16 (L_M + 3) bits per output; their
    # shifted sum holds each x_k in its slot.
    crt = crt.astype(float)
    width, half, out = 2 * (crt.shape[1] + 3), M >> 1, []
    for k0 in range(0, n, _BLOCK):
        X = np.zeros((min(_BLOCK, n - k0), crt.shape[1] + 3), "<i8")
        X[:, :-3] = c[:, k0 : k0 + _BLOCK].T @ crt
        planes = X.view("<u2").reshape(len(X), -1, 4)
        total = sum(int.from_bytes(planes[:, :, t].tobytes(), "little") << (16 * t) for t in range(4))
        data = total.to_bytes(len(X) * width, "little")
        for j in range(0, len(data), width):
            x = int.from_bytes(data[j : j + width], "little") % M
            out.append(x - M if x > half else x)
    return out + [0] * (K + 1 - n)
