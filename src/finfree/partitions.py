"""Set-partition combinatorics and finite free cumulants.

Carries the lattice machinery behind the moment/cumulant dictionaries:
full and non-crossing partition enumeration, the Moebius function of the
partition lattice, the Kreweras complement, the finite free cumulants of a
polynomial, and the non-crossing moment-cumulant transforms.

The finite free cumulants come from a generating function and enumerate
nothing.  The enumeration routines are oracles (for `verify`, the tests and
`series.free_mult_via_kreweras`); `series` computes the non-crossing maps by
power series.  Everything is exact; enumeration is guarded at k <= 12
(Bell(12) ~ 4.2e6 is the practical wall for the full lattice in pure Python;
the non-crossing ones, Catalan(12) = 208012, are generated directly).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial

from .errors import FloatBackendRejected, NotComparable, TooLarge, ZeroLeading
from .poly import Polynomial

ENUMERATION_GUARD = 12


def _check_size(k):
    if k > ENUMERATION_GUARD:
        raise TooLarge(f"partition enumeration guarded at k <= {ENUMERATION_GUARD}")
    if k < 1:
        raise ValueError("need k >= 1")


def enumerate_partitions(k):
    """All set partitions of {1..k} as tuples of sorted tuples (Bell(k) many)."""
    _check_size(k)
    return [_canon(p) for p in _partitions_raw(k)]


@lru_cache(maxsize=None)
def _partitions_cached(k):
    return tuple(enumerate_partitions(k))


def _partitions_raw(k):
    if k == 0:
        yield []
        return
    for rest in _partitions_raw(k - 1):
        # insert k into an existing block or as a singleton
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [k]] + rest[i + 1 :]
        yield rest + [[k]]


def _canon(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def is_noncrossing(partition) -> bool:
    """No a < b < c < d with {a, c} and {b, d} in different blocks."""
    blocks = [sorted(b) for b in partition]
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if _blocks_cross(blocks[i], blocks[j]):
                return False
    return True


def _blocks_cross(b, c):
    """True iff the two blocks interleave (pattern B C B C or C B C B)."""
    merged = sorted([(x, 0) for x in b] + [(x, 1) for x in c])
    runs = []
    for _, tag in merged:
        if not runs or runs[-1] != tag:
            runs.append(tag)
    return len(runs) >= 4


def enumerate_nc(k):
    """All non-crossing partitions of {1..k} (Catalan(k) many), generated directly."""
    _check_size(k)
    return [_canon(p) for p in _nc_raw(tuple(range(1, k + 1)))]


def _nc_raw(items):
    """Non-crossing partitions of the sorted tuple `items`, by the block holding items[0].

    Once that block is chosen, the gaps between its elements are partitioned
    independently: a block inside a gap cannot cross it or another gap.
    """
    if not items:
        yield ()
        return
    rest = items[1:]
    for size in range(len(rest) + 1):
        for picked in combinations(range(len(rest)), size):
            cuts = (-1,) + picked + (len(rest),)
            gaps = [_nc_raw(rest[lo + 1 : hi]) for lo, hi in zip(cuts, cuts[1:])]
            block = (items[0],) + tuple(rest[i] for i in picked)
            for parts in product(*gaps):
                yield (block,) + sum(parts, ())


@lru_cache(maxsize=None)
def _nc_cached(k):
    return tuple(enumerate_nc(k))


def refines(sigma, pi) -> bool:
    """True iff every block of sigma is contained in some block of pi."""
    cover = {}
    for idx, block in enumerate(pi):
        for x in block:
            cover[x] = idx
    for block in sigma:
        ids = {cover[x] for x in block}
        if len(ids) != 1:
            return False
    return True


def mobius(sigma, pi):
    """Moebius function of the partition lattice on the interval [sigma, pi].

    sigma must refine pi.  Uses the product formula: for each block V of pi
    containing n_V blocks of sigma, the factor is (-1)^(n_V - 1) (n_V - 1)!.
    """
    sigma, pi = _canon(sigma), _canon(pi)
    if not refines(sigma, pi):
        raise NotComparable("sigma does not refine pi")
    cover = {}
    for idx, block in enumerate(pi):
        for x in block:
            cover[x] = idx
    counts = {}
    for block in sigma:
        counts[cover[block[0]]] = counts.get(cover[block[0]], 0) + 1
    out = 1
    for n_v in counts.values():
        out *= (-1) ** (n_v - 1) * factorial(n_v - 1)
    return out


def mobius_zeta_inverse(sigma, pi):
    """Moebius value by direct recursive inversion of zeta (test oracle)."""
    sigma, pi = _canon(sigma), _canon(pi)
    if not refines(sigma, pi):
        raise NotComparable("sigma does not refine pi")
    if sigma == pi:
        return 1
    k = sum(len(b) for b in pi)
    total = 0
    for rho in _partitions_cached(k):
        if rho != pi and refines(sigma, rho) and refines(rho, pi):
            total += mobius_zeta_inverse(sigma, rho)
    return -total


def singletons(k):
    return tuple((x,) for x in range(1, k + 1))


def one_block(k):
    return (tuple(range(1, k + 1)),)


def kreweras(pi):
    """Kreweras complement of a non-crossing partition of {1..k}.

    Points 1..k are interleaved with 1'..k' on a circle (j' sits between j
    and j+1); Kr(pi) is the largest non-crossing partition of the primed
    points whose union with pi is non-crossing on all 2k points.  Two primed
    points j' and m' (j < m) end up in the same block exactly when no block
    of pi has some elements inside {j+1, ..., m} and some outside.
    Always |pi| + |Kr(pi)| = k + 1.
    """
    pi = _canon(pi)
    k = sum(len(b) for b in pi)
    parent = list(range(k + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j in range(1, k + 1):
        for m in range(j + 1, k + 1):
            if _primed_joinable(pi, j, m):
                parent[find(j)] = find(m)
    groups = {}
    for j in range(1, k + 1):
        groups.setdefault(find(j), []).append(j)
    return _canon(list(groups.values()))


def _primed_joinable(pi, j, m):
    """No block of pi separates j' from m': none meets {j+1..m} partially."""
    for block in pi:
        inside = sum(1 for x in block if j + 1 <= x <= m)
        if 0 < inside < len(block):
            return False
    return True


def partition_product(values, pi):
    """prod over blocks V of values[|V|]; values is 1-indexed by block size."""
    out = Fraction(1)
    for block in pi:
        out *= values[len(block)]
    return out


def finite_free_cumulants(p: Polynomial, upto=None):
    """Finite free cumulants kappa_1..kappa_m of a degree-n polynomial.

    kappa_j = -j n^(j-1) [t^j] log sum_k (-1)^k e_k / n^(k)_falling t^k with
    e_0 = 1 (Marcus, arXiv:2108.07054; Arizmendi-Perales, JCTA 2018), i.e.
    n^(j-1) times the j-th power sum, by Newton's identities, of the
    elementary values e_k / n^(k)_falling.  This solves the Moebius system
    e_j = n^(j)_falling / (n^j j!) sum_{pi in P(j)} n^|pi| mu(0_j, pi) kappa_pi
    without enumerating P(j).  Requires full ambient degree and the exact
    backend.
    """
    if p.e[0] == 0:
        raise ZeroLeading("finite free cumulants need degree exactly n")
    if not p.exact:
        raise FloatBackendRejected("finite free cumulants need exact rational coefficients")
    n = p.n
    m = n if upto is None else min(upto, n)
    sigma, falling = [Fraction(1)], 1
    for k in range(1, m + 1):
        falling *= n - k + 1
        sigma.append(p.e[k] / (p.e[0] * falling))
    return [n ** (j - 1) * s for j, s in enumerate(Polynomial(m, sigma).power_sums(m), start=1)]


def cumulants_to_elementary(kappa, n):
    """Inverse of finite_free_cumulants: rebuild e_1..e_m from kappa (e_0 = 1).

    Newton's identities backwards: from the power sums kappa_j / n^(j-1) to
    the elementary values sigma_j, then e_j = n^(j)_falling sigma_j.
    """
    power = [None] + [Fraction(k) / n ** (j - 1) for j, k in enumerate(kappa, start=1)]
    sigma, e, falling = [Fraction(1)], [Fraction(1)], 1
    for j in range(1, len(kappa) + 1):
        sigma.append(sum((-1) ** (i - 1) * sigma[j - i] * power[i] for i in range(1, j + 1)) / j)
        falling *= n - j + 1
        e.append(falling * sigma[j])
    return e


def moments_from_cumulants_nc(r, kmax=None):
    """m_k = sum over non-crossing partitions of prod r_{|V|}, k = 1..kmax."""
    kmax = len(r) if kmax is None else kmax
    values = [None] + list(r)
    out = []
    for k in range(1, kmax + 1):
        out.append(sum((partition_product(values, pi) for pi in _nc_cached(k)), start=Fraction(0)))
    return out


def cumulants_from_moments_nc(m, kmax=None):
    """Inverse of the non-crossing moment formula, by triangular solve."""
    kmax = len(m) if kmax is None else kmax
    r = [None]
    for k in range(1, kmax + 1):
        acc = Fraction(0)
        for pi in _nc_cached(k):
            if len(pi) == 1:
                continue
            acc += partition_product(r, pi)
        r.append(m[k - 1] - acc)
    return r[1:]


def multiplicative_cumulant_product(r_alpha, r_beta, jmax=None):
    """r_j(theta) = sum_{pi in NC(j)} r_pi(alpha) r_{Kr(pi)}(beta).

    The free-cumulant rule for a free multiplicative product; symmetric in
    its arguments through the Kreweras bijection.
    """
    jmax = min(len(r_alpha), len(r_beta)) if jmax is None else jmax
    va = [None] + list(r_alpha)
    vb = [None] + list(r_beta)
    out = []
    for j in range(1, jmax + 1):
        acc = Fraction(0)
        for pi in _nc_cached(j):
            acc += partition_product(va, pi) * partition_product(vb, kreweras(pi))
        out.append(acc)
    return out
