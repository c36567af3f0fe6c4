"""Set-partition combinatorics and finite free cumulants.

Carries the lattice machinery behind the moment/cumulant dictionaries:
full and non-crossing partition enumeration, the Moebius function of the
partition lattice, the Kreweras complement, the finite free cumulants of a
polynomial, and the non-crossing moment-cumulant transforms.

Each dictionary is one triangular solve that runs either way: the finite
free cumulants are Newton's identities (`poly._newton_solve`), and the
non-crossing maps sum over the block types of NC(k), each times its count
in the enumeration.  The Kreweras complement of pi is the cycles of
P_pi^-1 gamma, and pi is non-crossing iff |pi| + |Kr(pi)| = k + 1
(Nica-Speicher, Lecture 18).  Enumeration gives those sums their block-type
counts; `series` computes the non-crossing maps by power series, and the
per-partition oracles (Moebius by zeta inversion, block products) are in
the tests.  A map returns as many terms as its (shorter) input gives.
Everything is exact; enumeration is guarded at k <= 12 (Bell(12) ~ 4.2e6
is the practical wall for the full lattice in pure Python; Catalan(12) =
208012 NC ones are generated directly).
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod

from .errors import NotComparable, TooLarge, ZeroLeading
from .poly import Polynomial, _as_coeff, _newton_solve

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
    """Genus zero: |pi| + |Kr(pi)| = k + 1 on a k-element ground set (a crossing pi falls short)."""
    return not partition or len(partition) + len(_complement_cycles(partition)) == _size(partition) + 1


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


def _sizes(pi):
    return tuple(sorted(map(len, pi)))


@lru_cache(maxsize=None)
def _nc_types(k):
    """(block sizes, count) over NC(k): r_pi depends on pi only through its block sizes."""
    return tuple(Counter(map(_sizes, _nc_cached(k))).items())


@lru_cache(maxsize=None)
def _nc_kreweras_types(k):
    """((sizes of pi, sizes of Kr(pi)), count) over NC(k)."""
    return tuple(Counter((_sizes(pi), _sizes(_complement_cycles(pi))) for pi in _nc_cached(k)).items())


def _owners(sigma, pi):
    """Per block of sigma, the index of the block of pi holding it; None unless sigma refines pi."""
    owner = {x: idx for idx, block in enumerate(pi) for x in block}
    if owner.keys() != {x for block in sigma for x in block}:
        return None
    ids = [{owner[x] for x in block} for block in sigma]
    return [i.pop() for i in ids] if all(len(i) == 1 for i in ids) else None


def refines(sigma, pi) -> bool:
    """True iff sigma and pi partition the same set and every block of sigma lies in a block of pi."""
    return _owners(sigma, pi) is not None


def mobius(sigma, pi):
    """Moebius function of the partition lattice on the interval [sigma, pi].

    sigma must refine pi.  Uses the product formula: for each block V of pi
    containing n_V blocks of sigma, the factor is (-1)^(n_V - 1) (n_V - 1)!.
    """
    owners = _owners(sigma, pi)
    if owners is None:
        raise NotComparable("sigma does not refine pi")
    out = 1
    for n_v in Counter(owners).values():
        out *= (-1) ** (n_v - 1) * factorial(n_v - 1)
    return out


def singletons(k):
    return tuple((x,) for x in range(1, k + 1))


def one_block(k):
    return (tuple(range(1, k + 1)),)


def _size(pi):
    return sum(len(b) for b in pi)


def _complement_cycles(pi):
    """The cycles of P_pi^-1 gamma on the ground set of pi (Nica-Speicher, Lecture 18).

    P_pi sends each element to the next one of its block and gamma to the
    next one of the ground set, both cyclically in increasing order.
    """
    before = {}  # P_pi^-1
    for block in pi:
        block = sorted(block)
        before.update(zip(block[1:] + block[:1], block))
    ground = sorted(before)
    step = {x: before[y] for x, y in zip(ground, ground[1:] + ground[:1])}
    cycles = []
    while step:
        x, cycle = next(iter(step)), []
        while x in step:
            cycle.append(x)
            x = step.pop(x)
        cycles.append(cycle)
    return cycles


def kreweras(pi):
    """Kreweras complement of a non-crossing partition: the cycles of P_pi^-1 gamma.

    On {1..k}, j labels the point j' between j and j+1 on the circle, and
    Kr(pi) is the largest partition of the primed points whose union with pi
    is non-crossing.  Always |pi| + |Kr(pi)| = k + 1; a crossing pi, whose
    cycle count falls short, raises ValueError.
    """
    cycles = _complement_cycles(pi)
    if pi and len(pi) + len(cycles) != _size(pi) + 1:
        raise ValueError(f"{pi} is crossing: it has no Kreweras complement")
    return _canon(cycles)


def finite_free_cumulants(p: Polynomial, upto=None):
    """Finite free cumulants kappa_1..kappa_m of a degree-n polynomial, m = min(upto, n).

    kappa_j = -j n^(j-1) [t^j] log sum_k (-1)^k e_k / n^(k)_falling t^k with
    e_0 = 1 (Marcus, arXiv:2108.07054; Arizmendi-Perales, JCTA 2018), i.e.
    n^(j-1) times the j-th power sum, by Newton's identities, of the
    elementary values e_k / n^(k)_falling.  This solves the Moebius system
    e_j = n^(j)_falling / (n^j j!) sum_{pi in P(j)} n^|pi| mu(0_j, pi) kappa_pi
    without enumerating P(j).  Requires full ambient degree.
    """
    if p.degree < p.n:
        raise ZeroLeading("finite free cumulants need degree exactly n")
    n, nums = p.n, p._nums
    if upto is not None and upto < 0:
        raise ValueError(f"order {upto} is negative")
    m = n if upto is None else min(upto, n)
    sigma, falling = [], 1
    for k in range(1, m + 1):
        falling *= n - k + 1
        sigma.append(Fraction(nums[k], nums[0] * falling))
    return [n ** (j - 1) * s for j, s in enumerate(_newton_solve(sigma, to_power_sums=True), start=1)]


def cumulants_to_elementary(kappa, n):
    """Inverse of finite_free_cumulants: rebuild e_0..e_m from kappa (e_0 = 1).

    Newton's identities backwards: from the power sums kappa_j / n^(j-1) to
    the elementary values sigma_j, then e_j = n^(j)_falling sigma_j.
    """
    if kappa and n < 1:
        raise ValueError(f"cumulants of order {len(kappa)} need degree n >= 1, got n = {n}")
    power = [_as_coeff(k) / n ** (j - 1) for j, k in enumerate(kappa, start=1)]
    e, falling = [Fraction(1)], 1
    for j, s in enumerate(_newton_solve(power, to_power_sums=False), start=1):
        falling *= n - j + 1
        e.append(falling * s)
    return e


def _nc_solve(known, to_cumulants):
    """One side of m_k = sum_{pi in NC(k)} r_pi from the other, k = 1..len(known), by block type.

    With rest = sum_{pi != 1_k} r_pi (blocks shorter than k only), m_k = r_k + rest;
    each block-size multiset of NC(k) enters once, times its count.
    """
    r, m = [None], [None]
    for k in range(1, len(known) + 1):
        rest = sum((n * prod(r[s] for s in sizes) for sizes, n in _nc_types(k) if len(sizes) > 1), start=Fraction(0))
        if to_cumulants:
            m.append(known[k - 1])
            r.append(m[k] - rest)
        else:
            r.append(known[k - 1])
            m.append(r[k] + rest)
    return (r if to_cumulants else m)[1:]


def moments_from_cumulants_nc(r):
    """m_k = sum over non-crossing partitions of prod r_{|V|}, k = 1..len(r)."""
    return _nc_solve(r, to_cumulants=False)


def cumulants_from_moments_nc(m):
    """Inverse of the non-crossing moment formula, by the same triangular solve."""
    return _nc_solve(m, to_cumulants=True)


def multiplicative_cumulant_product(r_alpha, r_beta):
    """r_j(theta) = sum_{pi in NC(j)} r_pi(alpha) r_{Kr(pi)}(beta), j up to the shorter input.

    The free-cumulant rule for a free multiplicative product; symmetric in
    its arguments through the Kreweras bijection.  Summed over the pairs of
    block types (pi, Kr(pi)), each once, times its count.
    """
    va = [None] + list(r_alpha)
    vb = [None] + list(r_beta)
    out = []
    for j in range(1, min(len(r_alpha), len(r_beta)) + 1):
        acc = Fraction(0)
        for (sa, sb), n in _nc_kreweras_types(j):
            acc += n * prod(va[s] for s in sa) * prod(vb[s] for s in sb)
        out.append(acc)
    return out
