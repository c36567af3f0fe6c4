"""High-precision Gauss rules for the Jacobi and Laguerre weights.

A standalone public utility over mpmath's Golub-Welsch rules
(`mp.gauss_quadrature`), computed at a requested bit precision and mapped to
two weights:

    gauss_jacobi(m, p, q, prec)    x^p (1-x)^q on [0, 1]
    gauss_laguerre(m, a, c, prec)  x^a e^(-c x) on [0, infinity)

An m-point rule integrates polynomials of degree <= 2m-1 exactly, so for a
polynomial integrand the only error is rounding at the working precision.
Nodes come in ascending order.
"""

import mpmath as mp

from .errors import QuadratureFailure
from .mop import _to_mpf


def _rule(m, qtype, alpha, beta=0):
    """mpmath's m-point rule as two lists; a solver failure is a QuadratureFailure."""
    if m < 1:
        raise QuadratureFailure(f"a Gauss rule needs at least one point, got m = {m}")
    try:
        nodes, weights = mp.gauss_quadrature(m, qtype, alpha, beta)
    except RuntimeError as exc:  # pragma: no cover - no eigenvalue convergence
        raise QuadratureFailure(f"{qtype} rule failed: {exc}") from exc
    return list(nodes), list(weights)


def gauss_jacobi(m: int, p, q, prec: int = 256):
    """m-point rule for the weight x^p (1-x)^q on [0, 1]; needs p, q > -1."""
    with mp.workprec(prec + 32):
        a, b = _to_mpf(q), _to_mpf(p)
        if a <= -1 or b <= -1:
            raise QuadratureFailure("Jacobi exponents must exceed -1")
        nodes, weights = _rule(m, "jacobi", a, b)
        # map from (1-s)^a (1+s)^b on [-1, 1] to x^p (1-x)^q on [0, 1]
        scale = mp.power(2, -(a + b + 1))
        return [(1 + s) / 2 for s in nodes], [w * scale for w in weights]


def gauss_laguerre(m: int, a, c=1, prec: int = 256):
    """m-point rule for the weight x^a e^(-c x) on [0, inf); a > -1, c > 0."""
    with mp.workprec(prec + 32):
        aa, cc = _to_mpf(a), _to_mpf(c)
        if aa <= -1 or cc <= 0:
            raise QuadratureFailure("need a > -1 and c > 0")
        nodes, weights = _rule(m, "glaguerre", aa)
        pref = mp.power(cc, -(aa + 1))
        return [t / cc for t in nodes], [w * pref for w in weights]
