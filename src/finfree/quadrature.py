"""High-precision Gauss rules for the Jacobi and Laguerre weights.

A standalone public utility: Golub-Welsch on the monic three-term
recurrence, assembled and diagonalized in mpmath at a requested bit
precision.  Two weights are covered:

    gauss_jacobi(m, p, q, prec)    x^p (1-x)^q on [0, 1]
    gauss_laguerre(m, a, c, prec)  x^a e^(-c x) on [0, infinity)

An m-point rule integrates polynomials of degree <= 2m-1 exactly, so for a
polynomial integrand the only error is rounding at the working precision.
"""

import mpmath as mp

from .errors import QuadratureFailure
from .mop import _to_mpf


def _golub_welsch(alpha, beta):
    """Nodes and weights from monic recurrence coefficients (current mp.prec)."""
    m = len(alpha)
    J = mp.zeros(m, m)
    for k in range(m):
        J[k, k] = alpha[k]
    for k in range(1, m):
        off = mp.sqrt(beta[k])
        J[k - 1, k] = off
        J[k, k - 1] = off
    try:
        eigvals, eigvecs = mp.eigsy(J)
    except Exception as exc:  # pragma: no cover - mpmath failure is fatal
        raise QuadratureFailure(f"eigen decomposition failed: {exc}") from exc
    nodes = [eigvals[k] for k in range(m)]
    weights = [beta[0] * eigvecs[0, k] ** 2 for k in range(m)]
    order = sorted(range(m), key=lambda k: nodes[k])
    return [nodes[k] for k in order], [weights[k] for k in order]


def gauss_jacobi(m: int, p, q, prec: int = 256):
    """m-point rule for the weight x^p (1-x)^q on [0, 1]; needs p, q > -1."""
    with mp.workprec(prec + 32):
        a = _to_mpf(q)
        b = _to_mpf(p)
        if a <= -1 or b <= -1:
            raise QuadratureFailure("Jacobi exponents must exceed -1")
        apb = a + b
        alpha = [(b - a) / (apb + 2)]
        beta = [mp.power(2, apb + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(apb + 2)]
        if m > 1:
            beta.append(4 * (a + 1) * (b + 1) / ((apb + 3) * (apb + 2) ** 2))
            alpha.append((b * b - a * a) / ((2 + apb) * (4 + apb)))
        for k in range(2, m):
            den = 2 * k + apb
            alpha.append((b * b - a * a) / (den * (den + 2)))
            beta.append(4 * k * (k + a) * (k + b) * (k + apb) / (den * den * (den + 1) * (den - 1)))
        nodes, weights = _golub_welsch(alpha[:m], beta[:m])
        # map from (1-s)^a (1+s)^b on [-1, 1] to x^p (1-x)^q on [0, 1]
        half = mp.mpf(1) / 2
        scale = mp.power(2, -(a + b + 1))
        xs = [(1 + s) * half for s in nodes]
        ws = [w * scale for w in weights]
        return xs, ws


def gauss_laguerre(m: int, a, c=1, prec: int = 256):
    """m-point rule for the weight x^a e^(-c x) on [0, inf); a > -1, c > 0."""
    with mp.workprec(prec + 32):
        aa = _to_mpf(a)
        cc = _to_mpf(c)
        if aa <= -1 or cc <= 0:
            raise QuadratureFailure("need a > -1 and c > 0")
        alpha = [2 * k + aa + 1 for k in range(m)]
        beta = [mp.gamma(aa + 1)] + [k * (k + aa) for k in range(1, m)]
        nodes, weights = _golub_welsch(alpha, beta)
        pref = mp.power(cc, -(aa + 1))
        return [t / cc for t in nodes], [w * pref for w in weights]

