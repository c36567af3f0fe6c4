from fractions import Fraction as F

import mpmath as mp
import pytest

from finfree.mop import _moment_constant, _moment_ratios
from finfree.quadrature import gauss_jacobi, gauss_laguerre

# (a, b, c) as the weights of finfree.mop.KINDS: Beta weight when c is None, else Gamma
WEIGHTS = [
    (F(1, 2), F(1), None),
    (F(3, 7), F(1, 2), None),
    (F(-1, 3), F(0), None),
    (F(1, 2), None, F(1)),
    (F(1, 3), None, F(2)),
    (F(0), None, F(3, 4)),
]


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("weight", WEIGHTS)
def test_gauss_rules_reproduce_exact_moments(weight, m):
    # an m-point rule is exact on x^k for k <= 2m - 1; the oracle's C rho(k) is the truth
    a, b, c = weight
    xs, ws = gauss_jacobi(m, a, b) if c is None else gauss_laguerre(m, a, c)
    nums, d = _moment_ratios(weight, 2 * m - 1)
    rho = [F(x, d) for x in nums]
    with mp.workprec(288):
        C = _moment_constant(weight)
        for k in range(2 * m):
            exact = C * mp.mpf(rho[k].numerator) / rho[k].denominator
            approx = mp.fsum(w * x**k for x, w in zip(xs, ws))
            assert abs(approx - exact) <= mp.mpf(10) ** -60 * abs(exact), (weight, m, k)
