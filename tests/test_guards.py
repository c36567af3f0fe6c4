"""Guards of the public calls: each call refuses what it cannot answer, with the error type it names,
or returns the empty answer of an empty question.  Only the type is pinned, not the message."""

from fractions import Fraction as F

import mpmath as mp
import pytest

from finfree.curves import AlgebraicCurve, curve_from_limits, curve_shifted, solve_curve_branch, stieltjes_density
from finfree.errors import (
    DegreeMismatch,
    InvalidParameters,
    QuadratureFailure,
    ThetaOutOfRange,
    ZeroDegree,
    ZeroLeading,
    ZeroScale,
)
from finfree.families import LimitParams, density_jp_typeII_r2, endpoints, family_curves
from finfree.hyper import (
    HypergeometricSpec,
    KdFSpec,
    eval_tree,
    hyper_mult_conv,
    reversed_product_representation,
    theorem_b_rhs,
)
from finfree.mop import ML2Spec
from finfree.partitions import enumerate_partitions, finite_free_cumulants
from finfree.poly import Polynomial
from finfree.quadrature import gauss_jacobi, gauss_laguerre
from finfree.roots import find_roots, real_root_certificate
from finfree.series import FormalMomentSeries, free_add, free_mult, series_compose, series_inv
from finfree.verify import run_suite

CURVE = curve_from_limits((F(1, 2),), ())
H2, H3 = HypergeometricSpec(n=2, b=(F(2),)), HypergeometricSpec(n=3, b=(F(2),))
LEADING_ZERO = Polynomial(2, [0, 1, 1])  # e_0 = 0: degree 1 in ambient degree 2
M2, M1 = FormalMomentSeries((F(1), F(2))), FormalMomentSeries((F(1),))


def _set_attribute():
    Polynomial.from_roots([1, 2]).n = 3


# (name, call, the exception type it raises or the value it returns)
GUARDS = [
    ("find_roots-constant", lambda: find_roots(Polynomial(2, [0, 0, 5])), ZeroDegree),
    ("certificate-infinite", lambda: real_root_certificate(Polynomial.from_roots([1, 2]), [mp.mpf(1), mp.inf]), None),
    ("AlgebraicCurve-zero", lambda: AlgebraicCurve({}), ValueError),
    ("curve_shifted-zero-scale", lambda: curve_shifted((1,), (), 0, 1), ZeroScale),
    ("solve_curve_branch-empty", lambda: solve_curve_branch(CURVE, []), []),
    ("stieltjes_density-at-zero", lambda: stieltjes_density(CURVE, [0.0]), ValueError),
    ("LimitParams-zero-theta", lambda: LimitParams(theta=(0, 1)), ThetaOutOfRange),
    ("LimitParams-theta-sum", lambda: LimitParams(theta=(F(1, 3), F(1, 3))), ThetaOutOfRange),
    ("density_jp_typeII_r2-theta", lambda: density_jp_typeII_r2(F(2, 3)), ThetaOutOfRange),
    ("endpoints-ml1-1", lambda: endpoints("ml1-1-r2", theta=F(1, 2)), ThetaOutOfRange),
    ("endpoints-ml1-2", lambda: endpoints("ml1-2-r2", theta=F(2, 3)), ThetaOutOfRange),
    ("cumulants-without-r-poles",
     lambda: family_curves("ml1-2", LimitParams(theta=(F(1, 2), F(1, 2)))).cumulants(2), ValueError),
    ("HypergeometricSpec-zero-scale", lambda: HypergeometricSpec(n=2, scale=0), ZeroScale),
    ("hyper_mult_conv-degrees", lambda: hyper_mult_conv(H2, H3), DegreeMismatch),
    ("theorem_b_rhs-degrees", lambda: theorem_b_rhs(H2, H3), DegreeMismatch),
    ("reversed_product_representation-degrees", lambda: reversed_product_representation(H2, H3), DegreeMismatch),
    ("hyper_mult_conv-negative-scale", lambda: hyper_mult_conv(H2, HypergeometricSpec(n=2, scale=-1)), ValueError),
    ("KdFSpec-multipliers", lambda: KdFSpec(n=2, groups=(((), ()),)), ValueError),
    ("eval_tree-node", lambda: eval_tree(object(), 2), TypeError),
    ("ML2Spec-alpha", lambda: ML2Spec(alpha=-1, c=(1, 2)), InvalidParameters),
    ("enumerate_partitions-zero", lambda: enumerate_partitions(0), ValueError),
    ("finite_free_cumulants-leading-zero", lambda: finite_free_cumulants(LEADING_ZERO), ZeroLeading),
    ("power_sums-leading-zero", lambda: LEADING_ZERO.power_sums(2), ZeroLeading),
    ("Polynomial-length", lambda: Polynomial(2, [1, 2]), ValueError),
    ("from_monomial-length", lambda: Polynomial.from_monomial([1, 2, 3], 1), ValueError),
    ("from_roots-count", lambda: Polynomial.from_roots([1, 2], 1), ValueError),
    ("Polynomial-frozen", _set_attribute, AttributeError),
    ("series_inv-zero-constant", lambda: series_inv([0, 1], 2), ZeroDivisionError),
    ("series_compose-constant", lambda: series_compose([1, 1], [1, 1], 2), ValueError),
    ("free_add-orders", lambda: free_add(M2, M1), ValueError),
    ("free_mult-orders", lambda: free_mult(M2, M1), ValueError),
    ("run_suite-name", lambda: run_suite("nope"), KeyError),
    ("gauss_jacobi-no-nodes", lambda: gauss_jacobi(0, 0, 0), QuadratureFailure),
    ("gauss_jacobi-exponent", lambda: gauss_jacobi(2, -1, 0), QuadratureFailure),
    ("gauss_laguerre-exponent", lambda: gauss_laguerre(2, -1), QuadratureFailure),
]


@pytest.mark.parametrize("call, expected", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_a_guard_answers_as_named(call, expected):
    if isinstance(expected, type) and issubclass(expected, BaseException):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected
