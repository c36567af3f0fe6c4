"""One input rule for every exact object: each number a caller gives a spec, a
series, a limit object or a curve is read by `poly._as_coeff` as the rational it
denotes, and refused with its errors.  A degree is read by `poly._degree` as a
Python int."""

import json
import re
from fractions import Fraction as F
from functools import reduce

import mpmath as mp
import numpy as np
import pytest

from finfree.conv import check_identity_dilation_additive, check_identity_dilation_distribute
from finfree.curves import (
    AlgebraicCurve,
    biv_add,
    biv_mul,
    biv_scale,
    curve_from_limits,
    curve_shifted,
    newton_series_branch,
)
from finfree.families import (
    LimitParams,
    RationalSTransform,
    density_jp_typeI_r2,
    density_jp_typeII_r2,
    endpoints,
    s_limit_hyper,
)
from finfree.hyper import HypergeometricSpec, KdFSpec, hyper_poly, kdf_poly, pochhammer_falling, pochhammer_rising
from finfree.mop import JPSpec, ML1Spec, ML2Spec
from finfree.partitions import cumulants_to_elementary
from finfree.poly import Polynomial
from finfree.series import (
    FormalMomentSeries,
    moments_from_r,
    moments_from_s,
    series_compose,
    series_inv,
    series_mul,
    series_reversion,
)

GOOD = [
    (np.int64(3), F(3)),
    (0.375, F(3, 8)),
    (0.1, F(3602879701896397, 2**55)),  # the double nearest 1/10
    (np.float32(0.25), F(1, 4)),
    (np.float64(0.125), F(1, 8)),
    (mp.mpf(0.3125), F(5, 16)),
]

REFUSED = [
    (True, TypeError, "bool is not a polynomial coefficient"),
    ("1/2", TypeError, "str is not a polynomial coefficient"),
    (1j, TypeError, "coefficients must be real, got 1j"),
    (mp.mpc(1, 1), TypeError, "coefficients must be real, got (1.0 + 1.0j)"),
    (float("nan"), ValueError, "coefficient nan is not finite"),
    (float("inf"), ValueError, "coefficient inf is not finite"),
]

# prod over the good values w of (y - w), plus v: each is a simple root at v = 0
BRANCH = biv_add(reduce(biv_mul, [{(1, 0): F(1), (0, 0): -w} for _, w in GOOD]), {(0, 1): F(1)})
P, Q = Polynomial.from_roots([1, 2]), Polynomial.from_roots([F(1, 2), 3])


def _model(density):
    def build(theta):
        m = density.__wrapped__(theta)  # past the cache, which equal keys share
        return m.support, float(m(-0.25 if m.support[1] == 0 else 0.25))  # one value inside the support

    return build


ENTRIES = {
    "FormalMomentSeries": lambda x: FormalMomentSeries((F(1), x)),
    "point_mass": lambda x: FormalMomentSeries.point_mass(x, 3),
    "series_mul": lambda x: series_mul([1, x], [x, 1], 2),
    "series_inv": lambda x: series_inv([1, x], 3),
    "series_compose": lambda x: series_compose([1, x], [0, 1, x], 3),
    "series_reversion": lambda x: series_reversion([0, 1, x], 3),
    "moments_from_r": lambda x: moments_from_r([1, x]),
    "moments_from_s": lambda x: moments_from_s([x, 1]),
    "pochhammer_rising": lambda x: pochhammer_rising(x, 3),
    "pochhammer_falling": lambda x: pochhammer_falling(x, 3),
    "HypergeometricSpec.a": lambda x: HypergeometricSpec(n=2, a=(x,)),
    "HypergeometricSpec.b": lambda x: HypergeometricSpec(n=2, b=(x,)),
    "HypergeometricSpec.scale": lambda x: HypergeometricSpec(n=2, scale=x),
    "HypergeometricSpec.shift": lambda x: HypergeometricSpec(n=2, shift=x),
    "KdFSpec.a0": lambda x: KdFSpec(n=2, a0=(x,)),
    "KdFSpec.b0": lambda x: KdFSpec(n=2, b0=(x,)),
    "KdFSpec.groups": lambda x: KdFSpec(n=2, groups=(((x,), (x,)),), c=(F(1),)),
    "KdFSpec.c": lambda x: KdFSpec(n=2, groups=(((), ()),), c=(x,)),
    "JPSpec.alpha": lambda x: JPSpec(alpha=(x,), beta=F(1)),
    "JPSpec.beta": lambda x: JPSpec(alpha=(F(1, 2),), beta=x),
    "ML1Spec.alpha": lambda x: ML1Spec(alpha=(x,)),
    "ML2Spec.alpha": lambda x: ML2Spec(alpha=x, c=(F(1),)),
    "ML2Spec.c": lambda x: ML2Spec(alpha=F(0), c=(x,)),
    "RationalSTransform.A": lambda x: RationalSTransform(A=(x,)),
    "RationalSTransform.B": lambda x: RationalSTransform(B=(x,)),
    "RationalSTransform.scale": lambda x: RationalSTransform(scale=x),
    "s_limit_hyper.A": lambda x: s_limit_hyper(A=(x,)),
    "s_limit_hyper.B": lambda x: s_limit_hyper(B=(x,)),
    "LimitParams.A": lambda x: LimitParams(theta=(F(1),), A=(x,)),
    "LimitParams.B": lambda x: LimitParams(theta=(F(1),), B=x),
    "LimitParams.c": lambda x: LimitParams(theta=(F(1),), c=(x,)),
    "density_jp_typeI_r2": _model(density_jp_typeI_r2),
    "density_jp_typeII_r2": _model(density_jp_typeII_r2),
    "JP-I-r2": lambda x: endpoints("JP-I-r2", theta=x),
    "ML1-I-r2": lambda x: endpoints("ML1-I-r2", theta=x),
    "ML1-II-r2": lambda x: endpoints("ML1-II-r2", theta=x),
    "JP-II-r2-A": lambda x: endpoints("JP-II-r2-A", A=x),
    "JP-II-r2-B": lambda x: endpoints("JP-II-r2-B", B=x),
    "AlgebraicCurve": lambda x: AlgebraicCurve({(1, 0): x, (0, 1): F(1)}).coeffs,
    "biv_scale": lambda x: biv_scale({(1, 1): F(2)}, x),
    "curve_from_limits.A": lambda x: curve_from_limits((x,), ()).coeffs,
    "curve_from_limits.B": lambda x: curve_from_limits((), (x,)).coeffs,
    "curve_shifted.A": lambda x: curve_shifted((x,), (), F(1), F(0)),
    "curve_shifted.B": lambda x: curve_shifted((), (x,), F(1), F(0)),
    "curve_shifted.c": lambda x: curve_shifted((F(1),), (), x, F(1)),
    "curve_shifted.d": lambda x: curve_shifted((F(1),), (), F(1), x),
    "newton_series_branch.y0": lambda x: newton_series_branch(BRANCH, x, 2),
    "newton_series_branch.g": lambda x: newton_series_branch({(1, 0): x, (0, 1): F(1)}, 0, 2),
    "check_identity_dilation_distribute": lambda x: check_identity_dilation_distribute(P, Q, 2, x),
    "check_identity_dilation_additive": lambda x: check_identity_dilation_additive(P, Q, 2, x),
    "cumulants_to_elementary": lambda x: cumulants_to_elementary([F(1), x], 3),
}

# these take a proportion theta in (0, 1/2), which no integer is
PROPORTIONS = {"density_jp_typeI_r2", "density_jp_typeII_r2", "JP-I-r2", "ML1-I-r2", "ML1-II-r2"}


@pytest.mark.parametrize("name", ENTRIES)
def test_every_exact_entry_point_reads_numbers_by_the_one_rule(name):
    build = ENTRIES[name]
    for x, want in GOOD:
        if name in PROPORTIONS and want.denominator == 1:
            continue
        got, ref = build(x), build(want)
        # repr tells a stored float from the Fraction it equals
        assert got == ref and repr(got) == repr(ref), (x, got, ref)
    for bad, error, message in REFUSED:
        with pytest.raises(error, match=re.escape(message)):
            build(bad)


def test_branch_series_reads_a_float_value_of_its_curve():
    # y + v = 0: a float 1.0 is the rational 1, not an object without .denominator
    for one in (1, 1.0):
        assert newton_series_branch({(1, 0): one, (0, 1): 1}, 0, 2) == [0, -1, 0]


# each builds a Polynomial of ambient degree n
DEGREES = {
    "Polynomial": lambda n: Polynomial(n, [1, 2]),
    "from_monomial": lambda n: Polynomial.from_monomial([1, 2], n=n),
    "linear_power": lambda n: Polynomial.linear_power(F(1, 2), n),
    "zero": Polynomial.zero,
    "HypergeometricSpec": lambda n: hyper_poly(HypergeometricSpec(n=n, a=(F(1, 2),))),
    "KdFSpec": lambda n: kdf_poly(KdFSpec(n=n, groups=(((), ()),), c=(F(1),))),
}

NOT_DEGREES = [True, 1.0, 2.5, F(1), "1", np.float64(1.0)]


@pytest.mark.parametrize("name", DEGREES)
def test_a_numpy_integer_degree_is_read_as_an_int(name):
    p = DEGREES[name](np.int64(1))
    assert type(p.n) is int and p == DEGREES[name](1)
    assert json.loads(p.to_json())["n"] == 1


@pytest.mark.parametrize("bad", NOT_DEGREES, ids=repr)
@pytest.mark.parametrize("name", DEGREES)
def test_a_bool_or_non_integer_degree_is_refused(name, bad):
    with pytest.raises(TypeError):
        DEGREES[name](bad)
