import random
from fractions import Fraction as F
from math import comb

import pytest

from finfree.conv import add_conv, mult_conv
from finfree.errors import DegreeDeficient, InadmissibleDenominator, ZeroDegree, ZeroMultiplier
from finfree.hyper import (
    HypergeometricSpec,
    KdFSpec,
    _ratio_table,
    additive_hg_verify,
    eval_tree,
    hyper_derivative,
    hyper_mult_conv,
    hyper_poly,
    kdf_factorize,
    kdf_poly,
    pochhammer_falling,
    pochhammer_rising,
    reversed_product_lhs,
    reversed_product_representation,
    theorem_b_rhs,
)
from finfree.poly import Polynomial, _ints


def horner(p, x):
    """p(x) from the monomial coefficients."""
    acc = F(0)
    for c in reversed(p.to_monomial()):
        acc = acc * x + c
    return acc


def test_pochhammer():
    assert pochhammer_rising(3, 2) == 12
    assert pochhammer_rising(F(5, 2), 0) == 1
    assert pochhammer_falling(5, 2) == 20
    assert pochhammer_falling(F(1, 3), 3) == F(1, 3) * F(-2, 3) * F(-5, 3)


@pytest.mark.parametrize("symbol", [pochhammer_rising, pochhammer_falling])
def test_pochhammer_refuses_a_negative_order(symbol):
    for a in (F(1, 2), 3):
        with pytest.raises(ValueError, match="order -2 is negative"):
            symbol(a, -2)


def test_hyper_poly_examples():
    assert hyper_poly(HypergeometricSpec(n=2, a=(3,), b=(1,))).to_monomial() == (F(1), F(-6), F(6))
    assert hyper_poly(HypergeometricSpec(n=2, b=(1,))).to_monomial() == (F(1), F(-2), F(1, 2))
    # 1F0(-n; ; x) = (1-x)^n
    p = hyper_poly(HypergeometricSpec(n=5))
    assert p == Polynomial.from_roots([1] * 5).scaled(-1)


def test_admissibility():
    with pytest.raises(InadmissibleDenominator):
        HypergeometricSpec(n=3, b=(-2,))
    spec = HypergeometricSpec(n=3, a=(-1,), b=(2,))
    assert hyper_poly(spec).degree < 3  # numerator parameter in -Z_n drops the degree
    assert hyper_poly(HypergeometricSpec(n=3, a=(F(-1, 2),), b=(2,))).degree == 3


def test_argument_map():
    # F with argument (2x + 1) equals plain F composed with the affine map
    plain = hyper_poly(HypergeometricSpec(n=3, a=(F(5, 2),), b=(F(7, 3),)))
    mapped = hyper_poly(HypergeometricSpec(n=3, a=(F(5, 2),), b=(F(7, 3),), scale=2, shift=1))
    for x in (F(0), F(1, 2), F(-3)):
        assert horner(mapped, x) == horner(plain, 2 * x + 1)
    signed = hyper_poly(HypergeometricSpec(n=3, a=(F(5, 2),), b=(F(7, 3),), scale=-1))
    for x in (F(1), F(-2, 3)):
        assert horner(signed, x) == horner(plain, -x)


def test_derivative_identity():
    spec = HypergeometricSpec(n=2, a=(3,), b=(1,))
    dspec = hyper_derivative(spec)
    assert dspec.a == (F(4),) and dspec.b == (F(2),) and dspec.n == 1
    d = hyper_poly(spec).derivative()
    assert d.proportional_to(hyper_poly(dspec)) is not None
    # chain rule case (1-x)^n
    spec = HypergeometricSpec(n=4)
    assert hyper_poly(spec).derivative().proportional_to(hyper_poly(hyper_derivative(spec)))
    with pytest.raises(ZeroDegree):
        hyper_derivative(HypergeometricSpec(n=0))
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(1, 7)
        spec = HypergeometricSpec(
            n=n, a=(rng.randint(1, 5) + F(1, 3),), b=(rng.randint(1, 5) + F(1, 7),), scale=F(3, 2)
        )
        assert hyper_poly(spec).derivative().proportional_to(hyper_poly(hyper_derivative(spec)))


def test_mult_conv_merge_examples():
    # n=4: (a, b) x (a', b') -> 3F2 with merged tuples, up to the global (-1)^n
    n = 4
    s1 = HypergeometricSpec(n=n, a=(F(3),), b=(F(1),))
    s2 = HypergeometricSpec(n=n, a=(F(5, 2),), b=(F(7, 3),))
    merged = hyper_mult_conv(s1, s2)
    assert merged.a == (F(3), F(5, 2)) and merged.b == (F(1), F(7, 3))
    assert mult_conv(hyper_poly(s1), hyper_poly(s2), n) == hyper_poly(merged).scaled((-1) ** n)
    # second factor (1-x)^n acts as the identity dilation
    s3 = HypergeometricSpec(n=n)
    lhs = mult_conv(hyper_poly(s1), hyper_poly(s3), n)
    assert lhs.proportional_to(hyper_poly(s1)) is not None
    # 1F1 x 1F1 -> 1F2 at n=5
    n = 5
    s1 = HypergeometricSpec(n=n, b=(F(2),))
    s2 = HypergeometricSpec(n=n, b=(F(3),))
    out = hyper_mult_conv(s1, s2)
    assert out.a == () and out.b == (F(2), F(3))
    assert mult_conv(hyper_poly(s1), hyper_poly(s2), n) == hyper_poly(out).scaled((-1) ** n)


def test_theorem_b_examples():
    assert additive_hg_verify(
        HypergeometricSpec(n=4, b=(2,)), HypergeometricSpec(n=4, b=(3,), scale=-1)
    )
    assert additive_hg_verify(
        HypergeometricSpec(n=3, a=(2,)), HypergeometricSpec(n=3, a=(1,), b=(5,))
    )
    # trivial second factor x^n ~ shift by zero: q = (x-0)^n corresponds to
    # the empty-parameter spec with argument scaled to keep x^n shape; the
    # operator route must still agree on a plain pair
    assert additive_hg_verify(
        HypergeometricSpec(n=4, a=(F(7, 2),), b=(F(9, 4),)), HypergeometricSpec(n=4)
    )


def test_reversed_product_representation():
    # single factor (Prop-style), n=4
    s1 = HypergeometricSpec(n=4, a=(F(3, 2),), b=(F(1),))
    lhs = reversed_product_lhs(s1, None)
    rhs = reversed_product_representation(s1, None)
    assert lhs.proportional_to(rhs) is not None
    # two factors, n=3
    s1 = HypergeometricSpec(n=3, a=(F(3, 2),), b=(F(1),))
    s2 = HypergeometricSpec(n=3, a=(F(7, 3),), b=(F(11, 2),), scale=-1)
    assert reversed_product_lhs(s1, s2).proportional_to(
        reversed_product_representation(s1, s2)
    )
    # degree-deficient product: leading coefficient cancels -> error.
    # F(-b-n+1; -a-n+1; .) with b=1 terminates at degree n; multiplying two
    # such with opposite signs can cancel the top coefficient.
    s1 = HypergeometricSpec(n=1, a=(F(1, 2),), b=(F(1),))
    s2 = HypergeometricSpec(n=1, a=(F(1, 2),), b=(F(1),), scale=-1)
    with pytest.raises(DegreeDeficient):
        reversed_product_lhs(s1, s2)


def test_operator_series_read_a_negated_scale_as_the_sign():
    # scale -1 gives the argument -x, the paper's l = 1
    t1 = HypergeometricSpec(n=4, a=(F(3, 2),), b=(F(7, 3),))
    t2 = HypergeometricSpec(n=4, b=(F(9, 2),), scale=-1)
    assert theorem_b_rhs(t1, t2).proportional_to(add_conv(hyper_poly(t1), hyper_poly(t2), 4)) is not None
    assert additive_hg_verify(t1, t2)
    s1 = HypergeometricSpec(n=3, a=(F(3, 2),), b=(F(1),))
    s2 = HypergeometricSpec(n=3, a=(F(7, 3),), b=(F(11, 2),), scale=-1)
    assert reversed_product_lhs(s1, s2).proportional_to(reversed_product_representation(s1, s2)) is not None
    assert reversed_product_lhs(s2, None).proportional_to(reversed_product_representation(s2, None)) is not None


@pytest.mark.parametrize("argument", [{"scale": 2}, {"shift": 1}, {"scale": -1, "shift": 1}])
def test_operator_series_reject_arguments_other_than_plus_minus_x(argument):
    t1 = HypergeometricSpec(n=4, a=(F(3, 2),), b=(F(7, 3),))
    t2 = HypergeometricSpec(n=4, b=(F(9, 2),), **argument)
    for f in (theorem_b_rhs, reversed_product_lhs, additive_hg_verify):
        with pytest.raises(ValueError, match="arguments"):
            f(t1, t2)
    with pytest.raises(ValueError):
        hyper_mult_conv(t1, t2)


def test_kdf_poly_r1_reduces_to_merged_series():
    spec = KdFSpec(n=3, a0=(F(1, 2),), b0=(F(4, 3),), groups=(((F(2),), (F(5, 2),)),), c=(1,))
    assert kdf_poly(spec, "all") == hyper_poly(
        HypergeometricSpec(n=3, a=(F(1, 2), F(2)), b=(F(4, 3), F(5, 2)))
    )
    # mode "one" with r=1 and c_1 = 1 coincides with mode "all"
    assert kdf_poly(spec, "one") == kdf_poly(spec, "all")


def test_kdf_double_sum_oracle():
    # r=2, n=2, empty a-tuples: brute-force the double sum by hand
    spec = KdFSpec(n=2, a0=(), b0=(F(1),), groups=(((), ()), ((), ())), c=(1, 1))
    # sum_k (-n)_k / (1)_k sum_{l1+l2=k} x^{l1+l2} / (l1! l2!)
    expected = [F(0)] * 3
    for k in range(3):
        head = pochhammer_rising(-2, k) / pochhammer_rising(1, k)
        expected[k] = head * sum(
            F(1)
            / (pochhammer_rising(1, l1) * pochhammer_rising(1, k - l1))
            for l1 in range(k + 1)
        )
    assert kdf_poly(spec, "all").to_monomial() == tuple(expected)


def test_kdf_factorizations():
    rng = random.Random(22)
    for _ in range(6):
        n = rng.randint(2, 5)
        r = rng.randint(1, 3)
        groups = tuple(
            ((rng.randint(0, 4) + F(1, 3),), (rng.randint(1, 4) + F(1, 7),)) for _ in range(r)
        )
        c = tuple(rng.choice((1, -1)) * (rng.randint(1, 4) + F(1, 5)) for _ in range(r))
        spec = KdFSpec(
            n=n, a0=(rng.randint(0, 3) + F(2, 5),), b0=(rng.randint(1, 3) + F(3, 7),),
            groups=groups, c=c,
        )
        for mode in ("all", "one"):
            tree, scal = kdf_factorize(spec, mode)
            assert kdf_poly(spec, mode) == eval_tree(tree, n).scaled(scal)


def test_kdf_factorize_a_vanishing_polynomial():
    # the direct expansion and the tree both vanish: any scalar holds, and 1 is returned
    spec = KdFSpec(n=1, a0=(F(1, 2),), b0=(F(-1, 2),), groups=(((0,), (F(-1, 2),)), ((-1,), (2,))), c=(2, 2))
    tree, scal = kdf_factorize(spec, "one")
    assert kdf_poly(spec, "one").is_zero and scal == 1
    assert kdf_poly(spec, "one") == eval_tree(tree, 1).scaled(1)


def test_kdf_reciprocal_relation():
    # the two factorizations force a reciprocal relation between KdF
    # polynomials with swapped parameter groups when the group parities agree
    n = 3
    a0, b0 = (F(1, 2),), (F(7, 2),)
    a1, b1 = (F(2, 5),), (F(9, 4),)
    a2, b2 = (F(3, 4),), (F(11, 3),)
    c1, c2 = F(2), F(3, 2)
    s = 1  # (-1)^(i1+j1) with i1 = j1 = 1
    sA = KdFSpec(n=n, a0=a0, b0=b0, groups=((a1, b1), (a2, b2)), c=(c1 * s, c2))
    lhs = kdf_poly(sA, "all").reverse()
    swap = lambda a, b: (tuple(-x - n + 1 for x in b), tuple(-x - n + 1 for x in a))
    na1, nb1 = swap(a1, b1)
    na0, nb0 = swap(a0, b0)
    sB = KdFSpec(n=n, a0=na1, b0=nb1, groups=((na0, nb0), (a2, b2)), c=(F(s) / c1, -c2 / c1))
    assert lhs.proportional_to(kdf_poly(sB, "one")) is not None


def test_kdf_mode_one_needs_a_variable_group():
    for f in (kdf_poly, kdf_factorize):
        with pytest.raises(ValueError, match="mode 'one' needs a variable group"):
            f(KdFSpec(n=2), "one")
        with pytest.raises(ValueError, match="mode must be"):
            f(KdFSpec(n=2), "both")


def test_kdf_factorize_all_needs_a_variable_group():
    # the expansion alone is defined without groups; the factorization is not
    assert isinstance(kdf_poly(KdFSpec(n=2), "all"), Polynomial)
    with pytest.raises(ValueError, match="the factorization needs a variable group"):
        kdf_factorize(KdFSpec(n=2), "all")


def test_kdf_zero_multiplier():
    with pytest.raises(ZeroMultiplier):
        KdFSpec(n=2, groups=(((), ()),), c=(0,))


# -- generating-function and kernel expansions against the per-term sums ------


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _rising_tuple(tup, k):
    out = F(1)
    for t in tup:
        out *= pochhammer_rising(t, k)
    return out


def kdf_poly_oracle(spec, mode):
    """The multi-sum over compositions, one Pochhammer product per term."""
    n, mono = spec.n, [F(0)] * (spec.n + 1)
    for k in range(n + 1):
        head = pochhammer_rising(-n, k) * _rising_tuple(spec.a0, k) / _rising_tuple(spec.b0, k)
        for ls in _compositions(k, spec.r):
            term = head
            for (am, bm), cm, lm in zip(spec.groups, spec.c, ls):
                term *= _rising_tuple(am, lm) / (_rising_tuple(bm, lm) * pochhammer_rising(1, lm)) * cm**lm
            mono[k if mode == "all" else ls[0]] += term
    return Polynomial.from_monomial(mono, n)


def hyper_poly_oracle(spec):
    """The binomial double sum of (scale x + shift)^k."""
    n = spec.n
    r = ratio_table_oracle((-n,) + spec.a, spec.b, 1, n)
    mono = [F(0)] * (n + 1)
    for k in range(n + 1):
        for m in range(k + 1):
            mono[m] += r[k] * comb(k, m) * spec.scale**m * spec.shift ** (k - m)
    return Polynomial.from_monomial(mono, n)


def _rand_param(rng):
    return F(rng.randint(-40, 40), rng.choice((1, 3, 7, 97, 1024, 10**9 + 7))) + F(1, 2)


def test_affine_hyper_poly_matches_binomial_oracle():
    rng = random.Random(23)
    for n in (1, 4, 13, 40):
        for sign in (1, -1):
            for shift in (F(0), F(-3, 7), _rand_param(rng)):
                scale = rng.choice((F(-5, 3), F(2), F(-1, 10**9 + 7), F(7, 4)))
                spec = HypergeometricSpec(n=n, a=(_rand_param(rng),), b=(F(5, 2), _rand_param(rng) + 200),
                                          scale=sign * scale, shift=sign * shift)
                assert hyper_poly(spec) == hyper_poly_oracle(spec)


def test_kdf_poly_matches_composition_oracle():
    rng = random.Random(24)
    for r in (1, 2, 3):
        for n in (1, 3, 7, 12 if r == 3 else 20):
            groups = tuple(((_rand_param(rng),), (rng.randint(1, 9) + F(1, 7),)) for _ in range(r))
            c = tuple(rng.choice((1, -1)) * (rng.randint(1, 5) + F(1, rng.choice((3, 97)))) for _ in range(r))
            spec = KdFSpec(n=n, a0=(_rand_param(rng),), b0=(rng.randint(1, 5) + F(3, 11),), groups=groups, c=c)
            for mode in ("all", "one"):
                assert kdf_poly(spec, mode) == kdf_poly_oracle(spec, mode)
    # a numerator parameter in -Z_n cuts the head table off early
    groups = (((F(1, 3),), (F(2),)), ((), (F(3, 4),)))
    spec = KdFSpec(n=6, a0=(F(-2),), b0=(F(1, 2),), groups=groups, c=(F(2), F(-1, 5)))
    for mode in ("all", "one"):
        assert kdf_poly(spec, mode) == kdf_poly_oracle(spec, mode)


# -- the integer term-ratio kernel against the Fraction recurrence ------------


def ratio_table_oracle(num, den, c, n):
    """The term-ratio recurrence stepped in Fraction arithmetic, term by term."""
    out = [F(1)]
    for k in range(n):
        top = F(c)
        for x in num:
            top *= x + k
        bot = F(k + 1)
        for x in den:
            bot *= x + k
        if bot == 0:
            raise InadmissibleDenominator("vanishing denominator")
        out.append(out[-1] * top / bot)
    return out


def hyper_poly_per_power(spec):
    """Table, Taylor shift by the shift, then scale^k per coefficient."""
    n = spec.n
    mono = ratio_table_oracle((-n,) + spec.a, spec.b, 1, n)
    if spec.shift:
        mono = Polynomial.from_monomial(mono, n).shift(-spec.shift).to_monomial()
    return Polynomial.from_monomial([c * spec.scale**k for k, c in enumerate(mono)], n)


def _draw_ratio_case(rng, kind):
    """(num, den, c, n) of one of three kinds: generic; an integer numerator
    parameter that reaches 0; a denominator that vanishes after a numerator did."""
    n = rng.randint(0, 40)
    num = [_rand_param(rng) for _ in range(rng.randint(0, 3))]
    den = [_rand_param(rng) + rng.choice((0, 50)) for _ in range(rng.randint(0, 2))]
    c = rng.choice((F(0), F(-1), F(1), F(rng.randint(-9, 9), rng.randint(1, 12)), -_rand_param(rng)))
    if kind >= 1:
        n = rng.randint(3, 40)
        zero_at = rng.randint(0, n - 2)
        num.insert(rng.randint(0, len(num)), -zero_at)
        if kind == 2:
            den.insert(rng.randint(0, len(den)), -rng.randint(zero_at + 1, n - 1))
        elif rng.random() < 0.5:
            # a vanishing denominator factor never hit within the table
            den.append(F(-n - rng.randint(0, 3)))
    rng.shuffle(num)
    return tuple(num), tuple(den), c, n


def test_ratio_table_matches_the_fraction_recurrence():
    rng = random.Random(17)
    seen = {"equal": 0, "zero tail": 0, "raised": 0}
    for i in range(360):
        num, den, c, n = _draw_ratio_case(rng, i % 3)
        try:
            expected = ratio_table_oracle(num, den, c, n)
        except InadmissibleDenominator:
            with pytest.raises(InadmissibleDenominator):
                _ratio_table(num, den, c, n)
            seen["raised"] += 1
            continue
        nums, d = _ratio_table(num, den, c, n)
        # one primitive integer vector: the reduced terms over the lcm of their denominators
        assert [F(x, d) for x in nums] == expected and (nums, d) == _ints(expected, n)
        seen["equal"] += 1
        seen["zero tail"] += n > 0 and nums[-1] == 0
    assert seen["raised"] >= 100 and seen["zero tail"] >= 100 and seen["equal"] >= 200


def test_ratio_table_checks_every_denominator_past_a_zero_term():
    # the numerator -2 ends the table at t_2; the denominator -5 vanishes at k = 5
    assert _ratio_table((-2,), (F(1, 2),), 1, 8)[0][3:] == [0] * 6
    with pytest.raises(InadmissibleDenominator):
        _ratio_table((-2,), (-5,), 1, 8)
    with pytest.raises(InadmissibleDenominator):
        _ratio_table((), (-3,), 0, 4)


def test_hyper_poly_matches_the_per_power_formula():
    rng = random.Random(18)
    scales = (F(1), F(-1), F(3), F(-5, 3), F(7, 4), F(-1, 10**9 + 7))
    shifts = (F(0), F(1), F(-3, 7), F(5, 2))
    for n in (0, 1, 5, 24):
        a = tuple(_rand_param(rng) for _ in range(rng.randint(0, 2))) + (F(-rng.randint(0, n)),) * (n % 2)
        b = (F(5, 2), _rand_param(rng) + 200)
        for sign in (1, -1):
            for scale in scales:
                for shift in shifts:
                    spec = HypergeometricSpec(n=n, a=a, b=b, scale=sign * scale, shift=sign * shift)
                    assert hyper_poly(spec) == hyper_poly_per_power(spec)


def test_pochhammer_matches_the_fraction_products():
    rng = random.Random(19)
    for _ in range(300):
        a, k = rng.choice((_rand_param(rng), F(rng.randint(-12, 12)), rng.randint(-12, 12))), rng.randint(0, 30)
        rising, falling = F(1), F(1)
        for i in range(k):
            rising *= F(a) + i
            falling *= F(a) - i
        assert pochhammer_rising(a, k) == rising and pochhammer_falling(a, k) == falling
