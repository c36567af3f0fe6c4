"""Walk through the exact algebra of the two finite free convolutions.

Everything here is exact rational arithmetic: dilation and shift are special
convolutions, parameter tuples merge under the multiplicative convolution,
and the additive convolution has an equivalent differential-operator form.
"""

from fractions import Fraction as F

from finfree.conv import add_conv, mult_conv
from finfree.hyper import (
    HypergeometricSpec,
    additive_hg_verify,
    hyper_mult_conv,
    hyper_poly,
)
from finfree.poly import Polynomial

n = 6
p = Polynomial.from_roots([F(k, 2) for k in range(1, n + 1)])
print("p(x) has roots 1/2, 1, ..., 3 and e-coefficients:")
print("  ", [str(e) for e in p.e])

print("\nConvolving with (x - 2)^n multiplies every root by 2:")
dil = mult_conv(p, Polynomial.linear_power(2, n), n)
print("  equals p.dilate(2)?", dil == p.dilate(2))

print("\nConvolving additively with (x - 3)^n shifts every root by 3:")
sh = add_conv(p, Polynomial.linear_power(3, n), n)
print("  equals p.shift(3)?", sh == p.shift(3))

print("\nTwo hypergeometric polynomials multiply by concatenating tuples:")
s1 = HypergeometricSpec(n=n, a=(F(3),), b=(F(3, 2),))
s2 = HypergeometricSpec(n=n, a=(F(5, 2),), b=(F(7, 3),))
merged = hyper_mult_conv(s1, s2)
lhs = mult_conv(hyper_poly(s1), hyper_poly(s2), n)
print("   merged numerator:", [str(a) for a in merged.a])
print("   merged denominator:", [str(b) for b in merged.b])
print("   exact equality (with the (-1)^n convention factor)?",
      lhs == hyper_poly(merged).scaled((-1) ** n))

print("\nThe additive convolution agrees with the operator-series route:")
t1 = HypergeometricSpec(n=4, b=(F(2),))
t2 = HypergeometricSpec(n=4, b=(F(3),), scale=-1)
print("   verified:", additive_hg_verify(t1, t2))
