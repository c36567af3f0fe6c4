"""Scaled-down reproduction of the Type I Jacobi-Pineiro zero histogram.

The component polynomial of the pair (n, 2n) with weights x^(1/2) (1-x) and
x^(3/7) (1-x) has all zeros real and negative; as n grows their distribution
approaches a density supported on [-2.43, 0] with an |x|^(-2/3) blow-up at
the origin.  At n = (60, 120) the agreement is already visible in the
histogram and the Kolmogorov-Smirnov distance.
"""

from fractions import Fraction as F

from finfree.families import endpoints, jp1_cdf
from finfree.mop import JPSpec, jp_typeI
from finfree.roots import find_roots

spec = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1))
n = (60, 120)
poly = jp_typeI(spec, n, 1)
print(f"Type I component for n = {n}: degree {poly.degree}")

dist = find_roots(poly)
xs = dist.real_sorted()
print(f"all {len(xs)} zeros real; range [{xs[0]:.4f}, {xs[-1]:.6f}]")
print("predicted support: [-c*, 0] with c* =", endpoints("JP-I-r2", theta=F(1, 3)))

print("\nhistogram vs limit mass per bin (the last bin holds the x^(-2/3) blow-up):")
for lo, hi, count, dens in dist.histogram(8, range_=(-2.43, 0.0)):
    bin_mass = jp1_cdf(F(1, 3), hi) - jp1_cdf(F(1, 3), lo)
    avg = bin_mass / (hi - lo)
    print(f"   [{lo:6.3f}, {hi:6.3f}]  count {count:3d}  density {dens:7.4f}  limit avg {avg:7.4f}")

ks = dist.ks_distance(lambda x: jp1_cdf(F(1, 3), x))
print(f"\nKolmogorov-Smirnov distance to the limit CDF: {ks:.4f}")
