"""The full asymptotic pipeline on its simplest instance: Marchenko-Pastur.

Laguerre-type polynomials F(-n; b_n; n x) with b_n/n -> 0 have zero
distributions converging to the Marchenko-Pastur law.  The chain below goes
from the rational S-transform to the algebraic Cauchy curve, to moments by
series expansion (cross-checked against the non-crossing partition count),
to the density by Stieltjes inversion -- and finally compares finite-n zeros
against all of it.
"""

from fractions import Fraction as F

import numpy as np

from finfree.curves import moments_from_curve, stieltjes_density, support_candidates
from finfree.families import s_limit_hyper
from finfree.hyper import HypergeometricSpec, hyper_poly
from finfree.partitions import moments_from_cumulants_nc
from finfree.roots import find_roots

st = s_limit_hyper(A=(), B=(F(0),))
print("S-transform: S(z) = 1/(z+1); series at 0:", [str(c) for c in st.series(4)])

curve = st.curve()
print("Cauchy curve F(y, u) = 0 with F =", dict(sorted(curve.coeffs.items())))
print("candidate support endpoints from the discriminant:", support_candidates(curve))

mom = moments_from_curve(curve, 6)
print("moments from the curve:      ", [str(m) for m in mom.m])
print("moments from NC partitions:  ", [str(m) for m in moments_from_cumulants_nc([F(1)] * 6)])

xs = np.linspace(0.25, 3.75, 8)
dens = stieltjes_density(curve, xs)
ref = np.sqrt(xs * (4 - xs)) / (2 * np.pi * xs)
print("\nStieltjes inversion vs closed form sqrt(x(4-x))/(2 pi x):")
for x, d, r in zip(xs, dens, ref):
    print(f"   x={x:5.2f}  density={d:.10f}  closed={r:.10f}")

n = 64
p = hyper_poly(HypergeometricSpec(n=n, b=(F(1),), scale=F(n)))
dist = find_roots(p)
emp = [m.real for m in dist.moments(4)]
print(f"\nempirical moments of the degree-{n} Laguerre-type polynomial:")
print("   ", [f"{m:.4f}" for m in emp], " (limit: 1, 2, 5, 14)")
