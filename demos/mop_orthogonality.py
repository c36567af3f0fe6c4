"""Every family constructor against its defining integrals.

The hypergeometric closed forms are verified by something that does not use
them: the exact moments of the weights x^a (1-x)^b on [0,1] and x^a e^(-c x)
on [0, inf), each a rational number times one Beta or Gamma value.
Residuals are scale-free ratios of exact rationals, so every one comes out
exactly 0.  For Type I the products lambda_j = c_j C_j of the normalizing
constants and the weight integrals are exact: closed forms for jp/ml1 (the
Gamma factors cancel, so the normalization integral is exactly 1) and an
exact calibration for ml2.
"""

from fractions import Fraction as F

from finfree.mop import JPSpec, ML1Spec, ML2Spec, verify_orthogonality

jp = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1))
ml1 = ML1Spec(alpha=(F(1, 2), F(3, 7)))
ml2 = ML2Spec(alpha=F(1, 2), c=(F(1), F(2)))

cases = [
    ("Jacobi-Pineiro, Type I", "jp", jp, (2, 2), "I"),
    ("Jacobi-Pineiro, Type II", "jp", jp, (2, 2), "II"),
    ("multiple Laguerre 1st kind, Type I", "ml1", ml1, (2, 2), "I"),
    ("multiple Laguerre 1st kind, Type II", "ml1", ml1, (2, 2), "II"),
    ("multiple Laguerre 2nd kind, Type I", "ml2", ml2, (2, 2), "I"),
    ("multiple Laguerre 2nd kind, Type II", "ml2", ml2, (2, 1), "II"),
]

for label, family, spec, n, type_ in cases:
    rep = verify_orthogonality(family, spec, n, type_, prec=256)
    extra = ""
    if type_ == "I":
        extra = f"   normalization integral = {rep['normalization']}"
    print(f"{label:40s} n={n}: max residual {rep['max_residual']:.2e}{extra}")

print("\n(Every residual is exact: 0 means the moments vanish exactly.")
print("The jp/ml1 Type I normalization is exactly 1, because their constants")
print("times the weight integrals are rational; ml2 calibrates its Type I")
print("constants exactly and reports the normalization integral it gets.)")
