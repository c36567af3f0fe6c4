"""`limits`: limit objects of the six families, with no finite polynomial.

Family limit objects, exact limit moments from the Cauchy curves and from
R-transform poles, series reversion and the two free convolutions of moment
series, Stieltjes-inversion densities against the r = 2 closed forms,
discriminants and support candidates at r = 2, 3 and 4, and the total
masses of the closed-form densities.
"""

from fractions import Fraction as F

import numpy as np

from finfree import curves, families, series

from ..common import Op, Slot, key_of

SIZES = {
    "full": {"K_curve": 64, "K_small": 48, "K_poles": 8, "K_rev": 36, "K_mult": 28, "K_add": 9, "grid": 400},
    "tiny": {"K_curve": 6, "K_small": 5, "K_poles": 4, "K_rev": 5, "K_mult": 4, "K_add": 4, "grid": 48},
}

THETA_POOL = [F(1, 3), F(1, 4), F(2, 5), F(1, 5)]
# entries of each pool cost within a few percent of each other, so the seed
# changes the inputs but not the work
JP1_POOL = [F(1, 5), F(2, 7), F(1, 4), F(2, 5)]
JP2_POOL = [(F(1, 3), (F(1, 2), F(1, 3))), (F(1, 4), (F(1, 2), F(1, 4))), (F(1, 4), (F(1, 3), F(1, 4))), (F(1, 4), (F(1, 4), F(1, 3)))]
ML2_POOL = [(F(0), (F(1), F(2))), (F(1, 2), (F(1), F(3))), (F(1), (F(2), F(3))), (F(1, 3), (F(1, 2), F(2)))]
ML2_2_POOL = [(F(1, 4), (F(1, 2), (F(1), F(3)))), (F(1, 4), (F(0), (F(1), F(2)))), (F(1, 3), (F(1), (F(2), F(3)))),
              (F(1, 3), (F(1, 2), (F(1), F(2))))]
SERIES_POOL = [(((F(2, 3),), (F(3, 2), F(1, 4))), F(-5, 4)), (((F(1, 4),), (F(3, 2), F(1, 3))), F(1, 2)),
               (((F(1, 2),), (F(3, 2), F(1, 3))), F(5, 2)), (((F(1, 3),), (F(3, 2), F(1, 2))), F(-2, 3))]
R3_POOL = [(F(1, 3),) * 3, (F(1, 2), F(1, 4), F(1, 4)), (F(1, 4), F(1, 4), F(1, 2)), (F(1, 5), F(2, 5), F(2, 5))]
R4_POOL = [(F(1, 4),) * 4, (F(1, 2), F(1, 6), F(1, 6), F(1, 6)), (F(1, 5), F(1, 5), F(1, 5), F(2, 5)), (F(1, 3), F(1, 3), F(1, 6), F(1, 6))]

DENSITY_TOL = 1e-6


def _params(family, theta, extra=None):
    th = (theta, 1 - theta)
    if family in ("jp1", "ml1-1"):
        return families.LimitParams(theta=th, i=1)
    if family in ("jp2", "ml1-2"):
        return families.LimitParams(theta=th, A=extra or ())
    A, c = extra
    return families.LimitParams(theta=th, A=(A,), c=c, i=1)


def _family_curves_op(theta):
    names = ("jp1", "ml1-1", "jp2", "ml1-2", "ml2-1", "ml2-2")
    extras = (None, None, None, None, ML2_POOL[0], ML2_POOL[0])

    def run(env):
        return {"exact": [families.family_curves(f, _params(f, theta, x)) for f, x in zip(names, extras)]}

    def check(out, env, acc):
        jp1 = out["exact"][0]
        same = jp1.curve.coeffs == jp1.s_transform.curve().coeffs
        return [] if same else ["jp1 curve differs from the curve of its S-transform"]

    return Op("family_curves", key_of("family_curves", (6,), theta), (6,), run, check)


def _moments_op(family, K, theta, extra=None):
    def run(env):
        return {"exact": families.family_curves(family, _params(family, theta, extra)).moments(K)}

    def check(out, env, acc):
        lim = families.family_curves(family, _params(family, theta, extra))
        if lim.s_transform is None or lim.moment_scale != 1:
            return []  # no second route to these moments
        k = min(K, 16)
        same = out["exact"].m[:k] == lim.s_transform.moments(k).m
        return [] if same else [f"{family} curve moments differ from the S-transform reversion"]

    return Op(f"moments_{family}_K{K}", key_of(f"moments_{family}", (K,), (theta, extra)), (K,), run, check)


def _series_group(s, params):
    """S-limit moments, reversion, and both free convolutions built on them."""
    (A, B), c = params
    K = s["K_rev"]
    st = families.s_limit_hyper(A=A, B=B)
    st2 = families.s_limit_hyper(A=(), B=(F(1, 2),))
    key = key_of("series", (K, s["K_mult"], s["K_add"]), params)

    def moments_run(env):
        return {"exact": st.moments(K)}

    def reversion_run(env):
        return {"exact": series.series_reversion(series.m_series(env["s_limit_moments"]["exact"]), K)}

    def reversion_check(out, env, acc):
        m = series.m_series(env["s_limit_moments"]["exact"])
        ident = series.series_compose(m, out["exact"], K)
        return [] if ident == [0, 1] + [0] * (K - 1) else ["series reversion is not a compositional inverse"]

    km = s["K_mult"]

    def mult_run(env):
        ma = env["s_limit_moments"]["exact"].truncated(km)
        return {"exact": series.free_mult(ma, st2.moments(km))}

    def mult_check(out, env, acc):
        return [] if out["exact"].m == st.multiply(st2).moments(km).m else ["free_mult differs from the product S-transform"]

    ka = s["K_add"]

    def add_run(env):
        ma = env["s_limit_moments"]["exact"].truncated(ka)
        return {"exact": series.free_add(ma, series.FormalMomentSeries.point_mass(c, ka))}

    def add_check(out, env, acc):
        # adding a point mass c shifts the measure: m_k -> sum_j C(k, j) c^(k-j) m_j
        from math import comb

        m = (F(1),) + env["s_limit_moments"]["exact"].m[:ka]
        want = [sum(comb(k, j) * c ** (k - j) * m[j] for j in range(k + 1)) for k in range(1, ka + 1)]
        return [] if list(out["exact"].m) == want else ["free_add with a point mass is not a shift"]

    return [
        Op("s_limit_moments", key + "|m", (K,), moments_run),
        Op(f"series_reversion_K{K}", key + "|rev", (K,), reversion_run, reversion_check),
        Op(f"free_mult_K{km}", key + "|mult", (km,), mult_run, mult_check),
        Op(f"free_add_K{ka}", key + "|add", (ka,), add_run, add_check),
    ]


def _density_op(family, theta, grid):
    if family == "jp1":
        cstar = float(families.endpoints("JP-I-r2", theta=theta))
        xs = np.linspace(-0.99 * cstar, -0.02, grid)
        model = families.density_jp_typeI_r2(theta)
    else:
        xs = np.linspace(0.02, 0.98, grid)
        model = families.density_jp_typeII_r2(theta)

    def run(env):
        lim = families.family_curves(family, _params(family, theta))
        return {"density": curves.stieltjes_density(lim.curve, xs)}

    def check(out, env, acc):
        err = float(np.max(np.abs(out["density"] - model(xs))))
        acc.note("density_max", err)
        return [] if err < DENSITY_TOL else [f"density differs from the closed form by {err:.2e}"]

    return Op(f"stieltjes_density_{family}", key_of("density", (grid,), (family, theta)), (grid,), run, check)


def _disc_op(r, theta):
    params = families.LimitParams(theta=theta)

    def run(env):
        curve = families.family_curves("jp2", params).curve
        return {"exact": curves.y_discriminant(curve), "support": curves.support_candidates(curve)}

    def check(out, env, acc):
        disc = out["exact"]
        fails = []
        for u in out["support"]:
            val = sum(float(c) * u**k for k, c in enumerate(disc))
            scale = sum(abs(float(c)) * abs(u) ** k for k, c in enumerate(disc))
            if abs(val) > 1e-6 * scale:
                fails.append(f"support candidate {u} is not a zero of the discriminant")
        return fails

    return Op(f"y_discriminant_r{r}", key_of("disc", (r,), theta), (r,), run, check)


def _masses_op(theta):
    def run(env):
        return {"masses": [families.jp1_mass(theta), families.jp2_mass(theta)]}

    def check(out, env, acc):
        return [f"total mass {m}" for m in out["masses"] if abs(m - 1) > DENSITY_TOL]

    return Op("closed_form_masses", key_of("masses", (2,), theta), (2,), run, check)


def slots(size):
    s = SIZES[size]
    return [
        Slot("family_curves", THETA_POOL, lambda t: [_family_curves_op(t)]),
        Slot("moments_jp1", JP1_POOL, lambda t: [_moments_op("jp1", s["K_curve"], t)]),
        Slot("moments_jp2", JP2_POOL, lambda p: [_moments_op("jp2", s["K_curve"], *p)]),
        Slot("moments_ml1_2", THETA_POOL, lambda t: [_moments_op("ml1-2", s["K_small"], t)]),
        Slot("moments_ml2_2", ML2_2_POOL, lambda p: [_moments_op("ml2-2", s["K_small"], *p)]),
        Slot("moments_ml2_1", [(t, x) for t, x in zip(THETA_POOL, ML2_POOL)],
             lambda p: [_moments_op("ml2-1", s["K_poles"], *p)]),
        Slot("series", SERIES_POOL, lambda p: _series_group(s, p)),
        Slot("density_jp1", THETA_POOL, lambda t: [_density_op("jp1", t, s["grid"])]),
        Slot("density_jp2", [F(1, 3), F(1, 2), F(1, 4), F(2, 5)], lambda t: [_density_op("jp2", t, s["grid"])]),
        Slot("disc_r2", [(t, 1 - t) for t in THETA_POOL], lambda th: [_disc_op(2, th)]),
        Slot("disc_r3", R3_POOL, lambda th: [_disc_op(3, th)]),
        Slot("disc_r4", R4_POOL, lambda th: [_disc_op(4, th)]),
        Slot("masses", THETA_POOL, lambda t: [_masses_op(t)]),
    ]
