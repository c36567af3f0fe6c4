"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete.  The heavy criterion (the n = (300, 600) Type I run) takes a
couple of minutes at the pinned default precision.
"""

import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from finfree.families import (
    LimitParams,
    density_jp_typeI_r2,
    density_jp_typeII_r2,
    endpoints,
    family_curves,
    jp1_cdf,
    jp1_mass,
    jp2_mass,
)
from finfree.curves import stieltjes_density
from finfree.errors import BranchDegenerate
from finfree.mop import (
    JPSpec,
    ML1Spec,
    ML2Spec,
    add_index,
    jp_condition_window,
    jp_typeI,
    jp_typeII,
    ml1_typeI,
    ml1_typeII,
    ml2_typeII,
    unit_index,
    verify_orthogonality,
)
from finfree.roots import find_roots, interlaces, real_parts_sorted
from finfree.verify import run_suite


def _report(idx, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_1_exact_identity_suite():
    t0 = time.time()
    results = run_suite("identities", n_max=8, draws=100)
    ok = all(r[1] for r in results)
    _report(1, ok, f"{len(results)} identity families, 100 draws each", time.time() - t0, 5)


def test_criterion_2_cumulant_suite():
    t0 = time.time()
    results = run_suite("cumulants")
    ok = all(r[1] for r in results)
    _report(2, ok, "additivity n<=6, NC roundtrip k=6, Kreweras vs S on MP x delta", time.time() - t0, 30)


def test_criterion_3_orthogonality_oracle():
    t0 = time.time()
    jp = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1))
    jph = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1, 2))
    ml1 = ML1Spec(alpha=(F(1, 2), F(3, 7)))
    ml2 = ML2Spec(alpha=F(1, 2), c=(F(1), F(2)))
    cases = [
        ("jp", jp, (2, 2), "I"),
        ("jp", jp, (3, 3), "I"),
        ("jp", jp, (2, 2), "II"),
        ("jp", jph, (3, 3), "II"),
        ("ml1", ml1, (2, 2), "I"),
        ("ml1", ml1, (3, 3), "II"),
        ("ml2", ml2, (3, 3), "I"),
        ("ml2", ml2, (3, 2), "II"),
    ]
    worst = 0.0
    norm_ok = True
    for family, spec, n, type_ in cases:
        rep = verify_orthogonality(family, spec, n, type_, prec=256)
        worst = max(worst, rep["max_residual"])
        if type_ == "I":
            norm_ok = norm_ok and abs(rep["normalization"]) > 1e-10
    ok = worst < 1e-25 and norm_ok
    _report(3, ok, f"six families, worst residual {worst:.2e}, Type I normalization nonzero", time.time() - t0, 120)


@pytest.fixture(scope="module")
def figure1_distribution():
    t0 = time.time()
    jp = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1))
    poly = jp_typeI(jp, (300, 600), 1)
    dist = find_roots(poly)  # pinned default precision
    return dist, time.time() - t0


def test_criterion_4_figure1_reproduction(figure1_distribution):
    dist, solve_time = figure1_distribution
    t0 = time.time()
    xs = dist.real_sorted()  # raises if any root is non-real
    all_negative = xs[-1] < 0
    min_ok = abs(xs[0] - (-2.2)) <= 0.1
    ks = dist.ks_distance(lambda x: jp1_cdf(F(1, 3), x))
    cstar = endpoints("JP-I-r2", theta=F(1, 3))
    ok = all_negative and min_ok and ks <= 0.05 and cstar == F(243, 100)
    _report(
        4,
        ok,
        f"299 real negative roots, min {xs[0]:.4f} (~-2.2), KS {ks:.4f} <= 0.05, c* = {cstar}",
        solve_time + (time.time() - t0),
        1800,
    )


def test_criterion_5_marchenko_pastur_chain():
    t0 = time.time()
    results = run_suite("mp-chain")
    ok = all(r[1] for r in results)
    _report(5, ok, "S = 1/(z+1), curve, support [0,4], Catalan moments, density(2)", time.time() - t0, 5)


def test_criterion_6_endpoint_formulas():
    t0 = time.time()
    results = run_suite("endpoints")
    ok = all(r[1] for r in results)
    # scaled-down largest-zero check: ML1 Type II at n = (64, 64)
    spec = ML1Spec(alpha=(F(3), F(5, 2)))
    poly = ml1_typeII(spec, (64, 64))
    roots = real_parts_sorted(find_roots(poly), tau=1e-12)
    largest = roots[-1] / 128
    cstar = float(endpoints("ML1-II-r2", theta=F(1, 2)))
    ok = ok and abs(largest - cstar) / cstar < 0.05
    _report(
        6,
        ok,
        f"27/8 and 4 limits exact; largest zero/|n| = {largest:.4f} vs c* = {cstar:.4f}",
        time.time() - t0,
        60,
    )


def test_criterion_7_moment_convergence():
    t0 = time.time()
    jp = JPSpec(alpha=(F(1, 2), F(3, 7)), beta=F(1))
    ml1 = ML1Spec(alpha=(F(0), F(1, 3)))
    ml2 = ML2Spec(alpha=F(1, 2), c=(F(1), F(2)))

    def errors(poly, limit_moments, rescale=1):
        emp = poly.root_moments(3)
        emp = [m / F(rescale) ** k for k, m in enumerate(emp, start=1)]
        return [abs(float((a - b) / b)) for a, b in zip(emp, limit_moments.m)]

    ok = True
    detail = []
    # step-line families: Type II Jacobi-Pineiro / Laguerre first and second kind
    step = [(16, 16), (32, 32), (64, 64)]
    lims = {
        "jp2": family_curves("jp2", LimitParams(theta=(F(1, 2), F(1, 2)))).moments(3),
        "ml1-2": family_curves("ml1-2", LimitParams(theta=(F(1, 2), F(1, 2)))).moments(3),
        "ml2-2": family_curves(
            "ml2-2", LimitParams(theta=(F(1, 2), F(1, 2)), c=(F(1), F(2)), A=(F(0),))
        ).moments(3),
    }
    ctors = {
        "jp2": lambda n: (jp_typeII(jp, n), 1),
        "ml1-2": lambda n: (ml1_typeII(ml1, n), sum(n)),
        "ml2-2": lambda n: (ml2_typeII(ml2, n), sum(n)),
    }
    for name in ("jp2", "ml1-2", "ml2-2"):
        seq = []
        for n in step:
            poly, scale = ctors[name](n)
            seq.append(errors(poly, lims[name], scale))
        monotone = all(
            all(b < a for a, b in zip(e1, e2)) for e1, e2 in zip(seq, seq[1:])
        )
        final = max(seq[-1])
        ok = ok and monotone and final < 0.05
        detail.append(f"{name} final {final:.3f}")
    # Type I Jacobi-Pineiro: the literal step line is the degenerate diagonal
    # (vanishing S(0), conjectured unbounded support) and has no finite limit
    # moments -- pin that fact, then verify convergence at the paper's own
    # 1:2 proportions where the limit exists
    diag = family_curves("jp1", LimitParams(theta=(F(1, 2), F(1, 2)), i=1))
    with pytest.raises(BranchDegenerate):
        diag.moments(1)
    lim = family_curves("jp1", LimitParams(theta=(F(1, 3), F(2, 3)), i=1)).moments(3)
    seq = []
    for n in [(12, 24), (23, 46), (45, 90)]:
        seq.append(errors(jp_typeI(jp, n, 1), lim))
    monotone = all(all(b < a for a, b in zip(e1, e2)) for e1, e2 in zip(seq, seq[1:]))
    # O(1/degree) rate: each doubling cuts every error below 0.7x
    rate = all(all(b < 0.7 * a for a, b in zip(e1, e2)) for e1, e2 in zip(seq, seq[1:]))
    ok = ok and monotone and rate and seq[-1][0] < 0.05
    detail.append(f"jp1 (theta=1/3) m1 final {seq[-1][0]:.3f}")
    _report(7, ok, "; ".join(detail), time.time() - t0, 600)


def test_criterion_8_interlacing_suite():
    t0 = time.time()
    rng = random.Random(20240813)
    tau = 1e-20

    def roots_of(p):
        return real_parts_sorted(find_roots(p, 256), tau=1e-10)

    def draw_alphas():
        # gap k/13 with shifts drawn as m/12: neither the gap nor gap+shift
        # can ever be an integer
        a2 = F(rng.randint(-6, 6), 13)
        a1 = a2 + F(rng.randint(1, 12), 13)
        return (a1, a2)

    def draw_n(total_max=9):
        n1 = rng.randint(3, 4)
        n2 = n1 + rng.choice((0, 1))
        return (n1, n2)

    def draw_t():
        return F(rng.randint(1, 23), 12)  # (0, 2], never an integer

    violations = []

    for trial in range(20):
        # Type I parameter monotonicity (r = 2, even): alpha+t <= base <= beta+t
        al = draw_alphas()
        n, i, t = draw_n(), rng.choice((1, 2)), draw_t()
        jp = JPSpec(alpha=al, beta=F(rng.randint(0, 4), 2))
        assert jp_condition_window(jp, n, i)
        base = roots_of(jp_typeI(jp, n, i))
        shifted = roots_of(jp_typeI(JPSpec(alpha=(al[0] + t, al[1] + t), beta=jp.beta), n, i))
        beta_up = roots_of(jp_typeI(JPSpec(alpha=al, beta=jp.beta + t), n, i))
        if not interlaces(shifted, base, tau):
            violations.append(("jp1-alpha", trial))
        if not interlaces(base, beta_up, tau):
            violations.append(("jp1-beta", trial))

        ml1 = ML1Spec(alpha=al)
        base = roots_of(ml1_typeI(ml1, n, i))
        shifted = roots_of(ml1_typeI(ML1Spec(alpha=(al[0] + t, al[1] + t)), n, i))
        if not interlaces(shifted, base, tau):
            violations.append(("ml1-alpha", trial))

        # Type II index and parameter interlacing
        al = draw_alphas()
        jp = JPSpec(alpha=al, beta=F(rng.randint(0, 2)))
        n, i, t = draw_n(), rng.choice((1, 2)), draw_t()
        P = roots_of(jp_typeII(jp, n))
        P_up = roots_of(jp_typeII(jp, add_index(n, unit_index(2, i))))
        alpha_vec = tuple(a + (t if j == i - 1 else 0) for j, a in enumerate(al))
        P_t = roots_of(jp_typeII(JPSpec(alpha=alpha_vec, beta=jp.beta), n))
        if not (interlaces(P_up, P, tau) and interlaces(P, P_t, tau)):
            violations.append(("jp2", trial))

        ml1 = ML1Spec(alpha=al)
        L = roots_of(ml1_typeII(ml1, n))
        L_up = roots_of(ml1_typeII(ml1, add_index(n, unit_index(2, i))))
        L_t = roots_of(ml1_typeII(ML1Spec(alpha=alpha_vec), n))
        if not (interlaces(L_up, L, tau) and interlaces(L, L_t, tau)):
            violations.append(("ml1-2", trial))

        # second-kind Laguerre alpha monotonicity
        c = (F(rng.randint(1, 5)), F(rng.randint(1, 5)) + F(1, 2))
        ml2 = ML2Spec(alpha=F(rng.randint(0, 4), 3), c=c)
        n2 = draw_n()
        M = roots_of(ml2_typeII(ml2, n2))
        M_t = roots_of(ml2_typeII(ML2Spec(alpha=ml2.alpha + draw_t(), c=c), n2))
        if not interlaces(M, M_t, tau):
            violations.append(("ml2-2", trial))

    ok = not violations
    _report(8, ok, f"5 theorem families x 20 draws, violations: {violations}", time.time() - t0, 120)


def test_criterion_9_density_self_consistency():
    t0 = time.time()
    ok = True
    details = []
    # generic curve solver vs closed forms, pointwise away from endpoints
    lim = family_curves("jp1", LimitParams(theta=(F(1, 3), F(2, 3)), i=1))
    model = density_jp_typeI_r2(F(1, 3))
    xs = np.linspace(-2.4, -0.05, 48)
    diff = np.max(np.abs(stieltjes_density(lim.curve, xs) - model(xs)))
    ok = ok and diff < 1e-6
    details.append(f"jp1 diff {diff:.1e}")
    for th in (F(1, 3), F(1, 2)):
        lim = family_curves("jp2", LimitParams(theta=(th, 1 - th)))
        model = density_jp_typeII_r2(th)
        xs = np.linspace(0.02, 0.98, 48)
        diff = np.max(np.abs(stieltjes_density(lim.curve, xs) - model(xs)))
        ok = ok and diff < 1e-6
        details.append(f"jp2({th}) diff {diff:.1e}")
    # unit masses
    masses = [jp1_mass(F(1, 3)), jp2_mass(F(1, 3)), jp2_mass(F(1, 2))]
    ok = ok and all(abs(m - 1) < 1e-6 for m in masses)
    # endpoint exponents by log-log slope fits
    xs = np.geomspace(1e-9, 1e-6, 12)
    s1 = np.polyfit(np.log(xs), np.log(density_jp_typeI_r2(F(1, 3))(-xs)), 1)[0]
    s2 = np.polyfit(np.log(xs), np.log(density_jp_typeII_r2(F(1, 3))(xs)), 1)[0]
    s3 = np.polyfit(np.log(xs), np.log(density_jp_typeII_r2(F(1, 3))(1 - xs)), 1)[0]
    ok = ok and abs(s1 + 2 / 3) < 0.05 and abs(s2 + 2 / 3) < 0.05 and abs(s3 + 1 / 2) < 0.05
    details.append(f"slopes {s1:.3f}, {s2:.3f}, {s3:.3f}")
    _report(9, ok, "; ".join(details), time.time() - t0, 300)
