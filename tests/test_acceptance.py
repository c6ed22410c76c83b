"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected number is produced by an oracle coded here (closed forms,
grid minimization, finite differences) or by one of the seeded check
batteries; tolerances are fixed in the assertions.
"""

import math
import time

import numpy as np
import pytest

from spinvar import battery
from spinvar.continuous import feasible_box, from_discrete
from spinvar.matcore import MixtureSpec, sym_inverse
from spinvar.optimize import SolveOptions, continuation, duality_gap, search
from spinvar.variation import bound_check, critical_residual


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


# --- oracles ---------------------------------------------------------------


def rs_value_closed_form(beta):
    """Single-jump value of the multiplier-free form at its stationary jump."""
    q = 0.0 if 2 * beta**2 <= 1.0 else 1.0 - 1.0 / math.sqrt(2.0 * beta**2)
    return 0.5 * (math.log(1 - q) + q / (1 - q) + beta**2 * (1 - q * q))


def rs_value_grid(beta, resolution=1e-4):
    best = math.inf
    q = 0.0
    while q < 1.0:
        best = min(best, 0.5 * (math.log(1 - q) + q / (1 - q) + beta**2 * (1 - q * q)))
        q += resolution
    return best


def test_criterion_1_scalar_duality_gap():
    q = np.array([[1.0]])
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_ref = 0.0
    for beta, quoted in ((0.3, 0.045), (1.0, 0.490929)):
        ref = rs_value_closed_form(beta)
        assert abs(rs_value_grid(beta) - ref) < 5e-8  # grid cross-check of the oracle
        assert abs(quoted - ref) <= 1e-4
        rep = duality_gap(MixtureSpec.pure(2, [beta]), q, SolveOptions())
        worst_gap = max(worst_gap, rep.gap)
        worst_ref = max(worst_ref, abs(rep.min_parisi - ref), abs(rep.min_cs - ref))
        assert rep.gap <= 1e-4
        assert abs(rep.min_parisi - ref) <= 1e-4
        assert abs(rep.min_cs - ref) <= 1e-4
    elapsed = time.perf_counter() - t0
    report(
        "criterion-1 scalar-gap",
        worst_gap <= 1e-4 and worst_ref <= 1e-4 and elapsed < 60,
        f"gap<={worst_gap:.2e} ref-dev<={worst_ref:.2e} in {elapsed:.2f}s",
    )


def test_criterion_2_vector_duality_gap():
    rng = np.random.default_rng(2024)
    opts = SolveOptions()
    worst = 0.0
    times = []
    for i in range(5):
        n = 2 if i % 2 == 0 else 3
        q = battery.random_correlation(rng, n)
        mix = MixtureSpec(n=n, terms=((2, rng.uniform(0.2, 0.6, n)),), h=np.zeros(n))
        t0 = time.perf_counter()
        rep = duality_gap(mix, q, opts)
        times.append(time.perf_counter() - t0)
        worst = max(worst, rep.gap)
        assert rep.gap <= 5e-4
    report(
        "criterion-2 vector-gap",
        worst <= 5e-4,
        f"5 instances, worst gap {worst:.2e}, max {max(times):.1f}s/instance",
    )


def test_criterion_3_diagonal_separability():
    # beta = (0.3, 0.5), p = 2, Q = I.  With h = (0.2, 0), conjugating by
    # diag(1, -1) fixes xi, hh^T and Q, so the full minimum is the sum of
    # the species minima; with h = (0.2, 0.1) the diagonal paths are only
    # some of the paths the full solve ranges over, so it is at most the sum
    q = np.eye(2)
    opts = SolveOptions()
    worst = -math.inf
    for h, equal in (((0.2, 0.0), True), ((0.2, 0.1), False)):
        mix = MixtureSpec(n=2, terms=((2, np.array([0.3, 0.5])),), h=np.array(h))
        full_rep = duality_gap(mix, q, opts)
        part_reps = [duality_gap(mix.species(j), np.eye(1), opts) for j in range(2)]
        for kind in ("cs", "parisi"):
            full = getattr(full_rep, f"min_{kind}")
            parts = sum(getattr(rep, f"min_{kind}") for rep in part_reps)
            excess = abs(full - parts) if equal else full - parts
            worst = max(worst, excess)
            assert excess <= 1e-6, (kind, h)
    report("criterion-3 diagonal-separability", worst <= 1e-6, f"worst excess over the sum {worst:.2e}")


def test_criterion_4_critical_point_identities():
    rng = np.random.default_rng(77)
    q2 = battery.random_correlation(rng, 2)
    q3 = battery.random_correlation(rng, 3)
    mix2 = MixtureSpec(n=2, terms=((2, np.array([0.4, 0.3])),), h=np.array([0.1, 0.0]))
    mix3 = MixtureSpec(n=3, terms=((2, np.array([0.5, 0.4, 0.3])),), h=np.zeros(3))
    cases = [
        (MixtureSpec.pure(2, [1.0]), np.array([[1.0]]), 2, (0.0, 1.0)),
        (MixtureSpec.pure(2, [1.0]), np.array([[1.0]]), 3, (0.0, 0.5, 1.0)),
        (mix2, q2, 2, (0.0, 1.0)),
        (mix2, q2, 3, (0.0, 0.5, 1.0)),
        (mix3, q3, 2, (0.0, 1.0)),
    ]
    # six stages, so the identities are checked at eps = 1e-1 ... 1e-4 too
    opts = SolveOptions(eps_schedule=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    worst_res = 0.0
    worst_gap_ratio = 0.0
    stages = 0
    for mix, q, r, x in cases:
        for kind, side in (("parisi", "lower"), ("cs", "upper")):
            for res in continuation(kind, mix, q, r, x, opts).stages:
                assert res.converged, (kind, r, res.eps)
                rep = critical_residual(side, res.path, mix, res.eps, lam=res.lam)
                worst_res = max(worst_res, rep.max_residual)
                band = 1e-5 * (1.0 + abs(rep.value_perturbed))
                worst_gap_ratio = max(worst_gap_ratio, rep.identity_gap / band)
                stages += 1
                assert rep.max_residual <= 1e-6
                assert rep.identity_gap <= band
    report(
        "criterion-4 critical-points",
        worst_res <= 1e-6 and worst_gap_ratio <= 1.0,
        f"{stages} stage minimizers, worst residual {worst_res:.2e}, "
        f"worst identity-gap ratio {worst_gap_ratio:.2e}",
    )


def test_criterion_5_tilde_inequalities():
    rng = np.random.default_rng(78)
    q2 = battery.random_correlation(rng, 2)
    mix2 = MixtureSpec(n=2, terms=((2, np.array([0.45, 0.35])),), h=np.zeros(2))
    opts = SolveOptions(eps_schedule=(1e-1, 1e-2, 1e-3))
    worst = math.inf
    checks = 0
    for mix, q in ((MixtureSpec.pure(2, [1.0]), np.array([[1.0]])), (mix2, q2)):
        for kind, side in (("parisi", "lower"), ("cs", "upper")):
            for res in continuation(kind, mix, q, 2, (0.0, 1.0), opts).stages:
                assert res.converged
                chk = bound_check(side, res.path, mix, res.eps, lam=res.lam)
                worst = min(worst, chk.slack)
                checks += 1
                assert chk.holds and chk.slack >= -1e-9
    report("criterion-5 tilde-bounds", worst >= -1e-9, f"{checks} checks, min slack {worst:+.2e}")


def test_criterion_6_gradient_oracle():
    rp = battery.check_gradient_oracle("parisi")
    rc = battery.check_gradient_oracle("cs")
    report(
        "criterion-6 gradient-oracle",
        rp.passed and rc.passed,
        f"multiplier form worst {rp.worst:.2e}, multiplier-free worst {rc.worst:.2e} "
        f"({rp.checks}+{rc.checks} checks, tol 1e-6)",
    )


def test_criterion_7_discrete_continuous():
    rt = battery.check_roundtrip(seed=9)
    report(
        "criterion-7 discrete-continuous",
        rt.passed,
        f"{rt.checks} paths, worst deviation {rt.worst:.2e} (tol 1e-10, includes top-override)",
    )


def test_criterion_8_matrix_property_battery():
    checks = [
        battery.check_logdet_concavity(),
        battery.check_mixture_convexity(),
        battery.check_amgm_determinant(),
        battery.check_trace_positivity(),
        battery.check_perturbation_radius(),
        battery.check_mixture_gap_pd(),
    ]
    for c in checks:
        assert c.passed, c
    report(
        "criterion-8 matrix-properties",
        all(c.passed for c in checks),
        f"{sum(c.checks for c in checks)} random instances across {len(checks)} properties",
    )


def test_criterion_9_temperature_continuity():
    c = battery.check_temperature_continuity()
    report(
        "criterion-9 temperature-continuity",
        c.passed,
        f"worst |value difference| {c.worst:.3f} <= band 0.42",
    )


def test_criterion_10_compactness_box():
    # spot values for the box constants
    box = feasible_box(MixtureSpec.pure(2, [1.0]), np.array([[1.0]]))
    assert box.T == pytest.approx(1 - math.exp(-3.0), abs=1e-12)
    assert box.L == pytest.approx(math.exp(3.0), rel=1e-12)
    opts = SolveOptions()
    worst = math.inf
    cases = [
        (MixtureSpec.pure(2, [0.3]), np.array([[1.0]])),
        (MixtureSpec.pure(2, [1.0]), np.array([[1.0]])),
    ]
    rng = np.random.default_rng(79)
    q2 = battery.random_correlation(rng, 2)
    cases.append((MixtureSpec(n=2, terms=((2, np.array([0.5, 0.4])),), h=np.zeros(2)), q2))
    for mix, q in cases:
        res = search(mix, q, opts)
        cdf, phi = from_discrete(res.best.path)
        box = feasible_box(mix, q)
        t_top = max(t for t, _ in cdf.atoms())
        inv_gap = sym_inverse(q - phi.value(t_top))
        worst = min(worst, box.T - t_top, box.L - float(np.max(np.abs(inv_gap))))
        assert t_top <= box.T
        assert float(np.max(np.abs(inv_gap))) <= box.L
    report(
        "criterion-10 compactness-box",
        worst >= 0.0,
        f"minimizers inside the box with margin {worst:.3f}; "
        f"spot values T=1-e^-3, L=e^3 verified",
    )
