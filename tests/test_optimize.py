import gc
import importlib
import math
import signal
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spinvar.battery import random_correlation, random_feasible_path, random_mixture
from spinvar.errors import DimensionMismatch, ValidationError
from spinvar.functionals import Weights, eval_stack
from spinvar.matcore import MixtureSpec
from spinvar.optimize import (
    SolveOptions,
    _newton_direction,
    continuation,
    default_start,
    duality_gap,
    grown_start,
    minimize_fixed,
    search,
)
from spinvar.path import DiscretePath, d_sequence, equally_spaced, lambda_sequence
from spinvar.reference import pure2_rs_value

# a six-stage barrier path, for the tests that check its intermediate stages
LONG_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


# gap-rs benchmark member family-n6-p4-h (seed 4, round 3): the parisi side
# used to crawl through a flat valley and stop unconverged
CRAWL_TERMS = (
    (2, [
        0.18549614292184569, 0.2046464312604901, 0.30240415496371836,
        0.5599244619279476, 0.2709164816348263, 0.2759288416226199,
    ]),
    (4, [
        1.0248915240565153, 0.03980669157890542, 0.568899699999216,
        1.4046165502692887, 1.509154885727399, 1.2945589765258505,
    ]),
)
CRAWL_H = [
    -0.39916616929721, 0.43765548809576704, -0.27146485768465245,
    -0.024116945871044567, 0.14032379966127223, -0.13975946936349246,
]
CRAWL_Q = [
    [
        1.0, -0.5233364553699857, -0.25704139659236763,
        0.6344185762426044, -0.14335692127147956, -0.05096921469451416,
    ],
    [
        -0.5233364553699857, 1.0, -0.034836271547930696,
        -0.565365924837119, 0.25680622966265476, 0.10502035334729982,
    ],
    [
        -0.25704139659236763, -0.034836271547930696, 1.0,
        0.0029469829341401913, -0.10832505057181374, 0.17346217191743402,
    ],
    [
        0.6344185762426044, -0.565365924837119, 0.0029469829341401913,
        1.0, -0.2557272916074059, 0.08555318939628823,
    ],
    [
        -0.14335692127147956, 0.25680622966265476, -0.10832505057181374,
        -0.2557272916074059, 0.9999999999999999, -0.561783021709864,
    ],
    [
        -0.05096921469451416, 0.10502035334729982, 0.17346217191743402,
        0.08555318939628823, -0.561783021709864, 1.0,
    ],
]


def test_solve_options_validation():
    with pytest.raises(ValidationError):
        SolveOptions(eps_schedule=(1e-2, 1e-1))  # not decreasing
    with pytest.raises(ValidationError):
        SolveOptions(r_max=1)
    # a negative seed used to pass here and fail later in np.random.default_rng
    with pytest.raises(ValidationError, match="seed"):
        SolveOptions(seed=-1)
    # a float or a bool count used to pass here and fail later inside search
    for kwargs in ({"r_max": 3.0}, {"x_grid": 4.0}, {"seed": 1.0}, {"r_max": True}, {"x_grid": "4"}):
        with pytest.raises(ValidationError, match=f"{next(iter(kwargs))} must be an integer"):
            SolveOptions(**kwargs)
    # numpy integers are integers
    opts = SolveOptions(r_max=np.int64(3), x_grid=np.int32(4), seed=np.uint8(2))
    assert (opts.r_max, opts.x_grid, opts.seed) == (3, 4, 2)
    # a bool or a string was read as a number, or raised a bare TypeError,
    # and a nested schedule raised TypeError
    for kwargs in (
        {"grad_tol": True},
        {"grad_tol": "1e-8"},
        {"eps_schedule": ("1e-5",)},
        {"eps_schedule": (True,)},
        {"eps_schedule": [[1e-5]]},
    ):
        with pytest.raises(ValidationError, match=f"{next(iter(kwargs))} must be"):
            SolveOptions(**kwargs)
    # a 1-D numpy schedule is a schedule
    assert SolveOptions(eps_schedule=np.array([1e-5, 1e-6])).eps_schedule == (1e-5, 1e-6)


def test_solve_options_reject_non_finite_values():
    # inf and nan used to pass: grad_tol=inf made every stage "converge"
    # at its start point, and a nan eps was only caught by the solver
    for kwargs in (
        {"grad_tol": math.inf},
        {"grad_tol": math.nan},
        {"eps_schedule": (1e-1, math.nan)},
        {"eps_schedule": (math.inf,)},
    ):
        with pytest.raises(ValidationError, match="finite"):
            SolveOptions(**kwargs)


def test_minimize_cs_rs_low_temperature():
    mix = MixtureSpec.pure(2, [0.3])
    q = np.array([[1.0]])
    opts = SolveOptions()
    res = minimize_fixed("cs", mix, q, 2, (0.0, 1.0), 1e-6, opts)
    assert res.converged
    q_star = res.path.level(1)[0, 0]
    assert 0 < q_star < 5e-3  # pushed to the boundary as eps shrinks
    assert res.value == pytest.approx(0.045, abs=1e-3)


def test_minimize_cs_interior_minimizer():
    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    cont = continuation("cs", mix, q, 2, (0.0, 1.0), SolveOptions(eps_schedule=LONG_SCHEDULE))
    assert cont.path.level(1)[0, 0] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-4)


@pytest.mark.parametrize("eps", [1e-1, 1e-6])
@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_minimize_unreachable_tolerance_stops_unconverged(kind, eps):
    # grad_tol below the representer norm's rounding floor: the stage must
    # end at its plateau or no-step exit, flagged, at the converged value
    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    tight = minimize_fixed(kind, mix, q, 2, (0.0, 1.0), eps, SolveOptions(grad_tol=1e-300))
    ref = minimize_fixed(kind, mix, q, 2, (0.0, 1.0), eps, SolveOptions())
    assert ref.converged and not tight.converged
    assert ref.stop_reason == "converged"
    assert tight.stop_reason in ("plateau", "no_step")
    assert tight.iterations <= 2 * 201
    assert tight.value == pytest.approx(ref.value, abs=1e-12)


def test_minimize_parisi_rs():
    mix = MixtureSpec.pure(2, [0.3])
    q = np.array([[1.0]])
    cont = continuation("parisi", mix, q, 2, (0.0, 1.0), SolveOptions())
    assert cont.lam[0, 0] == pytest.approx(1.18, abs=1e-2)
    assert cont.value_at_eps_min == pytest.approx(0.045, abs=1e-4)


def test_iterates_stay_interior():
    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    cont = continuation("cs", mix, q, 2, (0.0, 1.0), SolveOptions())
    assert cont.trace, "expected per-iteration trace rows"
    assert all(row.min_increment_eig > 0 for row in cont.trace)


def test_eps_trace_entries_are_copies_of_the_stages():
    # an eps_trace entry is a fresh dict of seven stage numbers: editing it
    # leaves the stage record, and what the search reads from it, unchanged
    rep = duality_gap(MixtureSpec.pure(2, [0.3]), np.eye(1), SolveOptions(r_max=2, x_grid=2))
    keys = {"eps", "value_perturbed", "value_base", "grad_norm", "iterations", "converged", "stop_reason"}
    for kind, res in (("parisi", rep.argmin_parisi), ("cs", rep.argmin_cs)):
        entries, stages = rep.eps_trace[kind], res.best.stages
        assert len(entries) == len(stages) == 2
        for entry, stage in zip(entries, stages):
            assert set(entry) == keys
            assert (entry["eps"], entry["value_base"], entry["iterations"]) == (
                stage.eps, stage.value_base, stage.iterations
            )
        iterations, value = stages[0].iterations, res.value
        entries[0]["iterations"] = -1
        entries[-1]["value_base"] = math.nan
        entries[-1]["converged"] = False
        assert stages[0].iterations == iterations
        assert res.value == value and res.best.converged


def test_continuation_monotone_and_extrapolation():
    mix = MixtureSpec.pure(2, [0.3])
    q = np.array([[1.0]])
    cont = continuation("cs", mix, q, 2, (0.0, 1.0), SolveOptions())
    bases = [s.value_base for s in cont.stages]
    assert all(a >= b - 1e-9 for a, b in zip(bases, bases[1:]))
    assert cont.value_extrapolated == pytest.approx(0.045, abs=1e-5)
    assert cont.converged


def test_degenerate_mixture_minimum_zero():
    mix = MixtureSpec(n=1, terms=(), h=np.zeros(1))
    q = np.array([[1.0]])
    rep = duality_gap(mix, q, SolveOptions())
    assert rep.min_parisi == pytest.approx(0.0, abs=1e-4)
    assert rep.min_cs == pytest.approx(0.0, abs=1e-4)
    assert rep.argmin_parisi.best.lam[0, 0] == pytest.approx(1.0, abs=1e-2)


def test_search_prefers_smaller_r_on_ties():
    mix = MixtureSpec.pure(2, [0.3])
    q = np.array([[1.0]])
    res = search(mix, q, SolveOptions(r_max=3, x_grid=3))
    assert res.r == 2
    assert res.value == pytest.approx(0.045, abs=1e-4)
    tried_r = {r for r, _, _ in res.candidates}
    assert tried_r == {2, 3}


def test_search_tie_rule_cannot_cycle():
    # at beta = 0.5 the r = 3 sweep met two ties (+3.3e-10 and +8.3e-10) that
    # each pointed to lexicographically smaller weights, and cycled
    # 0.5 -> 0.25 -> 0.75 -> 0.5 for ever
    def expire(signum, frame):
        raise TimeoutError("search did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        rep = duality_gap(MixtureSpec.pure(2, [0.5]), np.array([[1.0]]), SolveOptions(r_max=3, x_grid=4))
        for res in (rep.argmin_parisi, rep.argmin_cs):
            assert res.best.converged
            assert res.value == pytest.approx(pure2_rs_value(0.5), abs=1e-4)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_search_ranks_converged_candidates_first(monkeypatch):
    # stubbed solves: r = 2 converges at 1.0; at r = 3 only the start
    # weights x_1 = 0.5 converge (at 0.9), every other candidate reads 0.5
    import types

    from spinvar import optimize

    def stub(start_converges):
        def fake(kind, mix, constraint, r, x, opts, starts=(None,)):
            converged = r == 2 or (start_converges and x[1] == 0.5)
            value = 1.0 if r == 2 else 0.9 if converged else 0.5
            # a cold result, so the winner needs no cold re-solve
            return types.SimpleNamespace(
                value_at_eps_min=value, converged=converged, start=None,
                lam=None, path=equally_spaced(constraint, r, x),
            )

        return fake

    mix, q = MixtureSpec.pure(2, [1.0]), np.array([[1.0]])
    for start_converges, r, value in ((False, 2, 1.0), (True, 3, 0.9)):
        monkeypatch.setattr(optimize, "continuation", stub(start_converges))
        res = search(mix, q, SolveOptions(r_max=3, x_grid=4))
        assert (res.r, res.value) == (r, value)
        assert res.best.converged


def test_search_nested_spaces():
    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    v2 = search(mix, q, SolveOptions(r_max=2)).value
    v3 = search(mix, q, SolveOptions(r_max=3, x_grid=3)).value
    assert v3 <= v2 + 1e-9


def test_search_weights_stay_on_grid_ticks():
    # with x_grid = 3 the float step 0.5 - 1/3 - 1/6 landed on x_1 = 2.8e-17,
    # a candidate that cannot converge, whose value 0.1673 beat the RS 0.4909
    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    v2 = search(mix, q, SolveOptions(r_max=2)).value
    res = search(mix, q, SolveOptions(r_max=3, x_grid=3))
    assert res.best.converged
    assert res.value == pytest.approx(v2, abs=1e-6)
    assert min(x for _, xs, _ in res.candidates for x in xs[1:]) >= 1 / 24

def test_search_finds_symmetry_breaking_at_low_temperature():
    # deep mixed instance: a second level with an interior weight pays off,
    # and the multiplier form agrees at the weights found
    mix = MixtureSpec(n=1, terms=((2, [0.1]), (4, [2.0])), h=[0.0])
    q = np.array([[1.0]])
    v2 = search(mix, q, SolveOptions(r_max=2)).value
    rep = duality_gap(mix, q, SolveOptions(r_max=3, x_grid=8))
    assert rep.min_cs < v2 - 0.1
    assert rep.argmin_cs.r == 3
    assert 0.0 < rep.argmin_cs.x[1] < 1.0
    assert rep.gap <= 1e-4


def test_gap_scalar_instances():
    q = np.array([[1.0]])
    for beta in (0.3, 1.0):
        rep = duality_gap(MixtureSpec.pure(2, [beta]), q, SolveOptions())
        assert rep.gap <= 1e-4
        assert rep.min_cs == pytest.approx(pure2_rs_value(beta), abs=1e-4)


def test_solvers_reject_a_malformed_constraint():
    # only the problem file's Q was checked: an asymmetric Q solved to a gap
    # of 1.4e-2, and a Q of the wrong size or rank raised numpy's errors
    mix = MixtureSpec(n=2, terms=((2, [0.4, 0.3]),), h=[0.1, 0.0])
    with pytest.raises(ValidationError, match="symmetric"):
        duality_gap(mix, [[1.0, 0.3], [0.2, 1.0]], SolveOptions())
    for q in (np.eye(3), np.ones(2)):
        with pytest.raises(DimensionMismatch, match="n = 2"):
            duality_gap(mix, q, SolveOptions())
    # a unit diagonal stays a rule of the problem file only
    assert duality_gap(mix, np.array([[2.0, 0.25], [0.25, 1.0]]), SolveOptions()).gap <= 1e-6


def test_a_direction_outside_the_domain_ends_the_stage_no_step(monkeypatch):
    # every step length along it leaves the domain, so no trial is accepted
    from spinvar import optimize

    monkeypatch.setattr(optimize, "_newton_direction", lambda obj, hess, grad: 1e40 * grad)
    res = minimize_fixed("cs", MixtureSpec.pure(2, [1.0]), np.eye(1), 2, (0.0, 1.0), 1e-5, SolveOptions())
    assert (res.stop_reason, res.iterations, res.converged) == ("no_step", 1, False)


def test_gap_rejects_a_non_finite_constraint():
    # returned nan minima, flagged unconverged, without an error
    with pytest.raises(ValidationError, match="finite"):
        duality_gap(MixtureSpec.pure(2, [1.0]), np.array([[np.nan]]), SolveOptions())


@pytest.mark.parametrize(
    "terms, value_tol",
    [
        # the species decouple: 0.5 beta^2 for the first, 0 for the second
        (((2, [0.5, 0.0]),), 1e-5),
        # no p = 2 term at all; RS at beta = 0.5 with value beta^2 / 2
        (((4, [0.5]),), 1e-6),
    ],
    ids=["beta2-with-a-zero-entry", "pure4"],
)
def test_gap_solves_the_mixture_as_given(terms, value_tol):
    n = len(terms[0][1])
    rep = duality_gap(MixtureSpec(n=n, terms=terms, h=np.zeros(n)), np.eye(n), SolveOptions())
    assert rep.min_parisi == pytest.approx(0.125, abs=value_tol)
    assert rep.min_cs == pytest.approx(0.125, abs=value_tol)
    assert rep.gap <= 1e-4
    assert rep.argmin_parisi.best.converged and rep.argmin_cs.best.converged


def test_diagonal_separability_identity():
    # on diagonal data the functionals split into species sums exactly
    from spinvar.functionals import eval_cs, eval_parisi
    from spinvar.path import DiscretePath

    rng = np.random.default_rng(41)
    for _ in range(20):
        d1, d2 = rng.uniform(0.1, 0.9, 2)
        mix = MixtureSpec(n=2, terms=((2, rng.uniform(0.2, 0.8, 2)),), h=rng.uniform(-0.4, 0.4, 2))
        path = DiscretePath(
            (0.0, 1.0), (np.diag([d1, d2]), np.eye(2))
        )
        lam = np.diag(rng.uniform(2.5, 4.0, 2))
        total_p = 0.0
        total_c = 0.0
        for j in range(2):
            sp = DiscretePath((0.0, 1.0), (np.array([[path.level(1)[j, j]]]), np.eye(1)))
            total_p += eval_parisi(np.array([[lam[j, j]]]), sp, mix.species(j))
            total_c += eval_cs(sp, mix.species(j))
        assert eval_parisi(lam, path, mix) == pytest.approx(total_p, abs=1e-12)
        assert eval_cs(path, mix) == pytest.approx(total_c, abs=1e-12)


@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_full_solve_stays_diagonal_on_a_sign_symmetric_instance(kind):
    # conjugating by S = diag(1, -1) fixes xi, hh^T (h_2 = 0) and Q = I, so
    # the full solve keeps every off-diagonal entry at exactly 0.0
    mix = MixtureSpec(
        n=2, terms=((2, np.array([0.3, 0.5])), (4, np.array([0.6, 0.9]))), h=np.array([0.2, 0.0])
    )
    q = np.eye(2)
    off = ~np.eye(2, dtype=bool)
    fixed = minimize_fixed(kind, mix, q, 3, (0.0, 0.5, 1.0), 1e-3, SolveOptions())
    best = getattr(duality_gap(mix, q, SolveOptions(r_max=3)), f"argmin_{kind}").best
    for path, lam in ((fixed.path, fixed.lam), (best.path, best.lam)):
        for level in path.qs:
            assert np.all(level[off] == 0.0)
        assert lam is None or np.all(lam[off] == 0.0)


def test_gap_random_family_robustness():
    # broader than the acceptance family: quartic terms, fields, varied
    # conditioning, and an occasional weight sweep
    rng = np.random.default_rng(123)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        terms = [(2, rng.uniform(0.1, 0.8, n))]
        if rng.uniform() < 0.6:
            terms.append((4, rng.uniform(0.0, 1.5, n)))
        h = rng.uniform(-0.5, 0.5, n) * (rng.uniform() < 0.6)
        mix = MixtureSpec(n=n, terms=tuple(terms), h=h)
        q = random_correlation(rng, n, jitter=float(rng.uniform(0.1, 0.6)))
        r_max = 3 if rng.uniform() < 0.3 else 2
        rep = duality_gap(mix, q, SolveOptions(r_max=r_max, x_grid=4))
        assert rep.gap <= 5e-4
        assert rep.argmin_parisi.best.converged and rep.argmin_cs.best.converged


def test_gap_parisi_side_leaves_the_warm_branch():
    # both weight searches used to settle on a warm branch at x = (0, 0.8125,
    # 1) worth 2.968963 with a gap of 3.0e-7.  A cold solve of either form
    # at the search's weights reaches 2.965429; the multiplier-free answer
    # was reported from the warm winner, 3.5e-3 above it, until the winner
    # was re-solved cold
    rng = np.random.default_rng(22)
    n = int(rng.integers(2, 5))
    terms = ((2, rng.uniform(0.1, 0.8, n)), (4, rng.uniform(0.0, 1.5, n)))
    h = rng.uniform(-0.5, 0.5, n) * (rng.uniform() < 0.5)
    q = random_correlation(rng, n, jitter=float(rng.uniform(0.1, 0.6)))
    r_max = int(rng.integers(3, 5))
    rep = duality_gap(MixtureSpec(n=n, terms=terms, h=h), q, SolveOptions(r_max=r_max, x_grid=4))
    assert rep.argmin_parisi.best.converged and rep.argmin_cs.best.converged
    assert rep.min_parisi <= 2.9654293 + 1e-6
    assert rep.min_cs <= 2.9654293 + 1e-6
    assert rep.gap <= 1e-6


def test_no_feasible_start_reported():
    from spinvar.errors import InfeasibleMultiplier, NoFeasibleStart

    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    # a warm start outside the multiplier domain must be rejected, not
    # silently repaired, and the report names the test that failed
    broken = (np.array([[0.1]]), [np.array([[0.5]])])
    with pytest.raises(NoFeasibleStart, match="Lambda_1") as info:
        minimize_fixed("parisi", mix, q, 2, (0.0, 1.0), 1e-2, SolveOptions(), start=broken)
    assert isinstance(info.value.__cause__, InfeasibleMultiplier)


def test_determinism():
    rng = np.random.default_rng(42)
    q = random_correlation(rng, 2)
    mix = MixtureSpec(n=2, terms=((2, np.array([0.4, 0.3])),), h=np.array([0.1, 0.0]))
    r1 = duality_gap(mix, q, SolveOptions())
    r2 = duality_gap(mix, q, SolveOptions())
    assert r1.min_parisi == r2.min_parisi
    assert r1.min_cs == r2.min_cs
    np.testing.assert_array_equal(r1.argmin_cs.best.path.level(1), r2.argmin_cs.best.path.level(1))


def test_gap_flat_valley_member_converges():
    mix = MixtureSpec(n=6, terms=tuple((p, np.array(c)) for p, c in CRAWL_TERMS), h=np.array(CRAWL_H))
    rep = duality_gap(mix, np.array(CRAWL_Q), SolveOptions(r_max=2))
    assert rep.argmin_parisi.best.converged and rep.argmin_cs.best.converged
    assert rep.gap <= 5e-4


def _newton_cases():
    """(mixture, Q, r, x, eps, whether a line-search trial leaves the domain)."""
    rng = np.random.default_rng(8)
    q = random_correlation(rng, 8)
    mix = MixtureSpec(n=8, terms=((2, rng.uniform(0.2, 0.6, 8)), (4, rng.uniform(0.0, 0.5, 8))),
                      h=rng.uniform(-0.3, 0.3, 8))
    return (
        (mix, q, 2, (0.0, 1.0), 1e-2, False),
        # 5 of its 12 kernel calls fall outside the domain
        (MixtureSpec.pure(2, [1.0]), np.eye(1), 3, (0.0, 0.5, 1.0), 1e-5, True),
    )


def test_newton_iteration_evaluates_each_point_once(monkeypatch):
    # every point the solver visits -- the start and each line-search trial
    # -- costs one forward pass that gives its value and gradient; only the
    # point a Newton step starts from runs its deferred tangent pass for the
    # Hessian, once, so a rejected trial, a trial outside the domain (which
    # raises in the kernel, and the step halves) and the final point run none
    from spinvar import optimize

    calls = []  # [blocks, value, tangent passes] of each kernel call
    kernel = optimize.eval_stack

    def counted(*args, **kwargs):
        # recorded before the kernel runs; a call that raises keeps value None
        call = [np.array(args[4]), None, 0]
        calls.append(call)
        value, base, reps, tangent = kernel(*args, **kwargs)
        call[1] = value

        def tangent_pass(directions):
            call[2] += 1
            return tangent(directions)

        return value, base, reps, tangent_pass

    monkeypatch.setattr(optimize, "eval_stack", counted)
    for mix, q, r, x, eps, leaves_domain in _newton_cases():
        calls.clear()
        res = minimize_fixed("parisi", mix, q, r, x, eps, SolveOptions())
        assert res.converged and res.iterations > 2

        assert all(blocks.ndim == 3 for blocks, _, _ in calls)
        assert any(value is None for _, value, _ in calls) == leaves_domain
        points = [blocks for blocks, _, _ in calls]
        assert len({p.tobytes() for p in points}) == len(points)  # no point twice
        # the calls after the start split into line searches, each backing off
        # from its full step by halves and ending at the next iterate; a
        # search holds the indices of its calls
        point, searches = points[0], []
        for i, p in enumerate(points[1:], start=1):
            if searches:
                full = points[searches[-1][0]] - point
                if np.allclose(p - point, 0.5 ** len(searches[-1]) * full, rtol=0, atol=1e-12):
                    searches[-1].append(i)
                    continue
                point = points[searches[-1][-1]]
            searches.append([i])
        assert len(searches) == res.iterations - 1  # the converged iteration takes no step
        for k, trials in enumerate(searches):
            assert calls[trials[-1]][1] == res.trace[k + 1].value
        assert len(calls) == 1 + sum(len(trials) for trials in searches)
        # one tangent pass at the start and at each accepted trial but the last
        starts = {0} | {trials[-1] for trials in searches[:-1]}
        assert [passes for *_, passes in calls] == [int(i in starts) for i in range(len(calls))]
        assert sum(passes for *_, passes in calls) == res.iterations - 1
        # the stage reports the same counts of forward and tangent passes
        assert res.evaluations == len(calls)
        assert res.hessians == sum(passes for *_, passes in calls)


def _stage_cases():
    """(kind, mixture, Q, r, x, whether a line-search trial must leave the
    domain); some random cases leave it too."""
    cases = []
    for kind in ("parisi", "cs"):
        for n in (1, 3, 8):
            for r in (2, 3):
                rng = np.random.default_rng(100 * n + r)
                x = (0.0, 1.0) if r == 2 else (0.0, 0.5, 1.0)
                cases.append((kind, random_mixture(rng, n), random_correlation(rng, n), r, x, False))
    # the second case of _newton_cases, whose first stage backs off the domain edge
    cases.append(("parisi", MixtureSpec.pure(2, [1.0]), np.eye(1), 3, (0.0, 0.5, 1.0), True))
    return cases


@pytest.mark.parametrize("kind, mix, q, r, x, leaves_domain", _stage_cases())
def test_stage_base_value_is_the_unperturbed_form(monkeypatch, kind, mix, q, r, x, leaves_domain):
    # each stage's base value comes from the forward pass at its final point,
    # and is exactly the unperturbed form evaluated there on its own
    from spinvar import optimize
    from spinvar.errors import DomainError
    from spinvar.functionals import eval_perturbed

    results, raised = [], []
    solve, kernel = optimize.minimize_fixed, optimize.eval_stack

    def recorded(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    def watched(*args, **kwargs):
        try:
            return kernel(*args, **kwargs)
        except DomainError:
            raised.append(args[4])
            raise

    monkeypatch.setattr(optimize, "minimize_fixed", recorded)
    monkeypatch.setattr(optimize, "eval_stack", watched)
    cont = continuation(kind, mix, q, r, x, SolveOptions())
    assert cont.converged and len(results) == 2
    assert raised or not leaves_domain
    assert [s.value_base for s in cont.stages] == [res.value_base for res in results]
    for res in results:
        assert res.value_base == eval_perturbed(kind, 0.0, res.path, mix, lam=res.lam)


def test_continuation_needs_a_start():
    # an empty start list used to end in an UnboundLocalError
    with pytest.raises(ValueError, match="starts"):
        continuation("cs", MixtureSpec.pure(2, [1.0]), np.eye(1), 2, (0.0, 1.0), SolveOptions(), starts=())


def _stage_numbers(res):
    """Every number a stage result reports, for a comparison bit for bit."""
    rows = [(t.stage, t.eps, t.iteration, t.value, t.grad_norm, t.min_increment_eig) for t in res.trace]
    lam = None if res.lam is None else res.lam.tobytes()
    return (res.value, res.value_base, res.grad_norm, res.iterations, res.stop_reason,
            res.evaluations, res.hessians, res.path.qs.tobytes(), lam, rows)


def _solved_alone(kind, mix, q, r, x, eps):
    """The stage, its mixture given as (n, terms, h), solved by a fresh
    import of the package, whose module-level caches have seen no other
    stage; this process's modules are put back afterwards."""
    ours = {k: v for k, v in sys.modules.items() if k == "spinvar" or k.startswith("spinvar.")}
    for k in ours:
        del sys.modules[k]
    try:
        fresh = importlib.import_module("spinvar.optimize")
        n, terms, h = mix
        mix = importlib.import_module("spinvar.matcore").MixtureSpec(n=n, terms=terms, h=h)
        return _stage_numbers(fresh.minimize_fixed(kind, mix, q, r, x, eps, fresh.SolveOptions()))
    finally:
        for k in [k for k in sys.modules if k == "spinvar" or k.startswith("spinvar.")]:
            del sys.modules[k]
        sys.modules.update(ours)


def test_stage_constants_stay_with_their_stage():
    # stages of both forms at two weight vectors that share a block layout
    # (each with its own mixture and Q), and at two n, interleaved in one
    # process, give exactly what each gives alone: a constant cached by its
    # shape alone would carry one stage's weights, mixture or Q into the
    # next stage of that shape
    cases = []
    for n in (1, 2):
        rng = np.random.default_rng(70 + n)
        for x in ((0.0, 0.25, 1.0), (0.0, 0.75, 1.0)):
            terms = ((2, rng.uniform(0.2, 0.6, n)), (4, rng.uniform(0.0, 0.3, n)))
            mix = (n, terms, rng.uniform(-0.3, 0.3, n))
            q = random_correlation(rng, n)
            for kind in ("parisi", "cs"):
                cases.append((kind, mix, q, 3, x, 1e-5))
    alone = [_solved_alone(*case) for case in cases]
    for order in (range(len(cases)), [1, 5, 3, 7, 0, 4, 2, 6], reversed(range(len(cases)))):
        for i in order:
            kind, (n, terms, h), q, r, x, eps = cases[i]
            res = minimize_fixed(kind, MixtureSpec(n=n, terms=terms, h=h), q, r, x, eps, SolveOptions())
            assert _stage_numbers(res) == alone[i], (kind, n, x)


def test_solves_at_new_weights_keep_no_memory():
    # what a stage builds from its weights is freed with the stage: after
    # the first of 50 continuations at distinct weights, the other 49 leave
    # the traced memory within 32 KiB, where a cache keyed by the weights
    # keeps 1 KiB or more per solve (a dict of plans, 55-80 KiB in all; of
    # tangent directions, 145-165 KiB).  numpy keeps freed small buffers for
    # reuse, and those taken while tracing stay traced, so 50 solves at
    # other weights turn its cache over to traced buffers first; what is
    # left of that turnover is 7-18 KiB
    rng = np.random.default_rng(9)
    mix, q = random_mixture(rng, 2), random_correlation(rng, 2)
    opts = SolveOptions()
    tracemalloc.start()
    try:
        for k in range(50):
            continuation("cs", mix, q, 3, (0.0, (k + 0.5) / 52, 1.0), opts)
        weights = [(0.0, (k + 1) / 52, 1.0) for k in range(50)]
        continuation("cs", mix, q, 3, weights[0], opts)
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        for x in weights[1:]:
            continuation("cs", mix, q, 3, x, opts)
        gc.collect()
        last = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert last - first < 32 * 1024


# gap-rsb benchmark member family-n2-p4 (unjittered); its r = 3 search
# wins at an interior weight
FAMILY_N2_P4 = MixtureSpec(
    n=2,
    terms=(
        (2, np.array([0.10653932208953415, 0.757040074589229])),
        (4, np.array([0.6746805379748024, 1.1354718035999225])),
    ),
    h=np.zeros(2),
)
FAMILY_N2_P4_Q = np.array([[0.9999999999999999, 0.38238669318822893],
                           [0.38238669318822893, 1.0000000000000004]])


@pytest.mark.parametrize("seed", range(6))
def test_warm_start_is_feasible_at_every_neighbour(seed):
    # a warm stage starts at its source's final levels; they stay feasible
    # for the multiplier-free form at every move on the 1/32 grid
    rng = np.random.default_rng(seed)
    n, r = int(rng.integers(1, 5)), int(rng.integers(3, 5))
    mix = random_mixture(rng, n)
    q = random_correlation(rng, n)
    levels = random_feasible_path(rng, q, r).qs[:-1]
    y = (0.0,) + tuple(np.sort(rng.choice(np.arange(2, 31), r - 2, replace=False)) / 32) + (1.0,)
    moves = []
    for k in range(1, r - 1):
        lo, hi = y[k - 1], y[k + 1]
        for v in (y[k] + 1 / 32, y[k] - 1 / 32, 1 / 32, 31 / 32):
            if lo <= v <= hi:
                moves.append(y[:k] + (v,) + y[k + 1:])
    moves.append((0.0,) + (1 / 32,) * (r - 2) + (1.0,))
    moves.append((0.0,) + (31 / 32,) * (r - 2) + (1.0,))
    for x in moves:
        d_sequence(DiscretePath(x, tuple(levels) + (q,)))
        # raises outside the domain
        value, _, _, _ = eval_stack(Weights("cs", x), mix, q, 1e-5, np.array(levels))
        assert np.isfinite(value), x


@pytest.mark.parametrize(
    "mix, q",
    [(FAMILY_N2_P4, FAMILY_N2_P4_Q), (MixtureSpec.pure(4, [2.0]), np.eye(1))],
    ids=["family-n2-p4", "pure4-beta2"],
)
@pytest.mark.parametrize("kind", ["cs"])
def test_warm_continuation_matches_cold(mix, q, kind):
    opts = SolveOptions()
    source = continuation(kind, mix, q, 3, (0.0, 0.5, 1.0), opts)
    for x1 in (0.75, 0.25):
        x = (0.0, x1, 1.0)
        warm = continuation(kind, mix, q, 3, x, opts, starts=((source.lam, source.path),))
        cold = continuation(kind, mix, q, 3, x, opts)
        assert warm.converged and cold.converged
        assert warm.value_at_eps_min == pytest.approx(cold.value_at_eps_min, abs=1e-10)
        # only the last stage runs, under its schedule index
        assert [s.eps for s in warm.stages] == list(opts.eps_schedule[-1:])
        last = len(opts.eps_schedule) - 1
        assert {row.stage for row in warm.trace} == {last}


@pytest.mark.parametrize("field", [False, True], ids=["h0", "h"])
@pytest.mark.parametrize("p4", [False, True], ids=["p2", "p4"])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_continuation_independent_of_schedule(n, p4, field):
    # a cold continuation that starts at eps = 1e-5 lands where the
    # six-stage path does, at r = 2 and r = 3 and for both forms
    rng = np.random.default_rng([n, p4, field])
    terms = [(2, rng.uniform(0.1, 0.8, n))]
    if p4:
        terms.append((4, rng.uniform(0.0, 1.5, n)))
    h = rng.uniform(-0.5, 0.5, n) if field else np.zeros(n)
    mix = MixtureSpec(n=n, terms=tuple(terms), h=h)
    q = random_correlation(rng, n)
    for r, x in ((2, (0.0, 1.0)), (3, (0.0, 0.5, 1.0))):
        for kind in ("parisi", "cs"):
            short = continuation(kind, mix, q, r, x, SolveOptions())
            long = continuation(kind, mix, q, r, x, SolveOptions(eps_schedule=LONG_SCHEDULE))
            assert short.converged and long.converged, (kind, r)
            assert short.value_at_eps_min == pytest.approx(long.value_at_eps_min, abs=1e-10)
            assert short.value_extrapolated == pytest.approx(long.value_extrapolated, abs=1e-10)


@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_default_schedule_keeps_the_stationary_branch(kind):
    # pure p=4, beta=1.5 at x = (0, 0.75, 1) has two stationary branches,
    # q ~ 0.7655 (value 1.128527) and q -> 0 (1.125000); the six-stage
    # path reaches the first, and so must the direct start at eps = 1e-5
    mix = MixtureSpec.pure(4, [1.5])
    cont = continuation(kind, mix, np.eye(1), 3, (0.0, 0.75, 1.0), SolveOptions())
    assert cont.converged
    assert cont.value_at_eps_min == pytest.approx(1.1285266, abs=1e-6)


def test_search_starts_one_candidate_cold_per_form_and_r(monkeypatch):
    # one cold start, the r = 2 candidate; the first r = 3 candidate grows
    # from the r = 2 answer, and every later one is warm at its own r
    calls = _record_continuations(monkeypatch)
    search(MixtureSpec.pure(2, [1.0]), np.eye(1), SolveOptions(r_max=3))
    assert {kind for kind, *_ in calls} == {"cs"}
    assert [warm for *_, warm, _ in calls].count(None) == 1
    for r in (2, 3):
        mine = [warm for _, rr, _, warm, _ in calls if rr == r]
        if r == 2:
            assert mine[0] is None
        else:
            assert (mine[0][0], type(mine[0][1]), mine[0][1].r) == (None, DiscretePath, r)
        assert all((lam, path.r) == (None, r) for lam, path in mine[1:])
    assert len(calls) > 2  # the r = 3 sweep ran warm candidates


def test_gap_solves_the_multiplier_form_once_cold_at_the_search_winner(monkeypatch):
    # the certificate rests on the multiplier form's own cold start
    calls = _record_continuations(monkeypatch)
    rep = duality_gap(MixtureSpec.pure(4, [2.0]), np.eye(1), SolveOptions(r_max=3))
    parisi = [(r, x, warm, result) for kind, r, x, warm, result in calls if kind == "parisi"]
    assert len(parisi) == 1
    r, x, warm, result = parisi[0]
    assert (r, x, warm) == (rep.argmin_cs.r, rep.argmin_cs.x, None)
    assert rep.argmin_parisi.best is result
    assert rep.argmin_parisi.candidates == [(r, x, result.value_at_eps_min)]


def _record_continuations(monkeypatch):
    """Wrap ``optimize.continuation``; returns the list of (kind, r, x, starts[0], result) it fills."""
    from spinvar import optimize

    calls = []
    real = optimize.continuation

    def recorded(kind, mix, constraint, r, x, opts, starts=(None,)):
        result = real(kind, mix, constraint, r, x, opts, starts=starts)
        calls.append((kind, r, tuple(x), starts[0], result))
        return result

    monkeypatch.setattr(optimize, "continuation", recorded)
    return calls


def test_gap_ends_every_candidate_converged(monkeypatch):
    # a far warm jump used to stall this cs candidate x = (0, 0.875, 1) at the
    # plateau stop in both stages (205 and 202 iterations)
    mix = MixtureSpec(
        n=3,
        terms=((2, np.array([1.12, 0.40, 0.17])), (4, np.array([1.58, 1.72, 1.19]))),
        h=np.array([-0.19, 0.42, 0.43]),
    )
    q = np.array([[1.0, -0.33, 0.36], [-0.33, 1.0, -0.57], [0.36, -0.57, 1.0]])
    calls = _record_continuations(monkeypatch)
    rep = duality_gap(mix, q, SolveOptions(r_max=3, x_grid=8))
    final = {(kind, x): result.converged for kind, _, x, _, result in calls}
    assert all(final.values()), [key for key, ok in final.items() if not ok]
    assert rep.argmin_parisi.x == rep.argmin_cs.x == (0.0, 0.5, 1.0)
    assert rep.min_parisi == pytest.approx(3.9381912029506374, abs=1e-10)
    assert rep.min_cs == pytest.approx(3.938191157752124, abs=1e-10)


def test_search_candidates_are_the_continuations_it_ran(monkeypatch):
    # the last call is the warm winner's cold re-solve, the answer, not a candidate
    calls = _record_continuations(monkeypatch)
    res = search(MixtureSpec.pure(4, [2.0]), np.eye(1), SolveOptions(r_max=3))
    ran = [(r, x, result.value_at_eps_min) for _, r, x, _, result in calls[:-1]]
    assert res.candidates == ran
    assert len({(r, x) for r, x, _ in ran}) == len(ran)


def test_search_re_solves_a_warm_winner_cold(monkeypatch):
    # pure p = 4 at beta = 2 wins at r = 3, x = (0, 0.625, 1), a warm
    # candidate: the answer is one more cold continuation at those weights
    calls = _record_continuations(monkeypatch)
    res = search(MixtureSpec.pure(4, [2.0]), np.eye(1), SolveOptions(r_max=3))
    assert (res.r, res.x) == (3, (0.0, 0.625, 1.0))
    kind, r, x, warm, result = calls[-1]
    assert (kind, r, x, warm) == ("cs", res.r, res.x, None)
    assert res.best is result
    assert len(calls) == len(res.candidates) + 1

    # pure p = 2 at beta = 1 wins with the cold first candidate at r = 2
    calls.clear()
    res = search(MixtureSpec.pure(2, [1.0]), np.eye(1), SolveOptions(r_max=3))
    assert res.r == 2
    assert len(calls) == len(res.candidates)
    assert res.best is next(result for _, r, _, warm, result in calls if r == 2 and warm is None)


def test_search_re_solves_a_warm_winner_cold_under_a_one_stage_schedule(monkeypatch):
    # with one stage a warm candidate runs as many stages as a cold one; the
    # winner at r = 3, x = (0, 0.625, 1) is warm and still gets its cold solve
    calls = _record_continuations(monkeypatch)
    res = search(MixtureSpec.pure(4, [2.0]), np.eye(1), SolveOptions(r_max=3, eps_schedule=(1e-6,)))
    assert (res.r, res.x) == (3, (0.0, 0.625, 1.0))
    kind, r, x, start, result = calls[-1]
    assert (kind, r, x, start) == ("cs", res.r, res.x, None)
    assert res.best is result and result.start is None
    assert len(calls) == len(res.candidates) + 1


def test_continuation_keeps_the_first_start_that_converges(monkeypatch):
    from spinvar import optimize

    mix, q, opts = MixtureSpec.pure(4, [2.0]), np.eye(1), SolveOptions()
    cold = continuation("cs", mix, q, 3, (0.0, 0.5, 1.0), opts, starts=(None,))
    assert cold.converged and cold.start is None
    assert [s.eps for s in cold.stages] == list(opts.eps_schedule)
    source = (cold.lam, cold.path)
    x = (0.0, 0.625, 1.0)
    warm = continuation("cs", mix, q, 3, x, opts, starts=(source, None))
    assert warm.converged and warm.start is source
    assert [s.eps for s in warm.stages] == list(opts.eps_schedule[-1:])

    # when no start converges, every start runs and the last one's result comes back
    real = optimize.minimize_fixed
    stages = []

    def unconverged(*args, **kwargs):
        stages.append(replace(real(*args, **kwargs), converged=False))
        return stages[-1]

    monkeypatch.setattr(optimize, "minimize_fixed", unconverged)
    for starts, last in (((source, None), 2), ((None, source), 1)):
        stages.clear()
        cont = continuation("cs", mix, q, 3, x, opts, starts=starts)
        assert not cont.converged and cont.start is starts[-1]
        assert len(stages) == 3 and len(cont.stages) == last
        assert all(a is b for a, b in zip(cont.stages, stages[-last:]))


def test_continuation_values_come_from_its_stages():
    cont = continuation("cs", MixtureSpec.pure(4, [2.0]), np.eye(1), 3, (0.0, 0.5, 1.0), SolveOptions())
    assert len(cont.stages) == 2
    last = cont.stages[-1].value_base
    one = replace(cont, stages=cont.stages[-1:])
    assert one.value_extrapolated == one.value_at_eps_min == last
    s1, s0 = cont.stages
    assert cont.value_at_eps_min == last
    assert cont.value_extrapolated == (s1.eps * s0.value_base - s0.eps * s1.value_base) / (s1.eps - s0.eps)


def test_warm_candidates_start_from_the_nearest_converged_candidate(monkeypatch):
    mix, q = MixtureSpec.pure(4, [2.0]), np.eye(1)
    opts = SolveOptions(r_max=4, x_grid=4)
    # the weights the r = 3 sweep ends at: it wins its own search
    best3 = search(mix, q, replace(opts, r_max=3))
    assert best3.r == 3
    answers = {2: (0.0, 1.0), 3: best3.x}
    calls = _record_continuations(monkeypatch)
    search(mix, q, opts)
    solved = []  # (r, ticks, converged) of the candidates solved so far
    warm_calls = grown_calls = 0
    for _, r, x, warm, result in calls:
        denom = 4 * opts.x_grid * (r - 1)
        ticks = tuple(round(v * denom) for v in x[1:-1])
        if warm is not None and warm[1].x == x:
            # a first candidate grows from the r - 1 sweep's answer
            grown_calls += 1
            assert not any(rr == r for rr, _, _ in solved), x
            source = next(res for _, rr, xx, _, res in calls if (rr, xx) == (r - 1, answers[r - 1]))
            grown = grown_start(source.path, x)
            assert warm[1].x == grown.x
            assert all(np.array_equal(a, b) for a, b in zip(warm[1].qs, grown.qs))
        elif warm is not None:
            warm_calls += 1
            lam, path = warm
            assert path.r == r and next(res for *_, res in calls if res.path is path).converged
            source = tuple(round(v * denom) for v in path.x[1:-1])
            nearest = min(
                (max(abs(a - b) for a, b in zip(t, ticks)), t) for rr, t, ok in solved if rr == r and ok
            )
            assert source == nearest[1], x
        solved.append((r, ticks, result.converged))
    assert grown_calls == 2
    assert warm_calls > 10


@pytest.mark.parametrize(
    "mix, q, x1",
    [(FAMILY_N2_P4, FAMILY_N2_P4_Q, 0.8125), (MixtureSpec.pure(4, [2.0]), np.eye(1), 0.625)],
    ids=["family-n2-p4", "pure4-beta2"],
)
@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_warm_winner_carries_both_final_stages(mix, q, x1, kind):
    # the cs winner is a warm candidate, which ran only the last stage; the
    # answer re-solves it cold over the whole schedule, and the parisi side
    # runs the whole schedule cold at the same weights
    opts = SolveOptions(r_max=3)
    res = getattr(duality_gap(mix, q, opts), f"argmin_{kind}")
    assert (res.r, res.x) == (3, (0.0, x1, 1.0))
    assert res.best.converged
    assert [s.eps for s in res.best.stages] == list(opts.eps_schedule[-2:])
    assert [row.stage for row in res.best.trace] == sorted(row.stage for row in res.best.trace)
    assert {row.stage for row in res.best.trace} == {0, 1}
    cold = continuation(kind, mix, q, res.r, res.x, opts)
    assert res.value == res.best.value_at_eps_min
    assert res.best.value_extrapolated == pytest.approx(cold.value_extrapolated, abs=1e-10)
    assert res.best.value_at_eps_min == pytest.approx(cold.value_at_eps_min, abs=1e-10)


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_grown_start_is_feasible_for_both_forms(seed, r):
    # splitting the top free level of an r - 1 path keeps every increment
    # positive definite, so the grown levels are feasible at any weights
    rng = np.random.default_rng([seed, r])
    n = int(rng.integers(1, 5))
    mix = random_mixture(rng, n)
    q = random_correlation(rng, n)
    path = random_feasible_path(rng, q, r - 1)
    x = (0.0,) + tuple(np.sort(rng.choice(np.arange(1, 32), r - 2, replace=False)) / 32) + (1.0,)
    grown = grown_start(path, x)
    assert (grown.x, grown.r) == (x, r)
    for k in range(r - 2):
        np.testing.assert_array_equal(grown.level(k), path.level(k))
    assert min(np.linalg.eigvalsh(grown.increments[k]).min() for k in range(r)) > 0
    levels = np.array(grown.qs[:-1])
    for kind in ("cs", "parisi"):
        lam, _ = default_start(kind, mix, q, r, x)
        if kind == "cs":
            d_sequence(grown)  # raises outside the domain
        else:
            lambda_sequence(lam, grown, mix)
        plan = Weights(kind, x)
        value, _, _, _ = eval_stack(plan, mix, q, 1e-5, plan.join(lam, levels))
        assert np.isfinite(value), kind


def test_grown_start_needs_a_free_level():
    with pytest.raises(ValidationError, match="r >= 2, got r = 1"):
        grown_start(DiscretePath((0.0,), [np.eye(1)]), (0.0, 1.0))


PURE2 = MixtureSpec.pure(2, [1.0])
HALF_PATH = DiscretePath((0.0, 1.0), [0.5 * np.eye(1), np.eye(1)])
THIRDS_PATH = DiscretePath((0.0, 0.5, 1.0), [0.3 * np.eye(1), 0.6 * np.eye(1), np.eye(1)])


@pytest.mark.parametrize("kind, r, x, start, error, match", [
    # each used to escape as numpy's IndexError, run kernel passes on a chain
    # broadcast from the wrong shapes, or (the last) return an r = 2 answer
    ("parisi", 2, (0.0, 1.0), (None, HALF_PATH), ValueError, "needs lam"),
    ("cs", 3, (0.0, 0.5, 1.0), (None, HALF_PATH), DimensionMismatch, r"\(2, 1, 1\)"),
    ("cs", 2, (0.0, 1.0), (None, THIRDS_PATH), DimensionMismatch, r"\(1, 1, 1\)"),
    ("parisi", 2, (0.0, 1.0), (3.0 * np.eye(2), HALF_PATH), DimensionMismatch, r"\(2, 2\)"),
    ("cs", 5, (0.0, 1.0), (None, HALF_PATH), ValidationError, "r = 5"),
], ids=["no-multiplier", "too-few-levels", "too-many-levels", "multiplier-shape", "r-not-len-x"])
def test_a_bad_start_is_rejected_before_any_kernel_pass(monkeypatch, kind, r, x, start, error, match):
    from spinvar import optimize

    calls = []
    kernel = optimize.eval_stack
    monkeypatch.setattr(optimize, "eval_stack", lambda *args: calls.append(args) or kernel(*args))
    with pytest.raises(error, match=match):
        continuation(kind, PURE2, np.eye(1), r, x, SolveOptions(), starts=(start,))
    assert calls == []


def _newton_obj(dim):
    import types

    metric = np.random.default_rng(dim).choice([1.0, 2.0], dim)
    return types.SimpleNamespace(metric=metric, metric_diag=np.diag(metric))


def test_newton_direction_is_the_plain_solve_on_a_positive_definite_hessian():
    rng = np.random.default_rng(3)
    for dim in (1, 3, 6, 12):
        a = rng.normal(size=(dim, dim))
        hess = a @ a.T + 0.1 * np.eye(dim)
        hess = 0.5 * (hess + hess.T)  # exactly symmetric, as the solver's is
        grad = rng.normal(size=dim)
        direction = _newton_direction(_newton_obj(dim), hess, grad)
        np.testing.assert_array_equal(direction, np.linalg.solve(hess, -grad))


def test_newton_direction_descends_on_an_indefinite_hessian():
    rng = np.random.default_rng(4)
    for dim in (2, 3, 6, 12):
        obj = _newton_obj(dim)
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        for eigs in (rng.uniform(-2.0, 2.0, dim), np.r_[-1e-3, np.ones(dim - 1)]):
            hess = basis @ np.diag(eigs) @ basis.T
            grad = rng.normal(size=dim)
            assert grad @ _newton_direction(obj, hess, grad) < 0, eigs
        # a singular one fails its Cholesky factorization too; the floor shifts it
        grad = rng.normal(size=dim)
        direction = _newton_direction(obj, np.diag(np.r_[0.0, np.ones(dim - 1)]), grad)
        assert np.isfinite(direction).all() and grad @ direction < 0


def test_newton_direction_shifts_a_hessian_that_factors_but_does_not_solve():
    # Q diag(0, 1, 1) Q^T passes its Cholesky factorization in floating
    # point, but the unshifted solve finds it singular
    basis = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
    hess = basis @ np.diag([0.0, 1.0, 1.0]) @ basis.T
    np.linalg.cholesky(0.5 * (hess + hess.T))
    grad = np.random.default_rng(1).normal(size=3)
    direction = _newton_direction(_newton_obj(3), hess, grad)
    assert np.isfinite(direction).all() and grad @ direction < 0


@pytest.mark.parametrize("r_max", [4, 5])
def test_search_stays_replica_symmetric_when_rs_is_the_answer(r_max):
    # pure p = 2 at beta = 1 is RS: each r >= 3 sweep grows from its own
    # r - 1 sweep's answer, not from the r = 2 incumbent, so the grown
    # start has as many levels as its r needs
    res = search(MixtureSpec.pure(2, [1.0]), np.eye(1), SolveOptions(r_max=r_max))
    assert res.r == 2 and res.best.converged
    assert res.value == pytest.approx(pure2_rs_value(1.0), abs=1e-4)
    assert {r for r, _, _ in res.candidates} == set(range(2, r_max + 1))


def test_newton_steps_off_a_saddle_of_a_split_start():
    # family-n2-p4 (gap-rsb, jittered): the r = 2 answer with its level split
    # by tau = 0.01 starts the r = 3 stage near a saddle, where a ladder of
    # fixed Hessian shifts crawled for 118 iterations
    mix = MixtureSpec(
        n=2,
        terms=(
            (2, np.array([0.11152229088816622, 0.7698032574587464])),
            (4, np.array([0.7048093965029576, 1.1881013553293382])),
        ),
        h=np.zeros(2),
    )
    q = np.array([[1.0, 0.3647668614032365], [0.3647668614032365, 1.0]])
    opts = SolveOptions()
    q1 = continuation("cs", mix, q, 2, (0.0, 1.0), opts).path.level(1)
    tau = 0.01
    levels = [q1 - tau * q1, q1 + tau * (q - q1)]
    res = minimize_fixed("cs", mix, q, 3, (0.0, 0.5, 1.0), 1e-6, opts, start=(None, levels))
    assert res.converged
    assert res.iterations <= 20
