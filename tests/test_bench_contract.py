"""The names and signatures ``perfbench`` reaches by name.

``perfbench/tracing.py`` counts spans of these functions by name and reads
the stage count and convergence of every ``minimize_fixed`` call, taking
``eps`` and ``opts`` from its arguments at positions 5 and 6;
``perfbench/run.py`` reads the ``matcore.cholesky`` span count of every
traced run; ``perfbench/workloads.py`` looks each battery check up with
``getattr`` and calls it with ``seed=``, and runs the gap items through
``cli.run``, ``cli.emit`` and ``optimize.duality_gap``.  It reads the
records these return: a check's name, pass flag, count and worst margin;
a gap report's minima, gap, argmins (their r, x and convergence) and the
iteration count of every stage in its eps trace; and the same numbers from
the outputs of ``cli.run("gap", ...)``.  A rename here makes a traced run
raise a KeyError, or every item of a workload fail; a renamed function
behind a ``BENCHMARK.json`` per-layer metric
``<module>.<function>.calls|self_s|failed`` makes that metric read 0.
"""

import dataclasses
import importlib
import inspect
import json
from pathlib import Path

import numpy as np

from spinvar import battery, cli, functionals, matcore, optimize, variation

# the battery checks of the verify workload, in its order
VERIFY_CHECKS = (
    "check_logdet_concavity",
    "check_mixture_convexity",
    "check_amgm_determinant",
    "check_trace_positivity",
    "check_perturbation_radius",
    "check_mixture_gap_pd",
    "check_gradient_oracle",
    "check_gradient_oracle",
    "check_critical_points",
    "check_tilde_bounds",
    "check_roundtrip",
    "check_hatphi_dominated",
    "check_temperature_continuity",
    "check_level_merge",
    "check_support_condition",
    "check_lipschitz_bound",
    "check_compactness_box",
    "check_diagonal_separability",
    "check_continuation_monotone",
)


def test_traced_functions_exist():
    for mod, name in (
        (functionals, "eval_perturbed"),
        (variation, "grad_parisi"),
        (variation, "grad_cs"),
        (optimize, "minimize_fixed"),
        (optimize, "continuation"),
        (optimize, "search"),
        (optimize, "duality_gap"),
        (matcore, "cholesky"),
        (cli, "run"),
        (cli, "emit"),
    ):
        assert inspect.isfunction(getattr(mod, name, None)), f"{mod.__name__}.{name}"


def test_minimize_fixed_eps_and_opts_positions():
    params = list(inspect.signature(optimize.minimize_fixed).parameters.values())
    assert [p.name for p in params[5:7]] == ["eps", "opts"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:7])


def test_minimize_result_fields():
    fields = {f.name for f in dataclasses.fields(optimize.MinimizeResult)}
    assert {"iterations", "converged"} <= fields


def test_verify_checks_take_a_seed():
    assert len(VERIFY_CHECKS) == len(battery.ALL_CHECKS) == 19
    for name in VERIFY_CHECKS:
        fn = getattr(battery, name, None)
        assert inspect.isfunction(fn), f"battery.{name}"
        params = inspect.signature(fn).parameters
        assert "seed" in params, name
    assert "kind" in inspect.signature(battery.check_gradient_oracle).parameters


def test_per_layer_metrics_name_public_functions():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"].split(".") for m in spec["per_layer"]]
    traced = [n[:2] for n in names if len(n) == 3 and n[2] in ("calls", "self_s", "failed")]
    assert traced
    for mod, fn in traced:
        obj = getattr(importlib.import_module(f"spinvar.{mod}"), fn, None)
        assert inspect.isfunction(obj) and not fn.startswith("_"), f"spinvar.{mod}.{fn}"


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_records_read_by_the_workloads():
    assert {"name", "passed", "checks", "worst"} <= _field_names(battery.CheckResult)
    assert {"min_parisi", "min_cs", "gap", "argmin_parisi", "argmin_cs", "eps_trace"} <= (
        _field_names(optimize.GapReport)
    )
    assert {"r", "x", "best"} <= _field_names(optimize.SearchResult)
    assert "iterations" in _field_names(optimize.StageRecord)
    params = inspect.signature(optimize.SolveOptions).parameters
    assert {"r_max", "x_grid"} <= set(params)


def test_gap_outputs_read_by_the_workloads():
    """One small gap solve, through optimize.duality_gap and through cli.run,
    read the way the gap items read them."""
    mix = matcore.MixtureSpec.pure(2, [0.3])
    opts = optimize.SolveOptions(r_max=2, x_grid=2)
    rep = optimize.duality_gap(mix, np.eye(1), opts)
    for side in (rep.argmin_parisi, rep.argmin_cs):
        assert isinstance(side.r, int) and len(side.x) == side.r
        assert isinstance(side.best.converged, bool)
    for side in ("parisi", "cs"):
        assert all(isinstance(s["iterations"], int) for s in rep.eps_trace[side])

    spec = cli.build_spec({"version": 1, "n": 1, "mixture": [[2, [0.3]]], "Q": [1.0],
                           "solve": {"r_max": 2, "x_grid": 2}})
    out = cli.run("gap", spec).outputs
    assert {"min_parisi", "min_cs", "gap", "argmin_parisi", "argmin_cs", "eps_trace"} <= set(out)
    for key in ("argmin_parisi", "argmin_cs"):
        assert {"r", "x", "converged"} <= set(out[key])
    assert all("iterations" in s for side in ("parisi", "cs") for s in out["eps_trace"][side])
