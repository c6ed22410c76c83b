"""The names and signatures the per-layer tracer of ``perfbench`` keys on.

``perfbench/tracing.py`` counts spans of these functions by name and reads
the stage count and convergence of every ``minimize_fixed`` call, taking
``eps`` and ``opts`` from its arguments at positions 5 and 6; a rename
here makes a traced run raise a KeyError.
"""

import dataclasses
import inspect

from spinvar import functionals, optimize, variation


def test_traced_functions_exist():
    for mod, name in (
        (functionals, "eval_perturbed"),
        (variation, "grad_parisi"),
        (variation, "grad_cs"),
        (optimize, "minimize_fixed"),
        (optimize, "continuation"),
        (optimize, "search"),
    ):
        assert inspect.isfunction(getattr(mod, name, None)), f"{mod.__name__}.{name}"


def test_minimize_fixed_eps_and_opts_positions():
    params = list(inspect.signature(optimize.minimize_fixed).parameters.values())
    assert [p.name for p in params[5:7]] == ["eps", "opts"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:7])


def test_minimize_result_fields():
    fields = {f.name for f in dataclasses.fields(optimize.MinimizeResult)}
    assert {"iterations", "converged"} <= fields
