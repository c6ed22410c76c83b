"""The battery's one verdict: every check hands its margins to one judge,
which keeps the worst of them, so a NaN margin fails its check."""

import dataclasses
import math

import numpy as np
import pytest

from spinvar import battery, functionals, matcore, variation


def _nan(*args, **kwargs):
    return math.nan


def _nan_representers(*args, grad_cs=variation.grad_cs, **kwargs):
    bundle = grad_cs(*args, **kwargs)
    return dataclasses.replace(bundle, d_q=np.full_like(bundle.d_q, np.nan))


@pytest.mark.parametrize(
    "module, name, fake, check",
    [
        (matcore, "chol_logdet", _nan, battery.check_amgm_determinant),
        (matcore, "chol_logdet", _nan, battery.check_logdet_concavity),
        (functionals, "eval_cs", _nan, battery.check_roundtrip),
        (functionals, "eval_cs", _nan, battery.check_temperature_continuity),
        (functionals, "eval_cs", _nan, battery.check_level_merge),
        (variation, "grad_cs", _nan_representers, lambda: battery.check_gradient_oracle("cs")),
    ],
    ids=["amgm-determinant", "logdet-concavity", "discrete-continuous-roundtrip",
         "temperature-continuity", "level-merge-invariance", "gradient-oracle-cs"],
)
def test_a_nan_margin_fails_its_check(monkeypatch, module, name, fake, check):
    # a running min(worst, nan) or max(worst, nan) keeps worst, so each of
    # these passed with every margin NaN (worst inf, 8.9e-16 or 0.0)
    monkeypatch.setattr(module, name, fake)
    result = check()
    assert not result.passed
    assert math.isnan(result.worst)


def test_judge_counts_instances_and_reduces_every_number():
    # an instance may yield several numbers; the count is of instances
    res = battery._judge("t", [1.0, (3.0, -2.0), [0.5]], lambda w: w >= -1.0)
    assert (res.checks, res.worst, res.passed) == (3, -2.0, False)
    res = battery._judge("t", [(1.0, math.nan), 0.0], lambda w: w <= 2.0, np.max)
    assert (res.checks, res.passed) == (2, False) and math.isnan(res.worst)
    # a check without instances (support-condition without atoms) passes
    # with worst = +inf
    res = battery._judge("t", [], lambda w: w >= 0.0)
    assert (res.checks, res.worst, res.passed) == (0, math.inf, True)
