"""Closed-form reference values for the solver's answers.

This module imports nothing from :mod:`spinvar.functionals`,
:mod:`spinvar.path`, :mod:`spinvar.variation` or :mod:`spinvar.optimize`,
so a defect in the kernel cannot leak into the values it is checked
against.
"""

from __future__ import annotations

import math


def pure2_rs_value(beta: float) -> float:
    """The minimum of the multiplier-free form for the pure p = 2 model with
    n = 1, Q = 1 and no field, xi(q) = beta^2 q^2 (``MixtureSpec.pure(2,
    [beta])``): the single-jump value

        (log(1 - q) + q / (1 - q) + beta^2 (1 - q^2)) / 2

    at its stationary jump, q = 0 for 2 beta^2 <= 1 and
    q = 1 - 1 / sqrt(2 beta^2) above."""
    q = 0.0 if 2 * beta**2 <= 1.0 else 1.0 - 1.0 / math.sqrt(2.0 * beta**2)
    return 0.5 * (math.log(1 - q) + q / (1 - q) + beta**2 * (1 - q * q))
