"""First variations, critical-point diagnostics, and tilde transforms.

Gradients are returned as Riesz representers under the Frobenius pairing:
the entry ``G`` for a block satisfies

    d/dt F(block + 2 t C) |_{t=0} = <G, C>

for every symmetric direction C, i.e. the plain Frobenius gradient of F is
G / 2.  The perturbed objective is ``base + eps * barrier`` (see
:mod:`spinvar.functionals`), so barrier terms enter the representers with
coefficient ``corrected_eps(eps) = 2 eps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateIncrement,
    InfeasibleMultiplier,
    InfeasiblePath,
    InfeasibleStep,
    NotPositiveDefinite,
    SpinvarError,
)
from .functionals import (
    construct_multiplier,
    corrected_eps,
    d_sequence_eps,
    error_terms,
    eval_approx,
    eval_cs,
    eval_parisi,
    eval_perturbed,
    eval_point,
    lambda_sequence_eps,
)
from .matcore import MixtureSpec, sym_inverse, symmetrize
from .path import DiscretePath, d_sequence, lambda_sequence

_DOMAIN_ERRORS = (
    NotPositiveDefinite,
    InfeasibleMultiplier,
    InfeasiblePath,
    DegenerateIncrement,
)


@dataclass(frozen=True)
class GradientBundle:
    """Representers of the first variation: one per free block.

    ``d_lambda`` is present for the multiplier form only; ``d_q[p-1]`` is
    the representer for level Q_p, p = 1..r-1.
    """

    d_lambda: np.ndarray | None
    d_q: tuple[np.ndarray, ...]


def grad_parisi(
    lam: np.ndarray, path: DiscretePath, mix: MixtureSpec, eps: float = 0.0
) -> GradientBundle:
    """Representers of the perturbed multiplier-form functional.

    d_lambda = Q - Lambda^-1 - L1^-1 (hh^T + xi'(Q_1)) L1^-1
               - sum_k (1/x_k) (L_k^-1 - L_{k+1}^-1)
    d_q[p]   = (x_p - x_{p-1}) xi''(Q_p) o (Q_p - A - S_p) + barrier terms

    with A the field block above and S_p its partial inverse-difference sum.
    The barrier terms are s ((Q_{p+1}-Q_p)^-1 - (Q_p-Q_{p-1})^-1) with
    s = corrected_eps(eps).
    """
    reps = eval_point("parisi", eps, path, mix, lam=lam, grad=True)[1]
    return GradientBundle(reps[0], tuple(reps[1:]))


def grad_cs(path: DiscretePath, mix: MixtureSpec, eps: float = 0.0) -> GradientBundle:
    """Representers of the perturbed multiplier-free functional.

    d_q[p] = -(x_p - x_{p-1}) (hh^T - D_1^-1 Q_1 D_1^-1 - T_p + xi'(Q_p))
             + barrier terms,

    with T_p the partial sum of (1/x_k)(D_{k+1}^-1 - D_k^-1) over k < p.
    """
    return GradientBundle(None, tuple(eval_point("cs", eps, path, mix, grad=True)[1]))


def fd_directional(f, h_step: float) -> float:
    """Derivative at 0 of a scalar map ``f(t)``: the central difference
    D(h) = (f(h) - f(-h)) / (2h), Richardson-extrapolated from steps h and
    h/2 as (4 D(h/2) - D(h)) / 3, so its error is O(h^4).

    Raises InfeasibleStep when any probe leaves the domain; callers
    halve ``h_step`` and retry (see :func:`fd_directional_backtracked`).
    """
    try:
        values = [f(t) for t in (h_step, -h_step, 0.5 * h_step, -0.5 * h_step)]
    except _DOMAIN_ERRORS as exc:
        raise InfeasibleStep(str(exc)) from exc
    if not np.all(np.isfinite(values)):
        raise InfeasibleStep("probe value is not finite")
    wide = (values[0] - values[1]) / (2.0 * h_step)
    narrow = (values[2] - values[3]) / h_step
    return (4.0 * narrow - wide) / 3.0


def fd_directional_backtracked(f, h_step: float, max_halvings: int = 10) -> float:
    h = h_step
    for _ in range(max_halvings + 1):
        try:
            return fd_directional(f, h)
        except InfeasibleStep:
            h *= 0.5
    raise InfeasibleStep(f"no feasible step after {max_halvings} halvings from {h_step}")


@dataclass(frozen=True)
class CriticalReport:
    """Residuals of the critical-point equations at a candidate point.

    side = "lower": residuals[p-1] = |Lambda_p^-1 - D_p(corrected eps)|_inf;
    side = "upper": residuals[p-1] = |D_p^-1 - Lambda_p(corrected eps)|_inf
    with the multiplier constructed from the path.  ``identity_gap`` is the
    difference between the perturbed functional and its approximate dual
    form at the same point.
    """

    side: str
    residuals: tuple[float, ...]
    max_residual: float
    identity_gap: float
    value_perturbed: float
    value_approx: float


def critical_residual(
    side: str,
    path: DiscretePath,
    mix: MixtureSpec,
    eps: float,
    lam: np.ndarray | None = None,
) -> CriticalReport:
    s = corrected_eps(eps)
    r = path.r
    if side == "lower":
        if lam is None:
            raise ValueError("the lower side needs the multiplier")
        err = error_terms("lower", path, mix, eps)
        state = lambda_sequence(lam, path, mix)
        d_corr = d_sequence_eps(d_sequence(path), err, s)
        residuals = tuple(
            float(np.max(np.abs(sym_inverse(state.at(p)) - d_corr[p - 1])))
            for p in range(1, r)
        )
        value_pert = eval_perturbed("parisi", eps, path, mix, lam=lam)
        value_approx = eval_approx("lower", path, mix, eps, err=err)
    elif side == "upper":
        err = error_terms("upper", path, mix, eps)
        if lam is None:
            lam = construct_multiplier(path, mix, eps)
        state = lambda_sequence(lam, path, mix)
        lam_corr = lambda_sequence_eps(state, err, s)
        dseq = d_sequence(path)
        residuals = tuple(
            float(np.max(np.abs(sym_inverse(dseq.at(p)) - lam_corr[p - 1])))
            for p in range(1, r)
        )
        value_pert = eval_perturbed("cs", eps, path, mix)
        value_approx = eval_approx("upper", path, mix, eps, lam=lam, err=err)
    else:
        raise ValueError(f"unknown side {side!r}")
    return CriticalReport(
        side=side,
        residuals=residuals,
        max_residual=max(residuals) if residuals else 0.0,
        identity_gap=abs(value_pert - value_approx),
        value_perturbed=value_pert,
        value_approx=value_approx,
    )


@dataclass(frozen=True)
class TildeResult:
    """A tilde-transformed object plus its feasibility report."""

    side: str
    path: DiscretePath | None
    lam: np.ndarray | None
    feasible: bool
    violations: tuple[str, ...] = field(default_factory=tuple)


def tilde_transform(
    side: str,
    path: DiscretePath,
    mix: MixtureSpec,
    eps: float,
    lam: np.ndarray | None = None,
) -> TildeResult:
    """Shift the point by the corrected error terms.

    side = "lower": a new path with Q~_p = Q_p + s E_p (same weights);
    side = "upper": a new multiplier Lambda~ = Lambda + s Ebar_1.
    Infeasibility away from a critical point is reported, not raised.
    """
    s = corrected_eps(eps)
    if side == "lower":
        err = error_terms("lower", path, mix, eps)
        levels = [path.level(p) + s * err.e_at(p) for p in range(1, path.r)]
        new_path = path.with_levels(levels)
        violations = []
        for k in range(new_path.r):
            try:
                sym_inverse(new_path.increment(k))
            except NotPositiveDefinite:
                violations.append(f"transformed increment {k} -> {k + 1} is not PD")
        return TildeResult("lower", new_path, None, not violations, tuple(violations))
    if side == "upper":
        err = error_terms("upper", path, mix, eps)
        if lam is None:
            lam = construct_multiplier(path, mix, eps)
        lam_tilde = symmetrize(lam + s * err.ebar_at(1))
        violations = []
        try:
            lambda_sequence(lam_tilde, path, mix)
        except InfeasibleMultiplier as exc:
            violations.append(str(exc))
        return TildeResult("upper", None, lam_tilde, not violations, tuple(violations))
    raise ValueError(f"unknown side {side!r}")


@dataclass(frozen=True)
class BoundCheck:
    side: str
    lhs: float
    rhs: float
    holds: bool
    slack: float


def bound_check(
    side: str,
    path: DiscretePath,
    mix: MixtureSpec,
    eps: float,
    lam: np.ndarray | None = None,
    num_tol: float = 1e-9,
) -> BoundCheck:
    """Inequalities tying the perturbed functionals to their unperturbed
    duals at the tilde-shifted point.

    side = "lower": approx multiplier-free value at the point >= plain
    multiplier-free value at the tilde path;
    side = "upper": approx multiplier-form value >= plain multiplier form
    at the tilde multiplier.
    """
    if side == "lower":
        lhs = eval_approx("lower", path, mix, eps)
        shifted = tilde_transform("lower", path, mix, eps)
        if not shifted.feasible:
            raise SpinvarError(
                f"tilde path infeasible, not at a critical point? {shifted.violations}"
            )
        rhs = eval_cs(shifted.path, mix)
    elif side == "upper":
        if lam is None:
            lam = construct_multiplier(path, mix, eps)
        lhs = eval_approx("upper", path, mix, eps, lam=lam)
        shifted = tilde_transform("upper", path, mix, eps, lam=lam)
        if not shifted.feasible:
            raise SpinvarError(
                f"tilde multiplier infeasible, not at a critical point? {shifted.violations}"
            )
        rhs = eval_parisi(shifted.lam, path, mix)
    else:
        raise ValueError(f"unknown side {side!r}")
    slack = lhs - rhs
    return BoundCheck(side=side, lhs=lhs, rhs=rhs, holds=slack >= -num_tol, slack=slack)
