"""First variations, critical-point diagnostics, and tilde transforms.

Gradients are returned as Riesz representers under the Frobenius pairing:
the entry ``G`` for a block satisfies

    d/dt F(block + 2 t C) |_{t=0} = <G, C>

for every symmetric direction C, i.e. the plain Frobenius gradient of F is
G / 2.  The perturbed objective is ``base + eps * barrier`` (see
:mod:`spinvar.functionals`), so barrier terms enter the representers with
coefficient ``corrected_eps(eps) = 2 eps``.

The certificate checks run the public routines of the paper's objects:
:func:`critical_residual` compares a point with
:func:`spinvar.functionals.corrected_form`, and :func:`bound_check` bounds
that form by the dual form at the point of :func:`tilde_transform`; all
build their corrections from :func:`spinvar.functionals.error_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InfeasibleStep, SpinvarError
from .functionals import (
    Weights,
    _evaluate,
    _multiplier,
    _point,
    corrected_eps,
    corrected_form,
    error_terms,
    eval_perturbed,
    eval_point,
    increments,
)
from .matcore import MixtureSpec, symmetrize
from .path import DiscretePath, lambda_sequence


@dataclass(frozen=True)
class GradientBundle:
    """Representers of the first variation: one per free block.

    ``d_lambda`` is present for the multiplier form only; ``d_q`` is the
    stack (r - 1, n, n) of the representers for levels Q_1..Q_{r-1}, so
    ``d_q[p-1]`` is the one for Q_p.
    """

    d_lambda: np.ndarray | None
    d_q: np.ndarray


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
    d_lam, d_q = eval_point("parisi", eps, path, mix, lam=lam, grad=True)[1]
    return GradientBundle(d_lam, d_q)


def grad_cs(path: DiscretePath, mix: MixtureSpec, eps: float = 0.0) -> GradientBundle:
    """Representers of the perturbed multiplier-free functional.

    d_q[p] = -(x_p - x_{p-1}) (hh^T - D_1^-1 Q_1 D_1^-1 - T_p + xi'(Q_p))
             + barrier terms,

    with T_p the partial sum of (1/x_k)(D_{k+1}^-1 - D_k^-1) over k < p.
    """
    return GradientBundle(None, eval_point("cs", eps, path, mix, grad=True)[1][1])


def fd_directional(f, h_step: float) -> float:
    """Derivative at 0 of a scalar map ``f(t)``: the central difference
    D(h) = (f(h) - f(-h)) / (2h), Richardson-extrapolated from steps h and
    h/2 as (4 D(h/2) - D(h)) / 3, so its error is O(h^4).

    Raises InfeasibleStep when any probe leaves the domain; callers
    halve ``h_step`` and retry (see :func:`fd_directional_backtracked`).
    """
    try:
        values = [f(t) for t in (h_step, -h_step, 0.5 * h_step, -0.5 * h_step)]
    except DomainError as exc:
        raise InfeasibleStep(str(exc)) from exc
    if not np.all(np.isfinite(values)):
        raise InfeasibleStep("probe value is not finite")
    wide = (values[0] - values[1]) / (2.0 * h_step)
    narrow = (values[2] - values[3]) / h_step
    return (4.0 * narrow - wide) / 3.0


def fd_directional_backtracked(f, h_step: float) -> float:
    """:func:`fd_directional`, halving ``h_step`` up to ten times until no probe is infeasible."""
    h = h_step
    for _ in range(11):
        try:
            return fd_directional(f, h)
        except InfeasibleStep:
            h *= 0.5
    raise InfeasibleStep(f"no feasible step after 10 halvings from {h_step}")


@dataclass(frozen=True)
class CriticalReport:
    """What :func:`critical_residual` finds at a candidate point."""

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
    """Residuals of the critical-point identities, which hold at interior
    critical points of an eps-perturbed form, at (path, lam); x_{r-1} = 1.

    side = "lower", at a point of the multiplier form (``lam`` required):
    residuals[p-1] = |Lambda_p^-1 - (D_p + s Ebar_p)|_inf, its chain's
    inverse against the corrected tail chain.  side = "upper", at a point of
    the multiplier-free form: residuals[p-1] = |D_p^-1 - (Lambda_p + s
    Ebar_p)|_inf, with the multiplier of :func:`construct_multiplier` unless
    given.  Here p = 1..r-1 and s = corrected_eps(eps).  ``identity_gap`` is
    |eval_perturbed - corrected_form|: the perturbed form at the point
    against the corrected dual form of ``side``, equal at a critical point.
    """
    if side == "lower" and lam is None:
        raise ValueError("the lower side needs the multiplier")
    value_approx, corrected, lam = corrected_form(side, path, mix, eps, lam)
    plan = Weights("parisi" if side == "lower" else "cs", path.x)
    # eval_perturbed's kernel pass, which also inverts the point's own chain;
    # it raises where lambda_sequence and d_sequence raise
    value_pert, *_, inv = _evaluate(plan, mix, path.constraint, eps, _point(plan, path, lam), True)
    own = inv[: path.r - 1]
    residuals = tuple(float(v) for v in np.max(np.abs(own - corrected), axis=(1, 2)))
    return CriticalReport(
        residuals=residuals,
        max_residual=max(residuals),
        identity_gap=abs(value_pert - value_approx),
        value_perturbed=value_pert,
        value_approx=value_approx,
    )


@dataclass(frozen=True)
class TildeResult:
    """A tilde-transformed object plus its feasibility report."""

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
    side = "upper": a new multiplier Lambda~ = Lambda + s Ebar_1, with
    ``lam`` the multiplier of :func:`construct_multiplier` unless given.
    Here s = corrected_eps(eps) and E, Ebar are the :func:`error_terms` of
    ``side``, so r = 1 is a ValidationError.  Infeasibility away from a
    critical point is reported, not raised.
    """
    err = error_terms(side, path, mix)
    s = corrected_eps(eps)
    if side == "lower":
        new_path = path.with_levels(path.qs[:-1] + s * err.e[:-1])
        violations = tuple(
            f"transformed increment {k} -> {k + 1} is not PD"
            for k in np.flatnonzero(~increments(new_path)[2])
        )
        return TildeResult(new_path, None, not violations, violations)
    if lam is None:
        lam = _multiplier(path, mix, eps, err)
    lam_tilde = symmetrize(lam + s * err.ebar[0])
    violations = []
    try:
        lambda_sequence(lam_tilde, path, mix)
    except DomainError as exc:
        violations.append(str(exc))
    return TildeResult(None, lam_tilde, not violations, tuple(violations))


@dataclass(frozen=True)
class BoundCheck:
    """One inequality of :func:`bound_check`: ``lhs`` the corrected form of
    ``side`` at the point, ``rhs`` the unperturbed form it bounds at the
    tilde-shifted point, ``slack = lhs - rhs``, and ``holds`` whether the
    slack is at least -1e-9, the round-off allowance."""

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
) -> BoundCheck:
    """Inequalities tying the perturbed functionals to their unperturbed
    duals at the tilde-shifted point.

    side = "lower": approx multiplier-free value at the point >= plain
    multiplier-free value at the tilde path;
    side = "upper": approx multiplier-form value >= plain multiplier form
    at the tilde multiplier.  ``holds`` allows a slack down to -1e-9 for
    round-off.
    """
    lhs, _, lam = corrected_form(side, path, mix, eps, lam)
    shifted = tilde_transform(side, path, mix, eps, lam)
    if not shifted.feasible:
        what = "path" if side == "lower" else "multiplier"
        raise SpinvarError(f"tilde {what} infeasible, not at a critical point? {shifted.violations}")
    kind = "cs" if side == "lower" else "parisi"
    rhs = eval_perturbed(kind, 0.0, shifted.path or path, mix, lam=shifted.lam)
    slack = lhs - rhs
    return BoundCheck(lhs=lhs, rhs=rhs, holds=slack >= -1e-9, slack=slack)
