"""Minimization engine for the two functional forms.

The inner solve works at fixed (r, weights, eps).  The free variables are
the levels Q_1..Q_{r-1} (always) and the multiplier (multiplier form
only), held as upper-triangle coordinates by ``Objective``.  Each point
the solver visits costs one forward pass, one ``functionals.eval_stack``
call, which gives its value, its unperturbed value and its gradient.
Each iteration takes one damped Newton step jointly across all free
variables.  Only the point a step starts from pays for its exact Hessian,
the point's deferred tangent-linear pass along the coordinate directions;
a rejected trial and a stage's final point never run it.  A positive
definite Hessian is used as it is; any other is shifted along the
Frobenius metric by about twice its most negative eigenvalue, so the step
leaves a saddle along its negative curvature.  The step backtracks from
its full length until Armijo holds on the eps-perturbed value or the
representer norm halves.  A trial point outside the domain raises its
domain error in the kernel and the step halves.  At eps > 0 the domain is
the barrier's, so accepted iterates keep strictly positive-definite
increments.  At eps = 0 the kernel factors no free increment, so the stage
minimizes the smooth extension of the form past the boundary of the PSD
cone; a stage that converges there with an increment eigenvalue below
-``psd_tol(Q)`` reports ``outside_cone`` and is not converged.  A stage's
base value is its final point's unperturbed value, from the same pass.
Each stage returns one :class:`MinimizeResult`: its minimizer, values,
exit, the trace rows of its iterates and its counts of forward and
tangent passes.  A stage builds what does not depend on the point once,
before its first point: the check of its constraint, its ``Weights``
plan, and its ``Objective``'s tangent directions; the coordinate layout
is shared by shape (``_layout``, at most 64 shapes), and nothing is kept
per weights after the stage returns.

On top of the inner solve sit: ``continuation`` (one solve at fixed
weights from an ordered list of starts, the first that converges kept; a
cold start runs a decreasing eps schedule, each stage started at the
last one's minimizer, and a warm one, a multiplier and free levels
(lam, levels), only its last stage; the result is its list of stage
results, from which its minimizer, values and trace are read, and the
start they ran from), ``search`` (discrete coordinate
descent over the weight grid of the multiplier-free form, sweeping the
level count), and ``duality_gap`` (one search, then the multiplier form
solved cold at its weights; the agreement of the two minima at those
weights is the certificate).  The default schedule is (1e-5, 0): with the
exact Hessian a damped Newton stage converges from :func:`default_start`
at eps = 1e-5 directly, one long barrier step (Boyd & Vandenberghe,
*Convex Optimization*, sec. 11.3), and the eps = 0 stage started there
converges to the exact value of the form at the fixed weights.
``search`` states its policy as start lists.  The r = 2 candidate runs
cold only.  Every other candidate with a source runs warm and then cold:
the first of each r >= 3 from the r - 1 sweep's answer with its top free
level split in two (:func:`grown_start`), every later one from the final
levels of the nearest converged candidate already solved at its r.  Warm
starts only rank candidates: a winner that ran warm is re-solved cold,
under every schedule, so each reported answer, of either form, is one
cold ``continuation`` of the whole schedule at the search's (r, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, DomainError, NoFeasibleStart, ValidationError
from .functionals import Directions, Weights, eval_stack
from .matcore import MixtureSpec, _real_array, check_constraint, psd_tol, real, sym_inverse, symmetrize
from .path import DiscretePath, _as_multiplier

DEFAULT_EPS_SCHEDULE = (1e-5, 0.0)

# Armijo constant and backtracking factor of the line search
_ARMIJO_C, _SHRINK = 1e-4, 0.5

# iteration budget of one stage; the plateau rule ends a stalled stage first
_MAX_ITERS = 20000

# the share of the neighbouring increments a grown level splits off (grown_start)
_GROW_TAU = 0.005

# the problem sizes spinvar is built for: r <= 5 levels, and a weight grid
# whose candidate tables stay small
MAX_R, MAX_X_GRID = 5, 64


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the solver; all fields are file- and flag-settable.  This
    is the one check of their values, for problem files, flags and Python
    callers alike; each problem names its field.  ``eps_schedule`` is a
    strictly decreasing list of nonnegative finite reals, so eps = 0, the
    unperturbed form, can only come last."""

    eps_schedule: tuple[float, ...] = DEFAULT_EPS_SCHEDULE
    grad_tol: float = 1e-8
    x_grid: int = 4
    r_max: int = 2
    seed: int = 0

    def __post_init__(self):
        problems = []
        raw = np.asarray(self.eps_schedule, dtype=object)
        sched = tuple(real(e) for e in raw.flat) if raw.ndim == 1 else (None,)
        if not sched or not all(e is not None and 0 <= e < math.inf for e in sched):
            problems.append(
                f"eps_schedule must be a nonempty list of nonnegative finite reals, got {self.eps_schedule!r}"
            )
        elif any(b >= a for a, b in zip(sched, sched[1:])):
            problems.append("eps_schedule must be strictly decreasing")
        grad_tol = real(self.grad_tol)
        if grad_tol is None or not 0 < grad_tol < math.inf:
            problems.append(f"grad_tol must be positive and finite, got {self.grad_tol!r}")
        for name, low, high in (("x_grid", 2, MAX_X_GRID), ("r_max", 2, MAX_R), ("seed", 0, math.inf)):
            value = getattr(self, name)
            # a float would pass the bound and fail later, inside search
            if isinstance(value, bool) or not isinstance(value, Integral):
                problems.append(f"{name} must be an integer, got {value!r}")
            elif not low <= value <= high:
                problems.append(f"{name} must be >= {low}" if value < low else f"{name} must be <= {high}")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "eps_schedule", sched)
        object.__setattr__(self, "grad_tol", grad_tol)


@dataclass
class TraceRow:
    stage: int
    eps: float
    iteration: int
    value: float
    grad_norm: float
    min_increment_eig: float


@dataclass
class MinimizeResult:
    """One ``minimize_fixed`` stage at fixed (weights, eps): its minimizer
    (path, lam), the perturbed and base values there, why it stopped, the
    trace rows of its iterates, and its kernel passes: ``evaluations``
    forward passes, one per point visited (the start and every line-search
    trial, rejected or outside the domain), and ``hessians`` tangent
    passes, one per Newton step."""

    path: DiscretePath
    lam: np.ndarray | None
    eps: float
    value: float
    value_base: float
    grad_norm: float
    iterations: int
    converged: bool
    stop_reason: str
    trace: list[TraceRow]
    evaluations: int
    hessians: int


@dataclass
class ContinuationResult:
    """One eps-continuation at fixed weights: its stages in schedule order,
    and the start they ran from (None when cold, else the warm (lam, levels)
    pair; see :func:`continuation`).  The minimizer (path, lam) is the final
    stage's; the values and trace rows are read from the stages."""

    stages: list[MinimizeResult]
    start: tuple | None

    @property
    def path(self) -> DiscretePath:
        return self.stages[-1].path

    @property
    def lam(self) -> np.ndarray | None:
        return self.stages[-1].lam

    @property
    def trace(self) -> list[TraceRow]:
        return [row for s in self.stages for row in s.trace]

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.stages)

    @property
    def value_at_eps_min(self) -> float:
        """The base value at the final stage's minimizer: under a schedule
        that ends at eps = 0, the exact value of the form there."""
        return self.stages[-1].value_base


@dataclass
class SearchResult:
    """The winner of a weight search, its level count r, weights x and
    continuation ``best``, and every candidate solved."""

    r: int
    x: tuple[float, ...]
    best: ContinuationResult
    candidates: list[tuple[int, tuple[float, ...], float]]

    @property
    def value(self) -> float:
        return self.best.value_at_eps_min


@dataclass
class GapReport:
    min_parisi: float
    min_cs: float
    gap: float
    argmin_parisi: SearchResult
    argmin_cs: SearchResult
    eps_trace: dict


@lru_cache(maxsize=64)
def _layout(n, count):
    """The read-only constants of ``count`` blocks of size n in upper-triangle
    coordinates, built once per shape: the rows and columns of the
    coordinates, the metric weights and their diagonal matrix, the halving
    weights of the gradient, the coordinate directions as blocks (the
    basis, for the Hessian) and flat (the 0/1 scatter; each entry of
    z @ scatter is one product with 1, so exact), and the flat gather, the
    index of each coordinate in the blocks' flat entries."""
    rows, cols = np.triu_indices(n)
    off = rows != cols
    metric = np.tile(np.where(off, 2.0, 1.0), count)
    dim = metric.size
    tri = np.eye(dim).reshape(dim, count, -1)
    basis = np.zeros((dim, count, n, n))
    basis[:, :, rows, cols] = tri
    basis[:, :, cols, rows] = tri
    gather = (np.arange(count)[:, None] * n * n + rows * n + cols).reshape(-1)
    halve = np.tile(np.where(off, 1.0, 0.5), count)
    consts = (rows, cols, metric, np.diag(metric), halve, basis, basis.reshape(dim, -1), gather)
    for a in consts:
        a.flags.writeable = False
    return consts


class Objective:
    """The eps-perturbed form of the :class:`~spinvar.functionals.Weights`
    ``plan`` at fixed (mix, Q, eps) as a function of its free blocks, in
    the plan's layout, in upper-triangle coordinates z.  ``blocks`` is the
    start, whose shape fixes the layout.  The descent uses the Frobenius
    metric, under which an off-diagonal coordinate counts twice: ``metric``
    holds those weights and ``metric_diag`` their diagonal matrix.  A point
    costs one forward pass (:meth:`evaluate`); its Hessian, one tangent pass
    more, is paid for only when it is asked for.  What does not depend on
    the point is built once, with the objective: the plan's constants, the
    tangent pass's :class:`~spinvar.functionals.Directions` along the
    coordinates, and the layout's gather and scatter.
    """

    def __init__(self, plan, mix, constraint, eps, blocks):
        self.plan = plan
        self.mix = mix
        self.constraint = np.asarray(constraint, dtype=float)
        self.eps = float(eps)
        self.template = np.array(blocks, dtype=float)
        layout = _layout(self.constraint.shape[0], len(self.template))
        self.rows, self.cols, self.metric, self.metric_diag, self._halve, basis, self._scatter, self._gather = layout
        self._directions = Directions(plan, basis)

    def pack(self, blocks) -> np.ndarray:
        return np.asarray(blocks, dtype=float).reshape(-1).take(self._gather)

    def blocks(self, z) -> np.ndarray:
        """The (..., blocks, n, n) matrices of one or a stack of points."""
        return (z @ self._scatter).reshape(z.shape[:-1] + self.template.shape)

    def _coords(self, reps) -> np.ndarray:
        """Gradient coordinates of the representers of one point, or of a stack of them."""
        return reps.reshape(reps.shape[:-3] + (-1,)).take(self._gather, axis=-1) * self._halve

    def evaluate(self, z):
        """``(value, base, grad, hess)`` in z of one point from one forward
        pass: the value, the unperturbed value, the gradient, and ``hess``, a
        callable that runs the point's tangent pass along the coordinate
        directions and returns the Hessian, whose row k is the derivative of
        the gradient along coordinate k.  Raises the domain error of a point
        outside the domain."""
        value, base, reps, tangent = eval_stack(self.plan, self.mix, self.constraint, self.eps, self.blocks(z), True)
        return value, base, self._coords(reps), lambda: self._coords(tangent(self._directions))

    def norm(self, grad) -> float:
        """Infinity norm of the representers: the gradient without its halving."""
        return float(np.abs(grad / self._halve).max())


# the shift of an indefinite Hessian: this many times its most negative
# metric-scaled eigenvalue, plus this floor in units of its largest one
_SHIFT_MARGIN, _SHIFT_FLOOR = 2.0, 1e-8


def _newton_direction(obj, hess, grad):
    """Damped Newton direction: solve (H + mu M) d = -g, M = diag(metric), H
    the symmetrized ``hess``.  A positive definite H is solved unshifted
    (mu = 0).  Otherwise, or when H factors but is too near singular for
    the unshifted solve, mu = 2 max(0, -lam_min) + 1e-8 |lam|_max from the
    eigenvalues lam of the metric-scaled M^-1/2 H M^-1/2, so the shifted
    matrix is positive definite with its smallest eigenvalue about |lam_min|:
    the step leaves a saddle along its negative curvature instead of
    crawling along the gradient (Nocedal & Wright, *Numerical
    Optimization*, sec. 3.4).
    """
    hess = 0.5 * (hess + hess.T)
    try:
        np.linalg.cholesky(hess)
        return np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        root = np.sqrt(obj.metric)
        lam = np.linalg.eigvalsh(hess / np.outer(root, root))
        shift = _SHIFT_MARGIN * max(0.0, -lam[0]) + _SHIFT_FLOOR * float(np.abs(lam).max())
        return np.linalg.solve(hess + shift * obj.metric_diag, -grad)


def default_start(kind, mix, constraint, r):
    """Deterministic start (lam, levels): the equally spaced free levels
    Q_k = (k/r) Q, k = 1..r-1, as an (r - 1, n, n) stack and, for the
    multiplier form, Lambda = Q^-1 + xi'(Q), else None.

    That Lambda is feasible for every 0 <= x_k <= 1.  xi' keeps the order of
    ordered PSD levels: for A >= B >= 0, A^(o m) - B^(o m) is a sum of
    Hadamard products of A, A - B and B, PSD by the Schur product theorem,
    and so is its Hadamard product with beta x beta.  So every
    xi'(Q_{k+1}) - xi'(Q_k) is PSD, and

        Lambda_1 = Lambda - sum_k x_k (xi'(Q_{k+1}) - xi'(Q_k))
                 >= Lambda - (xi'(Q) - xi'(Q_1)) = Q^-1 + xi'(Q_1) >= Q^-1 > 0.

    The solver's NoFeasibleStart check still guards the start.
    """
    q = np.asarray(constraint, dtype=float)
    levels = (np.arange(1, r) / r)[:, None, None] * symmetrize(q)
    return (sym_inverse(q) + mix.xi_prime(q) if kind == "parisi" else None), levels


def minimize_fixed(
    kind: str,
    mix: MixtureSpec,
    constraint: np.ndarray,
    r: int,
    x,
    eps: float,
    opts: SolveOptions,
    start=None,
    stage: int = 0,
) -> MinimizeResult:
    """First-order stationary point of the eps-perturbed functional at
    fixed weights; returns the last iterate flagged unconverged when the
    iteration budget runs out, the representer norm plateaus or no step
    along the Newton direction is acceptable.  ``stop_reason`` names the
    exit: ``converged``, ``budget``, ``plateau`` or ``no_step``, or
    ``outside_cone`` for an eps = 0 stage that converged to a point whose
    smallest increment eigenvalue is below -``psd_tol(Q)``: nothing factors
    the free increments at eps = 0, so that point is stationary for the
    form's extension past the PSD cone, not a point of the form.  The trace
    rows of the iterates carry ``stage``, the stage's schedule index.

    The constraint must be n x n for the mixture's n (DimensionMismatch)
    and pass ``check_constraint(..., solve_only=True)`` (ValidationError).
    ``x`` must hold r weights that :class:`~spinvar.functionals.Weights`
    accepts (ValidationError).  A ``start`` (lam, levels) needs a
    multiplier for the multiplier form (ValueError); its multiplier and
    levels must hold finite reals (:func:`~spinvar.matcore._real_array`,
    ValidationError), the multiplier n x n and the levels, a sequence or an
    array, of shape (r - 1, n, n) (DimensionMismatch); the multiplier is
    symmetrized.  All of it is checked before any cast and before the first
    pass; without a start the stage runs from :func:`default_start`."""
    n = mix.n
    if np.shape(constraint) != (n, n):
        raise DimensionMismatch(f"constraint has shape {np.shape(constraint)}, the mixture has n = {n}")
    problems = check_constraint(constraint, solve_only=True)
    if problems:
        raise ValidationError(problems)
    if len(x) != r:
        raise ValidationError(f"r = {r} needs r weights x_0..x_{{r-1}}, got {len(x)}")
    plan = Weights(kind, x)
    if start is None:
        lam, levels = default_start(kind, mix, constraint, r)
    else:
        lam, levels = start[0], _real_array(start[1])
        if kind == "parisi" and lam is None:
            raise ValueError("the multiplier form needs lam")
        if levels is None or not np.isfinite(levels).all():
            raise ValidationError("levels must have finite entries")
        if levels.shape != (r - 1, n, n) or (lam is not None and np.shape(lam) != (n, n)):
            raise DimensionMismatch(
                f"a start at r = {r}, n = {n} needs levels of shape {(r - 1, n, n)} and an "
                f"n x n multiplier, got {levels.shape} and {np.shape(lam)}"
            )
        lam = None if lam is None else _as_multiplier(lam, n)
    obj = Objective(plan, mix, constraint, eps, plan.join(lam, levels))
    z = obj.pack(obj.template)
    try:
        value, base, grad, hess = obj.evaluate(z)
    except DomainError as exc:
        raise NoFeasibleStart(f"starting point infeasible for {kind} at eps={eps}: {exc}") from exc

    grad_norm = obj.norm(grad)
    evaluations, hessians = 1, 0
    iterations = 0
    stop_reason = "budget"
    best_norm = math.inf
    last_improvement = 0
    visited = []  # (iteration, value, representer norm, z) of each iterate, for the trace
    for it in range(_MAX_ITERS):
        iterations = it + 1
        visited.append((it, value, grad_norm, z))
        if grad_norm <= opts.grad_tol:
            stop_reason = "converged"
            break
        if grad_norm < 0.5 * best_norm:
            best_norm = grad_norm
            last_improvement = it
        if it - last_improvement > 200:
            stop_reason = "plateau"  # the representer norm stalled above tolerance
            break

        # backtrack from the full Newton step, past every trial point outside
        # the domain; a trial point that halves the representer norm is
        # accepted too, because near stationarity the value cannot resolve
        # the decrease Armijo asks for
        hessians += 1
        direction = _newton_direction(obj, hess(), grad)
        slope = float(grad @ direction)
        eta = 1.0
        while eta >= 1e-18:
            trial = z + eta * direction
            evaluations += 1
            try:
                trial_value, trial_base, trial_grad, trial_hess = obj.evaluate(trial)
            except DomainError:
                eta *= _SHRINK
                continue
            trial_norm = obj.norm(trial_grad)
            if trial_value <= value + _ARMIJO_C * eta * slope or trial_norm < 0.5 * grad_norm:
                z, value, base, grad, hess = trial, trial_value, trial_base, trial_grad, trial_hess
                grad_norm = trial_norm
                break
            eta *= _SHRINK
        else:
            stop_reason = "no_step"  # no acceptable step along the direction
            break

    # each iterate's smallest increment eigenvalue, from one eigvalsh call per stage
    levels = plan.split(obj.blocks(np.array([point for *_, point in visited])))[1]
    qs = np.zeros((len(levels), levels.shape[1] + 2) + obj.constraint.shape)  # Q_0..Q_r of each iterate
    qs[:, 1:-1] = levels
    qs[:, -1] = obj.constraint
    eigs = np.linalg.eigvalsh(qs[:, 1:] - qs[:, :-1])[..., 0].min(axis=1).tolist()  # eigvalsh ascends
    if stop_reason == "converged" and eps == 0.0 and eigs[-1] < -psd_tol(obj.constraint):
        stop_reason = "outside_cone"
    trace = [TraceRow(stage, eps, it, v, norm, e) for (it, v, norm, _), e in zip(visited, eigs)]
    lam, levels = plan.split(obj.blocks(z))
    return MinimizeResult(
        path=DiscretePath(plan.x, np.concatenate([levels, obj.constraint[None]])),
        lam=lam,
        eps=eps,
        value=value,
        value_base=base,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=stop_reason == "converged",
        stop_reason=stop_reason,
        trace=trace,
        evaluations=evaluations,
        hessians=hessians,
    )


def grown_start(path: DiscretePath) -> np.ndarray:
    """The free levels of ``path`` with one level more, an (r, n, n) stack
    for a start at r + 1 levels: its top free level Q_t is split into two,
    Q_t - tau (Q_t - Q_{t-1}) and Q_t + tau (Q - Q_t), tau = ``_GROW_TAU``.
    The new increments are (1 - tau)(Q_t - Q_{t-1}), tau (Q - Q_{t-1}) and
    (1 - tau)(Q - Q_t), each a positive multiple of an old increment or of
    a sum of them, so a strictly monotone path stays strictly monotone and
    the levels are feasible at any weights, like a warm source's.  Both
    split levels sit next to the old one: the start is the r - 1 answer up
    to one level of small increment.  ``path`` needs a free level, r >= 2
    (ValidationError)."""
    if path.r < 2:
        raise ValidationError(f"grown_start splits a free level, so it needs r >= 2, got r = {path.r}")
    low, top, q = path.level(path.r - 2), path.qs[-2], path.constraint
    return np.concatenate([path.qs[:-2], [top - _GROW_TAU * (top - low), top + _GROW_TAU * (q - top)]])


def continuation(
    kind: str,
    mix: MixtureSpec,
    constraint: np.ndarray,
    r: int,
    x,
    opts: SolveOptions,
    starts=(None,),
) -> ContinuationResult:
    """Solve at fixed weights from each of ``starts``, a nonempty sequence,
    in turn; return the first result that converges, else the result of
    the last start.  Its ``value_at_eps_min`` is the barrier-stripped value
    at the final stage, the exact value of the form when the schedule ends
    at eps = 0, as the default (1e-5, 0) does; its ``start`` is the start it
    ran from.

    A start None is cold: the whole eps schedule runs, the first stage from
    :func:`default_start`, each later one from the previous stage's
    minimizer (lam, levels); under the default, one barrier stage and then
    the eps = 0 stage.  A start (lam, levels), lam None for the
    multiplier-free form and levels the free levels Q_1..Q_{r-1} as an
    (r - 1, n, n) stack, is warm: only the schedule's last stage runs, from
    it.  A barrier method may start at its target eps near the solution
    (Boyd & Vandenberghe, sec. 11.3).  A warm eps = 0 stage that ends
    ``outside_cone`` is not converged, so the next start, cold under the
    search's policy, runs.  The levels may be a continuation's at other
    weights, ``path.qs[:-1]``, or a :func:`grown_start`: the tail chain
    D_p = sum_{k >= p} x_k (Q_{k+1} - Q_k) of strictly monotone levels is
    positive definite for any positive weights, so they are feasible at x.
    Trace rows keep their schedule indices.
    """
    starts = tuple(starts)
    if not starts:
        raise ValueError("continuation needs a nonempty sequence of starts, got starts=()")
    schedule = list(enumerate(opts.eps_schedule))
    for start in starts:
        first, stages = start, []
        for si, eps in schedule if start is None else schedule[-1:]:
            stages.append(minimize_fixed(kind, mix, constraint, r, x, eps, opts, start=first, stage=si))
            first = (stages[-1].lam, stages[-1].path.qs[:-1])
        cont = ContinuationResult(stages, start)
        if cont.converged:
            break
    return cont


def search(mix: MixtureSpec, constraint: np.ndarray, opts: SolveOptions) -> SearchResult:
    """Minimize the multiplier-free form over the weights: sweep r =
    2..r_max with discrete coordinate descent over the interior weights
    (x_0 = 0 and x_{r-1} = 1 pinned).  A converged candidate ranks
    above an unconverged one; among equals a value lower by more than
    ``tie_tol`` (1e-9) wins.  Within one r a tied candidate replaces the
    incumbent only when its value is not above the incumbent's and its
    weights are lexicographically smaller.  Across r, a larger r replaces
    the incumbent only when it converges where the incumbent did not, or
    when its value is lower by more than ``tie_tol``; so ties keep the
    smaller r.  Each candidate is one :func:`continuation` whose start
    list states the policy: ``(None,)``, cold only, for the one candidate
    at r = 2, and ``(source, None)``, warm and then cold, for every other.
    The source of the first candidate of each r >= 3 is ``(None,
    grown_start(...))`` of the r - 1 sweep's own answer (not the incumbent,
    which may have fewer levels); that of every later one is the final
    (lam, levels) of the nearest converged candidate already solved at that r
    (L-infinity distance in the weight ticks, ties to the smaller ticks).
    A later candidate with no converged neighbour runs cold only.  Each
    sweep visits its options nearest the incumbent first, so near
    neighbours become the sources of far ones.  A winner whose ``start``
    is not None is re-solved cold at its weights, under every schedule, so
    ``best`` is a cold continuation; ``candidates`` keeps the warm value
    the ranking read.  Under a schedule that ends at eps = 0, the default,
    the ranking reads the exact value of each candidate at its weights, and
    a candidate whose eps = 0 stage ends ``outside_cone`` is unconverged.

    The solved candidates are kept in one table per r, from the weight
    ticks to their continuation; ``candidates`` lists them as (r, x,
    ``value_at_eps_min``) in the order they ran."""
    tie_tol = 1e-9
    best = None
    tables = {}  # r -> {weight ticks: continuation}, in the order solved

    def outranks(a, b, tie=False):
        # a converged candidate ranks first; then a lower value, or ``tie``
        if a.converged != b.converged:
            return a.converged
        return a.value_at_eps_min < b.value_at_eps_min - tie_tol or tie

    def weights(r, ticks):
        denom = 4 * opts.x_grid * (r - 1)
        return (0.0,) + tuple(t / denom for t in ticks) + (1.0,)

    def run(r, ticks, source=None):
        solved = tables.setdefault(r, {})
        if ticks not in solved:
            # the source: the nearest converged candidate solved at this r,
            # else ``source`` (a grown start) or None (cold only)
            near = [(max(abs(a - b) for a, b in zip(t, ticks)), t) for t in solved if solved[t].converged]
            if near:
                nearest = solved[min(near)[1]]
                source = (nearest.lam, nearest.path.qs[:-1])
            starts = (None,) if source is None else (source, None)
            solved[ticks] = continuation("cs", mix, constraint, r, weights(r, ticks), opts, starts=starts)
        return solved[ticks]

    cont = None  # the last sweep's answer
    for r in range(2, opts.r_max + 1):
        m = r - 2
        # interior weights are integer ticks over a denominator that every
        # grid spacing and the equally spaced start divide, so no candidate
        # sits a rounding error away from 0 or from its neighbour
        denom = 4 * opts.x_grid * (r - 1)
        cur = tuple((k + 1) * 4 * opts.x_grid for k in range(m))
        # the first candidate grows from the r - 1 sweep's own answer
        cont = run(r, cur, None if cont is None else (None, grown_start(cont.path)))
        spacing = 4 * (r - 1)
        for refinement in range(3 if m else 0):
            improved = True
            while improved:
                improved = False
                for i in range(m):
                    lo = cur[i - 1] if i > 0 else 0
                    hi = cur[i + 1] if i + 1 < m else denom
                    options = {cur[i] - spacing, cur[i] + spacing}
                    if refinement == 0:
                        options |= {j * spacing for j in range(1, opts.x_grid)}
                    for v in sorted(options, key=lambda t: (abs(t - cur[i]), t)):
                        if not lo < v < hi:
                            continue
                        cand = cur[:i] + (v,) + cur[i + 1 :]
                        trial = run(r, cand)
                        # convergence is never lost and a tie moves only
                        # downhill, so every accepted move lowers
                        # (unconverged, value, weights) and the sweep cannot cycle
                        tie = trial.value_at_eps_min <= cont.value_at_eps_min and cand < cur
                        if outranks(trial, cont, tie):
                            cont, cur = trial, cand
                            improved = True
            spacing //= 2
        if best is None or outranks(cont, best[2]):
            best = (r, cur, cont)
    r, ticks, cont = best
    if cont.start is not None:
        cont = continuation("cs", mix, constraint, r, weights(r, ticks), opts)
    return SearchResult(
        r=r,
        x=weights(r, ticks),
        best=cont,
        candidates=[(r, weights(r, t), c.value_at_eps_min) for r in tables for t, c in tables[r].items()],
    )


def duality_gap(mix: MixtureSpec, constraint: np.ndarray, opts: SolveOptions) -> GapReport:
    """Search the weights once, on the multiplier-free form, then solve the
    multiplier form cold at the winner's (r, x).  The gap is a fixed-x
    certificate: at fixed weights the two forms' minima agree, so a small
    gap says both solves reached that common minimum; it says nothing about
    whether the search's weights are the best ones.  ``argmin_parisi``
    carries the search's r and x, and that one solve as its only candidate.

    The mixture is solved as given, with or without a positive p = 2 term:
    the kernel only multiplies by xi'' and xi'''.  Only the lower-side
    correction terms of the identity checks (``error_terms("lower")``)
    divide by xi'', and the gap never evaluates them.
    """
    sc = search(mix, constraint, opts)
    cont = continuation("parisi", mix, constraint, sc.r, sc.x, opts)
    sp = SearchResult(sc.r, sc.x, cont, [(sc.r, sc.x, cont.value_at_eps_min)])
    # fresh dicts: an edited entry must not edit the stage it was read from
    eps_trace = {
        kind: [
            {"eps": s.eps, "value_perturbed": s.value, "value_base": s.value_base,
             "grad_norm": s.grad_norm, "iterations": s.iterations,
             "converged": s.converged, "stop_reason": s.stop_reason}
            for s in res.best.stages
        ]
        for kind, res in (("parisi", sp), ("cs", sc))
    }
    return GapReport(
        min_parisi=sp.value,
        min_cs=sc.value,
        gap=abs(sp.value - sc.value),
        argmin_parisi=sp,
        argmin_cs=sc,
        eps_trace=eps_trace,
    )
