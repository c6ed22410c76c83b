"""Evaluation of the discrete free-energy functionals.

Two dual objective forms are evaluated over a discrete path:

* ``eval_parisi`` -- the Lagrange-multiplier form, a function of
  (Lambda, x, Q_1..Q_{r-1});
* ``eval_cs``     -- the multiplier-free Crisanti-Sommers form, a function
  of (x, Q_1..Q_{r-1}) alone.

Both can be perturbed by the log-det barrier
``B(Q) = -sum_k log|Q_{k+1} - Q_k| >= 0`` which blows up on degenerate
increments, keeping minimizers strictly interior.  At interior critical
points of a perturbed functional the two forms coincide through explicit
correction terms built from the matrices E_p and their weighted tails
Ebar_p; ``eval_approx`` evaluates those corrected forms, which need
x_{r-1} = 1.

Every value and representer is computed by ``eval_stack``, which takes a
stack of points, builds each chain with :func:`spinvar.path.tail_sums`,
and decides feasibility from one Cholesky call over all of its matrices,
by the same test as :func:`spinvar.path.lambda_sequence` and
:func:`spinvar.path.d_sequence`; infeasible points evaluate to +inf
there, and the single-point functions below raise the domain error those
two raise.  Given a stack of directions, ``eval_stack`` also
returns the directional derivatives of one point's representers (the rows
of the solver's Hessian), from a tangent-linear pass through the same
chain, inverses and mixture series, with d(A^-1)[V] = -A^-1 V A^-1 and
xi'' o V, xi''' o V for the derivatives of the series.  The corrected
forms run on the same kernel: the error terms come from one inverse call
over the increments, and the base part of either side is eval_stack's
formula evaluated at the corrected chain.

Conventions: where x_k = 0 the 1/x_k log-ratio term is dropped (the chain
increment at level k is then zero), although (1/x_k) log(|D_{k+1}|/|D_k|)
tends to the nonzero trace -tr(D_{k+1}^-1 (Q_{k+1} - Q_k)) as x_k -> 0,
and likewise for Lambda.  So both forms jump at x_k = 0, and merging such
a level changes the value (example in
:func:`spinvar.path.merge_duplicates`; ROADMAP item 1).  Correction inner
products are accumulated in a fixed order so repeated runs are bitwise
reproducible.

Epsilon convention: ``eval_perturbed`` adds the barrier un-halved,
``base + eps * B``, while the bracketed functional forms carry a global
factor 1/2.  Written inside the bracket, the perturbed objective is
therefore ``(1/2)[... - 2 eps sum_k log|Q_{k+1} - Q_k|]``, so every
correction quantity derived from its critical points (E tails, corrected
chains, tilde shifts, barrier gradient terms) carries ``2 * eps`` where
the half-barrier form would carry ``eps``.  The helper
:func:`corrected_eps` centralizes that factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateIncrement,
    DimensionMismatch,
    InfeasiblePath,
    NonStrictWeights,
    NotPositiveDefinite,
    ValidationError,
)
from .matcore import MixtureSpec, frozen, hadamard_div, stack_inverses, stack_logdets, symmetrize
from .path import FEASIBLE, DiscretePath, _factor_chain, _require_feasible, tail_sums


def corrected_eps(eps: float) -> float:
    """Epsilon as seen by the half-bracketed functional forms (see module doc)."""
    return 2.0 * eps


def _frob(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum(a * b, axis=(-2, -1))


def _over(num: np.ndarray, x: np.ndarray) -> np.ndarray:
    """num_k / x_k along axis 1, and 0 where x_k = 0 (the x_k = 0 levels
    drop out of the 1/x_k terms)."""
    x = x.reshape((1, -1) + (1,) * (num.ndim - 2))
    return np.divide(num, x, out=np.zeros_like(num), where=x != 0.0)


def _chain(kind, mix, constraint, xv, blocks):
    """Q_0..Q_r, the increments Q_{k+1} - Q_k, the five mixture series at
    Q_1..Q_r and the chain Lambda_1..Lambda_r (or D_1..D_{r-1}) of a stack
    of points given by their free blocks, each with the stack on axis 0."""
    levels = blocks[:, 1:] if kind == "parisi" else blocks
    count, n = levels.shape[0], constraint.shape[0]
    q = np.concatenate(
        [np.zeros((count, 1, n, n)), levels, np.broadcast_to(constraint, (count, 1, n, n))], axis=1
    )  # Q_0..Q_r
    inc = np.diff(q, axis=1)  # Q_{k+1} - Q_k, k = 0..r-1
    series = mix.series(q[:, 1:])  # at Q_1..Q_r
    if kind == "parisi":
        # Lambda_p = Lambda - sum_{k >= p} x_k (xi'(Q_{k+1}) - xi'(Q_k))
        tails = tail_sums(xv[1:], np.diff(series[:, :, 1], axis=1))
        lam = blocks[:, :1]
        chain = np.concatenate([lam - tails, lam], axis=1)
    else:
        # D_p = sum_{k >= p} x_k (Q_{k+1} - Q_k)
        chain = tail_sums(xv[1:], inc[:, 1:])
    return q, inc, series, chain


def _form_total(kind, hh, xv, q, series, chain, logdet, first_inv, top):
    """Twice the unperturbed form ``kind`` of a stack of points from its
    chain, the chain's log-dets and first inverse; ``top`` is the log-det
    the multiplier-free form divides by x_{r-1} (log|Q - Q_{r-1}| in
    eval_stack)."""
    n = q.shape[-1]
    sums = np.sum(series, axis=(-2, -1))  # (B, r, 4)
    if kind == "parisi":
        total = _frob(hh, first_inv) + _frob(chain[:, -1], q[:, -1]) - n - logdet[:, -1]
        total += np.sum(_over(np.diff(logdet, axis=1), xv[1:]), axis=1)
        total += _frob(series[:, 0, 1], first_inv)
        total -= np.sum(xv[1:] * np.diff(sums[:, :, 3], axis=1), axis=1)
    else:
        total = _frob(hh, chain[:, 0]) + top / xv[-1]
        total -= np.sum(_over(np.diff(logdet, axis=1), xv[1:-1]), axis=1)
        total += _frob(q[:, 1], first_inv)
        total += np.sum(xv[1:] * np.diff(sums[:, :, 0], axis=1), axis=1)
    return total


def eval_stack(kind, mix, constraint, x, eps, blocks, grad=False, directions=None):
    """The eps-perturbed form ``kind`` at a stack of B points, with its representers.

    ``blocks`` holds the free blocks of each point, shape (B, blocks, n, n):
    the multiplier first for the multiplier form, then the free levels
    Q_1..Q_{r-1}.  All matrices must be symmetric.  One Cholesky call,
    :func:`spinvar.path._factor_chain`, factors for every point the
    psd_tol-shifted Lambda_1 (or D_{r-1}), the chain Lambda_1..Lambda_r (or
    D_1..D_{r-1} and Q - Q_{r-1}) and, for eps != 0, the increments; one
    ``inv`` call inverts what the value and the representers need.

    Returns ``(values, status, reps, tangents)``: values of shape (B,), +inf
    where the status of ``_factor_chain`` is not FEASIBLE; ``reps`` (with
    ``grad``) the representers (B, blocks, n, n), the multiplier first.

    With ``directions``, a stack V of shape (D, blocks, n, n) and a stack
    of one point, ``tangents`` (None without V or at an infeasible point)
    holds the directional derivatives of its representers along each V,
    shape (D, blocks, n, n): one tangent-linear pass through the same
    chain, inverses and mixture series (see :func:`_tangent`).
    """
    if kind not in ("parisi", "cs"):
        raise ValueError(f"unknown functional kind {kind!r}")
    xv = np.asarray(x, dtype=float)
    if kind == "cs" and (xv.size < 2 or xv[-1] <= 0.0):
        raise InfeasiblePath("the multiplier-free form needs r >= 2 and x_{r-1} > 0")
    count, n = blocks.shape[0], constraint.shape[0]
    q, inc, series, chain = _chain(kind, mix, constraint, xv, blocks)
    if eps == 0.0:
        inc = inc[:, :0] if kind == "parisi" else inc[:, -1:]  # Q - Q_{r-1} always
    mats, logdet, status = _factor_chain(kind, chain, inc)
    m = chain.shape[1]
    feasible = status == FEASIBLE

    grad = grad or directions is not None
    inv = stack_inverses(mats[:, 1:] if grad else mats[:, 1:2], feasible[:, None])

    hh = mix.outer_field()
    total = _form_total(kind, hh, xv, q, series, chain, logdet[:, 1 : 1 + m], inv[:, 0], logdet[:, -1])
    values = 0.5 * total
    if eps != 0.0:
        values = values + eps * -np.sum(logdet[:, 1 + m :], axis=1)
    values = np.where(feasible, values, np.inf)
    if not grad:
        return values, status, None, None

    dx = np.diff(xv)[:, None, None]
    if kind == "parisi":
        li = inv[:, :m]  # Lambda_1^-1 .. Lambda_r^-1
        a = symmetrize(li[:, 0] @ (hh + series[:, 0, 1]) @ li[:, 0])
        partial = np.cumsum(_over(li[:, :-1] - li[:, 1:], xv[1:]), axis=1)
        partial = np.concatenate([np.zeros((count, 1, n, n)), partial], axis=1)  # S_1..S_r
        d_lam = constraint - li[:, -1] - a - partial[:, -1]
        core = q[:, 1:-1] - a[:, None] - partial[:, :-1]
        d_q = dx * series[:, :-1, 2] * core
    else:
        di = inv[:, :m]  # D_1^-1 .. D_{r-1}^-1
        b = symmetrize(di[:, 0] @ q[:, 1] @ di[:, 0])
        partial = np.cumsum(_over(di[:, 1:] - di[:, :-1], xv[1:-1]), axis=1)
        partial = np.concatenate([np.zeros((count, 1, n, n)), partial], axis=1)  # T_1..T_{r-1}
        core = hh - b[:, None] - partial + series[:, :-1, 1]
        d_q = -dx * core
    if eps != 0.0:
        inc_inv = inv[:, m:]
        d_q = d_q + corrected_eps(eps) * (inc_inv[:, 1:] - inc_inv[:, :-1])
    reps = np.concatenate([d_lam[:, None], d_q], axis=1) if kind == "parisi" else d_q
    tangents = None
    if directions is not None and feasible[0]:
        tangents = _tangent(kind, xv, eps, hh, q[0], series[0], inv[0], core[0], directions)
    return values, status, reps, tangents


def _tangent(kind, xv, eps, hh, q, series, inv, core, v):
    """Directional derivatives of the representers of one point along each
    direction of the stack v (D, blocks, n, n), from the point's levels q
    (Q_0..Q_r), series at Q_1..Q_r, inverses (the chain's, then the
    increments') and the ``core`` of eval_stack's representers.

    Each step differentiates the matching step of eval_stack, with
    d(A^-1)[V] = -A^-1 V A^-1 and d xi^(j)(A)[V] = xi^(j+1)(A) o V.
    """
    count, n = len(v), q.shape[-1]
    zero = np.zeros((count, 1, n, n))
    dq = np.concatenate([zero, v[:, 1:] if kind == "parisi" else v, zero], axis=1)  # dQ_0..dQ_r
    dx = np.diff(xv)[:, None, None]
    m = len(xv) if kind == "parisi" else len(xv) - 1
    ci = inv[:m]  # Lambda_1^-1 .. Lambda_r^-1, or D_1^-1 .. D_{r-1}^-1
    if kind == "parisi":
        # d Lambda_p = d Lambda - sum_{k >= p} x_k (xi''(Q_{k+1}) o dQ_{k+1} - xi''(Q_k) o dQ_k)
        d_xp = series[:, 2] * dq[:, 1:]
        dlam = v[:, :1]
        dchain = np.concatenate([dlam - tail_sums(xv[1:], np.diff(d_xp, axis=1)), dlam], axis=1)
        dci = -ci @ dchain @ ci
        # a = L_1^-1 (hh + xi'(Q_1)) L_1^-1
        half = dci[:, 0] @ (hh + series[0, 1]) @ ci[0]
        da = half + half.swapaxes(-1, -2) + ci[0] @ d_xp[:, 0] @ ci[0]
        dpartial = np.cumsum(_over(dci[:, :-1] - dci[:, 1:], xv[1:]), axis=1)
        d_lam = -dci[:, -1] - da - dpartial[:, -1]
        dcore = dq[:, 1:-1] - da[:, None] - np.concatenate([zero, dpartial[:, :-1]], axis=1)
        d_q = dx * (series[:-1, 4] * dq[:, 1:-1] * core + series[:-1, 2] * dcore)
    else:
        # d D_p = sum_{k >= p} x_k (dQ_{k+1} - dQ_k)
        dci = -ci @ tail_sums(xv[1:], np.diff(dq[:, 1:], axis=1)) @ ci
        # b = D_1^-1 Q_1 D_1^-1
        half = dci[:, 0] @ q[1] @ ci[0]
        db = half + half.swapaxes(-1, -2) + ci[0] @ dq[:, 1] @ ci[0]
        dpartial = np.cumsum(_over(dci[:, 1:] - dci[:, :-1], xv[1:-1]), axis=1)
        dcore = series[:-1, 2] * dq[:, 1:-1] - db[:, None] - np.concatenate([zero, dpartial], axis=1)
        d_q = -dx * dcore
    if eps != 0.0:
        inc_inv = inv[m:]
        d_inc_inv = -inc_inv @ np.diff(dq, axis=1) @ inc_inv
        d_q = d_q + corrected_eps(eps) * (d_inc_inv[:, 1:] - d_inc_inv[:, :-1])
    return np.concatenate([d_lam[:, None], d_q], axis=1) if kind == "parisi" else d_q


def _point(kind, path: DiscretePath, lam=None):
    """The free blocks of one path as a stack of one point: the
    symmetrized multiplier first for the multiplier form, then the levels."""
    n = path.n
    blocks = np.array(path.qs[:-1]).reshape(path.r - 1, n, n)
    if kind == "parisi":
        if lam is None:
            raise ValueError("the multiplier form needs lam")
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (n, n):
            raise DimensionMismatch("multiplier dimension does not match the path")
        blocks = np.concatenate([symmetrize(lam)[None], blocks])
    return blocks[None]


def eval_point(kind, eps, path: DiscretePath, mix: MixtureSpec, lam=None, grad=False):
    """eval_stack at one path: (value, representers or None); raises the
    domain error of an infeasible point."""
    blocks = _point(kind, path, lam)
    values, status, reps, _ = eval_stack(kind, mix, path.constraint, path.x, eps, blocks, grad)
    _require_feasible(kind, status[0])
    return float(values[0]), None if reps is None else reps[0]


def eval_parisi(lam: np.ndarray, path: DiscretePath, mix: MixtureSpec) -> float:
    """Multiplier-form functional.

    0.5 [ <hh^T, L1^-1> + <Lambda, Q> - n - log|Lambda|
          + sum_k (1/x_k) log(|L_{k+1}|/|L_k|) + <xi'(Q_1), L1^-1>
          - sum_k x_k Sum(theta(Q_{k+1}) - theta(Q_k)) ]
    """
    return eval_point("parisi", 0.0, path, mix, lam=lam)[0]


def eval_cs(path: DiscretePath, mix: MixtureSpec) -> float:
    """Multiplier-free functional.

    0.5 [ <hh^T, D_1> + (1/x_{r-1}) log|Q - Q_{r-1}|
          - sum_{k<=r-2} (1/x_k) log(|D_{k+1}|/|D_k|) + <Q_1, D_1^-1>
          + sum_k x_k Sum(xi(Q_{k+1}) - xi(Q_k)) ]
    """
    return eval_point("cs", 0.0, path, mix)[0]


def increments(path: DiscretePath):
    """Log-dets, inverses and positive-definiteness mask of the increments
    Q_{k+1} - Q_k, k = 0..r-1, from one Cholesky and one inverse call; an
    increment that does not factor gets log-det 0 and inverse I."""
    inc = np.diff(np.array((np.zeros((path.n, path.n)),) + path.qs), axis=0)
    logdet, ok = stack_logdets(inc)
    return logdet, stack_inverses(inc, ok), ok


def eval_barrier(path: DiscretePath) -> float:
    """-sum_k log|Q_{k+1} - Q_k| >= 0; DegenerateIncrement if any increment fails."""
    logdet, _, ok = increments(path)
    if not ok.all():
        raise DegenerateIncrement(int(np.argmin(ok)))
    return float(-np.sum(logdet))


def eval_perturbed(
    kind: str,
    eps: float,
    path: DiscretePath,
    mix: MixtureSpec,
    lam: np.ndarray | None = None,
) -> float:
    """Base functional plus eps times the barrier (eps = 0 skips the barrier)."""
    return eval_point(kind, eps, path, mix, lam=lam)[0]


@dataclass(frozen=True)
class ErrorTerms:
    """Correction matrices E_1..E_r (E_r = 0) and tails Ebar_1..Ebar_{r-1}.

    E_p is built from inverse increment gaps around level p; the lower side
    additionally divides entrywise by xi''(Q_p).  The tails satisfy
    Ebar_k - Ebar_{k+1} = x_k (E_{k+1} - E_k).
    """

    side: str
    e: tuple[np.ndarray, ...]
    ebar: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(frozen(m) for m in self.e))
        object.__setattr__(self, "ebar", tuple(frozen(m) for m in self.ebar))

    def e_at(self, p: int) -> np.ndarray:
        """E_p for 1 <= p <= r."""
        return self.e[p - 1]

    def ebar_at(self, p: int) -> np.ndarray:
        """Ebar_p for 1 <= p <= r-1."""
        return self.ebar[p - 1]


def _error_stack(side, path, mix):
    """Increment log-dets and inverses, E_1..E_r and Ebar_1..Ebar_{r-1} of
    one path as stacks (see :func:`error_terms`)."""
    if side not in ("lower", "upper"):
        raise ValueError(f"unknown side {side!r}")
    dx = np.diff(path.x)
    for p in range(1, path.r):
        if dx[p - 1] <= 0.0:
            raise NonStrictWeights(f"x_{p} - x_{p - 1} = {dx[p - 1]}")
    logdet, inv, ok = increments(path)
    if not ok.all():
        raise DegenerateIncrement(int(np.argmin(ok)))
    e = np.diff(inv, axis=0) / dx[:, None, None]
    if side == "lower":
        for p in range(1, path.r):
            e[p - 1] = hadamard_div(e[p - 1], mix.xi_second(path.level(p)))
    e = np.concatenate([e, np.zeros((1, path.n, path.n))])  # E_r = 0
    # Ebar_p = sum_{k >= p} x_k (E_{k+1} - E_k)
    return logdet, inv, e, tail_sums(path.x[1:], np.diff(e, axis=0))


def error_terms(side: str, path: DiscretePath, mix: MixtureSpec) -> ErrorTerms:
    """Correction terms of the perturbed critical-point equations.

    side = "lower":  E_p = ((Q_{p+1}-Q_p)^-1 - (Q_p-Q_{p-1})^-1) / (x_p - x_{p-1})
                     divided entrywise by xi''(Q_p)  (needs beta_2 > 0);
    side = "upper":  the same without the entrywise division.
    """
    _, _, e, ebar = _error_stack(side, path, mix)
    return ErrorTerms(side=side, e=tuple(e), ebar=tuple(ebar))


def _multiplier(path, mix, eps, inc_inv, e):
    top = path.level(path.r - 1)
    lam = inc_inv[-1] + mix.xi_prime(path.constraint) - mix.xi_prime(top)
    return lam + corrected_eps(eps) * e[-2]


def construct_multiplier(path: DiscretePath, mix: MixtureSpec, eps: float) -> np.ndarray:
    """The multiplier matched to a critical point of the perturbed
    multiplier-free functional:

        Lambda = (Q - Q_{r-1})^-1 + xi'(Q) - xi'(Q_{r-1}) + s E_{r-1}

    with upper-side correction terms and s = corrected_eps(eps).
    """
    _, inc_inv, e, _ = _error_stack("upper", path, mix)
    return _multiplier(path, mix, eps, inc_inv, e)


def eval_approx(
    side: str,
    path: DiscretePath,
    mix: MixtureSpec,
    eps: float,
    lam: np.ndarray | None = None,
) -> float:
    """Approximate functionals with eps-corrected chains.

    side = "lower": the corrected multiplier-free form (the value the
    multiplier form reduces to at its perturbed critical points);
    side = "upper": the corrected multiplier form (the value the
    multiplier-free form reduces to).  For the upper side ``lam`` defaults
    to :func:`construct_multiplier`.  Both need x_{r-1} = 1.
    """
    return corrected_form(side, path, mix, eps, lam)[0]


def corrected_form(side, path: DiscretePath, mix: MixtureSpec, eps: float, lam=None):
    """:func:`eval_approx` with what the identity checks compare it to:
    ``(value, corrected, lam, err)``, with ``corrected`` the corrected chain
    C_p + s Ebar_p, p = 1..r-1, of D (lower) or Lambda (upper), ``lam`` the
    multiplier (constructed on the upper side when not given) and ``err``
    the error terms, s = corrected_eps(eps).

    The value is the unperturbed form at the corrected chain, computed by the
    formula code of :func:`eval_stack` with log|Q - Q_{r-1}| replaced by the
    log-det of the corrected D_{r-1}, plus s times the barrier and

        s sum_{k=1}^{r-1} < Ebar_{k+1} - Ebar_k, +-C_j^-1 / x_k - M_j >,

    where j = min(k + 1, r - 1), M_j = xi'(Q_j) and the sign is + on the
    lower side, and j = k, M_j = Q_j and the sign is - on the upper side.
    NotPositiveDefinite when a corrected chain matrix does not factor.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"unknown side {side!r}")
    if path.x[-1] != 1.0:
        raise ValidationError(f"the approximate forms need x_{{r-1}} = 1, got {path.x[-1]}")
    inc_logdet, inc_inv, e, ebar = _error_stack(side, path, mix)
    err = ErrorTerms(side=side, e=tuple(e), ebar=tuple(ebar))
    kind = "cs" if side == "lower" else "parisi"
    if kind == "parisi" and lam is None:
        lam = _multiplier(path, mix, eps, inc_inv, e)
    s = corrected_eps(eps)
    xv = np.asarray(path.x, dtype=float)
    q, _, series, chain = _chain(kind, mix, path.constraint, xv, _point(kind, path, lam))
    m = path.r - 1
    chain[:, :m] += s * ebar
    logdet, ok = stack_logdets(chain)
    if not ok.all():
        raise NotPositiveDefinite("a matrix of the corrected chain is not positive definite")
    inv = stack_inverses(chain)
    total = _form_total(kind, mix.outer_field(), xv, q, series, chain, logdet, inv[:, 0], logdet[:, -1])
    j = np.minimum(np.arange(m) + (kind == "cs"), m - 1)
    sign, paired = (1.0, series[0, j, 1]) if kind == "cs" else (-1.0, q[0, j + 1])
    d_ebar = np.diff(np.concatenate([ebar, np.zeros((1, path.n, path.n))]), axis=0)
    total += s * np.sum(_frob(d_ebar, sign * inv[0, j] / xv[1:, None, None] - paired))
    total -= s * np.sum(inc_logdet)
    return 0.5 * float(total[0]), chain[0, :m], lam, err
