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
Ebar_p (:func:`error_terms`); :func:`corrected_form` evaluates those
corrected forms, which need x_{r-1} = 1.

Every value and representer is computed by ``eval_stack``, one kernel
body for both forms: they differ by the swap of U_p = Q_p and
V_p = hh^T + xi'(Q_p) that :class:`Weights` makes.  The chain is built by
:func:`spinvar.path._tail_chain` and factored in one Cholesky call,
:func:`spinvar.path._factor_chain`, as in :func:`spinvar.path.lambda_sequence`
and :func:`spinvar.path.d_sequence`; a point outside the domain raises the
domain error those two raise.  The (1/x_k) terms are one log-ratio
expression signed by the form in the value, and one linear map,
:func:`_partials`, in the representers and their tangents.  One forward
pass gives the value, the unperturbed (base) value and the representers;
with them ``eval_stack`` returns the deferred tangent pass, which a caller
runs only where it needs the directional derivatives of the point's
representers (the rows of the solver's Hessian).  That pass reuses the
point's chain builder, partial sums, inverses and mixture series, with
d(A^-1)[V] = -A^-1 V A^-1 and xi'' o V, xi''' o V for the derivatives of
the series, and never repeats the forward pass.  The corrected forms run
on the same kernel: the error terms come from one inverse call over the
increments, and the base part of either side is eval_stack's formula
evaluated at the corrected chain.

Conventions: where x_k = 0 the 1/x_k log-ratio term is dropped (the chain
increment at level k is then zero); ``Weights.div`` is the one place that
rule lives.  Yet (1/x_k) log(|D_{k+1}|/|D_k|) tends to the nonzero trace
-tr(D_{k+1}^-1 (Q_{k+1} - Q_k)) as x_k -> 0, and likewise for Lambda.  So
both forms jump at x_k = 0, and merging such a level changes the value
(example in :func:`spinvar.path.merge_duplicates`; ROADMAP item 1).
Correction inner products are accumulated in a fixed order so repeated
runs are bitwise reproducible.

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
from functools import partial

import numpy as np

from .errors import (
    DegenerateIncrement,
    InfeasiblePath,
    NonStrictWeights,
    NotPositiveDefinite,
    ValidationError,
)
from .matcore import MixtureSpec, frozen, hadamard_div, stack_inverses, stack_logdets, symmetrize
from .path import DiscretePath, _as_multiplier, _factor_chain, _tail_chain, tail_sums


def corrected_eps(eps: float) -> float:
    """Epsilon as seen by the half-bracketed functional forms (see module doc)."""
    return 2.0 * eps


def _frob(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=(-2, -1))


class Weights:
    """The form ``kind`` at weights x_0..x_{r-1}, as the kernel uses them.

    The forms differ by one swap (:meth:`pair`): with U_p = Q_p and
    V_p = hh^T + xi'(Q_p), p = 1..r, the multiplier form builds its chain
    Lambda_p from W = V and pairs its representers with O = U, and the
    multiplier-free form builds D_p from W = U and pairs with O = V.  Along
    the chain C_{k+1} - C_k = sign x_k (W_{k+1} - W_k), sign = +1 or -1.

    ``dx`` holds the steps x_k - x_{k-1}, k = 1..r-1, shaped (r-1, 1, 1), and
    ``div`` the signed divisors sign x_k, k = 0..r-1, shaped (r, 1, 1), +-inf
    where x_k = 0 so that ``num / div`` drops the term: the one place the
    x_k = 0 rule lives.  ``lead`` counts the multiplier blocks ahead of
    Q_1..Q_{r-1} in a point's blocks: 1 for the multiplier form.  Weights
    that are not an order parameter, 0 = x_0 <= ... <= x_{r-1} <= 1, raise
    a ValidationError.
    """

    def __init__(self, kind, x):
        if kind not in ("parisi", "cs"):
            raise ValueError(f"unknown functional kind {kind!r}")
        self.kind = kind
        self.x = np.asarray(x, dtype=float)
        # NaN fails every comparison, and the pinned ends bound every weight
        if not (self.x.size and self.x[0] == 0.0 and np.all(np.diff(self.x) >= 0.0) and self.x[-1] <= 1.0):
            raise ValidationError(f"weights must satisfy 0 = x_0 <= ... <= x_{{r-1}} <= 1, got {self.x.tolist()}")
        if kind == "cs" and (self.x.size < 2 or self.x[-1] <= 0.0):
            raise InfeasiblePath("the multiplier-free form needs r >= 2 and x_{r-1} > 0")
        self.lead = 1 if kind == "parisi" else 0
        self.sign = 1.0 if self.lead else -1.0
        self.dx = np.diff(self.x)[:, None, None]
        self.div = np.where(self.x == 0.0, np.inf, self.sign * self.x)[:, None, None]

    def pair(self, u, v):
        """(W, O): the chain's source and the representers' partner."""
        return (v, u) if self.lead else (u, v)

    def split(self, blocks):
        """(lam or None, levels) of the blocks of one point or of a stack."""
        lam = blocks[..., 0, :, :] if self.lead else None
        return lam, blocks[..., self.lead :, :, :]

    def join(self, lam, levels):
        """The blocks of one point or of a stack from ``lam`` and ``levels``."""
        if not self.lead:
            return np.asarray(levels, dtype=float)
        return np.concatenate([np.asarray(lam, dtype=float)[..., None, :, :], levels], axis=-3)


def _chain(plan, hh, mix, constraint, blocks):
    """Q_0..Q_r, the five mixture series at Q_1..Q_r, the form's (W, O) and
    the chain built from W of one point given by its free blocks."""
    lam, levels = plan.split(blocks)
    n = constraint.shape[0]
    q = np.concatenate([np.zeros((1, n, n)), levels, constraint[None]])  # Q_0..Q_r
    series = mix.series(q[1:])  # at Q_1..Q_r
    w, o = plan.pair(q[1:], hh + series[:, 1])
    return q, series, w, o, _tail_chain(plan.x, lam, w)


def _partials(plan, ci):
    """S_1..S_m with S_p = sum_{k < p} (C_k^-1 - C_{k+1}^-1) / (sign x_k),
    from the chain's inverses ``ci`` (..., m, n, n): one cumulative sum,
    linear in ``ci``, so it maps their tangents too."""
    partials = np.zeros(ci.shape)  # S_1 = 0
    steps = (ci[..., :-1, :, :] - ci[..., 1:, :, :]) / plan.div[1 : ci.shape[-3]]
    steps.cumsum(axis=-3, out=partials[..., 1:, :, :])
    return partials


def _form_total(plan, hh, q, series, w1, chain, logdet, first_inv, top):
    """Twice the unperturbed form of one point from W_1, its chain, the
    chain's log-dets and first inverse; ``top`` is the log-det the
    multiplier-free form divides by x_{r-1} (log|Q - Q_{r-1}| in eval_stack)."""
    n, x = q.shape[-1], plan.x
    # <W_1, C_1^-1> + sum_k (1/(sign x_k)) log(|C_{k+1}|/|C_k|), one expression for both forms
    total = _frob(w1, first_inv) + ((logdet[1:] - logdet[:-1]) / plan.div[1 : len(chain), 0, 0]).sum()
    if plan.lead:  # <Lambda, Q> - n - log|Lambda| - sum_k x_k Sum(theta(Q_{k+1}) - theta(Q_k))
        total += _frob(chain[-1], q[-1]) - n - logdet[-1]
        sums = -series[:, 3].sum(axis=(-2, -1))
    else:  # <hh, D_1> + log|Q - Q_{r-1}| / x_{r-1} + sum_k x_k Sum(xi(Q_{k+1}) - xi(Q_k))
        total += _frob(hh, chain[0]) + top / x[-1]
        sums = series[:, 0].sum(axis=(-2, -1))
    return total + (x[1:] * (sums[1:] - sums[:-1])).sum()


def _evaluate(plan, mix, constraint, eps, blocks, invert_all):
    """The forward pass of :func:`eval_stack` at one point: ``(value, base,
    series, w, o, inv, m)``, with ``base`` the unperturbed form, the series,
    W and O of :func:`_chain`, ``m`` the chain's length and ``inv`` the
    inverses of the chain and then of the factored increments
    (``invert_all``), or of C_1 alone.  Each matrix is factored and inverted
    on its own, so ``base`` is the value of the same point at eps = 0."""
    hh = mix.outer_field()
    q, series, w, o, chain = _chain(plan, hh, mix, constraint, blocks)
    inc = q[1:] - q[:-1]  # Q_{k+1} - Q_k, k = 0..r-1
    if eps == 0.0:
        inc = inc[:0] if plan.lead else inc[-1:]  # Q - Q_{r-1} always for D
    mats, logdet = _factor_chain(plan.kind, chain, inc)
    m = len(chain)
    inv = stack_inverses(mats[1:] if invert_all else mats[1:2])
    base = 0.5 * _form_total(plan, hh, q, series, w[0], chain, logdet[1 : 1 + m], inv[0], logdet[-1])
    value = base + eps * -logdet[1 + m :].sum()
    return float(value), float(base), series, w, o, inv, m


def eval_stack(plan, mix, constraint, eps, blocks, grad=False):
    """The eps-perturbed form of ``plan``, a :class:`Weights`, at one point.

    ``blocks`` holds the point's free blocks, shape (blocks, n, n), in the
    plan's layout: the multiplier first for the multiplier form, then the
    free levels Q_1..Q_{r-1}.  All matrices must be symmetric.  One
    Cholesky call, :func:`spinvar.path._factor_chain`, factors the chain
    (and, for eps != 0, the increments) and raises the domain error of a
    point outside the domain; one ``inv`` call inverts what the value and
    the representers need.

    Returns ``(value, base, reps, tangent)``: ``base`` the unperturbed form
    at the point, ``reps`` (with ``grad``) the representers (blocks, n, n),
    the multiplier first.  For the chain C built from W (see
    :class:`Weights`) they are

        core_p = O_p - C_1^-1 W_1 C_1^-1 - S_p  (S from :func:`_partials`),
        d_q[p] = (x_p - x_{p-1}) J_p o core_p + barrier terms,  p = 1..r-1,
        d_lam  = core_r - Lambda^-1,  J = xi''(Q_p) or -1.

    ``tangent`` (with ``grad``) is the deferred tangent pass: called on a
    stack V of shape (D, blocks, n, n), it returns the directional
    derivatives of the representers along each V, shape (D, blocks, n, n),
    from one tangent-linear pass through this point's chain, inverses and
    mixture series (see :func:`_tangent`), without a second forward pass.
    """
    value, base, series, w, o, inv, m = _evaluate(plan, mix, constraint, eps, blocks, grad)
    if not grad:
        return value, base, None, None

    r, ci = len(plan.x), inv[:m]
    a = symmetrize(ci[0] @ w[0] @ ci[0])
    core = o[:m] - a - _partials(plan, ci)
    # (x_p - x_{p-1}) J_p, J = sign dW_p/dQ_p: xi''(Q_p) or -1
    jdx = plan.dx * plan.sign * plan.pair(1.0, series[:-1, 2])[0]
    d_q = jdx * core[: r - 1]
    if eps != 0.0:
        inc_inv = inv[m:]
        d_q = d_q + corrected_eps(eps) * (inc_inv[1:] - inc_inv[:-1])
    reps = plan.join(core[-1] - ci[-1], d_q)  # join drops d_lam for the multiplier-free form
    return value, base, reps, partial(_tangent, plan, eps, series, inv, w[0], jdx, core)


def _tangent(plan, eps, series, inv, w1, jdx, core, v):
    """Directional derivatives of the representers of one point along each
    direction of the stack v (D, blocks, n, n), from the point's series at
    Q_1..Q_r, inverses (the chain's, then the increments'), W_1, and the
    ``jdx`` = (x_p - x_{p-1}) J_p and ``core`` of eval_stack's representers.

    Each step differentiates the matching step of eval_stack, with
    d(A^-1)[V] = -A^-1 V A^-1 and d xi^(j)(A)[V] = xi^(j+1)(A) o V; so
    dU = dQ and dV = xi''(Q) o dQ swap as U and V do.  The multiplier-free
    form skips what is zero or dropped there: dJ (J = -1), d_lam, and dV at
    Q_r, which only the multiplier form's chain reads (dQ_r = 0).
    """
    count, n, r, m = v.shape[0], v.shape[-1], len(plan.x), len(core)
    zero = np.zeros((count, 1, n, n))
    dlam, dlevels = plan.split(v)
    dq = np.concatenate([zero, dlevels, zero], axis=1)  # dQ_0..dQ_r
    dw, do = plan.pair(dq[:, 1:], series[:m, 2] * dq[:, 1 : m + 1])  # (dW, dO) of (dU, dV)
    ci = inv[:m]
    dci = -ci @ _tail_chain(plan.x, dlam, dw) @ ci
    # d(C_1^-1 W_1 C_1^-1)
    half = dci[:, 0] @ w1 @ ci[0]
    da = half + half.swapaxes(-1, -2) + ci[0] @ dw[:, 0] @ ci[0]
    dcore = do[:, :m] - da[:, None] - _partials(plan, dci)
    d_q = jdx * dcore[:, : r - 1]
    if plan.lead:  # dJ = d^2V_p/dQ_p^2 o dQ_p = xi'''(Q_p) o dQ_p
        d_q = plan.dx * series[:-1, 4] * core[: r - 1] * dq[:, 1:-1] + d_q
    if eps != 0.0:
        inc_inv = inv[m:]
        d_inc_inv = -inc_inv @ (dq[:, 1:] - dq[:, :-1]) @ inc_inv
        d_q = d_q + corrected_eps(eps) * (d_inc_inv[:, 1:] - d_inc_inv[:, :-1])
    return plan.join(dcore[:, -1] - dci[:, -1] if plan.lead else None, d_q)


def _point(plan, path: DiscretePath, lam=None):
    """The free blocks of one path: the symmetrized multiplier first for
    the multiplier form, then the levels."""
    n = path.n
    if plan.lead:
        if lam is None:
            raise ValueError("the multiplier form needs lam")
        lam = _as_multiplier(lam, n)
    return plan.join(lam, np.array(path.qs[:-1]).reshape(path.r - 1, n, n))


def eval_point(kind, eps, path: DiscretePath, mix: MixtureSpec, lam=None, grad=False):
    """eval_stack at one path: (value, (d_lam or None, d_q) or None); raises
    the domain error of an infeasible point."""
    plan = Weights(kind, path.x)
    value, _, reps, _ = eval_stack(plan, mix, path.constraint, eps, _point(plan, path, lam), grad)
    return value, None if reps is None else plan.split(reps)


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
    """The increments Q_{k+1} - Q_k, k = 0..r-1, their log-dets and their
    positive-definiteness mask, from one Cholesky call; an increment that
    does not factor gets log-det 0."""
    inc = np.diff(np.array((np.zeros((path.n, path.n)),) + path.qs), axis=0)
    logdet, ok = stack_logdets(inc)
    return inc, logdet, ok


def eval_barrier(path: DiscretePath) -> float:
    """-sum_k log|Q_{k+1} - Q_k| >= 0; DegenerateIncrement if any increment fails."""
    _, logdet, ok = increments(path)
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
    """Correction matrices E_1..E_r (E_r = 0) and tails Ebar_1..Ebar_{r-1}
    as read-only stacks: ``e`` (r, n, n) and ``ebar`` (r - 1, n, n), so
    E_p is ``e[p - 1]`` and Ebar_p is ``ebar[p - 1]``.

    E_p is built from inverse increment gaps around level p; the lower side
    additionally divides entrywise by xi''(Q_p).  The tails satisfy
    Ebar_k - Ebar_{k+1} = x_k (E_{k+1} - E_k).  ``inc_inv`` (r, n, n) holds
    the increments' inverses and ``barrier`` their :func:`eval_barrier`.
    """

    e: np.ndarray
    ebar: np.ndarray
    inc_inv: np.ndarray
    barrier: float


def error_terms(side: str, path: DiscretePath, mix: MixtureSpec) -> ErrorTerms:
    """Correction terms of the perturbed critical-point equations.

    side = "lower":  E_p = ((Q_{p+1}-Q_p)^-1 - (Q_p-Q_{p-1})^-1) / (x_p - x_{p-1})
                     divided entrywise by xi''(Q_p)  (needs beta_2 > 0);
    side = "upper":  the same without the entrywise division.

    From one inverse call over the increments; the tails from
    :func:`spinvar.path.tail_sums`.  E_{r-1} and Ebar_1 need a free level,
    so r = 1 is a ValidationError.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"unknown side {side!r}")
    if path.r < 2:
        raise ValidationError(f"the error terms need a free level (r >= 2), got r = {path.r}")
    dx = np.diff(path.x)
    for p in range(1, path.r):
        if dx[p - 1] <= 0.0:
            raise NonStrictWeights(f"x_{p} - x_{p - 1} = {dx[p - 1]}")
    inc, logdet, ok = increments(path)
    if not ok.all():
        raise DegenerateIncrement(int(np.argmin(ok)))
    inc_inv = stack_inverses(inc)
    e = np.diff(inc_inv, axis=0) / dx[:, None, None]
    if side == "lower":
        for p in range(1, path.r):
            e[p - 1] = hadamard_div(e[p - 1], mix.xi_second(path.level(p)))
    e = np.concatenate([e, np.zeros((1, path.n, path.n))])  # E_r = 0
    # Ebar_p = sum_{k >= p} x_k (E_{k+1} - E_k)
    ebar = tail_sums(path.x[1:], np.diff(e, axis=0))
    return ErrorTerms(frozen(e), frozen(ebar), frozen(inc_inv), float(-np.sum(logdet)))


def construct_multiplier(path: DiscretePath, mix: MixtureSpec, eps: float) -> np.ndarray:
    """The multiplier matched to a critical point of the perturbed
    multiplier-free functional:

        Lambda = (Q - Q_{r-1})^-1 + xi'(Q) - xi'(Q_{r-1}) + s E_{r-1}

    with upper-side correction terms and s = corrected_eps(eps).
    """
    return _multiplier(path, mix, eps, error_terms("upper", path, mix))


def _multiplier(path, mix, eps, err):
    """:func:`construct_multiplier` from the point's upper-side ``err``."""
    top = path.level(path.r - 1)
    lam = err.inc_inv[-1] + mix.xi_prime(path.constraint) - mix.xi_prime(top)
    return lam + corrected_eps(eps) * err.e[-2]


def corrected_form(side, path: DiscretePath, mix: MixtureSpec, eps: float, lam=None):
    """Approximate functionals with eps-corrected chains:
    ``(value, corrected, lam)``.

    side = "lower": the corrected multiplier-free form (the value the
    multiplier form reduces to at its perturbed critical points);
    side = "upper": the corrected multiplier form (the value the
    multiplier-free form reduces to).  Both need x_{r-1} = 1.
    ``corrected`` is the corrected chain C_p + s Ebar_p, p = 1..r-1, of D
    (lower) or Lambda (upper), with the terms of :func:`error_terms` and
    s = corrected_eps(eps); ``lam`` is the multiplier, for the upper side
    :func:`construct_multiplier` unless given.

    The value is the unperturbed form at the corrected chain, computed by the
    formula code of :func:`eval_stack` with log|Q - Q_{r-1}| replaced by the
    log-det of the corrected D_{r-1}, plus s times :func:`eval_barrier` and

        s sum_{k=1}^{r-1} < Ebar_{k+1} - Ebar_k, +-C_j^-1 / x_k - M_j >,

    where j = min(k + 1, r - 1), M_j = xi'(Q_j) and the sign is + on the
    lower side, and j = k, M_j = Q_j and the sign is - on the upper side.
    NotPositiveDefinite when a corrected chain matrix does not factor.
    """
    if path.x[-1] != 1.0:
        raise ValidationError(f"the approximate forms need x_{{r-1}} = 1, got {path.x[-1]}")
    err = error_terms(side, path, mix)
    kind = "cs" if side == "lower" else "parisi"
    if kind == "parisi" and lam is None:
        lam = _multiplier(path, mix, eps, err)
    s = corrected_eps(eps)
    plan = Weights(kind, path.x)
    hh = mix.outer_field()
    q, series, w, _, chain = _chain(plan, hh, mix, path.constraint, _point(plan, path, lam))
    m = path.r - 1
    chain[:m] += s * err.ebar
    logdet, ok = stack_logdets(chain)
    if not ok.all():
        raise NotPositiveDefinite("a matrix of the corrected chain is not positive definite")
    inv = stack_inverses(chain)
    total = _form_total(plan, hh, q, series, w[0], chain, logdet, inv[0], logdet[-1])
    j = np.minimum(np.arange(m) + (kind == "cs"), m - 1)
    paired = series[j, 1] if kind == "cs" else q[j + 1]
    d_ebar = np.diff(np.concatenate([err.ebar, np.zeros((1, path.n, path.n))]), axis=0)
    total += s * np.sum(_frob(d_ebar, -inv[j] / plan.div[1:] - paired))
    total += s * err.barrier
    return 0.5 * float(total), chain[:m], lam
