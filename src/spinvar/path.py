"""Discrete order-parameter paths and the derived matrix chains.

A discrete path is the pair of sequences

    0 = x_0 <= x_1 <= ... <= x_{r-1} <= 1
    0 = Q_0 <= Q_1 <= ... <= Q_{r-1} <= Q_r = Q

with PSD-ordered matrix levels.  Q_0 = 0 is implicit and Q_r is the
constraint; only Q_1 .. Q_{r-1} are free in any optimization.  From a path
and a mixture two chains are derived:

    Lambda_p = Lambda - sum_{p <= k <= r-1} x_k (xi'(Q_{k+1}) - xi'(Q_k))
    D_p      =          sum_{p <= k <= r-1} x_k (Q_{k+1} - Q_k)

for 1 <= p <= r-1 (and Lambda_r = Lambda).  Both telescope:
Lambda_{k+1} - Lambda_k = x_k (xi'(Q_{k+1}) - xi'(Q_k)) and
D_k - D_{k+1} = x_k (Q_{k+1} - Q_k).

Every chain of the package -- these two, the correction tails Ebar_p of
:mod:`spinvar.functionals` and Phihat at the knots of
:mod:`spinvar.continuous` -- is a weighted tail sum, computed by
:func:`tail_sums` for a whole stack at once.

Chain feasibility is decided by :func:`_factor_chain` alone, for the two
sequences below and for :func:`spinvar.functionals.eval_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateIncrement,
    DimensionMismatch,
    InfeasibleMultiplier,
    InfeasiblePath,
    NotPositiveDefinite,
    ValidationError,
)
from .matcore import MixtureSpec, frozen, psd_tol, spectral_floor, stack_logdets, symmetrize

# status codes of _factor_chain; INCREMENT_FAILED + k names increment k
FEASIBLE, FLOOR_FAILED, CHAIN_FAILED, INCREMENT_FAILED = 0, 1, 2, 3


@dataclass(frozen=True)
class DiscretePath:
    """Weights x_0..x_{r-1} paired with matrix levels Q_1..Q_r."""

    x: tuple[float, ...]
    qs: tuple[np.ndarray, ...]

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        if len(x) < 1:
            raise ValidationError("a path needs at least one weight (r >= 1)")
        qs = tuple(frozen(symmetrize(np.asarray(q, dtype=float))) for q in self.qs)
        if len(qs) != len(x):
            raise ValidationError(
                f"need as many levels Q_1..Q_r as weights x_0..x_{{r-1}}: "
                f"got {len(qs)} levels for r = {len(x)}"
            )
        n = qs[0].shape[0]
        for q in qs:
            if q.shape != (n, n):
                raise DimensionMismatch("all levels must share one dimension")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "qs", qs)

    @property
    def r(self) -> int:
        return len(self.x)

    @property
    def n(self) -> int:
        return self.qs[0].shape[0]

    @property
    def constraint(self) -> np.ndarray:
        return self.qs[-1]

    def level(self, k: int) -> np.ndarray:
        """Q_k for 0 <= k <= r, with Q_0 the zero matrix."""
        if k == 0:
            return np.zeros((self.n, self.n))
        return self.qs[k - 1]

    def increment(self, k: int) -> np.ndarray:
        """Q_{k+1} - Q_k for 0 <= k <= r-1."""
        return self.level(k + 1) - self.level(k)

    def with_levels(self, levels) -> "DiscretePath":
        """Replace the free levels Q_1..Q_{r-1}, keeping x and the constraint."""
        if len(levels) != self.r - 1:
            raise ValidationError(f"expected {self.r - 1} free levels, got {len(levels)}")
        return DiscretePath(self.x, tuple(levels) + (self.constraint,))

    def free_levels(self) -> list[np.ndarray]:
        return [np.array(q) for q in self.qs[:-1]]


def equally_spaced(constraint: np.ndarray, r: int, x=None) -> DiscretePath:
    """The deterministic start Q_k = (k/r) Q with the given weights."""
    q = symmetrize(np.asarray(constraint, dtype=float))
    qs = tuple((k / r) * q for k in range(1, r + 1))
    if x is None:
        x = tuple(k / (r - 1) for k in range(r)) if r > 1 else (0.0,)
    return DiscretePath(tuple(x), qs)


def validate(path: DiscretePath, constraint: np.ndarray | None = None) -> list[str]:
    """Diagnostic report: every violated invariant with index and margin."""
    problems = []
    x = path.x
    if x[0] != 0.0:
        problems.append(f"x_0 must be 0, got {x[0]}")
    for k in range(1, path.r):
        if x[k] < x[k - 1]:
            problems.append(f"weights must be nondecreasing: x_{k} = {x[k]} < x_{k-1} = {x[k-1]}")
    if x[-1] > 1.0:
        problems.append(f"x_{{r-1}} must be <= 1, got {x[-1]}")
    if not all(np.isfinite(v) for v in x):
        problems.append("weights must be finite")
    for k in range(path.r):
        inc = path.increment(k)
        floor = spectral_floor(inc)
        if floor < -psd_tol(inc):
            problems.append(
                f"increment Q_{k + 1} - Q_{k} is not PSD: lam_min = {floor:.6e}"
            )
    for k, q in enumerate(path.qs, start=1):
        if not np.all(np.isfinite(q)):
            problems.append(f"level Q_{k} has non-finite entries")
    if constraint is not None:
        constraint = np.asarray(constraint, dtype=float)
        if constraint.shape != path.constraint.shape or not np.array_equal(
            path.constraint, symmetrize(constraint)
        ):
            problems.append("Q_r does not equal the constraint matrix entrywise")
    return problems


def tail_sums(weights, steps: np.ndarray) -> np.ndarray:
    """T_p = sum_{k >= p} w_k steps_k, p = 0..m-1, for steps of shape
    (..., m, n, n) and weights w of shape (m,): one reverse cumulative sum
    along axis -3, which adds the terms from k = m-1 down."""
    terms = np.asarray(weights, dtype=float)[:, None, None] * steps
    return terms[..., ::-1, :, :].cumsum(axis=-3)[..., ::-1, :, :]


@dataclass(frozen=True)
class Chain:
    """A derived chain C_1..C_m, read-only: Lambda_1..Lambda_r or D_1..D_{r-1}."""

    seq: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(frozen(self.seq)))

    def at(self, p: int) -> np.ndarray:
        """C_p for 1 <= p <= m."""
        return self.seq[p - 1]


def _factor_chain(kind, chain, incs):
    """Feasibility of the chains (B, m, n, n) of B points, Lambda_1..Lambda_r
    (``kind`` "parisi") or D_1..D_{r-1} ("cs"): one Cholesky call factors
    the psd_tol-shifted Lambda_1 (or D_{r-1}), the chain and ``incs``, shape
    (B, e, n, n): the increments Q_{k+1} - Q_k under the barrier, otherwise
    none ("parisi") or Q - Q_{r-1} ("cs").  Returns ``(mats, logdet,
    status)``: those matrices, their log-dets and per point FLOOR_FAILED,
    CHAIN_FAILED (a chain matrix or, for "cs", the last of ``incs``),
    INCREMENT_FAILED + k (``incs[k]``) or FEASIBLE, the first that applies."""
    floor = chain[:, 0] if kind == "parisi" else chain[:, -1]
    shifted = floor - psd_tol(floor)[:, None, None] * np.eye(chain.shape[-1])
    mats = np.concatenate([shifted[:, None], chain, incs], axis=1)
    logdet, ok = stack_logdets(mats)
    m = chain.shape[1]
    chain_ok = ok[:, 1 : 1 + m].all(axis=1)
    if kind == "cs":
        chain_ok &= ok[:, -1]
    status = np.where(ok[:, 0], np.where(chain_ok, FEASIBLE, CHAIN_FAILED), FLOOR_FAILED)
    inc_bad = ~ok[:, 1 + m :]
    if inc_bad.any():
        first_bad = INCREMENT_FAILED + np.argmax(inc_bad, axis=1)
        status = np.where((status == FEASIBLE) & inc_bad.any(axis=1), first_bad, status)
    return mats, logdet, status


def _require_feasible(kind: str, status: int):
    """Raise the domain error of a :func:`_factor_chain` status other than FEASIBLE."""
    if status == FLOOR_FAILED:
        if kind == "parisi":
            raise InfeasibleMultiplier("Lambda_1 is not positive definite beyond psd_tol")
        raise InfeasiblePath("D_{r-1} is not positive definite beyond psd_tol")
    if status == CHAIN_FAILED:
        if kind == "parisi":
            raise NotPositiveDefinite("a matrix of the multiplier chain is not positive definite")
        raise InfeasiblePath("a matrix of the tail chain is not positive definite")
    if status != FEASIBLE:
        raise DegenerateIncrement(int(status) - INCREMENT_FAILED)


def lambda_sequence(lam: np.ndarray, path: DiscretePath, mix: MixtureSpec) -> Chain:
    """Derive Lambda_1..Lambda_r, raising where and as ``eval_parisi`` does:
    InfeasibleMultiplier unless Lambda_1 factors after a shift by its
    psd_tol, NotPositiveDefinite unless every chain matrix factors."""
    lam = symmetrize(np.asarray(lam, dtype=float))
    if lam.shape != (path.n, path.n):
        raise DimensionMismatch("multiplier dimension does not match the path")
    xi_prime = mix.series(np.array(path.qs))[:, 1]  # at Q_1..Q_r
    tails = tail_sums(path.x[1:], np.diff(xi_prime, axis=0))
    chain = np.concatenate([lam - tails, lam[None]])
    _require_feasible("parisi", _factor_chain("parisi", chain[None], chain[None, :0])[2][0])
    return Chain(chain)


def d_sequence(path: DiscretePath) -> Chain:
    """Derive D_1..D_{r-1}, raising InfeasiblePath where ``eval_cs`` does:
    unless r >= 2, D_{r-1} factors after a shift by its psd_tol, and every
    chain matrix and Q - Q_{r-1} factor."""
    if path.r < 2:
        raise InfeasiblePath("D sequence needs r >= 2")
    inc = np.diff(np.array(path.qs), axis=0)  # Q_{k+1} - Q_k, k = 1..r-1
    chain = tail_sums(path.x[1:], inc)
    _require_feasible("cs", _factor_chain("cs", chain[None], inc[None, -1:])[2][0])
    return Chain(chain)


def merge_duplicates(path: DiscretePath) -> DiscretePath:
    """Canonical path with repeated weights / repeated levels merged out.

    When x_k = x_{k+1} the pair (x_{k+1}, Q_{k+1}) is dropped; when
    Q_k = Q_{k+1} (k >= 1) the pair (x_k, Q_k) is dropped.  For positive
    weights either removal leaves both functionals unchanged.  Where a
    weight is 0 it does not: the functionals drop the 1/x_k log-ratio term
    there, although its limit as x_k -> 0 is a nonzero trace, so merging a
    level with x_k = 0 into its neighbour changes the value.  For pure p=2,
    beta=1, Q=1, x=(0, 0, 1) and levels (0.1, 0.2929), ``eval_cs`` gives
    0.354525 before the merge and 0.490927 after it (ROADMAP item 1).  A
    level with Q_1 = 0 and x_1 > 0 is a genuine atom at the origin and is
    kept.
    """
    x = list(path.x)
    qs = [path.level(k) for k in range(path.r + 1)]  # Q_0..Q_r
    changed = True
    while changed and len(x) > 1:
        changed = False
        for j in range(1, len(x)):
            if x[j] == x[j - 1]:
                del x[j]
                del qs[j]
                changed = True
                break
        if changed:
            continue
        for j in range(1, len(x)):
            if np.array_equal(qs[j + 1], qs[j]):
                del x[j]
                del qs[j]
                changed = True
                break
    return DiscretePath(tuple(x), tuple(qs[1:]))
