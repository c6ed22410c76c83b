"""Discrete order-parameter paths and the derived matrix chains.

A discrete path is the pair of sequences

    0 = x_0 <= x_1 <= ... <= x_{r-1} <= 1
    0 = Q_0 <= Q_1 <= ... <= Q_{r-1} <= Q_r = Q

with PSD-ordered matrix levels.  Q_0 = 0 is implicit and Q_r is the
constraint; only Q_1 .. Q_{r-1} are free in any optimization.  A
:class:`DiscretePath` holds Q_1..Q_r as one read-only float64 stack ``qs``
of shape (r, n, n), so the free levels are ``qs[:-1]`` and the constraint
``qs[-1]``, and its ``increments`` are the stack of the steps
Q_{k+1} - Q_k, k = 0..r-1; every kernel reads these stacks whole.  From a
path and a mixture two chains are derived:

    Lambda_p = Lambda - sum_{p <= k <= r-1} x_k (xi'(Q_{k+1}) - xi'(Q_k))
    D_p      =          sum_{p <= k <= r-1} x_k (Q_{k+1} - Q_k)

for 1 <= p <= r-1 (and Lambda_r = Lambda).  Both telescope:
Lambda_{k+1} - Lambda_k = x_k (xi'(Q_{k+1}) - xi'(Q_k)) and
D_k - D_{k+1} = x_k (Q_{k+1} - Q_k).

Every chain of the package -- these two, the correction tails Ebar_p of
:mod:`spinvar.functionals` and Phihat at the knots of
:mod:`spinvar.continuous` -- is a weighted tail sum, computed by
:func:`tail_sums` for a whole stack at once; the two above by
:func:`_tail_chain`, from W_p = hh^T + xi'(Q_p) (hh^T cancels) or Q_p.

Chain feasibility is decided, and the domain error of an infeasible chain
raised, by :func:`_factor_chain` alone, for the two sequences below and for
:func:`spinvar.functionals.eval_stack`.  :func:`merge_duplicates` drops
repeated weights and levels by keep-masks over the weight vector and the
stack Q_0..Q_r, with no loop over the levels.
"""

from __future__ import annotations

import math
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
from .matcore import MixtureSpec, _real_array, frozen, psd_tol, real, stack_logdets, symmetrize, unit_blocks

@dataclass(frozen=True)
class DiscretePath:
    """Weights x_0..x_{r-1} paired with matrix levels Q_1..Q_r.

    ``qs`` is given as a sequence of r square matrices or an (r, n, n)
    array of finite reals (:func:`spinvar.matcore._real_array`, checked
    before any cast), and held as one read-only float64 stack (r, n, n) of
    the symmetrized levels, so Q_k is ``qs[k - 1]``; :attr:`increments` is the
    stack of the steps Q_{k+1} - Q_k."""

    x: tuple[float, ...]
    qs: np.ndarray

    def __post_init__(self):
        x = tuple(real(v) for v in self.x)
        if None in x or not all(map(math.isfinite, x)):
            raise ValidationError(f"weights must be finite real numbers, got {self.x!r}")
        if len(x) < 1:
            raise ValidationError("a path needs at least one weight (r >= 1)")
        # an (r, n, n) array is checked whole, any other sequence level by level
        if isinstance(self.qs, np.ndarray) and self.qs.ndim == 3:
            qs = _real_array(self.qs)
            finite = qs is not None and np.isfinite(qs).all()
        else:
            qs = [_real_array(q) for q in self.qs]
            finite = all(q is not None and np.isfinite(q).all() for q in qs)
        if not finite:
            raise ValidationError("levels must have finite entries")
        if len(qs) != len(x):
            raise ValidationError(
                f"need as many levels Q_1..Q_r as weights x_0..x_{{r-1}}: "
                f"got {len(qs)} levels for r = {len(x)}"
            )
        shape = qs[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(q.shape != shape for q in qs):
            raise DimensionMismatch(
                f"levels must be square matrices of one shared size, "
                f"got shapes {[q.shape for q in qs]}"
            )
        qs = symmetrize(np.asarray(qs))  # a fresh array, so it is frozen in place
        qs.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "qs", qs)

    @property
    def r(self) -> int:
        return len(self.x)

    @property
    def n(self) -> int:
        return self.qs.shape[-1]

    @property
    def constraint(self) -> np.ndarray:
        return self.qs[-1]

    @property
    def increments(self) -> np.ndarray:
        """Q_{k+1} - Q_k, k = 0..r-1, as a fresh stack (r, n, n)."""
        return np.diff(self.qs, axis=0, prepend=0.0)

    def level(self, k: int) -> np.ndarray:
        """Q_k for 0 <= k <= r, with Q_0 the zero matrix."""
        if k == 0:
            return np.zeros((self.n, self.n))
        return self.qs[k - 1]

    def with_levels(self, levels) -> "DiscretePath":
        """Replace the free levels Q_1..Q_{r-1}, keeping x and the constraint."""
        if len(levels) != self.r - 1:
            raise ValidationError(f"expected {self.r - 1} free levels, got {len(levels)}")
        return DiscretePath(self.x, [*levels, self.constraint])


def validate(path: DiscretePath) -> list[str]:
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
    incs = path.increments
    floors = np.linalg.eigvalsh(incs)[:, 0]
    for k in np.flatnonzero(floors < -psd_tol(incs)):
        problems.append(f"increment Q_{k + 1} - Q_{k} is not PSD: lam_min = {floors[k]:.6e}")
    return problems


def tail_sums(weights, steps: np.ndarray) -> np.ndarray:
    """T_p = sum_{k >= p} w_k steps_k, p = 0..m-1, for steps of shape
    (..., m, n, n) and weights w of shape (m,): one reverse cumulative sum
    along axis -3, which adds the terms from k = m-1 down."""
    terms = np.asarray(weights, dtype=float)[:, None, None] * steps
    return terms[..., ::-1, :, :].cumsum(axis=-3)[..., ::-1, :, :]


def _factor_chain(kind, chain, incs):
    """Feasibility of one chain (m, n, n), Lambda_1..Lambda_r (``kind``
    "parisi") or D_1..D_{r-1} ("cs"): one Cholesky call factors the
    psd_tol-shifted Lambda_1 (or D_{r-1}), the chain and ``incs``, shape
    (e, n, n): the increments Q_{k+1} - Q_k under the barrier, otherwise
    none ("parisi") or Q - Q_{r-1} ("cs").  Returns ``(mats, logdet)``,
    those matrices and their log-dets, or raises the domain error of the
    first test that fails: the shifted floor, then the chain (for "cs"
    with the last of ``incs``), then increment k (``incs[k]``)."""
    floor = chain[0] if kind == "parisi" else chain[-1]
    eye, _ = unit_blocks(chain.shape[-1])
    mats = np.concatenate([(floor - psd_tol(floor) * eye)[None], chain, incs])
    logdet, ok = stack_logdets(mats)
    if ok.all():
        return mats, logdet
    m = len(chain)
    if not ok[0]:
        if kind == "parisi":
            raise InfeasibleMultiplier("Lambda_1 is not positive definite beyond psd_tol")
        raise InfeasiblePath("D_{r-1} is not positive definite beyond psd_tol")
    if not ok[1 : 1 + m].all() or (kind == "cs" and not ok[-1]):
        if kind == "parisi":
            raise NotPositiveDefinite("a matrix of the multiplier chain is not positive definite")
        raise InfeasiblePath("a matrix of the tail chain is not positive definite")
    raise DegenerateIncrement(int(np.argmin(ok[1 + m :])))


def _tail_chain(x, lam, steps):
    """Lambda - T_1..Lambda - T_{r-1}, Lambda, or T_1..T_{r-1} for ``lam``
    None, with T_p = sum_{k >= p} x_k (W_{k+1} - W_k) from the steps of
    W_1..W_r, ``steps`` (..., r - 1, n, n); linear, so it maps tangents
    too.  The functionals build their chains here too, so feasibility is
    decided on the same matrices."""
    tails = tail_sums(x[1:], steps)
    if lam is None:
        return tails
    lam = lam[..., None, :, :]
    return np.concatenate([lam - tails, lam], axis=-3)


def _as_multiplier(lam, n: int) -> np.ndarray:
    """A multiplier as a symmetric float (n, n) matrix; ValidationError for
    an entry that is not a finite real (:func:`spinvar.matcore._real_array`)
    and DimensionMismatch for any other shape, both checked before any cast."""
    a = _real_array(lam)
    if a is not None and a.shape != (n, n):
        raise DimensionMismatch("multiplier dimension does not match the path")
    if a is None or not np.isfinite(a).all():
        raise ValidationError("multiplier entries must be finite")
    return symmetrize(a)


def lambda_sequence(lam: np.ndarray, path: DiscretePath, mix: MixtureSpec) -> np.ndarray:
    """Lambda_1..Lambda_r as a read-only stack (r, n, n), so Lambda_p is
    entry p - 1, raising where and as ``eval_parisi`` does:
    InfeasibleMultiplier unless Lambda_1 factors after a shift by its
    psd_tol, NotPositiveDefinite unless every chain matrix factors."""
    lam = _as_multiplier(lam, path.n)
    field = mix.outer_field() + mix.series(path.qs)[:, 1]  # hh + xi'(Q_p), p = 1..r
    chain = _tail_chain(path.x, lam, field[1:] - field[:-1])
    _factor_chain("parisi", chain, chain[:0])
    return frozen(chain)


def d_sequence(path: DiscretePath) -> np.ndarray:
    """D_1..D_{r-1} as a read-only stack (r - 1, n, n), so D_p is entry
    p - 1, raising InfeasiblePath where ``eval_cs`` does:
    unless r >= 2, D_{r-1} factors after a shift by its psd_tol, and every
    chain matrix and Q - Q_{r-1} factor."""
    if path.r < 2:
        raise InfeasiblePath("D sequence needs r >= 2")
    incs = path.increments
    chain = _tail_chain(path.x, None, incs[1:])
    _factor_chain("cs", chain, incs[-1:])
    return frozen(chain)


def merge_duplicates(path: DiscretePath) -> DiscretePath:
    """Canonical path with repeated weights / repeated levels merged out.

    When x_k = x_{k+1} the pair (x_{k+1}, Q_{k+1}) is dropped; when
    Q_k = Q_{k+1} (k >= 1) the pair (x_k, Q_k) is dropped.  Each round
    drops every repeated weight by one mask of the weight vector or, when
    there is none, every repeated level by one mask of the stack Q_0..Q_r;
    rounds repeat until nothing drops, since dropping a level can bring two
    equal weights together (weights need not be monotone here).  For positive
    weights either removal leaves both functionals unchanged.  Where a
    weight is 0 it does not: the functionals drop the 1/x_k log-ratio term
    there, although its limit as x_k -> 0 is a nonzero trace, so merging a
    level with x_k = 0 into its neighbour changes the value.  For pure p=2,
    beta=1, Q=1, x=(0, 0, 1) and levels (0.1, 0.2929), ``eval_cs`` gives
    0.354525 before the merge and 0.490927 after it (ROADMAP item 1).  A
    level with Q_1 = 0 and x_1 > 0 is a genuine atom at the origin and is
    kept.
    """
    x = np.array(path.x)
    qs = np.concatenate([unit_blocks(path.n)[1], path.qs])  # Q_0..Q_r
    while True:
        keep = np.append(True, x[1:] != x[:-1])
        if keep.all():
            keep = np.append(True, (qs[2:] != qs[1:-1]).any(axis=(1, 2)))
        if keep.all():
            return DiscretePath(tuple(x), qs[1:])
        x, qs = x[keep], qs[np.append(keep, True)]
