"""Dense symmetric-matrix kernels and entrywise mixture series.

Everything operates on plain float64 ``numpy`` arrays.  Public outputs are
re-symmetrized so asymmetric round-off cannot accumulate across a chain of
operations.  Positive definiteness is decided by Cholesky factorization:
:func:`cholesky` raises :class:`~spinvar.errors.NotPositiveDefinite`, and
one call of :func:`stack_logdets` factors a stack and returns the mask of
the matrices that factor.  A strict margin is ``psd_tol``, relative to the
largest diagonal entry with a unit floor (all matrices here live on the
overlap scale): a chain's floor matrix must factor after a shift by it.
Only reports that state a margin compare the smallest eigenvalue
(:func:`spectral_floor`) with ``psd_tol``.

A :class:`MixtureSpec` holds its five series as one table over series and
terms, built from the vector of the terms' degrees p without a loop: the
coefficients times beta x beta, and the Hadamard powers, one broadcast of
p against the column ``_SHIFTS``; :meth:`MixtureSpec.series` evaluates
all five at a stack in one expression.  Like :func:`symmetrize`,
:func:`hadamard_div` takes a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    ValidationError,
    ZeroDivisor,
)

PSD_RTOL = 1e-10  # relative eigenvalue margin for PD / PSD decisions
DIV_TOL = 1e-14   # absolute guard for entrywise division
CONSTRAINT_TOL = 1e-9  # absolute tolerance of a constraint's symmetry, diagonal and entries

_SERIES = ("xi", "xi_prime", "xi_second", "theta", "xi_third")
# series k takes a term of degree p to the Hadamard power p - s_k, at least 0
_SHIFTS = np.array([[0], [1], [2], [0], [3]])


def real(value) -> float | None:
    """``value`` as a float if it is a real number that is not a bool and
    fits the float range; None for anything else (a bool, a string, None,
    an integer beyond the float range)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _real_array(value) -> np.ndarray | None:
    """``value`` as a float64 array if each of its entries is :func:`real`,
    else None (a string, bool or complex entry); cast only once checked.  A
    list or tuple is checked item by item, since numpy's stack of a list
    would cast a bool item beside a float one to float first."""
    if isinstance(value, (list, tuple)):
        items = [_real_array(v) for v in value]
        return None if any(a is None for a in items) else np.array(items, dtype=float)
    a = np.asarray(value)
    if a.dtype.kind == "O":  # entries of any type: a float where real() gives one
        a = np.reshape(np.array([real(v) for v in a.flat]), a.shape)
    return a.astype(float, copy=False) if a.dtype.kind in "iuf" else None


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a.T) / 2 of a matrix, or of each matrix of a
    stack (..., n, n), as a fresh array."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def _require_square(a: np.ndarray, stack: bool = False) -> np.ndarray:
    """``a`` as a float square matrix, or with ``stack`` a stack (..., n, n)."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _require_same_shape(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def frozen(a: np.ndarray) -> np.ndarray:
    """Copy ``a`` as float64 and mark it read-only."""
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def unit_blocks(n: int):
    """The read-only n x n identity and (1, n, n) zero stack, built once per
    n; the cache holds the blocks of at most 16 sizes."""
    return frozen(np.eye(n)), frozen(np.zeros((1, n, n)))


def frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product tr(a b) of two symmetric matrices."""
    a = _require_square(a)
    b = _require_square(b)
    _require_same_shape(a, b)
    return float(np.tensordot(a, b))


def psd_tol(a: np.ndarray):
    """Eigenvalue margin used for PD / PSD decisions on a matrix, or on each
    matrix of a stack (..., n, n): PSD_RTOL times the largest absolute
    diagonal entry, with a unit floor."""
    return PSD_RTOL * np.abs(a.diagonal(0, -2, -1)).max(axis=-1, initial=1.0)


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor; raises NotPositiveDefinite on failure."""
    a = _require_square(a)
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if not np.isfinite(factor).all():
        raise NotPositiveDefinite("the Cholesky factor has non-finite entries")
    return factor


def chol_logdet(a: np.ndarray) -> float:
    """log det of a positive definite matrix via its triangular factor."""
    factor = cholesky(symmetrize(a))
    return 2.0 * float(np.sum(np.log(np.diagonal(factor))))


def sym_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite symmetric matrix, re-symmetrized."""
    a = symmetrize(_require_square(a))
    cholesky(a)  # feasibility gate
    return symmetrize(np.linalg.inv(a))


def stack_logdets(stack: np.ndarray):
    """Log-dets of a stack (..., n, n) of symmetric matrices and the mask of
    the matrices that factor to a finite log-det, from one Cholesky call;
    a matrix that does not gets log-det 0.  Only when the stacked call
    fails is each matrix factored on its own, to find the ones that do not
    factor."""
    try:
        factors = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        factors = np.empty_like(stack)
        for idx in np.ndindex(*stack.shape[:-2]):
            try:
                factors[idx] = np.linalg.cholesky(stack[idx])
            except np.linalg.LinAlgError:
                factors[idx] = np.nan  # its log-det reads non-finite below
    logdet = 2.0 * np.log(factors.diagonal(0, -2, -1)).sum(axis=-1)
    ok = np.isfinite(logdet)
    if ok.all():
        return logdet, ok
    # a failed matrix, or a NaN or inf one, which numpy factors without an error
    return np.where(ok, logdet, 0.0), ok


def stack_inverses(stack: np.ndarray) -> np.ndarray:
    """Symmetrized inverses of a stack (..., n, n) of positive definite
    matrices from one inverse call.  A matrix that Cholesky accepted with
    a finite log-det can still be exactly singular (its factor's rounding
    gives it one), so a failed inverse raises NotPositiveDefinite, a
    domain error, like a failed factorization."""
    try:
        return symmetrize(np.linalg.inv(stack))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"a matrix does not invert: {exc}") from exc


def spectral_floor(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = _require_square(a)
    return float(np.linalg.eigvalsh(symmetrize(a))[0])


def hadamard_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise quotient a / b of two matrices or two stacks (..., n, n);
    raises ZeroDivisor at the first guarded entry of b, the matrices of a
    stack taken in order."""
    a = _require_square(a, stack=True)
    b = _require_square(b, stack=True)
    _require_same_shape(a, b)
    small = np.abs(b) < DIV_TOL
    if np.any(small):
        first = tuple(np.argwhere(small)[0])
        raise ZeroDivisor(int(first[-2]), int(first[-1]), float(b[first]))
    return symmetrize(a / b)


@dataclass(frozen=True)
class MixtureSpec:
    """Finite even-power interaction mixture for ``n`` coupled species.

    ``terms`` is a list of (p, beta) pairs with p even and beta a length-n
    vector of nonnegative weights; ``h`` is the external field.  The five
    entrywise matrix series derived from a mixture are::

        xi(A)        = sum_p (beta_p x beta_p) o A^(o p)
        xi_prime(A)  = sum_p p (beta_p x beta_p) o A^(o p-1)
        xi_second(A) = sum_p p(p-1) (beta_p x beta_p) o A^(o p-2)
        theta(A)     = sum_p (p-1) (beta_p x beta_p) o A^(o p)
        xi_third(A)  = sum_p p(p-1)(p-2) (beta_p x beta_p) o A^(o p-3)

    where ``o`` denotes Hadamard products and powers.  The identity
    theta(A) = A o xi_prime(A) - xi(A) holds entrywise.  The p = 2 term of
    xi_third has coefficient 0; its power is taken as A^(o 0) = 1, not
    A^(o -1), which is infinite at a zero entry and would make 0 * inf = NaN.
    """

    n: int
    terms: tuple[tuple[int, np.ndarray], ...]
    h: np.ndarray

    def __post_init__(self):
        problems = []
        # every other check is sized by n, so a malformed count stops here
        if isinstance(self.n, bool) or not isinstance(self.n, Integral):
            raise ValidationError(f"species count must be an integer, got {self.n!r}")
        n = int(self.n)
        if n < 1:
            problems.append(f"species count must be >= 1, got {n}")

        def vector(value, what):
            """``value`` as a float vector of length n, or None after noting why not."""
            raw = np.asarray(value, dtype=object)
            entries = [real(v) for v in raw.flat]
            if raw.ndim != 1 or None in entries:
                problems.append(
                    f"{what} must be a flat list of real numbers in the float range, got {value!r}"
                )
            elif raw.size != n:
                problems.append(f"{what} has length {raw.size}, expected {n}")
            else:
                return frozen(entries)
            return None

        ps, betas = [], []
        for idx, term in enumerate(self.terms):
            try:
                p, beta = term
            except (TypeError, ValueError):
                problems.append(f"term {idx} is not a (p, beta) pair")
                continue
            p_real = real(p)
            if p_real is None or not p_real.is_integer():
                problems.append(f"term {idx}: p must be a finite integer, got {p!r}")
                continue
            p = int(p)
            beta = vector(beta, f"term {idx}: beta")
            if p < 2:
                problems.append(f"term {idx}: p must be >= 2, got {p}")
            if p % 2 != 0:
                problems.append(f"term {idx}: even p required, got {p}")
            if beta is not None and (np.any(beta < 0) or not np.all(np.isfinite(beta))):
                problems.append(f"term {idx}: beta entries must be finite and nonnegative")
            ps.append(p)
            betas.append(beta)
        h = vector(self.h, "field h")
        if h is not None and not np.all(np.isfinite(h)):
            problems.append("field h entries must be finite")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", tuple(zip(ps, betas)))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "_hh", frozen(np.outer(h, h)))
        # series k, term t: coefficient times (beta x beta), and Hadamard power
        p, beta = np.array(ps, dtype=float), np.reshape(betas, (-1, n))
        coef = np.array([np.ones_like(p), p, p * (p - 1.0), p - 1.0, p * (p - 1.0) * (p - 2.0)])
        weights = coef[:, :, None, None] * (beta[:, :, None] * beta[:, None, :])
        object.__setattr__(self, "_weights", frozen(weights))
        object.__setattr__(self, "_powers", frozen(np.maximum(p - _SHIFTS, 0.0)[:, :, None, None]))

    @classmethod
    def pure(cls, p: int, beta) -> "MixtureSpec":
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        n = beta.size
        return cls(n=n, terms=((p, beta),), h=np.zeros(n))

    def series(self, a: np.ndarray) -> np.ndarray:
        """All five series at a stack ``a`` of shape (..., n, n), in one
        broadcast expression: shape (..., 5, n, n) in the order xi,
        xi_prime, xi_second, theta, xi_third."""
        terms = a[..., None, None, :, :] ** self._powers
        terms *= self._weights
        return terms.sum(axis=-3)

    def outer_field(self) -> np.ndarray:
        """hh^T, read-only, built once with the mixture."""
        return self._hh

    def xi(self, a: np.ndarray) -> np.ndarray:
        return mixture_apply("xi", self, a)

    def xi_prime(self, a: np.ndarray) -> np.ndarray:
        return mixture_apply("xi_prime", self, a)

    def xi_second(self, a: np.ndarray) -> np.ndarray:
        return mixture_apply("xi_second", self, a)

    def species(self, j: int) -> "MixtureSpec":
        """Single-species restriction (used by diagonal separability checks)."""
        terms = tuple((p, np.array([beta[j]])) for p, beta in self.terms)
        return MixtureSpec(n=1, terms=terms, h=np.array([self.h[j]]))

    def l1_delta(self, other: "MixtureSpec") -> float:
        """sum_p |B_p - B'_p| summed entrywise, where B_p sums beta x beta
        over the terms of degree p, as :meth:`series` does."""
        if self.n != other.n:
            raise DimensionMismatch("mixtures have different species counts")
        # xi's row of the table: beta x beta per term, and each term's degree p
        mine, theirs = self._powers[0, :, 0, 0], other._powers[0, :, 0, 0]
        total = 0.0
        for p in sorted(set(mine) | set(theirs)):
            delta = self._weights[0, mine == p].sum(axis=0) - other._weights[0, theirs == p].sum(axis=0)
            total += float(np.abs(delta).sum())
        return total


def mixture_apply(kind: str, mix: MixtureSpec, a: np.ndarray) -> np.ndarray:
    """Evaluate one of the five entrywise mixture series at ``a``."""
    if kind not in _SERIES:
        raise ValueError(f"unknown mixture kind {kind!r}")
    a = _require_square(a)
    if a.shape != (mix.n, mix.n):
        raise DimensionMismatch(f"matrix is {a.shape}, mixture has n = {mix.n}")
    return symmetrize(mix.series(a)[_SERIES.index(kind)])


def check_constraint(q: np.ndarray, solve_only: bool = False) -> list[str]:
    """Validation report for a self-overlap constraint matrix.  Every solve
    needs a square matrix of finite reals (:func:`_real_array`, checked
    before any cast), symmetric within ``CONSTRAINT_TOL``, and
    ``solve_only`` checks just that; a problem file's constraint also needs
    a unit diagonal, entries in [-1, 1] and positive definiteness."""
    problems = []
    given, shape, q = q, np.shape(q), _real_array(q)
    if len(shape) != 2 or shape[0] != shape[1]:
        return [f"constraint must be square, got shape {shape}"]
    if q is None or not np.all(np.isfinite(q)):
        return [f"constraint entries must be finite, got {np.ravel(given).tolist()}"]
    # entries near the float limit overflow q - q.T; such a difference is not close
    with np.errstate(over="ignore"):
        if not (np.abs(q - q.T) <= CONSTRAINT_TOL).all():
            problems.append("constraint must be symmetric")
    if solve_only:
        return problems
    d = np.diagonal(q)
    if not np.allclose(d, 1.0, rtol=0.0, atol=CONSTRAINT_TOL):
        problems.append(f"unit diagonal required, got {d.tolist()}")
    off = q - np.diag(d)
    if np.any(np.abs(off) > 1.0 + CONSTRAINT_TOL):
        problems.append("off-diagonal entries must lie in [-1, 1]")
    # beyond half the float limit symmetrize's q + q.T overflows; such an
    # entry already fails the unit-diagonal or the off-diagonal check
    if np.all(np.abs(q) <= np.finfo(float).max / 2) and spectral_floor(q) <= psd_tol(q):
        problems.append(f"constraint must be positive definite, lam_min = {spectral_floor(q):.3e}")
    return problems

