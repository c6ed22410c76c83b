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
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    ValidationError,
    ZeroDivisor,
)

PSD_RTOL = 1e-10  # relative eigenvalue margin for PD / PSD decisions
DIV_TOL = 1e-14   # absolute guard for entrywise division
INV_TOL = 1e-8    # |A @ sym_inverse(A) - I|_inf must stay below this

_MIX_KINDS = {
    # kind -> (coefficient(p), Hadamard-power shift)
    "xi": (lambda p: 1.0, 0),
    "xi_prime": (lambda p: float(p), 1),
    "xi_second": (lambda p: float(p * (p - 1)), 2),
    "theta": (lambda p: float(p - 1), 0),
    "xi_third": (lambda p: float(p * (p - 1) * (p - 2)), 3),
}


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Symmetric part (a + a.T) / 2 of a matrix, or of each matrix of a
    stack (..., n, n), as a fresh array."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def sum_entries(a: np.ndarray) -> float:
    return float(np.sum(a))


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
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
    scale = np.max(np.abs(np.diagonal(a, 0, -2, -1)), axis=-1, initial=0.0)
    return PSD_RTOL * np.maximum(scale, 1.0)


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor; raises NotPositiveDefinite on failure."""
    a = _require_square(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


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
    the matrices that factor, from one Cholesky call; a matrix that does
    not factor gets log-det 0.  Only when the stacked call fails is each
    matrix factored on its own, to find the ones that do not."""
    ok = np.ones(stack.shape[:-2], dtype=bool)
    try:
        factors = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        factors = np.empty_like(stack)
        for idx in np.ndindex(*ok.shape):
            try:
                factors[idx] = np.linalg.cholesky(stack[idx])
            except np.linalg.LinAlgError:
                factors[idx] = np.eye(stack.shape[-1])
                ok[idx] = False
    return 2.0 * np.sum(np.log(np.diagonal(factors, 0, -2, -1)), axis=-1), ok


def stack_inverses(stack: np.ndarray, ok=True) -> np.ndarray:
    """Symmetrized inverses of a stack (..., n, n) from one inverse call; a
    matrix where the mask ``ok`` (broadcast against the leading axes) is
    False gets the identity."""
    ok = np.asarray(ok)
    if not ok.all():
        stack = np.where(ok[..., None, None], stack, np.eye(stack.shape[-1]))
    return symmetrize(np.linalg.inv(stack))


def spectral_floor(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = _require_square(a)
    return float(np.linalg.eigvalsh(symmetrize(a))[0])


def hadamard_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise quotient a / b; raises ZeroDivisor on a guarded entry of b."""
    a = _require_square(a)
    b = _require_square(b)
    _require_same_shape(a, b)
    small = np.abs(b) < DIV_TOL
    if np.any(small):
        i, j = map(int, np.argwhere(small)[0])
        raise ZeroDivisor(i, j, float(b[i, j]))
    return symmetrize(a / b)


def admissible_radius(a: np.ndarray, c: np.ndarray) -> float:
    """Largest step radius along symmetric ``c`` that keeps ``a`` positive definite.

    Any eps below lam_min(a) / ||c||_2 keeps a + eps*c positive definite;
    the spectral norm is what the Rayleigh-quotient bound requires.
    """
    floor = spectral_floor(a)
    scale = float(np.linalg.norm(symmetrize(c), 2))
    if scale == 0.0:
        return np.inf
    return floor / scale


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
        n = int(self.n)
        if n < 1:
            problems.append(f"species count must be >= 1, got {n}")

        def vector(value, what):
            """``value`` as a float vector of length n, or None after noting why not."""
            raw = np.asarray(value, dtype=object)
            if raw.ndim > 1 or any(isinstance(v, (bool, np.bool_)) for v in raw.flat):
                problems.append(f"{what} must be a flat list of real numbers, got {value!r}")
            elif raw.size != n:
                problems.append(f"{what} has length {raw.size}, expected {n}")
            else:
                return frozen(raw.astype(float).reshape(n))
            return None

        coerced = []
        for idx, term in enumerate(self.terms):
            try:
                p, beta = term
            except (TypeError, ValueError):
                problems.append(f"term {idx} is not a (p, beta) pair")
                continue
            try:
                integral = isinstance(p, Real) and not isinstance(p, bool) and float(p).is_integer()
            except OverflowError:
                integral = False
            if not integral:
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
            coerced.append((p, beta))
        h = vector(self.h, "field h")
        if h is not None and not np.all(np.isfinite(h)):
            problems.append("field h entries must be finite")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", tuple(coerced))
        object.__setattr__(self, "h", h)
        # series k, term t: coefficient (beta x beta) and Hadamard power
        weights = [[c(p) * np.outer(b, b) for p, b in coerced] for c, _ in _MIX_KINDS.values()]
        powers = [[max(p - shift, 0) for p, _ in coerced] for _, shift in _MIX_KINDS.values()]
        kinds = len(_MIX_KINDS)
        object.__setattr__(self, "_weights", np.array(weights).reshape(kinds, len(coerced), n, n))
        object.__setattr__(self, "_powers", np.array(powers, dtype=float).reshape(kinds, -1, 1, 1))

    @classmethod
    def pure(cls, p: int, beta, h=None) -> "MixtureSpec":
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        n = beta.size
        return cls(n=n, terms=((p, beta),), h=np.zeros(n) if h is None else h)

    def series(self, a: np.ndarray) -> np.ndarray:
        """All five series at a stack ``a`` of shape (..., n, n), in one
        broadcast expression: shape (..., 5, n, n) in the order xi,
        xi_prime, xi_second, theta, xi_third."""
        terms = a[..., None, None, :, :] ** self._powers
        terms *= self._weights
        return np.sum(terms, axis=-3)

    def outer_field(self) -> np.ndarray:
        return np.outer(self.h, self.h)

    def xi(self, a: np.ndarray) -> np.ndarray:
        return mixture_apply("xi", self, a)

    def xi_prime(self, a: np.ndarray) -> np.ndarray:
        return mixture_apply("xi_prime", self, a)

    def xi_second(self, a: np.ndarray) -> np.ndarray:
        return mixture_apply("xi_second", self, a)

    def theta(self, a: np.ndarray) -> np.ndarray:
        return mixture_apply("theta", self, a)

    def species(self, j: int) -> "MixtureSpec":
        """Single-species restriction (used by diagonal separability checks)."""
        terms = tuple((p, np.array([beta[j]])) for p, beta in self.terms)
        return MixtureSpec(n=1, terms=terms, h=np.array([self.h[j]]))

    def l1_delta(self, other: "MixtureSpec") -> float:
        """sum_p |beta_p x beta_p - beta'_p x beta'_p| summed entrywise."""
        if self.n != other.n:
            raise DimensionMismatch("mixtures have different species counts")
        mine = {p: beta for p, beta in self.terms}
        theirs = {p: beta for p, beta in other.terms}
        total = 0.0
        for p in sorted(set(mine) | set(theirs)):
            a = mine.get(p, np.zeros(self.n))
            b = theirs.get(p, np.zeros(self.n))
            total += float(np.abs(np.outer(a, a) - np.outer(b, b)).sum())
        return total

    def with_beta2_floor(self, delta: float) -> "MixtureSpec":
        """Add ``delta`` to every entry of the p = 2 weights (creating the term
        if absent).  Positive p = 2 weights keep xi_second entrywise positive."""
        if delta == 0.0:
            return self
        terms = []
        seen = False
        for p, beta in self.terms:
            if p == 2:
                terms.append((p, beta + delta))
                seen = True
            else:
                terms.append((p, beta))
        if not seen:
            terms.insert(0, (2, np.full(self.n, delta)))
        return MixtureSpec(n=self.n, terms=tuple(terms), h=self.h)

    def has_positive_beta2(self) -> bool:
        return any(p == 2 and np.all(beta > 0) for p, beta in self.terms)


def mixture_apply(kind: str, mix: MixtureSpec, a: np.ndarray) -> np.ndarray:
    """Evaluate one of the five entrywise mixture series at ``a``."""
    if kind not in _MIX_KINDS:
        raise ValueError(f"unknown mixture kind {kind!r}")
    a = _require_square(a)
    if a.shape != (mix.n, mix.n):
        raise DimensionMismatch(f"matrix is {a.shape}, mixture has n = {mix.n}")
    return symmetrize(mix.series(a)[list(_MIX_KINDS).index(kind)])


def dir_derivative(kind: str, args, c: np.ndarray) -> float:
    """Closed-form directional derivatives of the four scalar building blocks.

    kind = "trace_pair":   d/dt tr(B (A + tC))        = tr(B C),   args = (B,)
    kind = "logdet":       d/dt log|A + tC|           = tr(A^-1 C), args = (A,)
    kind = "inverse_pair": d/dt tr(B (A + tC)^-1)     = -tr(A^-1 B A^-1 C), args = (A, B)
    kind = "sum_mixture":  d/dt Sum(xi(A + tC))       = tr(xi'(A) C), args = (mix, A)
    """
    c = _require_square(c)
    if kind == "trace_pair":
        (b,) = args
        return frobenius(b, c)
    if kind == "logdet":
        (a,) = args
        return frobenius(sym_inverse(a), c)
    if kind == "inverse_pair":
        a, b = args
        ainv = sym_inverse(a)
        return -float(np.trace(ainv @ b @ ainv @ c))
    if kind == "sum_mixture":
        mix, a = args
        return frobenius(mixture_apply("xi_prime", mix, a), c)
    raise ValueError(f"unknown derivative kind {kind!r}")


def check_constraint(q: np.ndarray, tol: float = 1e-9) -> list[str]:
    """Validation report for a self-overlap constraint matrix."""
    problems = []
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        return [f"constraint must be square, got shape {q.shape}"]
    if not np.allclose(q, q.T, atol=tol):
        problems.append("constraint must be symmetric")
    d = np.diagonal(q)
    if not np.allclose(d, 1.0, atol=tol):
        problems.append(f"unit diagonal required, got {d.tolist()}")
    off = q - np.diag(d)
    if np.any(np.abs(off) > 1.0 + tol):
        problems.append("off-diagonal entries must lie in [-1, 1]")
    if spectral_floor(q) <= psd_tol(q):
        problems.append(f"constraint must be positive definite, lam_min = {spectral_floor(q):.3e}")
    return problems


def constraint_matrix(q: np.ndarray) -> np.ndarray:
    """Validate and freeze a constraint matrix, raising on any violation."""
    problems = check_constraint(q)
    if problems:
        raise ValidationError(problems)
    return frozen(symmetrize(np.asarray(q, dtype=float)))
