"""Integral form of the multiplier-free functional and its diagnostics.

The continuous order parameter is a pair (x, Phi): a right-continuous
nondecreasing step function x(t) on [0, n] reaching 1, and a
piecewise-linear monotone matrix path Phi(t) parametrized by its trace
(tr Phi(t) = t, Phi(0) = 0, Phi(n) = Q).  With step cdfs every integral in

    C(x, Phi) = 1/2 ( int_0^n x <xi'(Phi) + hh^T, Phi'> dt
                      + log|Phi(n) - Phi(t_x)|
                      + int_0^{t_x} <Phihat^-1, Phi'> dt )

has a closed form per segment: the mixture integrand is an exact
difference of Sum(xi(.)) values, and on a segment where x is the constant
c > 0 the tail integral is -(1/c) (log|Phihat(b)| - log|Phihat(a)|), since
(d/dt) Phihat = -c Phi' there.  Segments with c = 0 have constant Phihat.

Each object is held as stacks, as :class:`spinvar.path.DiscretePath` is:
a :class:`ContinuousCdf` as its knot positions ``t`` and values ``v``
(read-only float64 arrays (k,)), a :class:`MatrixPath` as ``t`` and the
matrices ``phi`` there ((k,) and (k, n, n)), and a :class:`SupportReport`
as one array per quantity over the atoms and the grid.  Each is checked
whole when it is built, and every function below reads these arrays.

Each evaluation builds one table of the breakpoints with Phi, x and Phihat
there (Phihat from :func:`spinvar.path.tail_sums`), and factors and
inverts the Phihat stack it needs with one call each
(:func:`spinvar.matcore.stack_logdets`, ``stack_inverses``);
``ContinuousCdf.value``, ``MatrixPath.value`` and ``hat_phi`` take a
scalar or an array of t.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateTrace,
    InfeasiblePath,
    NotPositiveDefinite,
    ValidationError,
)
from .matcore import (
    MixtureSpec,
    chol_logdet,
    frobenius,
    psd_tol,
    real,
    stack_inverses,
    stack_logdets,
    symmetrize,
)
from .path import DiscretePath, merge_duplicates, tail_sums


@dataclass(frozen=True)
class ContinuousCdf:
    """Right-continuous step cdf on [0, n]: value(t) = v_j on [t_j, t_{j+1}).

    ``t`` and ``v`` are given as sequences of k reals, the knot positions
    and the values there, and held as read-only float64 arrays (k,).  Below
    the first knot the value is 0; an atom at 0 is expressed by a first
    knot at 0 holding its mass.  The last value must be 1.
    """

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t, v = [real(a) for a in self.t], [real(a) for a in self.v]
        if None in t or None in v or not np.isfinite(t + v).all():
            raise ValidationError(
                f"knot positions and values must be finite reals, got {self.t!r} and {self.v!r}"
            )
        t, v = np.array(t), np.array(v)
        problems = []
        if t.size != v.size:
            problems.append(f"need one value per knot position, got {t.size} and {v.size}")
        elif not t.size:
            problems.append("a cdf needs at least one knot")
        else:
            if (np.diff(t) <= 0.0).any():
                problems.append("knot positions must be strictly increasing")
            if (np.diff(v) < 0.0).any():
                problems.append("knot values must be nondecreasing")
            if v[0] < 0.0 or v[-1] != 1.0:
                problems.append("values must start >= 0 and end at exactly 1")
            if t[0] < 0.0:
                problems.append("knots must lie in [0, n]")
        if problems:
            raise ValidationError(problems)
        t.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    def value(self, t: float | np.ndarray):
        """x(t) at a scalar (a float) or at an array of t (same shape)."""
        i = np.searchsorted(self.t, t, side="right") - 1
        out = np.where(i >= 0, self.v[np.maximum(i, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def t_x(self) -> float:
        """Smallest t with value(t) >= 1."""
        return float(self.t[np.argmax(self.v >= 1.0)])

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Jump locations and masses of the associated measure: two arrays."""
        mass = np.diff(self.v, prepend=0.0)
        jumps = mass > 0.0
        return self.t[jumps], mass[jumps]


@dataclass(frozen=True)
class MatrixPath:
    """Piecewise-linear monotone matrix path parametrized by its trace.

    ``t`` is given as a sequence of k reals, the knot positions, and
    ``phi`` as k square matrices of one size or a (k, n, n) array, Phi at
    the knots; they are held as read-only float64 arrays (k,) and
    (k, n, n), the matrices symmetrized.
    """

    t: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        t = [real(a) for a in self.t]
        try:
            phi = np.asarray(self.phi)
        except ValueError:  # matrices of different sizes do not stack
            raise ValidationError(["all knots must share one dimension"]) from None
        phi = phi.astype(float, copy=False)
        if None in t or not (np.isfinite(t).all() and np.isfinite(phi).all()):
            raise ValidationError("knot positions must be finite reals and knot matrices finite")
        t = np.array(t)
        problems = []
        if t.size < 2:
            problems.append("a matrix path needs at least two knots")
        elif phi.shape != t.shape + phi.shape[-1:] * 2:
            problems.append(f"need {t.size} square matrices of one size, got shape {phi.shape}")
        else:
            phi = symmetrize(phi)
            if (np.diff(t) <= 0.0).any():
                problems.append("knot positions must be strictly increasing")
            traces = np.trace(phi, axis1=1, axis2=2)
            for i in np.flatnonzero(np.abs(traces - t) > 1e-8 * np.maximum(1.0, np.abs(t))):
                problems.append(f"tr(Phi({t[i]})) = {traces[i]} != {t[i]}")
            if np.abs(phi[0]).max() > 1e-12:
                problems.append("Phi(0) must be the zero matrix")
            inc = np.diff(phi, axis=0)
            not_psd = np.linalg.eigvalsh(inc)[:, 0] < -psd_tol(inc)
            steep = np.abs(inc).max(axis=(1, 2)) > np.diff(t) * (1.0 + 1e-9)
            for i in np.flatnonzero(not_psd | steep):
                if not_psd[i]:
                    problems.append(f"increment on [{t[i]}, {t[i + 1]}] is not PSD")
                if steep[i]:
                    problems.append(f"increment on [{t[i]}, {t[i + 1]}] is not 1-Lipschitz")
        if problems:
            raise ValidationError(problems)
        t.flags.writeable = phi.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return self.phi.shape[-1]

    @property
    def end(self) -> np.ndarray:
        return self.phi[-1]

    @property
    def span(self) -> float:
        return float(self.t[-1])

    def value(self, t: float | np.ndarray) -> np.ndarray:
        """Phi(t), held constant outside the knots; shape t.shape + (n, n)."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.t, t, side="right") - 1, 0, len(self.t) - 2)
        ta, tb = self.t[i], self.t[i + 1]
        w = np.clip((t - ta) / (tb - ta), 0.0, 1.0)[..., None, None]
        return (1.0 - w) * self.phi[i] + w * self.phi[i + 1]


def _points(span: float, *arrays) -> np.ndarray:
    """The distinct values of ``arrays``, clipped to [0, span], in order
    (np.unique would import numpy.ma, 1.5 MB of resident memory)."""
    ts = np.sort(np.clip(np.concatenate(arrays), 0.0, span))
    return ts[np.append(True, np.diff(ts) > 0)]


def _table(x: ContinuousCdf, phi: MatrixPath, extra):
    """The piecewise structure of (x, Phi) as arrays.

    Returns the points 0 = t_0 < ... < t_S = n (the knots of x and Phi plus
    ``extra``, clipped to [0, n]), Phi(t_i), the value c_i of x on
    [t_i, t_{i+1}) and Phihat(t_i).  Phihat comes from the tail sums of
    c_j (Phi(t_{j+1}) - Phi(t_j)) over the knots, and at an extra point from
    the next knot b: Phihat(t) = Phihat(b) + x(t) (Phi(b) - Phi(t)).
    """
    knots = _points(phi.span, phi.t, x.t, [0.0])
    ts = _points(phi.span, knots, np.ravel(extra))
    p, c = phi.value(ts), x.value(ts)
    p_k = phi.value(knots)
    tails = tail_sums(x.value(knots[:-1]), np.diff(p_k, axis=0))
    hat_k = np.concatenate([tails, np.zeros_like(p_k[:1])])
    b = np.minimum(np.searchsorted(knots, ts, side="right"), len(knots) - 1)
    return ts, p, c[:-1], hat_k[b] + c[:, None, None] * (p_k[b] - p)


def _cut_at(table, t_x: float):
    """A ``_table`` cut at t_x, where Phihat must be positive definite:
    the points t_0 < ... < t_k = t_x, Phi there, x on the k pieces,
    log|Phihat| and Phihat^-1 at the points (one call each), and the mask
    of the pieces where x = 0.  Raises NotPositiveDefinite unless every
    Phihat there factors."""
    ts, p, c, hat = table
    k = int(np.searchsorted(ts, t_x))
    logdet, ok = stack_logdets(hat[: k + 1])
    if not ok.all():
        raise NotPositiveDefinite("Phihat is not positive definite on [0, t_x]")
    c = c[:k]
    return ts[: k + 1], p[: k + 1], c, logdet, stack_inverses(hat[: k + 1]), c == 0.0


def hat_phi(x: ContinuousCdf, phi: MatrixPath, t: float | np.ndarray) -> np.ndarray:
    """Phihat(t) = int_t^n x(s) Phi'(s) ds at a scalar or an array of t,
    exactly on the piecewise structure; shape t.shape + (n, n)."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, phi.span)
    ts, _, _, hat = _table(x, phi, t)
    return hat[np.searchsorted(ts, t)]


def eval_cs_continuous(
    x: ContinuousCdf,
    phi: MatrixPath,
    mix: MixtureSpec,
    top: float | None = None,
) -> float:
    """The integral-form functional; ``top`` overrides t_x (must be >= t_x).

    The value does not depend on the override as long as Q - Phi(top) stays
    positive definite.
    """
    t_x = x.t_x if top is None else float(top)
    if top is not None and top < x.t_x:
        raise ValidationError(f"override {top} is below t_x = {x.t_x}")
    try:
        top_logdet = chol_logdet(phi.end - phi.value(t_x))
    except NotPositiveDefinite as exc:
        raise InfeasiblePath(f"Q - Phi(t_x) is not positive definite: {exc}") from exc

    table = _table(x, phi, [t_x])
    _, p, c, hat = table
    # int x <hh^T, Phi'> = <hh^T, Phihat(0)>; Sum xi(Phi) is exact per piece
    xi_sums = np.sum(mix.series(p)[:, 0], axis=(-2, -1))
    mixture_term = float(np.sum(c * np.diff(xi_sums))) + frobenius(mix.outer_field(), hat[0])

    _, p, c, logdet, inv, flat = _cut_at(table, t_x)
    # Phihat is constant on a c = 0 piece, and d/dt Phihat = -c Phi' elsewhere
    const = np.einsum("kij,kij->k", inv[:-1], np.diff(p, axis=0))
    tail_term = float(np.sum(np.where(flat, const, -np.diff(logdet) / np.where(flat, 1.0, c))))
    return 0.5 * (mixture_term + top_logdet + tail_term)


def from_discrete(path: DiscretePath) -> tuple[ContinuousCdf, MatrixPath]:
    """Step cdf and piecewise-linear path matching a discrete path.

    Knots sit at t_k = tr(Q_k); the cdf takes the value x_k on
    [t_k, t_{k+1}).  Duplicate levels are merged first, and levels that
    are exactly zero fold into a cdf atom at t = 0 (right continuity
    keeps the last weight at a shared knot).  Two levels that share a
    trace but differ as matrices cannot be trace-parametrized.
    """
    if path.x[-1] != 1.0:
        raise ValidationError("the continuous form needs x_{r-1} = 1")
    merged = merge_duplicates(path)
    qs = np.concatenate([np.zeros_like(merged.qs[:1]), merged.qs])  # Q_0..Q_r
    traces = np.trace(qs, axis1=1, axis2=2)
    rises = np.diff(traces) > 0.0  # from Q_k to Q_{k+1}
    flat = ~rises & (np.abs(np.diff(qs, axis=0)).max(axis=(1, 2)) > 0.0)
    if flat.any():
        k = int(np.argmax(flat))
        raise DegenerateTrace(f"levels {k} and {k + 1} share trace {traces[k]:.6g} but differ")
    # past the check every trace rises, but for a zero Q_1: it shares t = 0
    # with Q_0, which keeps the path's knot, and x_1 takes the cdf's there
    knots = np.append(True, rises)  # Q_0 and each level its trace rises to
    cdf = ContinuousCdf(traces[:-1][rises], np.array(merged.x)[rises])
    return cdf, MatrixPath(traces[knots], qs[knots])


@dataclass(frozen=True)
class FeasibleBox:
    """Enclosure for minimizers: top support atom below T, inverse gap below L."""

    T: float
    L: float


def feasible_box(mix: MixtureSpec, constraint: np.ndarray) -> FeasibleBox:
    """Model-determined enclosure constants.

    With s = <hh^T + xi'(Q), Q> + n - log|Q|:
    T = n - exp(-s)/sqrt(n)  and  L = sqrt(n) exp(s).
    """
    q = symmetrize(np.asarray(constraint, dtype=float))
    n = q.shape[0]
    exponent = (
        frobenius(mix.outer_field() + mix.xi_prime(q), q) + n - chol_logdet(q)
    )
    return FeasibleBox(
        T=n - np.exp(-exponent) / np.sqrt(n),
        L=float(np.sqrt(n) * np.exp(exponent)),
    )


@dataclass(frozen=True)
class SupportReport:
    """Read-only arrays: at each atom of the cdf's measure its position
    ``t``, ``mass``, support ``condition`` and whether it is ``flagged``
    (condition below -1e-12); the ``running_integral`` on the ``grid``."""

    t: np.ndarray
    mass: np.ndarray
    condition: np.ndarray
    flagged: np.ndarray
    grid: np.ndarray
    running_integral: np.ndarray


def support_check(
    x: ContinuousCdf, phi: MatrixPath, mix: MixtureSpec, grid_points: int = 512
) -> SupportReport:
    """Necessary support condition at every atom of the cdf's measure, with
    every atom's log|Q - Phi(t)| from one stacked factorization.

    An atom at t must satisfy

        <hh^T + xi'(Q), Q> + 1 - log|Q| + log|Q - Phi(t)| >= 0,

    and atoms maximize f(t) = int_0^t <Psi, Phi'> with
    Psi(t) = hh^T + xi'(Phi(t)) - int_0^t Phihat^-1 Phi' Phihat^-1 ds;
    the running integral is returned on a grid for inspection.
    """
    q = phi.end
    base = frobenius(mix.outer_field() + mix.xi_prime(q), q) + 1.0 - chol_logdet(q)
    t, mass = x.atoms()
    logdet, ok = stack_logdets(q - phi.value(t))
    if not ok.all():
        raise NotPositiveDefinite("Matrix is not positive definite")
    condition = base + logdet

    t_x = x.t_x
    table = _table(x, phi, t_x * np.arange(grid_points + 1) / grid_points)
    grid, p, c, _, inv, flat = _cut_at(table, t_x)
    dp = np.diff(p, axis=0)
    flat = flat[:, None, None]
    # d/dt Phihat^-1 = c Phihat^-1 Phi' Phihat^-1 on a piece with c > 0
    m_inc = np.where(
        flat, inv[:-1] @ dp @ inv[:-1], np.diff(inv, axis=0) / np.where(flat, 1.0, c[:, None, None])
    )
    acc_m = np.cumsum(m_inc, axis=0) - 0.5 * m_inc  # int_0^mid Phihat^-1 Phi' Phihat^-1
    mid = phi.value(0.5 * (grid[:-1] + grid[1:]))
    psi_mid = mix.outer_field() + mix.series(mid)[:, 1] - acc_m
    f_inc = np.einsum("kij,kij->k", psi_mid, dp)
    running = np.concatenate([[0.0], np.cumsum(f_inc)])
    report = (t, mass, condition, condition < -1e-12, grid, running)
    for a in report:
        a.flags.writeable = False
    return SupportReport(*report)


def cdf_l1_distance(x1: ContinuousCdf, x2: ContinuousCdf, span: float) -> float:
    """int_0^span |x1(t) - x2(t)| dt, exactly on the step structure."""
    ts = np.sort(np.minimum(np.concatenate([[0.0, span], x1.t, x2.t]), span))
    return float(np.sum(np.abs(x1.value(ts[:-1]) - x2.value(ts[:-1])) * np.diff(ts)))


def path_sup_distance(p1: MatrixPath, p2: MatrixPath) -> float:
    """max entrywise |Phi1 - Phi2| over t; exact on the joint knot set."""
    ts = np.concatenate([p1.t, p2.t])
    return float(np.max(np.abs(p1.value(ts) - p2.value(ts))))


def lipschitz_bound(mix: MixtureSpec, box: FeasibleBox) -> float:
    """Explicit modulus valid on the box, summed from per-term constants.

    Pieces: n^2 max|hh^T| for the field term, n^2 max|xi'(1)| for the
    mixture term, the log-det chain (log is Lipschitz above the determinant
    floor (sqrt(n) L)^-n, and det is polynomial with entries in [-2, 2]),
    and 4 n^4 L^2 for the inverse-tail integral.
    """
    n = mix.n
    L = box.L
    hh_part = n**2 * float(np.max(np.abs(mix.outer_field())))
    ones = np.ones((n, n))
    xi_part = n**2 * float(np.max(np.abs(mix.xi_prime(ones))))
    det_slope = n * (np.sqrt(n) * 2.0) ** (n - 1) * np.sqrt(n)
    logdet_part = (np.sqrt(n) * L) ** n * det_slope
    tail_part = 4.0 * n**4 * L**2
    return float(hh_part + xi_part + logdet_part + tail_part)


def lipschitz_probe(
    mix: MixtureSpec,
    box: FeasibleBox,
    pairs: list[tuple[ContinuousCdf, MatrixPath]],
) -> tuple[float, float]:
    """Empirical modulus over the candidate pairs against the bound.

    Ratios |C(p1) - C(p2)| / (|x1 - x2|_1 + |Phi1 - Phi2|_inf) are maximized
    over every two candidates; identical pairs are excluded.
    """
    values = [eval_cs_continuous(x, p, mix) for x, p in pairs]
    span = pairs[0][1].span
    empirical = 0.0
    for (v1, (x1, p1)), (v2, (x2, p2)) in combinations(zip(values, pairs), 2):
        denom = cdf_l1_distance(x1, x2, span) + path_sup_distance(p1, p2)
        if denom >= 1e-15:
            empirical = max(empirical, abs(v1 - v2) / denom)
    return empirical, lipschitz_bound(mix, box)
