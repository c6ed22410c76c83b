"""Parity of the one-point kernel with the per-matrix formulas.

The reference below evaluates both forms, the barrier and the representers
one matrix at a time, the way the functionals are written down;
``functionals.eval_stack`` evaluates them at one point given in the
coordinates of the solver's ``Objective``.  The Hessian, from the kernel's
tangent-linear pass, is checked against a central difference of the
gradient, and a point outside the domain raises in the kernel exactly
where, and as, the per-point evaluation raises.
"""

import numpy as np
import pytest

from spinvar.battery import (
    random_correlation,
    random_feasible_path,
    random_spd,
)
from spinvar.errors import DomainError, SpinvarError
from spinvar.functionals import Weights, eval_perturbed, eval_stack
from spinvar.matcore import MixtureSpec, chol_logdet, frobenius, sym_inverse, symmetrize
from spinvar.optimize import Objective, default_start
from spinvar.path import DiscretePath

_SERIES = {
    "xi": (lambda p: 1.0, 0),
    "xi_prime": (lambda p: float(p), 1),
    "xi_second": (lambda p: float(p * (p - 1)), 2),
    "theta": (lambda p: float(p - 1), 0),
}


def ref_series(mix, kind, a):
    coeff, shift = _SERIES[kind]
    out = np.zeros_like(a)
    for p, beta in mix.terms:
        out += coeff(p) * np.outer(beta, beta) * a ** (p - shift)
    return out


def ref_chain(kind, lam, path, mix):
    """Lambda_1..Lambda_r, or D_1..D_{r-1}."""
    r = path.r
    if kind == "parisi":
        xp = [ref_series(mix, "xi_prime", path.level(k)) for k in range(r + 1)]
        seq, tail = [lam] * r, 0.0
        for p in range(r - 1, 0, -1):
            tail = tail + path.x[p] * (xp[p + 1] - xp[p])
            seq[p - 1] = lam - tail
        return seq
    seq, tail = [None] * (r - 1), 0.0
    for p in range(r - 1, 0, -1):
        tail = tail + path.x[p] * path.increments[p]
        seq[p - 1] = tail
    return seq


def ref_value(kind, eps, path, mix, lam=None):
    r, x, n = path.r, path.x, path.n
    hh = np.outer(mix.h, mix.h)
    seq = ref_chain(kind, lam, path, mix)
    ld = [chol_logdet(m) for m in seq]
    first_inv = sym_inverse(seq[0])
    if kind == "parisi":
        total = frobenius(hh, first_inv) + frobenius(lam, path.constraint) - n - chol_logdet(lam)
        for k in range(1, r):
            if x[k] != 0.0:
                total += (ld[k] - ld[k - 1]) / x[k]
        total += frobenius(ref_series(mix, "xi_prime", path.level(1)), first_inv)
        sums = [ref_series(mix, "theta", path.level(k)).sum() for k in range(r + 1)]
        for k in range(1, r):
            total -= x[k] * (sums[k + 1] - sums[k])
    else:
        total = frobenius(hh, seq[0]) + chol_logdet(path.increments[r - 1]) / x[-1]
        for k in range(1, r - 1):
            if x[k] != 0.0:
                total -= (ld[k] - ld[k - 1]) / x[k]
        total += frobenius(path.level(1), first_inv)
        sums = [ref_series(mix, "xi", path.level(k)).sum() for k in range(r + 1)]
        for k in range(1, r):
            total += x[k] * (sums[k + 1] - sums[k])
    barrier = -sum(chol_logdet(path.increments[k]) for k in range(r)) if eps else 0.0
    return 0.5 * total + eps * barrier


def ref_representers(kind, eps, path, mix, lam=None):
    """[d_lambda,] d_q[1..r-1] as full matrices."""
    r, x = path.r, path.x
    hh = np.outer(mix.h, mix.h)
    inv = [sym_inverse(m) for m in ref_chain(kind, lam, path, mix)]
    barrier = [0.0] * r
    if eps:
        inc_inv = [sym_inverse(path.increments[k]) for k in range(r)]
        barrier = [None] + [2 * eps * (inc_inv[p] - inc_inv[p - 1]) for p in range(1, r)]
    if kind == "parisi":
        a = symmetrize(inv[0] @ (hh + ref_series(mix, "xi_prime", path.level(1))) @ inv[0])
        partials = [np.zeros_like(a), np.zeros_like(a)]  # S_0 (unused), S_1
        for k in range(1, r):
            step = (inv[k - 1] - inv[k]) / x[k] if x[k] != 0.0 else 0.0
            partials.append(partials[-1] + step)
        reps = [path.constraint - inv[-1] - a - partials[r]]
        for p in range(1, r):
            core = path.level(p) - a - partials[p]
            reps.append((x[p] - x[p - 1]) * ref_series(mix, "xi_second", path.level(p)) * core
                        + barrier[p])
        return reps
    b = symmetrize(inv[0] @ path.level(1) @ inv[0])
    partial, reps = np.zeros_like(b), []
    for p in range(1, r):
        if p >= 2 and x[p - 1] != 0.0:
            partial = partial + (inv[p - 1] - inv[p - 2]) / x[p - 1]
        core = hh - b - partial + ref_series(mix, "xi_prime", path.level(p))
        reps.append(-(x[p] - x[p - 1]) * core + barrier[p])
    return reps


def ref_feasible(kind, eps, path, mix, lam=None):
    """Domain of the per-matrix evaluation: Lambda_1 (or D_{r-1}) shifted
    down by 1e-10 times its largest absolute diagonal entry (at least 1),
    every chain matrix, Q - Q_{r-1} for the multiplier-free form and, with
    the barrier, every increment must each pass a Cholesky factorization."""
    seq = ref_chain(kind, lam, path, mix)
    floor = seq[0] if kind == "parisi" else seq[-1]
    margin = 1e-10 * max(float(np.max(np.abs(np.diag(floor)))), 1.0)
    mats = [floor - margin * np.eye(path.n)] + seq
    if kind == "cs":
        mats.append(path.increments[path.r - 1])
    if eps:
        mats += [path.increments[k] for k in range(path.r)]
    try:
        for m in mats:
            chol_logdet(m)
    except SpinvarError:
        return False
    return True


def instance(kind, n, r, seed):
    rng = np.random.default_rng(seed)
    terms = [(2, rng.uniform(0.2, 0.6, n)), (4, rng.uniform(0.0, 0.3, n))]
    mix = MixtureSpec(n=n, terms=tuple(terms), h=rng.uniform(-0.3, 0.3, n))
    q = random_correlation(rng, n)
    path = random_feasible_path(rng, q, r)
    lam = sym_inverse(q) + mix.xi_prime(q) + random_spd(rng, n, 0.5) if kind == "parisi" else None
    return rng, mix, q, path, lam


def objective(kind, mix, q, path, lam, eps):
    plan = Weights(kind, path.x)
    return Objective(plan, mix, q, eps, plan.join(lam, path.qs[:-1]))


def point(obj, z):
    lam, levels = obj.plan.split(obj.blocks(z))
    return lam, DiscretePath(obj.plan.x, tuple(levels) + (obj.constraint,))


# interior zero weights: the kernel drops their 1/x_k terms, as the
# per-matrix references above do
ZERO_WEIGHTS = {3: (0.0, 0.0, 1.0), 4: (0.0, 0.0, 0.5, 1.0)}


def with_zero_weights(path):
    """``path``, then the same levels at the zero weights of its r, if any."""
    if path.r not in ZERO_WEIGHTS:
        return [path]
    return [path, DiscretePath(ZERO_WEIGHTS[path.r], path.qs)]


def expected_gradient(obj, reps):
    """Halved representers at the coordinates, off-diagonals counted twice."""
    halve = np.where(obj.rows == obj.cols, 0.5, 1.0)
    return np.concatenate([g[obj.rows, obj.cols] * halve for g in reps])


def value_and_grad(obj, z):
    """Value and gradient in z of one point from one eval_stack call."""
    value, _, reps, _ = eval_stack(obj.plan, obj.mix, obj.constraint, obj.eps, obj.blocks(z), grad=True)
    return value, expected_gradient(obj, reps)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_objective_matches_per_matrix_formulas(kind, n, r):
    rng, mix, q, random_path, lam = instance(kind, n, r, seed=1000 * n + r)
    for path in with_zero_weights(random_path):
        for eps in (0.0, 1e-3):
            obj = objective(kind, mix, q, path, lam, eps)
            z = obj.pack(obj.template)
            value, grad = value_and_grad(obj, z)
            assert value == pytest.approx(ref_value(kind, eps, path, mix, lam), rel=1e-12)
            want = expected_gradient(obj, ref_representers(kind, eps, path, mix, lam))
            np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_objective_infinite_exactly_where_evaluation_raises(kind, n, r):
    # the kernel raises at a point outside the domain, with the class and
    # message the per-point evaluation raises there, and only there
    rng, mix, q, path, lam = instance(kind, n, r, seed=3000 * n + r)
    seen = set()
    for eps in (0.0, 1e-3):
        obj = objective(kind, mix, q, path, lam, eps)
        z = obj.pack(obj.template)
        scale = np.max(np.abs(z))
        stack = z + scale * rng.uniform(-1, 1, (40, z.size)) * np.geomspace(1e-3, 1.0, 40)[:, None]
        for zi in stack:
            try:
                value_and_grad(obj, zi)
                kernel_error = None
            except DomainError as exc:
                kernel_error = exc
            lam_i, path_i = point(obj, zi)
            try:
                eval_perturbed(kind, eps, path_i, mix, lam=lam_i)
                error = None
            except SpinvarError as exc:
                error = exc
            assert repr(kernel_error) == repr(error)
            assert (error is not None) == (not ref_feasible(kind, eps, path_i, mix, lam_i))
            seen.add(error is not None)
    assert seen == {False, True}


def fd_hessian(obj, z):
    """Central difference of the gradient along each coordinate at step 1e-6,
    one probe point at a time; row k is the derivative along coordinate k."""
    step = 1e-6
    rows = []
    for unit in np.eye(z.size):
        plus = value_and_grad(obj, z + step * unit)[1]
        minus = value_and_grad(obj, z - step * unit)[1]
        rows.append((plus - minus) / (2.0 * step))
    return np.array(rows)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_hessian_matches_fd(kind, n, r):
    rng, mix, q, _, _ = instance(kind, n, r, seed=4000 * n + r)
    x = tuple(k / (r - 1) for k in range(r))
    start_lam, start_levels = default_start(kind, mix, q, r)
    path = random_feasible_path(rng, q, r, floor=0.1)
    lam = sym_inverse(q) + mix.xi_prime(q) + random_spd(rng, n, 0.5) if kind == "parisi" else None
    starts = [(start_lam, p) for p in with_zero_weights(DiscretePath(x, tuple(start_levels) + (q,)))]
    starts += [(lam, p) for p in with_zero_weights(path)]
    for eps in (0.0, 1e-3):
        for lam_i, path_i in starts:
            obj = objective(kind, mix, q, path_i, lam_i, eps)
            z = obj.pack(obj.template)
            value, _, grad, hess = obj.evaluate(z)
            hess = hess()
            want_value, want_grad = value_and_grad(obj, z)
            assert value == want_value
            np.testing.assert_array_equal(grad, want_grad)
            want = fd_hessian(obj, z)
            assert hess.shape == (z.size, z.size)
            np.testing.assert_allclose(hess, want, rtol=1e-6, atol=1e-6 * np.max(np.abs(want)))
