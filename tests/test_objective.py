"""Parity of the stacked objective with the per-matrix formulas.

The reference below evaluates both forms, the barrier and the representers
one matrix at a time, the way the functionals are written down; the
solver's ``Objective`` evaluates them through ``functionals.eval_stack``.
Its Hessian, from the kernel's tangent-linear pass, is checked against a
central difference of its gradient.
"""

import math

import numpy as np
import pytest

from spinvar.battery import (
    random_correlation,
    random_feasible_path,
    random_spd,
    well_conditioned_path,
)
from spinvar.errors import SpinvarError
from spinvar.functionals import eval_perturbed
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
        tail = tail + path.x[p] * path.increment(p)
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
        total = frobenius(hh, seq[0]) + chol_logdet(path.increment(r - 1)) / x[-1]
        for k in range(1, r - 1):
            if x[k] != 0.0:
                total -= (ld[k] - ld[k - 1]) / x[k]
        total += frobenius(path.level(1), first_inv)
        sums = [ref_series(mix, "xi", path.level(k)).sum() for k in range(r + 1)]
        for k in range(1, r):
            total += x[k] * (sums[k + 1] - sums[k])
    barrier = -sum(chol_logdet(path.increment(k)) for k in range(r)) if eps else 0.0
    return 0.5 * total + eps * barrier


def ref_representers(kind, eps, path, mix, lam=None):
    """[d_lambda,] d_q[1..r-1] as full matrices."""
    r, x = path.r, path.x
    hh = np.outer(mix.h, mix.h)
    inv = [sym_inverse(m) for m in ref_chain(kind, lam, path, mix)]
    barrier = [0.0] * r
    if eps:
        inc_inv = [sym_inverse(path.increment(k)) for k in range(r)]
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
        mats.append(path.increment(path.r - 1))
    if eps:
        mats += [path.increment(k) for k in range(path.r)]
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


def objective(kind, mix, q, path, lam, eps, diag_only):
    blocks = ([lam] if kind == "parisi" else []) + path.free_levels()
    return Objective(kind, mix, q, path.x, eps, diag_only, blocks)


def point(obj, z):
    lam, levels = obj.split(z)
    return lam, DiscretePath(obj.x, tuple(levels) + (obj.constraint,))


def expected_gradient(obj, reps):
    """Halved representers at the coordinates, off-diagonals counted twice."""
    halve = np.where(obj.rows == obj.cols, 0.5, 1.0)
    return np.concatenate([g[obj.rows, obj.cols] * halve for g in reps])


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_objective_matches_per_matrix_formulas(kind, n, r):
    rng, mix, q, path, lam = instance(kind, n, r, seed=1000 * n + r)
    for eps in (0.0, 1e-3):
        for diag_only in (False, True):
            obj = objective(kind, mix, q, path, lam, eps, diag_only)
            z = obj.pack(obj.template)
            value, grad = obj.value_and_grad(z)
            assert value == pytest.approx(ref_value(kind, eps, path, mix, lam), rel=1e-12)
            want = expected_gradient(obj, ref_representers(kind, eps, path, mix, lam))
            np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_objective_batch_equals_single_points(kind, n, r):
    rng, mix, q, path, lam = instance(kind, n, r, seed=2000 * n + r)
    for eps in (0.0, 1e-3):
        for diag_only in (False, True):
            obj = objective(kind, mix, q, path, lam, eps, diag_only)
            z = obj.pack(obj.template)
            stack = z + 1e-3 * rng.uniform(-1, 1, (5, z.size))
            values, grads = obj.value_and_grad(stack)
            for zi, vi, gi in zip(stack, values, grads):
                v, g = obj.value_and_grad(zi)
                assert vi == v
                np.testing.assert_array_equal(gi, g)


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_objective_infinite_exactly_where_evaluation_raises(kind, n, r):
    rng, mix, q, path, lam = instance(kind, n, r, seed=3000 * n + r)
    seen = set()
    for eps in (0.0, 1e-3):
        for diag_only in (False, True):
            obj = objective(kind, mix, q, path, lam, eps, diag_only)
            z = obj.pack(obj.template)
            scale = np.max(np.abs(z))
            stack = z + scale * rng.uniform(-1, 1, (40, z.size)) * np.geomspace(1e-3, 1.0, 40)[:, None]
            values, _ = obj.value_and_grad(stack)
            for zi, value in zip(stack, values):
                lam_i, path_i = point(obj, zi)
                try:
                    eval_perturbed(kind, eps, path_i, mix, lam=lam_i)
                    raised = False
                except SpinvarError:
                    raised = True
                assert math.isinf(value) == raised
                assert raised == (not ref_feasible(kind, eps, path_i, mix, lam_i))
                seen.add(raised)
    assert seen == {False, True}


def fd_hessian(obj, z):
    """Central difference of the gradient along each coordinate at step 1e-6,
    the probes evaluated as one stack; row k is the derivative along
    coordinate k."""
    step = 1e-6
    _, plus = obj.value_and_grad(z + step * np.eye(z.size))
    _, minus = obj.value_and_grad(z - step * np.eye(z.size))
    return (plus - minus) / (2.0 * step)


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_hessian_matches_fd(kind, n, r):
    rng, mix, q, _, _ = instance(kind, n, r, seed=4000 * n + r)
    x = tuple(k / (r - 1) for k in range(r))
    start_lam, start_levels = default_start(kind, mix, q, r, x)
    path = well_conditioned_path(rng, q, r)
    lam = sym_inverse(q) + mix.xi_prime(q) + random_spd(rng, n, 0.5) if kind == "parisi" else None
    starts = [
        (start_lam, DiscretePath(x, tuple(start_levels) + (q,))),
        (lam, path),
    ]
    for eps in (0.0, 1e-3):
        for diag_only in (False, True):
            for lam_i, path_i in starts:
                obj = objective(kind, mix, q, path_i, lam_i, eps, diag_only)
                z = obj.pack(obj.template)
                value, grad, hess = obj.value_grad_hess(z)
                want_value, want_grad = obj.value_and_grad(z)
                assert value == want_value
                np.testing.assert_array_equal(grad, want_grad)
                want = fd_hessian(obj, z)
                assert hess.shape == (z.size, z.size)
                np.testing.assert_allclose(hess, want, rtol=1e-6, atol=1e-6 * np.max(np.abs(want)))
