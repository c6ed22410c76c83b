import numpy as np
import pytest

from spinvar.battery import random_correlation, random_feasible_path, random_mixture
from spinvar.errors import InfeasibleMultiplier, InfeasiblePath, ValidationError
from spinvar.matcore import MixtureSpec, symmetrize
from spinvar.path import (
    DiscretePath,
    d_sequence,
    equally_spaced,
    lambda_sequence,
    merge_duplicates,
    tail_sums,
    validate,
)


def scalar_path(x, qs):
    return DiscretePath(tuple(x), tuple(np.array([[q]]) for q in qs))


def test_lambda_sequence_r1():
    mix = MixtureSpec.pure(2, [0.5])
    path = scalar_path((0.0,), (1.0,))
    state = lambda_sequence(np.array([[2.0]]), path, mix)
    assert len(state.seq) == 1
    np.testing.assert_allclose(state.at(1), [[2.0]])


def test_lambda_sequence_scalar_recursion():
    # n=1 pure quadratic beta=1: xi'(q) = 2q
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 0.5), (0.25, 1.0))
    state = lambda_sequence(np.array([[3.0]]), path, mix)
    assert state.at(1)[0, 0] == pytest.approx(3.0 - 0.5 * (2.0 - 0.5))
    assert state.at(2)[0, 0] == pytest.approx(3.0)


def test_lambda_sequence_matches_direct_sum():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, int(rng.integers(2, 5)))
        lam = symmetrize(rng.normal(size=(n, n))) + 10 * np.eye(n)
        state = lambda_sequence(lam, path, mix)
        for p in range(1, path.r + 1):
            direct = np.array(lam)
            for k in range(p, path.r):
                direct = direct - path.x[k] * (
                    mix.xi_prime(path.level(k + 1)) - mix.xi_prime(path.level(k))
                )
            np.testing.assert_allclose(state.at(p), direct, atol=1e-12)


def test_lambda_sequence_infeasible():
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(InfeasibleMultiplier):
        lambda_sequence(np.array([[1.0]]), path, mix)  # Lambda_1 = 1 - 2 < 0


def test_d_sequence_examples():
    path = scalar_path((0.0, 0.5), (0.25, 1.0))
    dseq = d_sequence(path)
    assert dseq.at(1)[0, 0] == pytest.approx(0.375)
    path2 = scalar_path((0.0, 1.0), (0.0, 1.0))
    assert d_sequence(path2).at(1)[0, 0] == pytest.approx(1.0)


def test_d_sequence_telescopes():
    rng = np.random.default_rng(6)
    q = random_correlation(rng, 2)
    path = random_feasible_path(rng, q, 3)
    dseq = d_sequence(path)
    np.testing.assert_allclose(
        dseq.at(1) - dseq.at(2), path.x[1] * (path.level(2) - path.level(1)), atol=1e-13
    )


def test_d_sequence_infeasible():
    path = scalar_path((0.0, 0.0), (0.5, 1.0))  # x_{r-1} = 0 kills D_{r-1}
    with pytest.raises(InfeasiblePath):
        d_sequence(path)


def test_validate_reports_everything():
    good = scalar_path((0.0, 0.5), (0.25, 1.0))
    assert validate(good) == []
    bad_x = DiscretePath((0.0, 0.6, 0.5), tuple(np.array([[v]]) for v in (0.2, 0.5, 1.0)))
    assert any("nondecreasing" in p for p in validate(bad_x))
    bad_q = scalar_path((0.0, 1.0), (0.6, 0.5))
    assert any("not PSD" in p for p in validate(bad_q))


def test_validate_psd_margin_reported():
    lo = np.array([[0.5, 0.0], [0.0, 0.5]])
    hi = np.array([[0.4, 0.0], [0.0, 1.0]])  # increment eigenvalue -0.1
    path = DiscretePath((0.0, 1.0), (lo, hi))
    report = validate(path)
    assert any("-1.0" in p or "-0.1" in p for p in report)


def test_constraint_mismatch_detected():
    path = scalar_path((0.0, 1.0), (0.25, 0.9))
    assert any("constraint" in p for p in validate(path, constraint=np.array([[1.0]])))


def test_equally_spaced():
    q = np.array([[1.0, 0.2], [0.2, 1.0]])
    path = equally_spaced(q, 4)
    assert path.r == 4
    np.testing.assert_allclose(path.level(4), q)
    np.testing.assert_allclose(path.level(2), 0.5 * q)
    assert path.x == (0.0, 1 / 3, 2 / 3, 1.0)


def test_merge_duplicates_weight_and_level():
    path = scalar_path((0.0, 0.4, 0.4, 1.0), (0.2, 0.5, 0.5, 1.0))
    merged = merge_duplicates(path)
    assert merged.r == 3
    assert merged.x == (0.0, 0.4, 1.0)
    assert [merged.level(k)[0, 0] for k in (1, 2, 3)] == [0.2, 0.5, 1.0]
    # duplicate level with distinct weights
    path2 = scalar_path((0.0, 0.3, 0.7), (0.5, 0.5, 1.0))
    merged2 = merge_duplicates(path2)
    assert merged2.r == 2
    assert merged2.x == (0.0, 0.7)
    np.testing.assert_allclose(merged2.level(1), [[0.5]])


def test_path_is_immutable():
    path = scalar_path((0.0, 1.0), (0.5, 1.0))
    with pytest.raises(ValueError):
        path.qs[0][0, 0] = 2.0


def test_path_shape_validation():
    with pytest.raises(ValidationError):
        DiscretePath((0.0, 1.0), (np.array([[0.5]]),))


def test_multiplier_chain_is_psd_ordered():
    from spinvar.matcore import psd_tol, spectral_floor

    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, int(rng.integers(2, 5)))
        lam = symmetrize(rng.normal(size=(n, n))) + 10 * np.eye(n)
        state = lambda_sequence(lam, path, mix)
        for p in range(1, path.r):
            gap = state.at(p + 1) - state.at(p)
            assert spectral_floor(gap) >= -psd_tol(gap)


def test_tail_chain_is_psd_decreasing():
    from spinvar.matcore import psd_tol, spectral_floor

    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, int(rng.integers(3, 5)))
        dseq = d_sequence(path)
        for p in range(1, path.r - 1):
            gap = dseq.at(p) - dseq.at(p + 1)
            assert spectral_floor(gap) >= -psd_tol(gap)


def _tail_loop(weights, steps):
    """T_p = sum_{k >= p} w_k steps_k, accumulated one level at a time
    from the last level down."""
    out = np.empty_like(steps)
    tail = np.zeros_like(steps[..., 0, :, :])
    for p in range(len(weights) - 1, -1, -1):
        tail = tail + weights[p] * steps[..., p, :, :]
        out[..., p, :, :] = tail
    return out


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_tail_sums_equal_the_level_loop(n, r):
    rng = np.random.default_rng(10 * n + r)
    weights = np.sort(rng.uniform(0.0, 1.0, r - 1))
    for shape in ((r - 1, n, n), (6, r - 1, n, n)):
        steps = rng.normal(size=shape)
        assert np.array_equal(tail_sums(weights, steps), _tail_loop(weights, steps))
    # weights given as the tuple path.x[1:] of a path
    assert np.array_equal(tail_sums(tuple(weights), steps), _tail_loop(weights, steps))
