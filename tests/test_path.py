from fractions import Fraction

import numpy as np
import pytest

from spinvar.battery import random_correlation, random_feasible_path, random_mixture
from spinvar.errors import (
    DimensionMismatch,
    InfeasibleMultiplier,
    InfeasiblePath,
    SpinvarError,
    ValidationError,
)
from spinvar.functionals import eval_cs, eval_parisi
from spinvar.matcore import MixtureSpec, spectral_floor, symmetrize
from spinvar.path import (
    DiscretePath,
    d_sequence,
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
    assert len(state) == 1
    np.testing.assert_allclose(state[0], [[2.0]])


def test_lambda_sequence_scalar_recursion():
    # n=1 pure quadratic beta=1: xi'(q) = 2q
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 0.5), (0.25, 1.0))
    state = lambda_sequence(np.array([[3.0]]), path, mix)
    assert state[0][0, 0] == pytest.approx(3.0 - 0.5 * (2.0 - 0.5))
    assert state[1][0, 0] == pytest.approx(3.0)


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
            np.testing.assert_allclose(state[p - 1], direct, atol=1e-12)


def test_lambda_sequence_infeasible():
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(InfeasibleMultiplier):
        lambda_sequence(np.array([[1.0]]), path, mix)  # Lambda_1 = 1 - 2 < 0


def test_lambda_sequence_rejects_a_misshapen_multiplier():
    # lambda_sequence symmetrized first, so numpy raised ValueError or
    # AxisError where eval_parisi raised DimensionMismatch
    mix = MixtureSpec.pure(2, [0.5, 0.5])
    path = DiscretePath((0.0, 0.5), (0.5 * np.eye(2), np.eye(2)))
    for lam in (np.ones((2, 3)), np.ones(2)):
        for call in (lambda_sequence, eval_parisi):
            with pytest.raises(DimensionMismatch, match="multiplier dimension"):
                call(lam, path, mix)


def test_d_sequence_examples():
    path = scalar_path((0.0, 0.5), (0.25, 1.0))
    dseq = d_sequence(path)
    assert dseq[0][0, 0] == pytest.approx(0.375)
    path2 = scalar_path((0.0, 1.0), (0.0, 1.0))
    assert d_sequence(path2)[0][0, 0] == pytest.approx(1.0)


def test_d_sequence_telescopes():
    rng = np.random.default_rng(6)
    q = random_correlation(rng, 2)
    path = random_feasible_path(rng, q, 3)
    dseq = d_sequence(path)
    np.testing.assert_allclose(
        dseq[0] - dseq[1], path.x[1] * (path.level(2) - path.level(1)), atol=1e-13
    )


def test_d_sequence_infeasible():
    path = scalar_path((0.0, 0.0), (0.5, 1.0))  # x_{r-1} = 0 kills D_{r-1}
    with pytest.raises(InfeasiblePath):
        d_sequence(path)
    with pytest.raises(InfeasiblePath, match="D sequence needs r >= 2"):
        d_sequence(scalar_path((0.0,), (1.0,)))


def test_validate_reports_everything():
    good = scalar_path((0.0, 0.5), (0.25, 1.0))
    assert validate(good) == []
    bad_x = DiscretePath((0.0, 0.6, 0.5), tuple(np.array([[v]]) for v in (0.2, 0.5, 1.0)))
    assert any("nondecreasing" in p for p in validate(bad_x))
    bad_q = scalar_path((0.0, 1.0), (0.6, 0.5))
    assert any("not PSD" in p for p in validate(bad_q))


@pytest.mark.parametrize(
    "x, message",
    [((0.5, 1.0), "x_0 must be 0, got 0.5"), ((0.0, 1.5), "x_{r-1} must be <= 1, got 1.5")],
)
def test_validate_reports_the_ends_of_the_weights(x, message):
    assert validate(scalar_path(x, (0.25, 1.0))) == [message]


def test_with_levels_needs_every_free_level():
    path = scalar_path((0.0, 0.5, 1.0), (0.25, 0.5, 1.0))
    for levels in ([], [np.eye(1)], [np.eye(1)] * 3):
        with pytest.raises(ValidationError, match=f"expected 2 free levels, got {len(levels)}"):
            path.with_levels(levels)


def test_validate_psd_margin_reported():
    lo = np.array([[0.5, 0.0], [0.0, 0.5]])
    hi = np.array([[0.4, 0.0], [0.0, 1.0]])  # increment eigenvalue -0.1
    path = DiscretePath((0.0, 1.0), (lo, hi))
    report = validate(path)
    assert any("-1.0" in p or "-0.1" in p for p in report)


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


def _merge_loop(path):
    """merge_duplicates as a restart loop over lists: drop the first
    repeated weight, else the first repeated level, until neither is left."""
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
    return DiscretePath(tuple(x), qs[1:])


def test_merge_duplicates_matches_the_level_loop():
    # weights and levels drawn from small pools, so that they repeat
    rng = np.random.default_rng(41)
    seen = dict.fromkeys(["repeated weight", "level run", "zero Q_1", "non-monotone", "to r = 1"], 0)
    for _ in range(10_000):
        n, r = int(rng.integers(1, 3)), int(rng.integers(1, 7))
        pool = [np.zeros((n, n)), random_correlation(rng, n), 0.5 * random_correlation(rng, n)]
        x = rng.choice([0.0, 0.25, 0.5, 1.0], size=r)
        if rng.random() < 0.5:
            x = np.sort(x)
        path = DiscretePath(tuple(x), [pool[i] for i in rng.integers(0, 3, size=r)])
        merged, want = merge_duplicates(path), _merge_loop(path)
        assert merged.x == want.x
        assert merged.qs.shape == want.qs.shape and merged.qs.tobytes() == want.qs.tobytes()
        same = [np.array_equal(path.qs[k], path.qs[k + 1]) for k in range(r - 1)]
        seen["repeated weight"] += bool((np.diff(x) == 0.0).any())
        seen["level run"] += any(a and b for a, b in zip(same, same[1:]))
        seen["zero Q_1"] += not path.qs[0].any()
        seen["non-monotone"] += bool((np.diff(x) < 0.0).any())
        seen["to r = 1"] += r > 1 and merged.r == 1
    assert min(seen.values()) >= 100, seen


def test_path_is_immutable():
    path = scalar_path((0.0, 1.0), (0.5, 1.0))
    with pytest.raises(ValueError):
        path.qs[0][0, 0] = 2.0


def test_levels_are_one_read_only_stack():
    # the levels were a tuple of matrices, and every kernel stacked them itself
    levels = [np.array([[0.5, 0.1], [0.1, 0.4]]), np.array([[0.3, 0.0], [0.0, 0.7]]),
              np.array([[1.0, 0.2], [0.2, 0.5]])]
    for qs in (tuple(levels), levels, np.array(levels)):
        path = DiscretePath((0.0, 0.5, 1.0), qs)
        assert type(path.qs) is np.ndarray and path.qs.dtype == np.float64
        assert path.qs.shape == (3, 2, 2) and not path.qs.flags.writeable
        for k in range(path.r):
            assert path.increments[k].tobytes() == (path.level(k + 1) - path.level(k)).tobytes()
        assert validate(path) == [
            "increment Q_2 - Q_1 is not PSD: lam_min = -2.192582e-01",
            "increment Q_3 - Q_2 is not PSD: lam_min = -2.424429e-01",
        ]


def test_path_shape_validation():
    with pytest.raises(ValidationError):
        DiscretePath((0.0, 1.0), (np.array([[0.5]]),))
    with pytest.raises(ValidationError, match=r"^a path needs at least one weight \(r >= 1\)$"):
        DiscretePath((), [])


def test_path_levels_must_be_square_of_one_size():
    # each level was symmetrized before its shape was checked, so all but
    # the last raised numpy's broadcast ValueError or AxisError
    eye = np.eye(2)
    for levels in ((np.ones((2, 3)), eye), (np.ones(2), eye), (np.float64(1.0), eye),
                   (eye, np.ones(2)), (np.eye(3), eye)):
        with pytest.raises(DimensionMismatch, match="square matrices of one shared size"):
            DiscretePath((0.0, 1.0), levels)


def test_path_weights_must_be_real():
    # float() would accept the strings and read True as x_0 = 1.0
    levels = (np.array([[0.5]]), np.eye(1))
    for x in (("0", "1"), (True, 1.0), (None, 1.0)):
        with pytest.raises(ValidationError, match="weights"):
            DiscretePath(x, levels)
    assert DiscretePath((np.float64(0.0), np.int64(1)), levels).x == (0.0, 1.0)
    # levels of real numbers of any type pass, an integer beyond int64 too
    levels = [np.array([[Fraction(1, 2)]]), np.array([[10**20]]), np.eye(1, dtype=int)]
    assert DiscretePath((0.0, 0.5, 1.0), levels).qs.ravel().tolist() == [0.5, 1e20, 1.0]


# an entry numpy cannot cast (it raised numpy's ValueError), a complex one
# (cast with a ComplexWarning, its imaginary part dropped), a bool one (read
# as 0 or 1) and a string in an object array (read as 0.5), each as one
# level of a list and in an (r, n, n) array
NON_REAL_LEVELS = [np.array([["0.5x"]]), np.array([[0.5 + 1j]]), np.array([[True]]),
                   np.array([["0.5"]], dtype=object)]
NON_REAL_IDS = ["string", "complex", "bool", "object-string"]


@pytest.mark.parametrize("stacked", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("level", NON_REAL_LEVELS, ids=NON_REAL_IDS)
def test_path_levels_must_be_real(level, stacked):
    levels = [level, np.eye(1).astype(level.dtype)]
    with pytest.raises(ValidationError, match="levels must have finite entries"):
        DiscretePath((0.0, 1.0), np.array(levels) if stacked else levels)


def test_non_finite_paths_and_multipliers_raise():
    # each constructed, and the functionals on it returned nan, or an inf
    # chain for an inf multiplier
    nan, inf = float("nan"), float("inf")
    mix = MixtureSpec.pure(2, [1.0])
    with pytest.raises(ValidationError, match="levels must have finite entries"):
        DiscretePath((0.0, 1.0), (np.array([[nan]]), np.eye(1)))
    for x in ((0.0, nan, 1.0), (0.0, 0.5, inf)):
        with pytest.raises(ValidationError, match="weights must be finite"):
            scalar_path(x, (0.3, 0.6, 1.0))
    path = scalar_path((0.0, 1.0), (0.5, 1.0))
    for lam in (nan, inf):
        for call in (lambda_sequence, eval_parisi):
            with pytest.raises(ValidationError, match="multiplier entries must be finite"):
                call(np.array([[lam]]), path, mix)


@pytest.mark.parametrize("lam", [[["3.0"]], [[True]], np.array([[3.0 + 1j]])], ids=["string", "bool", "complex"])
def test_a_multiplier_must_hold_finite_reals(lam):
    # each was cast before it was checked: the string one was evaluated,
    # the bool one raised InfeasibleMultiplier, and the complex one lost its
    # imaginary part with only a ComplexWarning
    path = scalar_path((0.0, 1.0), (0.5, 1.0))
    for call in (lambda_sequence, eval_parisi):
        with pytest.raises(ValidationError, match="multiplier entries must be finite"):
            call(lam, path, MixtureSpec.pure(2, [1.0]))


def test_random_feasible_path_meets_its_floor():
    rng = np.random.default_rng(31)
    floored = 0
    while floored < 200:
        n, r = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        floor = float(rng.choice([0.0, 0.05, 0.1, 0.2]))
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, r, floor=floor)
        assert np.array_equal(path.constraint, q)
        lowest = min(spectral_floor(path.increments[k]) for k in range(r))
        if floor and r * floor < spectral_floor(q):
            assert lowest >= floor - 1e-12
            floored += 1
        else:  # no floor, or none is possible: the draw is feasible all the same
            assert lowest > 0.0
            d_sequence(path)


def test_random_feasible_path_without_a_floor_is_pinned():
    # the levels once summed one increment at a time; the draw without a
    # floor keeps that arithmetic bit for bit
    rng = np.random.default_rng(32)
    path = random_feasible_path(rng, random_correlation(rng, 2), 4)
    assert [v.hex() for v in path.x[1:3]] == ["0x1.90078878f0594p-1", "0x1.d4cae6b7dce74p-1"]
    assert [float(v).hex() for v in path.qs[:-1][:, [0, 0, 1], [0, 1, 1]].ravel()] == [
        "0x1.e98f05b80562ap-2", "-0x1.e6617a512dcc0p-5", "0x1.4e90ca04bb3b4p-3",
        "0x1.74081931ddc22p-1", "-0x1.bd8e1d78c083ep-3", "0x1.84e5a4d3f326cp-2",
        "0x1.9f65154275f1dp-1", "-0x1.6ad9e30068f78p-2", "0x1.aff6ca21d506ep-1",
    ]


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
            gap = state[p] - state[p - 1]
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
            gap = dseq[p - 1] - dseq[p]
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


def _raised(fn):
    """The class and message of the error ``fn()`` raises, or None."""
    try:
        fn()
    except SpinvarError as exc:
        return type(exc), str(exc)
    return None


def _floor_matrix(rng, n, delta):
    """A random symmetric matrix with eigenvalues at most 0.9, the smallest
    1e-10 + delta: its psd_tol margin (1e-10) plus delta."""
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mu = np.concatenate([[1e-10 + delta], rng.uniform(0.2, 0.9, n - 1)])
    return symmetrize(v @ np.diag(mu) @ v.T)


@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_sequences_raise_exactly_where_the_functionals_raise(kind):
    """At the psd_tol boundary of Lambda_1 (or D_{r-1}), lambda_sequence
    (d_sequence) raises exactly when eval_parisi (eval_cs) raises, with the
    same class and message."""
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(120):
        n, r = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, r)
        delta = float(rng.choice([-1e-16, 0.0, 1e-16]))
        if kind == "parisi":
            xp = [mix.xi_prime(path.level(k)) for k in range(r + 1)]
            lam = _floor_matrix(rng, n, delta) + sum(
                path.x[k] * (xp[k + 1] - xp[k]) for k in range(1, r)
            )
            got = _raised(lambda: lambda_sequence(lam, path, mix))
            want = _raised(lambda: eval_parisi(lam, path, mix))
        else:
            top = q - _floor_matrix(rng, n, delta)  # D_{r-1} = Q - Q_{r-1}, x_{r-1} = 1
            path = DiscretePath(path.x, [*path.qs[:-2], top, q])
            got = _raised(lambda: d_sequence(path))
            want = _raised(lambda: eval_cs(path, mix))
        assert got == want
        seen.add(want is None)
    assert seen == {False, True}


def test_sequences_and_functionals_agree_on_known_cases():
    """Cases where the smallest-eigenvalue test of Lambda_1 (D_{r-1}) and
    the Cholesky test of the functionals once disagreed."""
    mix = MixtureSpec.pure(2, [0.5, 0.5])
    path = DiscretePath((0.0,), (np.array([[1.0, 0.2], [0.2, 1.0]]),))
    for lam, want in (
        ([[0.38880831390654075, 0.7204500114672012], [0.7204500114672012, 1.3349720175427517]],
         InfeasibleMultiplier),
        ([[0.25938345941656704, -0.3096405262653391], [-0.3096405262653391, 0.3696351948749368]],
         None),
    ):
        lam = np.array(lam)
        raised = _raised(lambda: eval_parisi(lam, path, mix))
        assert (raised and raised[0]) is want
        assert _raised(lambda: lambda_sequence(lam, path, mix)) == raised
    path = scalar_path((0.0, 0.5, 1.0), (2.3, 0.3, 1.0))  # D_1 = -0.3, D_2 = 0.7
    raised = _raised(lambda: eval_cs(path, MixtureSpec.pure(2, [0.5])))
    assert raised[0] is InfeasiblePath
    assert _raised(lambda: d_sequence(path)) == raised
