import math

import numpy as np
import pytest

from spinvar.battery import random_correlation, random_feasible_path, random_mixture
from spinvar.errors import (
    DegenerateIncrement,
    InfeasiblePath,
    NonStrictWeights,
    ValidationError,
    ZeroDivisor,
)
from spinvar.functionals import (
    construct_multiplier,
    corrected_form,
    error_terms,
    eval_barrier,
    eval_cs,
    eval_parisi,
    eval_perturbed,
)
from spinvar.matcore import MixtureSpec, symmetrize
from spinvar.optimize import SolveOptions, continuation, minimize_fixed
from spinvar.path import DiscretePath, d_sequence, lambda_sequence


# ---------------------------------------------------------------------------
# independent scalar (n = 1) implementations used as oracles


def s_xi(terms, q):
    return sum(b * b * q**p for p, b in terms)


def s_xi_prime(terms, q):
    return sum(p * b * b * q ** (p - 1) for p, b in terms)


def s_theta(terms, q):
    return sum((p - 1) * b * b * q**p for p, b in terms)


def s_parisi(lam, xs, qs, terms, h):
    """Plain-float multiplier form for n = 1; qs = [q_1..q_r], q_r = 1."""
    r = len(xs)
    levels = [0.0] + list(qs)
    lams = [lam] * (r + 1)  # index p = 1..r
    for p in range(r - 1, 0, -1):
        lams[p] = lams[p + 1] - xs[p] * (s_xi_prime(terms, levels[p + 1]) - s_xi_prime(terms, levels[p]))
    total = h * h / lams[1] + lam * levels[r] - 1 - math.log(lam)
    for k in range(1, r):
        if xs[k] > 0:
            total += (math.log(lams[k + 1]) - math.log(lams[k])) / xs[k]
    total += s_xi_prime(terms, levels[1]) / lams[1]
    for k in range(1, r):
        total -= xs[k] * (s_theta(terms, levels[k + 1]) - s_theta(terms, levels[k]))
    return 0.5 * total


def s_cs(xs, qs, terms, h):
    """Plain-float multiplier-free form for n = 1."""
    r = len(xs)
    levels = [0.0] + list(qs)
    ds = [0.0] * r  # index p = 1..r-1
    tail = 0.0
    for p in range(r - 1, 0, -1):
        tail += xs[p] * (levels[p + 1] - levels[p])
        ds[p] = tail
    total = h * h * ds[1] + math.log(levels[r] - levels[r - 1]) / xs[r - 1]
    for k in range(1, r - 1):
        if xs[k] > 0:
            total -= (math.log(ds[k + 1]) - math.log(ds[k])) / xs[k]
    total += levels[1] / ds[1]
    for k in range(1, r):
        total += xs[k] * (s_xi(terms, levels[k + 1]) - s_xi(terms, levels[k]))
    return 0.5 * total


def mat(q):
    return np.array([[float(q)]])


def scalar_path(x, qs):
    return DiscretePath(tuple(x), tuple(mat(q) for q in qs))


# ---------------------------------------------------------------------------


def test_parisi_frozen_scalar_value():
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 0.5), (0.25, 1.0))
    value = eval_parisi(mat(3.0), path, mix)
    assert value == pytest.approx(s_parisi(3.0, [0.0, 0.5], [0.25, 1.0], [(2, 1.0)], 0.0), abs=1e-14)
    assert value == pytest.approx(0.615112, abs=1e-6)


def test_parisi_rs_stationary_value():
    beta = 0.3
    mix = MixtureSpec.pure(2, [beta])
    path = scalar_path((0.0, 1.0), (0.0, 1.0))
    lam = 1 + 2 * beta**2  # stationary point of 0.5(L - 1 - log(L - 2 b^2) - b^2)
    assert eval_parisi(mat(lam), path, mix) == pytest.approx(0.045, abs=1e-12)


def test_parisi_r1_trivial():
    mix = MixtureSpec(n=2, terms=(), h=np.zeros(2))
    q = np.array([[1.0, 0.3], [0.3, 1.0]])
    path = DiscretePath((0.0,), (q,))
    assert eval_parisi(np.eye(2), path, mix) == pytest.approx(0.0, abs=1e-14)


def test_cs_frozen_scalar_values():
    terms = [(2, 1.0)]
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 1.0), (0.25, 1.0))
    value = eval_cs(path, mix)
    assert value == pytest.approx(s_cs([0.0, 1.0], [0.25, 1.0], terms, 0.0), abs=1e-14)
    # (log(1 - q) + q / (1 - q) + beta^2 (1 - q^2)) / 2 at q = 1/4
    assert value == pytest.approx(0.5 * (math.log(0.75) + 1 / 3 + 15 / 16), abs=1e-14)

    q_star = 1 - 1 / math.sqrt(2)
    path2 = scalar_path((0.0, 1.0), (q_star, 1.0))
    assert eval_cs(path2, mix) == pytest.approx(0.49092676723310874, abs=1e-12)

    mix3 = MixtureSpec.pure(2, [0.3])
    path3 = scalar_path((0.0, 1.0), (0.0, 1.0))
    assert eval_cs(path3, mix3) == pytest.approx(0.045, abs=1e-14)


def test_scalar_reduction_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        r = int(rng.integers(2, 5))
        cuts = np.sort(rng.uniform(0.05, 0.95, r - 2))
        xs = [0.0] + list(cuts) + [1.0]
        qs = list(np.sort(rng.uniform(0.02, 0.95, r - 1))) + [1.0]
        terms = [(2, float(rng.uniform(0.1, 1.0))), (4, float(rng.uniform(0, 0.5)))]
        h = float(rng.uniform(-0.5, 0.5))
        mix = MixtureSpec(n=1, terms=tuple((p, [b]) for p, b in terms), h=[h])
        path = scalar_path(xs, qs)
        lam = float(s_xi_prime(terms, 1.0) + rng.uniform(1.1, 3.0))
        assert eval_parisi(mat(lam), path, mix) == pytest.approx(
            s_parisi(lam, xs, qs, terms, h), rel=1e-12
        )
        assert eval_cs(path, mix) == pytest.approx(s_cs(xs, qs, terms, h), rel=1e-12)


def test_barrier_examples():
    path = scalar_path((0.0, 0.5), (0.25, 1.0))
    assert eval_barrier(path) == pytest.approx(-(math.log(0.25) + math.log(0.75)), abs=1e-12)
    assert eval_barrier(path) == pytest.approx(1.673976, abs=1e-6)
    path2 = scalar_path((0.0, 1.0), (0.5, 1.0))
    assert eval_barrier(path2) == pytest.approx(-2 * math.log(0.5), abs=1e-12)
    degenerate = scalar_path((0.0, 1.0), (1.0, 1.0))
    with pytest.raises(DegenerateIncrement) as info:
        eval_barrier(degenerate)
    assert info.value.level == 1


def test_barrier_nonnegative_on_feasible_paths():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, int(rng.integers(2, 5)))
        assert eval_barrier(path) >= 0.0


def test_perturbed_additivity_and_monotonicity():
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 0.5), (0.25, 1.0))
    lam = mat(3.0)
    base = eval_parisi(lam, path, mix)
    barrier = eval_barrier(path)
    assert eval_perturbed("parisi", 0.0, path, mix, lam=lam) == base
    value = eval_perturbed("parisi", 0.1, path, mix, lam=lam)
    assert value == pytest.approx(base + 0.1 * barrier, abs=1e-14)
    assert value == pytest.approx(0.782510, abs=1e-6)
    assert eval_perturbed("parisi", 0.01, path, mix, lam=lam) <= value
    top = scalar_path((0.0, 1.0), (0.25, 1.0))  # the multiplier-free form needs x_{r-1} = 1
    assert eval_perturbed("cs", 0.0, top, mix) == eval_cs(top, mix)


def test_error_terms_scalar_examples():
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 0.5), (0.25, 1.0))
    upper = error_terms("upper", path, mix)
    assert upper.e[0][0, 0] == pytest.approx((1 / 0.75 - 1 / 0.25) / 0.5)
    assert upper.e[0][0, 0] == pytest.approx(-16 / 3)
    np.testing.assert_array_equal(upper.e[1], np.zeros((1, 1)))
    lower = error_terms("lower", path, mix)
    assert lower.e[0][0, 0] == pytest.approx(-16 / 3 / 2.0)  # xi'' = 2
    # Ebar_1 = x_1 (E_2 - E_1) = -x_1 E_1
    np.testing.assert_allclose(lower.ebar[0], -0.5 * lower.e[0])


def test_error_terms_requirements():
    mix = MixtureSpec.pure(2, [1.0])
    flat = scalar_path((0.0, 0.5, 0.5), (0.2, 0.6, 1.0))
    with pytest.raises(NonStrictWeights):
        error_terms("upper", flat, mix)
    # a species with zero quartic weight makes xi'' vanish on its row
    no_beta2 = MixtureSpec(n=2, terms=((4, [1.0, 0.0]),), h=[0.0, 0.0])
    rng = np.random.default_rng(4)
    q2 = random_correlation(rng, 2)
    pd_path = random_feasible_path(rng, q2, 2)
    with pytest.raises(ZeroDivisor):
        error_terms("lower", pd_path, no_beta2)
    # upper side has no entrywise division, so the same path is fine
    error_terms("upper", pd_path, no_beta2)


def test_error_terms_name_a_singular_increment():
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 0.5), (0.5, 0.5))  # Q_2 - Q_1 = 0
    with pytest.raises(DegenerateIncrement) as info:
        error_terms("upper", path, mix)
    assert info.value.level == 1


def test_chain_and_error_stacks_are_read_only():
    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 0.5), (0.25, 1.0))
    err = error_terms("upper", path, mix)
    for stack in (lambda_sequence(mat(3.0), path, mix), d_sequence(path), err.e, err.ebar):
        with pytest.raises(ValueError):
            stack[0] = 0.0


def test_ebar_telescopes():
    rng = np.random.default_rng(13)
    q = random_correlation(rng, 2)
    mix = random_mixture(rng, 2)
    path = random_feasible_path(rng, q, 4)
    for side in ("lower", "upper"):
        err = error_terms(side, path, mix)
        for k in range(1, path.r - 1):
            np.testing.assert_allclose(
                err.ebar[k - 1] - err.ebar[k],
                path.x[k] * (err.e[k] - err.e[k - 1]),
                atol=1e-10,
            )


def test_eval_approx_eps_zero_matches_base():
    rng = np.random.default_rng(14)
    for r in (2, 3, 4):
        q = random_correlation(rng, 2)
        mix = random_mixture(rng, 2)
        path = random_feasible_path(rng, q, r)
        assert corrected_form("lower", path, mix, 0.0)[0] == pytest.approx(
            eval_cs(path, mix), rel=1e-12
        )
        lam = construct_multiplier(path, mix, 0.0)
        assert corrected_form("upper", path, mix, 0.0, lam=lam)[0] == pytest.approx(
            eval_parisi(lam, path, mix), rel=1e-12
        )


@pytest.mark.parametrize("r,x", [(2, (0.0, 1.0)), (3, (0.0, 0.4, 1.0))])
def test_eval_approx_identities_at_critical_points(r, x):
    rng = np.random.default_rng(15)
    q = random_correlation(rng, 2)
    mix = MixtureSpec(n=2, terms=((2, np.array([0.5, 0.35])),), h=np.array([0.15, 0.0]))
    opts = SolveOptions(grad_tol=1e-10)
    eps = 1e-2
    res = minimize_fixed("parisi", mix, q, r, x, eps, opts)
    assert res.converged
    lhs = eval_perturbed("parisi", eps, res.path, mix, lam=res.lam)
    rhs = corrected_form("lower", res.path, mix, eps)[0]
    assert lhs == pytest.approx(rhs, abs=1e-7)

    res2 = minimize_fixed("cs", mix, q, r, x, eps, opts)
    assert res2.converged
    lhs2 = eval_perturbed("cs", eps, res2.path, mix)
    rhs2 = corrected_form("upper", res2.path, mix, eps)[0]
    assert lhs2 == pytest.approx(rhs2, abs=1e-7)


def test_eval_approx_needs_last_weight_one():
    # below x_{r-1} = 1 the lower side paired log|D_{r-1}| with 1/x_{r-1}
    # where the multiplier-free form has log|Q - Q_{r-1}|: on this path at
    # eps = 0 it read -0.10000 against eval_cs 0.40953, off by exactly
    # n log(x_{r-1}) / (2 x_{r-1}), and no identity holds there
    from spinvar.variation import bound_check, critical_residual

    q = random_correlation(np.random.default_rng(15), 2)
    mix = MixtureSpec(n=2, terms=((2, np.array([0.5, 0.35])),), h=np.array([0.15, 0.0]))
    path = DiscretePath((0.0, 0.4, 0.7), (0.3 * q, 0.6 * q, q))
    lam = construct_multiplier(path, mix, 0.0)
    for eps in (0.0, 1e-2):
        for side in ("lower", "upper"):
            with pytest.raises(ValidationError):
                corrected_form(side, path, mix, eps, lam=lam)[0]
            with pytest.raises(ValidationError):
                critical_residual(side, path, mix, eps, lam=lam)
            with pytest.raises(ValidationError):
                bound_check(side, path, mix, eps, lam=lam)


def test_level_merge_invariance():
    rng = np.random.default_rng(16)
    mix = random_mixture(rng, 2)
    q = random_correlation(rng, 2)
    path = random_feasible_path(rng, q, 3)
    lam = symmetrize(rng.normal(size=(2, 2))) + 8 * np.eye(2)
    k = 2
    dup_x = path.x[:k] + (path.x[k],) + path.x[k:]
    dup_q = np.insert(path.qs, k - 1, path.qs[k - 1], axis=0)
    dup = DiscretePath(dup_x, dup_q)
    assert eval_parisi(lam, dup, mix) == pytest.approx(eval_parisi(lam, path, mix), abs=1e-12)
    assert eval_cs(dup, mix) == pytest.approx(eval_cs(path, mix), abs=1e-12)


def test_cs_needs_unit_top_weight():
    # below x_{r-1} = 1 the multiplier-free expression is not the CS
    # functional: at x = (0, 0.8), pure p = 2, beta = 1, a continuation
    # converged to 0.39957, under the true minimum 0.49093
    mix = MixtureSpec.pure(2, [1.0])
    for x in ((0.0, 0.0), (0.0, 0.5)):
        with pytest.raises(ValidationError, match=r"needs x_\{r-1\} = 1"):
            eval_cs(scalar_path(x, (0.25, 1.0)), mix)
    with pytest.raises(ValidationError, match=r"needs x_\{r-1\} = 1"):
        continuation("cs", mix, np.eye(1), 2, (0.0, 0.8), SolveOptions())
    with pytest.raises(InfeasiblePath, match="r >= 2"):
        eval_cs(DiscretePath((0.0,), (np.eye(1),)), mix)
    # the multiplier form keeps x_{r-1} < 1, where its value is still an upper bound
    assert np.isfinite(eval_parisi(mat(3.0), scalar_path((0.0, 0.5), (0.25, 1.0)), mix))


def test_value_and_representers_raise_the_same_error():
    # D_1 = 0.5 (0.3 - 2.3) + (1 - 0.3) = -0.3 while D_2 = 0.7 clears its
    # floor, so the tail chain fails: one point, one error class
    from spinvar.variation import grad_cs

    mix = MixtureSpec.pure(2, [1.0])
    path = scalar_path((0.0, 0.5, 1.0), (2.3, 0.3, 1.0))
    for eps in (0.0, 1e-3):
        with pytest.raises(InfeasiblePath) as value_error:
            eval_perturbed("cs", eps, path, mix)
        with pytest.raises(InfeasiblePath) as grad_error:
            grad_cs(path, mix, eps)
        assert type(grad_error.value) is type(value_error.value)


@pytest.mark.parametrize(
    "x, qs",
    [
        ((0.0, 0.5, 1.5), (0.3, 0.6, 1.0)),
        ((0.0, 0.7, 0.3, 1.0), (0.2, 0.4, 0.6, 1.0)),
        ((0.0, math.nan, 1.0), (0.3, 0.6, 1.0)),
        ((0.3, 1.0), (0.5, 1.0)),
    ],
    ids=["above-one", "decreasing", "nan", "x0-nonzero"],
)
def test_weights_must_be_an_order_parameter(x, qs):
    # each used to be solved or evaluated: both forms converged at
    # (0, 0.5, 1.5), NaN weights gave a NaN value and x_0 = 0.3 gave a value
    mix = MixtureSpec.pure(2, [1.0])
    named = repr([float(v) for v in x])
    for kind in ("parisi", "cs"):
        with pytest.raises(ValidationError, match=r"0 = x_0 <= \.\.\. <= x_\{r-1\} <= 1") as exc:
            minimize_fixed(kind, mix, mat(1.0), len(x), x, 1e-5, SolveOptions())
        assert named in str(exc.value)
    with pytest.raises(ValidationError):
        eval_cs(scalar_path(x, qs), mix)
