import math

import numpy as np
import pytest

from spinvar import functionals, variation
from spinvar.battery import (
    check_gradient_oracle,
    random_correlation,
    random_feasible_path,
    random_mixture,
)
from spinvar.errors import InfeasibleStep, ValidationError
from spinvar.functionals import (
    construct_multiplier,
    corrected_form,
    error_terms,
    eval_perturbed,
)
from spinvar.matcore import MixtureSpec, frobenius, sym_inverse, symmetrize
from spinvar.optimize import SolveOptions, minimize_fixed
from spinvar.path import DiscretePath
from spinvar.variation import (
    bound_check,
    critical_residual,
    fd_directional,
    fd_directional_backtracked,
    grad_cs,
    grad_parisi,
    tilde_transform,
)


def mat(q):
    return np.array([[float(q)]])


def _from_hex(rows):
    return np.array([[float.fromhex(v) for v in row] for row in rows])


def test_fd_directional_examples():
    assert fd_directional(lambda t: (1 + t) ** 2, 1e-5) == pytest.approx(2.0, abs=1e-10)
    from spinvar.matcore import chol_logdet

    n = 3
    f = lambda t: chol_logdet(np.eye(n) + t * np.eye(n))
    assert fd_directional(f, 1e-5) == pytest.approx(n, abs=1e-8)


def test_fd_backtracking_on_domain_exit():
    from spinvar.matcore import chol_logdet

    # log det of 0.1 I + t C leaves the domain for |t| >= 0.1
    f = lambda t: chol_logdet(0.1 * np.eye(1) + t * np.eye(1))
    with pytest.raises(InfeasibleStep):
        fd_directional(f, 0.5)
    assert np.isfinite(fd_directional_backtracked(f, 0.5))
    assert fd_directional_backtracked(f, 0.008) == pytest.approx(10.0, rel=1e-2)
    with pytest.raises(InfeasibleStep):
        fd_directional_backtracked(lambda t: chol_logdet(-np.eye(1) + t * np.eye(1)), 0.5)


def test_grad_parisi_r1_scalar_stationarity():
    beta = 0.3
    mix = MixtureSpec.pure(2, [beta])
    path = DiscretePath((0.0,), (mat(1.0),))
    lam_star = (1 + math.sqrt(1 + 8 * beta**2)) / 2  # root of L^2 - L - 2 b^2
    bundle = grad_parisi(mat(lam_star), path, mix)
    assert abs(bundle.d_lambda[0, 0]) < 1e-12
    assert len(bundle.d_q) == 0


def test_grad_cs_rs_stationarity():
    mix = MixtureSpec.pure(2, [1.0])
    q_star = 1 - 1 / math.sqrt(2)  # solves 1/(1-q)^2 = 2 beta^2
    path = DiscretePath((0.0, 1.0), (mat(q_star), mat(1.0)))
    bundle = grad_cs(path, mix, eps=0.0)
    assert abs(bundle.d_q[0][0, 0]) < 1e-12


def test_grad_parisi_eps0_scalar_form():
    # n=1 representer reduces to x_1 xi''(q) (q - (h^2 + xi'(q)) / Lambda_1^2)
    beta, h, lam, q1, x1 = 0.7, 0.3, 3.0, 0.4, 0.6
    mix = MixtureSpec(n=1, terms=((2, [beta]),), h=[h])
    path = DiscretePath((0.0, x1), (mat(q1), mat(1.0)))
    lam1 = lam - x1 * (2 * beta**2 - 2 * beta**2 * q1)
    expected = x1 * 2 * beta**2 * (q1 - (h**2 + 2 * beta**2 * q1) / lam1**2)
    bundle = grad_parisi(mat(lam), path, mix, eps=0.0)
    assert bundle.d_q[0][0, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", ["parisi", "cs"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 4))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, r, floor=0.1)
        eps = float(rng.choice([0.0, 1e-2]))
        direction = symmetrize(rng.uniform(-1, 1, (n, n)))
        lam = sym_inverse(q) + mix.xi_prime(q) + 1.5 * np.eye(n)
        if kind == "parisi":
            bundle = grad_parisi(lam, path, mix, eps)
            blocks = [("lam", bundle.d_lambda)] + [
                (i, g) for i, g in enumerate(bundle.d_q)
            ]
        else:
            bundle = grad_cs(path, mix, eps)
            blocks = [(i, g) for i, g in enumerate(bundle.d_q)]
        for block, rep in blocks:
            analytic = frobenius(rep, direction)
            if abs(analytic) < 1e-3:
                continue

            def f(t):
                if block == "lam":
                    return eval_perturbed(kind, eps, path, mix, lam=lam + 2 * t * direction)
                levels = path.free_levels()
                levels[block] = levels[block] + 2 * t * direction
                return eval_perturbed(kind, eps, path.with_levels(levels), mix, lam=lam)

            fd = fd_directional_backtracked(f, 1e-5)
            assert abs(analytic - fd) / max(abs(analytic), abs(fd)) <= 1e-6
            checked += 1


def test_gradient_oracle_resolves_ill_conditioned_draws():
    # seed 1003 draws paths with increments down to eigenvalue 0.028, where
    # the plain central difference at h = 1e-5 was off by 4.2e-6 relative
    result = check_gradient_oracle("cs", seed=1003)
    assert result.passed
    assert result.checks == 50


def test_critical_residual_positive_off_critical():
    rng = np.random.default_rng(22)
    mix = random_mixture(rng, 2)
    q = random_correlation(rng, 2)
    path = random_feasible_path(rng, q, 2, floor=0.1)
    lam = sym_inverse(q) + mix.xi_prime(q) + np.eye(2)
    report = critical_residual("lower", path, mix, 1e-2, lam=lam)
    assert report.max_residual > 1e-3
    report_u = critical_residual("upper", path, mix, 1e-2)
    assert report_u.max_residual >= 0.0
    assert report.residuals == tuple(report.residuals)


def test_certificate_values_off_critical():
    # pinned to the per-matrix evaluation of the two approximate forms that
    # the stacked kernel replaced; seed 181 draws a field and a p = 4 term,
    # and the path (written out bit for bit) keeps the lower tilde path
    # feasible at eps = 1e-2
    rng = np.random.default_rng(181)
    mix = random_mixture(rng, 2)
    q = random_correlation(rng, 2)
    path = DiscretePath(
        (0.0, float.fromhex("0x1.0d513831353aep-1"), 1.0),
        (
            _from_hex([["0x1.1588d2fec8980p-2", "0x1.c8708bb776b2ep-7"],
                       ["0x1.c8708bb776b2ep-7", "0x1.231591c51aed4p-1"]]),
            _from_hex([["0x1.501c6a9c497fep-1", "-0x1.a940b311d1e81p-4"],
                       ["-0x1.a940b311d1e81p-4", "0x1.b37081d34c008p-1"]]),
            q,
        ),
    )
    lam = sym_inverse(q) + mix.xi_prime(q) + np.eye(2)
    eps = 1e-2
    assert path.x[1] == pytest.approx(0.5260102806156419, rel=1e-15)
    assert np.all(mix.h != 0.0) and len(mix.terms) == 2

    def close(value, expected):
        assert value == pytest.approx(expected, rel=1e-12)

    close(corrected_form("lower", path, mix, eps)[0], 4.012264923724232)
    close(corrected_form("upper", path, mix, eps)[0], 2.4388139457877305)
    close(corrected_form("upper", path, mix, eps, lam=lam)[0], 0.7252397997107694)
    for side, given, residuals, gap in (
        ("lower", lam, (0.24545386704993202, 0.3622819282453323), 3.2448793839462526),
        ("upper", None, (3.127336119919109, 0.0), 1.3404022199908145),
        ("upper", lam, (1.2014817904397086, 4.328817910358817), 0.3731719260861466),
    ):
        report = critical_residual(side, path, mix, eps, lam=given)
        assert report.residuals == pytest.approx(residuals, rel=1e-12)
        close(report.identity_gap, gap)
    for side, given, lhs, rhs in (
        ("lower", None, 4.012264923724232, 2.6338158838871664),
        ("upper", None, 2.4388139457877305, 2.3764333930541865),
        ("upper", lam, 0.7252397997107694, 0.6753139386853583),
    ):
        chk = bound_check(side, path, mix, eps, lam=given)
        close(chk.lhs, lhs)
        close(chk.rhs, rhs)


@pytest.mark.parametrize(
    "kind,side", [("parisi", "lower"), ("cs", "upper")]
)
def test_critical_residual_small_at_minimizers(kind, side):
    mix = MixtureSpec(n=2, terms=((2, np.array([0.45, 0.3])),), h=np.array([0.1, 0.0]))
    rng = np.random.default_rng(23)
    q = random_correlation(rng, 2)
    opts = SolveOptions(grad_tol=1e-10)
    eps = 1e-3
    res = minimize_fixed(kind, mix, q, 2, (0.0, 1.0), eps, opts)
    assert res.converged
    report = critical_residual(side, res.path, mix, eps, lam=res.lam)
    assert report.max_residual <= 1e-8
    assert report.identity_gap <= 1e-7 * (1 + abs(report.value_perturbed))


def test_tilde_transform_identity_at_eps0():
    rng = np.random.default_rng(24)
    mix = random_mixture(rng, 2)
    q = random_correlation(rng, 2)
    path = random_feasible_path(rng, q, 3, floor=0.1)
    shifted = tilde_transform("lower", path, mix, 0.0)
    assert shifted.feasible
    for k in range(1, path.r):
        np.testing.assert_array_equal(shifted.path.level(k), path.level(k))


def test_tilde_transform_matches_corrected_chain_at_critical_point():
    from spinvar.functionals import corrected_eps, error_terms
    from spinvar.path import d_sequence

    mix = MixtureSpec(n=2, terms=((2, np.array([0.5, 0.4])),), h=np.zeros(2))
    rng = np.random.default_rng(25)
    q = random_correlation(rng, 2)
    opts = SolveOptions(grad_tol=1e-10)
    eps = 1e-2
    res = minimize_fixed("parisi", mix, q, 3, (0.0, 0.5, 1.0), eps, opts)
    assert res.converged
    shifted = tilde_transform("lower", res.path, mix, eps)
    assert shifted.feasible, shifted.violations
    err = error_terms("lower", res.path, mix)
    dseq = d_sequence(res.path)
    d_corr = [dseq[p - 1] + corrected_eps(eps) * err.ebar[p - 1] for p in range(1, res.path.r)]
    d_tilde = d_sequence(shifted.path)
    for p in range(1, res.path.r):
        np.testing.assert_allclose(d_tilde[p - 1], d_corr[p - 1], atol=1e-10)
    # the tilde multiplier's first chain element matches the inverse D head
    res_u = minimize_fixed("cs", mix, q, 3, (0.0, 0.5, 1.0), eps, opts)
    assert res_u.converged
    shifted_u = tilde_transform("upper", res_u.path, mix, eps)
    assert shifted_u.feasible
    from spinvar.path import lambda_sequence

    state = lambda_sequence(shifted_u.lam, res_u.path, mix)
    d_head = sym_inverse(d_sequence(res_u.path)[0])
    np.testing.assert_allclose(state[0], d_head, atol=1e-8)


@pytest.mark.parametrize(
    "routine, side, calls",
    [(bound_check, "upper", (2, 2)), (critical_residual, "upper", (1, 1)),
     (bound_check, "lower", (2, 3)), (critical_residual, "lower", (1, 1)),
     (tilde_transform, "upper", (1, 1))],
)
def test_certificate_call_factors_the_increments_once(monkeypatch, routine, side, calls):
    # the multiplier and the barrier come from the error terms' factorization;
    # bound_check's tilde shift takes the error terms once more and, on the
    # lower side, factors the shifted path's own increments; the upper tilde
    # shift without a multiplier (res.lam is None for "cs") builds it from
    # the error terms it already has
    mix = MixtureSpec(n=2, terms=((2, np.array([0.5, 0.4])),), h=np.zeros(2))
    q = random_correlation(np.random.default_rng(25), 2)
    kind = "parisi" if side == "lower" else "cs"
    eps = 1e-2
    res = minimize_fixed(kind, mix, q, 3, (0.0, 0.5, 1.0), eps, SolveOptions(grad_tol=1e-10))
    assert res.converged
    counts = {"error_terms": 0, "increments": 0}
    for name in counts:

        def counted(*args, name=name, wrapped=getattr(functionals, name)):
            counts[name] += 1
            return wrapped(*args)

        monkeypatch.setattr(functionals, name, counted)
        monkeypatch.setattr(variation, name, counted)
    routine(side, res.path, mix, eps, lam=res.lam)
    assert (counts["error_terms"], counts["increments"]) == calls


def test_certificate_objects_need_a_free_level():
    # E_{r-1} and Ebar_1 need a free level, so every routine built on the
    # error terms rejects r = 1 with a ValidationError, not an IndexError
    mix = MixtureSpec.pure(2, [1.0])
    path = DiscretePath((0.0,), (np.eye(1),))
    for side in ("lower", "upper"):
        with pytest.raises(ValidationError):
            error_terms(side, path, mix)
    with pytest.raises(ValidationError):
        construct_multiplier(path, mix, 0.0)
    with pytest.raises(ValidationError):
        tilde_transform("upper", path, mix, 0.0, lam=3 * np.eye(1))
    with pytest.raises(ValidationError):
        tilde_transform("lower", path, mix, 0.0)
    top = DiscretePath((1.0,), (np.eye(1),))
    for side in ("lower", "upper"):
        with pytest.raises(ValidationError):
            bound_check(side, top, mix, 0.0)


def test_tilde_transform_reports_infeasibility():
    # a generic point far from criticality can produce an infeasible shift
    mix = MixtureSpec.pure(2, [1.0])
    path = DiscretePath((0.0, 0.9, 1.0), (mat(0.05), mat(0.1), mat(1.0)))
    shifted = tilde_transform("lower", path, mix, 0.5)
    assert not shifted.feasible
    assert shifted.violations


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("kind,side", [("parisi", "lower"), ("cs", "upper")])
def test_bound_check_at_critical_points(eps, kind, side):
    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    opts = SolveOptions(grad_tol=1e-10)
    res = minimize_fixed(kind, mix, q, 2, (0.0, 1.0), eps, opts)
    assert res.converged
    chk = bound_check(side, res.path, mix, eps, lam=res.lam)
    assert chk.holds
    assert chk.slack >= -1e-9


def test_bound_check_collapses_at_eps0():
    rng = np.random.default_rng(26)
    mix = random_mixture(rng, 2)
    q = random_correlation(rng, 2)
    path = random_feasible_path(rng, q, 2, floor=0.1)
    chk = bound_check("lower", path, mix, 0.0)
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)


def test_representer_bounds_all_directions():
    # |<G, C>| <= n^2 |G|_inf |C|_inf, so a small representer bounds every
    # directional derivative
    rng = np.random.default_rng(27)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        g = symmetrize(rng.normal(size=(n, n)))
        c = symmetrize(rng.normal(size=(n, n)))
        bound = n**2 * np.max(np.abs(g)) * np.max(np.abs(c))
        assert abs(frobenius(g, c)) <= bound + 1e-12


def test_identity_chain_at_lower_critical_point():
    # perturbed multiplier value = corrected dual value >= plain dual value
    # at the shifted path >= the dual's own minimum estimate
    from spinvar.functionals import corrected_form, eval_cs
    from spinvar.optimize import search

    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    opts = SolveOptions()
    eps = 1e-2
    res = minimize_fixed("parisi", mix, q, 2, (0.0, 1.0), eps, opts)
    assert res.converged
    pert = eval_perturbed("parisi", eps, res.path, mix, lam=res.lam)
    approx = corrected_form("lower", res.path, mix, eps)[0]
    shifted = tilde_transform("lower", res.path, mix, eps)
    assert shifted.feasible
    dual_at_shift = eval_cs(shifted.path, mix)
    dual_min = search(mix, q, opts).value
    assert pert == pytest.approx(approx, abs=1e-8)
    assert approx >= dual_at_shift - 1e-9
    assert dual_at_shift >= dual_min - 1e-6


def test_tilde_multiplier_reports_any_chain_failure():
    # x_1 < 0 puts Lambda_2 = Lambda - 0.2 below Lambda_1 = Lambda + 1.4:
    # Lambda_1 clears its margin, Lambda_2 = -0.1 does not factor
    mix = MixtureSpec.pure(2, [1.0])
    path = DiscretePath((-2.0, -1.0, 1.0), tuple(np.array([[q]]) for q in (0.1, 0.9, 1.0)))
    res = tilde_transform("upper", path, mix, 0.0, lam=np.array([[0.1]]))
    assert not res.feasible
    assert "multiplier chain" in res.violations[0]
