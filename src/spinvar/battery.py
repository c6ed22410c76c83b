"""Named identity / inequality checks runnable as one battery.

Each check returns a :class:`CheckResult` with a worst-case margin, so the
``verify`` command can print one pass/fail line per named property.  The
random instances are seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import continuous, functionals, matcore, optimize, variation
from .errors import InfeasibleStep
from .matcore import MixtureSpec
from .path import DiscretePath, merge_duplicates


@dataclass
class CheckResult:
    name: str
    passed: bool
    checks: int
    worst: float
    detail: str = ""


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return matcore.symmetrize(a @ a.T + scale * np.eye(n))


def random_correlation(rng, n, jitter=0.3):
    """Unit-diagonal positive definite matrix with controlled conditioning."""
    a = rng.normal(size=(n, n + 2))
    s = a @ a.T + jitter * n * np.eye(n)
    d = 1.0 / np.sqrt(np.diag(s))
    return matcore.symmetrize(s * np.outer(d, d))


def random_mixture(rng, n):
    """A p = 2 term, with even odds a p = 4 term and with even odds a field."""
    beta2 = rng.uniform(0.2, 0.6, size=n)
    terms = [(2, beta2)]
    if rng.uniform() < 0.5:
        terms.append((4, rng.uniform(0.0, 0.3, size=n)))
    h = rng.uniform(-0.3, 0.3, size=n) * (rng.uniform() < 0.5)
    return MixtureSpec(n=n, terms=tuple(terms), h=h)


def random_feasible_path(rng, constraint, r, floor=0.0):
    """Monotone path with PD increments summing exactly to the constraint.

    Each increment is ``floor * I`` plus one of r random SPD draws, scaled
    by congruence so that the draws sum to Q - r * floor * I.  So every
    increment, and D_{r-1} = Q - Q_{r-1} (the weights end at
    x_{r-1} = 1), has smallest eigenvalue at least ``floor``.  No such
    path exists unless r * floor is below the constraint's smallest
    eigenvalue; then the floor is dropped."""
    n = constraint.shape[0]
    raw = [random_spd(rng, n, scale=0.5) for _ in range(r)]
    total = matcore.symmetrize(sum(raw))
    w, v = np.linalg.eigh(total)
    inv_half = v @ np.diag(w ** -0.5) @ v.T
    if floor and r * floor >= matcore.spectral_floor(constraint):
        floor = 0.0
    wq, vq = np.linalg.eigh(matcore.symmetrize(constraint) - r * floor * np.eye(n))
    half_q = vq @ np.diag(np.sqrt(wq)) @ vq.T
    incs = [matcore.symmetrize(half_q @ inv_half @ g @ inv_half @ half_q) + floor * np.eye(n)
            for g in raw]
    cuts = np.sort(rng.uniform(0.05, 0.95, size=r - 2)) if r > 2 else np.array([])
    x = (0.0,) + tuple(cuts) + (1.0,)
    return DiscretePath(x, tuple(np.cumsum(incs[:-1], axis=0)) + (matcore.symmetrize(constraint),))


def check_logdet_concavity(seed=0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        c = b - a  # a + t c = (1-t) a + t b stays PD on [0, 1]
        # the tangent at a: d/dt log|a + t c| = tr(a^-1 c)
        lhs = matcore.chol_logdet(a) + matcore.frobenius(matcore.sym_inverse(a), c)
        rhs = matcore.chol_logdet(a + c)
        worst = min(worst, lhs - rhs)
    return CheckResult("logdet-concavity", worst >= -1e-10, 200, worst)


def check_mixture_convexity(seed=1) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 5))
        mix = random_mixture(rng, n)
        a = matcore.symmetrize(rng.uniform(-1, 1, size=(n, n)))
        c = matcore.symmetrize(rng.uniform(-1, 1, size=(n, n)))
        lhs = float(np.sum(mix.xi(a + c)))
        rhs = float(np.sum(mix.xi(a))) + matcore.frobenius(mix.xi_prime(a), c)
        worst = min(worst, lhs - rhs)
    return CheckResult("mixture-sum-convexity", worst >= -1e-10, 200, worst)


def check_amgm_determinant(seed=2) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = random_spd(rng, n)
        bound = n * np.log(np.trace(a) / n)
        worst = min(worst, bound - matcore.chol_logdet(a))
    return CheckResult("amgm-determinant", worst >= -1e-10, 200, worst)


def check_trace_positivity(seed=3) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = random_spd(rng, n, scale=0.0)
        c = random_spd(rng, n, scale=0.0)
        worst = min(worst, matcore.frobenius(a, c))
    return CheckResult("psd-trace-positivity", worst >= -1e-10, 200, worst)


def check_perturbation_radius(seed=4) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = random_spd(rng, n)
        c = matcore.symmetrize(rng.normal(size=(n, n)))
        # by the Rayleigh quotient, a + eps c stays PD for eps < lam_min(a) / |c|_2
        scale = float(np.linalg.norm(c, 2))
        if scale == 0.0:
            continue
        radius = matcore.spectral_floor(a) / scale
        floor = matcore.spectral_floor(a + 0.99 * radius * c)
        worst = min(worst, floor)
    return CheckResult("perturbation-radius", worst > 0.0, 200, worst)


def check_mixture_gap_pd(seed=5) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 4))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, r=2)
        lo, hi = path.level(1), path.level(2)  # PD pair with a PD gap by construction
        gap = mix.xi_prime(hi) - mix.xi_prime(lo)
        worst = min(worst, matcore.spectral_floor(gap))
    return CheckResult("mixture-derivative-gap-pd", worst > 0.0, 200, worst)


def check_gradient_oracle(kind="parisi", seed=6) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < 50:
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 4))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        # increments well away from singular: each finite-difference probe stays monotone
        path = random_feasible_path(rng, q, r, floor=0.2)
        eps = float(rng.choice([0.0, 1e-2]))
        direction = matcore.symmetrize(rng.uniform(-1, 1, size=(n, n)))
        if kind == "parisi":
            lam = matcore.sym_inverse(q) + mix.xi_prime(q) + random_spd(rng, n, 0.5)
            bundle = variation.grad_parisi(lam, path, mix, eps)
            block = int(rng.integers(0, r))  # r-1 level blocks plus the multiplier
        else:
            lam = None
            bundle = variation.grad_cs(path, mix, eps)
            block = int(rng.integers(0, r - 1))
        if kind == "parisi" and block == r - 1:
            analytic = matcore.frobenius(bundle.d_lambda, direction)

            def f(t):
                return functionals.eval_perturbed(
                    "parisi", eps, path, mix, lam=lam + 2 * t * direction
                )

        else:
            analytic = matcore.frobenius(bundle.d_q[block], direction)

            def f(t):
                levels = path.free_levels()
                levels[block] = levels[block] + 2 * t * direction
                return functionals.eval_perturbed(
                    kind, eps, path.with_levels(levels), mix, lam=lam
                )

        if abs(analytic) < 1e-2:
            continue  # keep the oracle well-conditioned
        try:
            fd = variation.fd_directional_backtracked(f, 1e-5)
        except InfeasibleStep:
            continue
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd))
        worst = max(worst, rel)
        done += 1
    return CheckResult(f"gradient-oracle-{kind}", worst <= 1e-6, done, worst)


def _critical_points(seed):
    """The seeded n = 2, r = 2, x = (0, 1) continuation of both forms over
    eps = 1e-1, 1e-2, 1e-3: ``(mix, side, stage)`` for every stage, with
    ``side`` the identity side of the form's critical points."""
    rng = np.random.default_rng(seed)
    q = random_correlation(rng, 2)
    mix = random_mixture(rng, 2)
    opts = optimize.SolveOptions(eps_schedule=(1e-1, 1e-2, 1e-3), grad_tol=1e-10)
    for kind, side in (("parisi", "lower"), ("cs", "upper")):
        for res in optimize.continuation(kind, mix, q, 2, (0.0, 1.0), opts).stages:
            yield mix, side, res


def check_critical_points(seed=7) -> CheckResult:
    worst = 0.0
    checks = 0
    for mix, side, res in _critical_points(seed):
        report = variation.critical_residual(side, res.path, mix, res.eps, lam=res.lam)
        scale = 1e-5 * (1.0 + abs(report.value_perturbed))
        worst = max(worst, report.max_residual / 1e-6, report.identity_gap / scale)
        checks += 1
    return CheckResult("critical-point-identities", worst <= 1.0, checks, worst,
                       detail="(worst is max residual/1e-6 and gap/band ratio)")


def check_tilde_bounds(seed=8) -> CheckResult:
    worst = np.inf
    checks = 0
    for mix, side, res in _critical_points(seed):
        chk = variation.bound_check(side, res.path, mix, res.eps, lam=res.lam)
        worst = min(worst, chk.slack)
        checks += 1
    return CheckResult("tilde-bounds", worst >= -1e-9, checks, worst)


def check_roundtrip(seed=9) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 5))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, r)
        discrete = functionals.eval_cs(path, mix)
        cdf, phi = continuous.from_discrete(path)
        cont = continuous.eval_cs_continuous(cdf, phi, mix)
        worst = max(worst, abs(discrete - cont))
        t_hat = float(rng.uniform(cdf.t_x, 0.5 * (cdf.t_x + n)))
        shifted = continuous.eval_cs_continuous(cdf, phi, mix, top=t_hat)
        worst = max(worst, abs(shifted - cont))
    return CheckResult("discrete-continuous-roundtrip", worst <= 1e-10, 100, worst)


def check_hatphi_dominated(seed=10) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(100):
        n = int(rng.integers(1, 4))
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, int(rng.integers(2, 5)))
        cdf, phi = continuous.from_discrete(path)
        ts = np.linspace(0.0, float(n) * 0.999, 7)
        gaps = (q - phi.value(ts)) - continuous.hat_phi(cdf, phi, ts)
        worst = min(worst, *map(matcore.spectral_floor, gaps))
    return CheckResult("tail-dominated-by-gap", worst >= -1e-10, 100, worst)


def check_temperature_continuity(seed=11) -> CheckResult:
    rng = np.random.default_rng(seed)
    mix1 = MixtureSpec.pure(2, [1.0])
    mix2 = MixtureSpec.pure(2, [1.1])
    delta = mix1.l1_delta(mix2)
    q = np.array([[1.0]])
    worst = 0.0
    for _ in range(50):
        path = random_feasible_path(rng, q, int(rng.integers(2, 5)))
        diff = abs(functionals.eval_cs(path, mix1) - functionals.eval_cs(path, mix2))
        worst = max(worst, diff)
    return CheckResult("temperature-continuity", worst <= 2 * delta, 50, worst,
                       detail=f"(band 2*delta = {2 * delta:.3f})")


def check_level_merge(seed=12) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, 3)
        lam = matcore.sym_inverse(q) + mix.xi_prime(q) + random_spd(rng, n, 1.0)
        k = int(rng.integers(1, path.r))
        dup_x = path.x[:k] + (path.x[k],) + path.x[k:]
        dup_q = path.qs[: k - 1] + (path.qs[k - 1],) + path.qs[k - 1 :]
        dup = DiscretePath(dup_x, dup_q)
        worst = max(
            worst,
            abs(functionals.eval_parisi(lam, dup, mix) - functionals.eval_parisi(lam, path, mix)),
            abs(functionals.eval_cs(dup, mix) - functionals.eval_cs(path, mix)),
        )
        merged = merge_duplicates(dup)
        worst = max(worst, abs(functionals.eval_cs(merged, mix) - functionals.eval_cs(path, mix)))
    return CheckResult("level-merge-invariance", worst <= 1e-12, 50, worst)


def check_support_condition(seed=16) -> CheckResult:
    opts = optimize.SolveOptions()
    worst = np.inf
    atoms = 0
    rng = np.random.default_rng(seed)
    cases = [
        (MixtureSpec.pure(2, [0.3]), np.array([[1.0]])),
        (MixtureSpec.pure(2, [1.0]), np.array([[1.0]])),
        (MixtureSpec(n=2, terms=((2, np.array([0.5, 0.4])),), h=np.zeros(2)),
         random_correlation(rng, 2)),
    ]
    for mix, q in cases:
        res = optimize.search(mix, q, opts)
        cdf, phi = continuous.from_discrete(res.best.path)
        rep = continuous.support_check(cdf, phi, mix)
        for atom in rep.atoms:
            worst = min(worst, atom.condition)
            atoms += 1
    return CheckResult("support-condition", worst >= 0.0, atoms, worst)


def check_lipschitz_bound(seed=17) -> CheckResult:
    mix = MixtureSpec.pure(2, [0.4])
    q = np.array([[1.0]])
    box = continuous.feasible_box(mix, q)
    pairs = []
    phi = continuous.MatrixPath(((0.0, np.zeros((1, 1))), (1.0, np.ones((1, 1)))))
    for q_hat in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        pairs.append((continuous.ContinuousCdf(((0.0, 0.0), (q_hat, 1.0))), phi))
    empirical, bound = continuous.lipschitz_probe(mix, box, pairs)
    return CheckResult("lipschitz-modulus", 0.0 < empirical <= bound, len(pairs), bound - empirical,
                       detail=f"(empirical {empirical:.3f} vs bound {bound:.1f})")


def check_compactness_box(seed=13) -> CheckResult:
    opts = optimize.SolveOptions()
    worst = np.inf
    checks = 0
    for beta in (0.3, 1.0):
        mix = MixtureSpec.pure(2, [beta])
        q = np.array([[1.0]])
        box = continuous.feasible_box(mix, q)
        res = optimize.search(mix, q, opts)
        top = res.best.path.level(res.best.path.r - 1)
        t_top = float(np.trace(top))
        inv_gap = matcore.sym_inverse(q - top)
        worst = min(worst, box.T - t_top, box.L - float(np.max(np.abs(inv_gap))))
        checks += 1
    return CheckResult("compactness-box", worst >= 0.0, checks, worst)


def check_diagonal_separability(seed=14) -> CheckResult:
    """The full "cs" minimum against the sum of the species minima, at
    beta = (0.3, 0.5), p = 2 and Q = I.  With h = (0.2, 0), flipping species
    2 (conjugating by diag(1, -1)) fixes xi, hh^T and Q, so the minimizer is
    diagonal and the two agree.  With h = (0.2, 0.1) the diagonal paths are
    only some of the paths the full solve ranges over, so its minimum is at
    most the sum.  ``worst`` is the larger of |full - sum| on the first and
    full - sum on the second."""
    q = np.eye(2)
    opts = optimize.SolveOptions()
    worst = -np.inf
    for h, equal in (((0.2, 0.0), True), ((0.2, 0.1), False)):
        mix = MixtureSpec(n=2, terms=((2, np.array([0.3, 0.5])),), h=np.array(h))
        full = optimize.search(mix, q, opts).value
        parts = sum(optimize.search(mix.species(j), np.eye(1), opts).value for j in range(2))
        worst = max(worst, abs(full - parts) if equal else full - parts)
    return CheckResult("diagonal-separability", worst <= 1e-6, 2, worst)


def check_continuation_monotone(seed=15) -> CheckResult:
    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    # a six-stage schedule: the default two stages make a single pair
    opts = optimize.SolveOptions(eps_schedule=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    worst = np.inf
    for kind in ("parisi", "cs"):
        cont = optimize.continuation(kind, mix, q, 2, (0.0, 1.0), opts)
        bases = [s.value_base for s in cont.stages]
        for a, b in zip(bases, bases[1:]):
            worst = min(worst, a - b)
    return CheckResult("continuation-monotonicity", worst >= -1e-9, 2, worst)


ALL_CHECKS = (
    check_logdet_concavity,
    check_mixture_convexity,
    check_amgm_determinant,
    check_trace_positivity,
    check_perturbation_radius,
    check_mixture_gap_pd,
    lambda: check_gradient_oracle("parisi"),
    lambda: check_gradient_oracle("cs"),
    check_critical_points,
    check_tilde_bounds,
    check_roundtrip,
    check_hatphi_dominated,
    check_temperature_continuity,
    check_level_merge,
    check_support_condition,
    check_lipschitz_bound,
    check_compactness_box,
    check_diagonal_separability,
    check_continuation_monotone,
)


def run_battery() -> list[CheckResult]:
    return [c() for c in ALL_CHECKS]
