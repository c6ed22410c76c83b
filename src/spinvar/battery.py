"""Named identity / inequality checks runnable as one battery.

Each check returns a :class:`CheckResult` with a worst-case margin, so the
``verify`` command can print one pass/fail line per named property.  Every
check but lipschitz-modulus (one probe against its bound) yields one margin
per checked instance to :func:`_judge`, which keeps the worst and decides,
so a NaN margin fails its check.  The random instances are seeded and
deterministic.
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
    return DiscretePath(x, [*np.cumsum(incs[:-1], axis=0), matcore.symmetrize(constraint)])


def _judge(name, margins, passes, worst=np.min, detail="") -> CheckResult:
    """The one verdict of a check.  ``margins`` holds one entry per checked
    instance, a number or a sequence of numbers; ``worst`` (``np.min`` or
    ``np.max``) reduces every number of every instance, so a NaN anywhere
    makes the worst margin NaN, and a NaN worst fails the check whatever
    ``passes`` says of it.  With no instance the worst margin is +inf."""
    margins = [np.ravel(m) for m in margins]
    value = float(worst(np.concatenate(margins))) if margins else np.inf
    return CheckResult(name, bool(passes(value)) and not np.isnan(value), len(margins), value,
                       detail)


def _draws(seed, count, margin):
    """``count`` margins of seeded draws: ``margin(rng)`` draws one instance
    from the check's one generator and returns its margin, or None to reject
    the draw, which is then drawn again."""
    rng = np.random.default_rng(seed)
    done = 0
    while done < count:
        value = margin(rng)
        if value is not None:
            done += 1
            yield value


def check_logdet_concavity(seed=0) -> CheckResult:
    def margin(rng):
        n = int(rng.integers(1, 5))
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        c = b - a  # a + t c = (1-t) a + t b stays PD on [0, 1]
        # the tangent at a: d/dt log|a + t c| = tr(a^-1 c)
        lhs = matcore.chol_logdet(a) + matcore.frobenius(matcore.sym_inverse(a), c)
        rhs = matcore.chol_logdet(a + c)
        return lhs - rhs

    return _judge("logdet-concavity", _draws(seed, 200, margin), lambda w: w >= -1e-10)


def check_mixture_convexity(seed=1) -> CheckResult:
    def margin(rng):
        n = int(rng.integers(1, 5))
        mix = random_mixture(rng, n)
        a = matcore.symmetrize(rng.uniform(-1, 1, size=(n, n)))
        c = matcore.symmetrize(rng.uniform(-1, 1, size=(n, n)))
        lhs = float(np.sum(mix.xi(a + c)))
        rhs = float(np.sum(mix.xi(a))) + matcore.frobenius(mix.xi_prime(a), c)
        return lhs - rhs

    return _judge("mixture-sum-convexity", _draws(seed, 200, margin), lambda w: w >= -1e-10)


def check_amgm_determinant(seed=2) -> CheckResult:
    def margin(rng):
        n = int(rng.integers(1, 6))
        a = random_spd(rng, n)
        bound = n * np.log(np.trace(a) / n)
        return bound - matcore.chol_logdet(a)

    return _judge("amgm-determinant", _draws(seed, 200, margin), lambda w: w >= -1e-10)


def check_trace_positivity(seed=3) -> CheckResult:
    def margin(rng):
        n = int(rng.integers(1, 6))
        a = random_spd(rng, n, scale=0.0)
        c = random_spd(rng, n, scale=0.0)
        return matcore.frobenius(a, c)

    return _judge("psd-trace-positivity", _draws(seed, 200, margin), lambda w: w >= -1e-10)


def check_perturbation_radius(seed=4) -> CheckResult:
    def margin(rng):
        n = int(rng.integers(1, 6))
        a = random_spd(rng, n)
        c = matcore.symmetrize(rng.normal(size=(n, n)))
        # by the Rayleigh quotient, a + eps c stays PD for eps < lam_min(a) / |c|_2
        scale = float(np.linalg.norm(c, 2))
        if scale == 0.0:
            return np.inf  # no direction to perturb along: nothing to bound
        radius = matcore.spectral_floor(a) / scale
        return matcore.spectral_floor(a + 0.99 * radius * c)

    return _judge("perturbation-radius", _draws(seed, 200, margin), lambda w: w > 0.0)


def check_mixture_gap_pd(seed=5) -> CheckResult:
    def margin(rng):
        n = int(rng.integers(1, 4))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, r=2)
        lo, hi = path.level(1), path.level(2)  # PD pair with a PD gap by construction
        return matcore.spectral_floor(mix.xi_prime(hi) - mix.xi_prime(lo))

    return _judge("mixture-derivative-gap-pd", _draws(seed, 200, margin), lambda w: w > 0.0)


def check_gradient_oracle(kind="parisi", seed=6) -> CheckResult:
    def margin(rng):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 4))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        # increments well away from singular: each finite-difference probe stays monotone
        path = random_feasible_path(rng, q, r, floor=0.2)
        eps = float(rng.choice([0.0, 1e-2]))
        direction = matcore.symmetrize(rng.uniform(-1, 1, size=(n, n)))
        # the point's blocks: Q_1..Q_{r-1}, then the multiplier of the multiplier form
        blocks = path.qs[:-1]
        if kind == "parisi":
            lam = matcore.sym_inverse(q) + mix.xi_prime(q) + random_spd(rng, n, 0.5)
            blocks = np.concatenate([blocks, [lam]])
            bundle = variation.grad_parisi(lam, path, mix, eps)
        else:
            bundle = variation.grad_cs(path, mix, eps)
        block = int(rng.integers(0, len(blocks)))
        analytic = matcore.frobenius([*bundle.d_q, bundle.d_lambda][block], direction)

        def f(t):
            moved = blocks.copy()
            moved[block] += 2 * t * direction
            lam = moved[-1] if kind == "parisi" else None
            return functionals.eval_perturbed(kind, eps, path.with_levels(moved[: r - 1]), mix, lam=lam)

        if abs(analytic) < 1e-2:
            return None  # keep the oracle well-conditioned
        try:
            fd = variation.fd_directional_backtracked(f, 1e-5)
        except InfeasibleStep:
            return None
        return abs(analytic - fd) / max(abs(analytic), abs(fd))

    return _judge(f"gradient-oracle-{kind}", _draws(seed, 50, margin), lambda w: w <= 1e-6, np.max)


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
    def ratios(mix, side, res):
        report = variation.critical_residual(side, res.path, mix, res.eps, lam=res.lam)
        scale = 1e-5 * (1.0 + abs(report.value_perturbed))
        return report.max_residual / 1e-6, report.identity_gap / scale

    return _judge("critical-point-identities", (ratios(*c) for c in _critical_points(seed)),
                  lambda w: w <= 1.0, np.max,
                  detail="(worst is max residual/1e-6 and gap/band ratio)")


def check_tilde_bounds(seed=8) -> CheckResult:
    slacks = (variation.bound_check(side, res.path, mix, res.eps, lam=res.lam).slack
              for mix, side, res in _critical_points(seed))
    return _judge("tilde-bounds", slacks, lambda w: w >= -1e-9)


def check_roundtrip(seed=9) -> CheckResult:
    def deviations(rng):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 5))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, r)
        discrete = functionals.eval_cs(path, mix)
        cdf, phi = continuous.from_discrete(path)
        cont = continuous.eval_cs_continuous(cdf, phi, mix)
        t_hat = float(rng.uniform(cdf.t_x, 0.5 * (cdf.t_x + n)))
        shifted = continuous.eval_cs_continuous(cdf, phi, mix, top=t_hat)
        return abs(discrete - cont), abs(shifted - cont)

    return _judge("discrete-continuous-roundtrip", _draws(seed, 100, deviations),
                  lambda w: w <= 1e-10, np.max)


def check_hatphi_dominated(seed=10) -> CheckResult:
    def floors(rng):
        n = int(rng.integers(1, 4))
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, int(rng.integers(2, 5)))
        cdf, phi = continuous.from_discrete(path)
        ts = np.linspace(0.0, float(n) * 0.999, 7)
        gaps = (q - phi.value(ts)) - continuous.hat_phi(cdf, phi, ts)
        return tuple(map(matcore.spectral_floor, gaps))

    return _judge("tail-dominated-by-gap", _draws(seed, 100, floors), lambda w: w >= -1e-10)


def check_temperature_continuity(seed=11) -> CheckResult:
    mix1 = MixtureSpec.pure(2, [1.0])
    mix2 = MixtureSpec.pure(2, [1.1])
    delta = mix1.l1_delta(mix2)
    q = np.array([[1.0]])

    def diff(rng):
        path = random_feasible_path(rng, q, int(rng.integers(2, 5)))
        return abs(functionals.eval_cs(path, mix1) - functionals.eval_cs(path, mix2))

    return _judge("temperature-continuity", _draws(seed, 50, diff), lambda w: w <= 2 * delta,
                  np.max, detail=f"(band 2*delta = {2 * delta:.3f})")


def check_level_merge(seed=12) -> CheckResult:
    def deviations(rng):
        n = int(rng.integers(1, 4))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, 3)
        lam = matcore.sym_inverse(q) + mix.xi_prime(q) + random_spd(rng, n, 1.0)
        k = int(rng.integers(1, path.r))
        dup_x = path.x[:k] + (path.x[k],) + path.x[k:]
        dup_q = np.insert(path.qs, k - 1, path.qs[k - 1], axis=0)
        dup = DiscretePath(dup_x, dup_q)
        merged = merge_duplicates(dup)
        return (
            abs(functionals.eval_parisi(lam, dup, mix) - functionals.eval_parisi(lam, path, mix)),
            abs(functionals.eval_cs(dup, mix) - functionals.eval_cs(path, mix)),
            abs(functionals.eval_cs(merged, mix) - functionals.eval_cs(path, mix)),
        )

    return _judge("level-merge-invariance", _draws(seed, 50, deviations), lambda w: w <= 1e-12,
                  np.max)


def check_support_condition(seed=16) -> CheckResult:
    opts = optimize.SolveOptions()
    rng = np.random.default_rng(seed)
    cases = [
        (MixtureSpec.pure(2, [0.3]), np.array([[1.0]])),
        (MixtureSpec.pure(2, [1.0]), np.array([[1.0]])),
        (MixtureSpec(n=2, terms=((2, np.array([0.5, 0.4])),), h=np.zeros(2)),
         random_correlation(rng, 2)),
    ]

    def conditions(mix, q):
        cdf, phi = continuous.from_discrete(optimize.search(mix, q, opts).best.path)
        return continuous.support_check(cdf, phi, mix).condition

    # one instance per atom of the searched answers
    return _judge("support-condition", (c for case in cases for c in conditions(*case)),
                  lambda w: w >= 0.0)


def check_lipschitz_bound(seed=17) -> CheckResult:
    mix = MixtureSpec.pure(2, [0.4])
    q = np.array([[1.0]])
    box = continuous.feasible_box(mix, q)
    pairs = []
    phi = continuous.MatrixPath((0.0, 1.0), [np.zeros((1, 1)), np.ones((1, 1))])
    for q_hat in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        pairs.append((continuous.ContinuousCdf((0.0, q_hat), (0.0, 1.0)), phi))
    empirical, bound = continuous.lipschitz_probe(mix, box, pairs)
    return CheckResult("lipschitz-modulus", 0.0 < empirical <= bound, len(pairs), bound - empirical,
                       detail=f"(empirical {empirical:.3f} vs bound {bound:.1f})")


def check_compactness_box(seed=13) -> CheckResult:
    opts = optimize.SolveOptions()

    def slacks(beta):
        mix = MixtureSpec.pure(2, [beta])
        q = np.array([[1.0]])
        box = continuous.feasible_box(mix, q)
        res = optimize.search(mix, q, opts)
        top = res.best.path.level(res.best.path.r - 1)
        t_top = float(np.trace(top))
        inv_gap = matcore.sym_inverse(q - top)
        return box.T - t_top, box.L - float(np.max(np.abs(inv_gap)))

    return _judge("compactness-box", map(slacks, (0.3, 1.0)), lambda w: w >= 0.0)


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

    def excess(h, equal):
        mix = MixtureSpec(n=2, terms=((2, np.array([0.3, 0.5])),), h=np.array(h))
        full = optimize.search(mix, q, opts).value
        parts = sum(optimize.search(mix.species(j), np.eye(1), opts).value for j in range(2))
        return abs(full - parts) if equal else full - parts

    return _judge("diagonal-separability",
                  (excess(h, equal) for h, equal in (((0.2, 0.0), True), ((0.2, 0.1), False))),
                  lambda w: w <= 1e-6, np.max)


def check_continuation_monotone(seed=15) -> CheckResult:
    mix = MixtureSpec.pure(2, [1.0])
    q = np.array([[1.0]])
    # a six-stage schedule: the default two stages make a single pair
    opts = optimize.SolveOptions(eps_schedule=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6))

    def drops(kind):
        cont = optimize.continuation(kind, mix, q, 2, (0.0, 1.0), opts)
        bases = [s.value_base for s in cont.stages]
        return [a - b for a, b in zip(bases, bases[1:])]

    return _judge("continuation-monotonicity", map(drops, ("parisi", "cs")), lambda w: w >= -1e-9)


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
