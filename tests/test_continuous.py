import math

import numpy as np
import pytest

from spinvar.battery import random_correlation, random_feasible_path, random_mixture
from spinvar.continuous import (
    ContinuousCdf,
    MatrixPath,
    cdf_l1_distance,
    eval_cs_continuous,
    feasible_box,
    from_discrete,
    hat_phi,
    lipschitz_bound,
    lipschitz_probe,
    path_sup_distance,
    support_check,
)
from spinvar.errors import DegenerateTrace, ValidationError
from spinvar.functionals import eval_cs
from spinvar.matcore import MixtureSpec, spectral_floor, sym_inverse
from spinvar.path import DiscretePath


def rs_pair(q_hat):
    """n = 1 straight-line path with a single jump at q_hat."""
    phi = MatrixPath((0.0, 1.0), [np.zeros((1, 1)), np.ones((1, 1))])
    if q_hat > 0:
        return ContinuousCdf((0.0, q_hat), (0.0, 1.0)), phi
    return ContinuousCdf((0.0,), (1.0,)), phi


def test_cdf_basics():
    cdf = ContinuousCdf((0.0, 0.3, 0.7), (0.0, 0.5, 1.0))
    assert cdf.value(0.0) == 0.0
    assert cdf.value(0.3) == 0.5
    assert cdf.value(0.69) == 0.5
    assert cdf.value(0.9) == 1.0
    assert cdf.t_x == 0.7
    t, mass = cdf.atoms()
    assert t.tolist() == [0.3, 0.7] and mass.tolist() == [0.5, 0.5]
    with pytest.raises(ValidationError):
        ContinuousCdf((0.0, 0.3), (0.5, 0.4))  # decreasing values
    with pytest.raises(ValidationError):
        ContinuousCdf((0.0,), (0.5,))  # never reaches 1


def test_matrix_path_validation():
    with pytest.raises(ValidationError):
        MatrixPath((0.0, 1.0), [np.zeros((1, 1)), np.array([[0.5]])])  # trace mismatch
    with pytest.raises(ValidationError):
        MatrixPath((0.0, 1.0), [np.array([[0.1]]), np.array([[1.0]])])  # Phi(0) != 0


def test_hat_phi_examples():
    cdf, phi = rs_pair(0.4)
    np.testing.assert_allclose(hat_phi(cdf, phi, 1.0), np.zeros((1, 1)), atol=1e-15)
    # x jumps 0 -> 1 at q_hat, so hat(0) = 1 - q_hat
    assert hat_phi(cdf, phi, 0.0)[0, 0] == pytest.approx(0.6)


def test_hat_phi_matches_tail_chain_at_knots():
    from spinvar.path import d_sequence

    rng = np.random.default_rng(31)
    q = random_correlation(rng, 3)
    path = random_feasible_path(rng, q, 4)
    cdf, phi = from_discrete(path)
    dseq = d_sequence(path)
    for p in range(1, path.r):
        t_p = float(np.trace(path.level(p)))
        np.testing.assert_allclose(hat_phi(cdf, phi, t_p), dseq[p - 1], atol=1e-12)


def test_eval_continuous_rs_value():
    mix = MixtureSpec.pure(2, [0.3])
    cdf, phi = rs_pair(0.0)
    assert eval_cs_continuous(cdf, phi, mix) == pytest.approx(0.045, abs=1e-14)


def test_quadrature_oracle_vs_closed_forms():
    # adaptive quadrature of the integrands agrees with the segment-exact value
    from scipy.integrate import quad

    rng = np.random.default_rng(32)
    mix = random_mixture(rng, 2)
    q = random_correlation(rng, 2)
    path = random_feasible_path(rng, q, 3)
    cdf, phi = from_discrete(path)
    t_x = cdf.t_x

    def slope(t):
        """Phi' on the segment [t_a, t_b) that holds t: (M_b - M_a) / (t_b - t_a)."""
        i = min(np.searchsorted(phi.t, t, side="right") - 1, len(phi.t) - 2)
        return (phi.phi[i + 1] - phi.phi[i]) / (phi.t[i + 1] - phi.t[i])

    def mixture_part(t):
        return cdf.value(t) * (
            np.tensordot(mix.xi_prime(phi.value(t)) + mix.outer_field(), slope(t))
        )

    def tail_part(t):
        return float(np.tensordot(sym_inverse(hat_phi(cdf, phi, t)), slope(t)))

    segs = sorted({*phi.t.tolist(), *cdf.t.tolist()})
    total = 0.0
    for a, b in zip(segs, segs[1:]):
        total += quad(mixture_part, a, b, limit=200)[0]
    for a, b in zip(segs, segs[1:]):
        if a >= t_x:
            break
        total += quad(tail_part, a, min(b, t_x), limit=200)[0]
    from spinvar.matcore import chol_logdet

    total += chol_logdet(phi.end - phi.value(t_x))
    assert eval_cs_continuous(cdf, phi, mix) == pytest.approx(0.5 * total, abs=1e-9)


def test_roundtrip_and_top_invariance():
    rng = np.random.default_rng(33)
    worst_rt = 0.0
    worst_tx = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 5))
        mix = random_mixture(rng, n)
        q = random_correlation(rng, n)
        path = random_feasible_path(rng, q, r)
        cdf, phi = from_discrete(path)
        value_c = eval_cs_continuous(cdf, phi, mix)
        worst_rt = max(worst_rt, abs(value_c - eval_cs(path, mix)))
        t_hat = float(rng.uniform(cdf.t_x, 0.5 * (cdf.t_x + n)))
        worst_tx = max(worst_tx, abs(eval_cs_continuous(cdf, phi, mix, top=t_hat) - value_c))
    assert worst_rt <= 1e-10
    assert worst_tx <= 1e-10


def test_from_discrete_scalar_is_identity_line():
    path = DiscretePath((0.0, 1.0), (np.array([[0.3]]), np.array([[1.0]])))
    cdf, phi = from_discrete(path)
    for t in (0.0, 0.3, 0.77, 1.0):
        assert phi.value(t)[0, 0] == pytest.approx(t)
    assert cdf.t_x == pytest.approx(0.3)


def test_from_discrete_degenerate_trace():
    a = np.array([[0.3, 0.0], [0.0, 0.1]])
    b = np.array([[0.1, 0.0], [0.0, 0.3]])  # same trace, different matrix
    q = np.eye(2)
    path = DiscretePath((0.0, 0.5, 1.0), (a, b, q))
    with pytest.raises(DegenerateTrace):
        from_discrete(path)


def test_from_discrete_merges_duplicates():
    a = np.array([[0.3, 0.0], [0.0, 0.1]])
    q = np.eye(2)
    path = DiscretePath((0.0, 0.5, 1.0), (a, a, q))
    cdf, phi = from_discrete(path)
    assert len(phi.t) == len(phi.phi) == 3  # 0, tr(a), n
    assert cdf.t_x == pytest.approx(float(np.trace(a)))


def test_from_discrete_zero_level_becomes_atom_at_origin():
    # the classical single-jump shape with the jump at the origin
    mix = MixtureSpec.pure(2, [0.3])
    path = DiscretePath((0.0, 1.0), (np.zeros((1, 1)), np.ones((1, 1))))
    cdf, phi = from_discrete(path)
    assert cdf.t.tolist() == [0.0] and cdf.v.tolist() == [1.0]
    assert cdf.t_x == 0.0
    assert eval_cs_continuous(cdf, phi, mix) == pytest.approx(eval_cs(path, mix), abs=1e-14)

    # an interior weight on a zero level keeps its mass at the origin
    q = np.eye(2)
    mid = 0.4 * np.eye(2)
    path2 = DiscretePath((0.0, 0.5, 1.0), (np.zeros((2, 2)), mid, q))
    mix2 = MixtureSpec(n=2, terms=((2, np.array([0.4, 0.3])),), h=np.array([0.1, 0.0]))
    cdf2, phi2 = from_discrete(path2)
    assert cdf2.value(0.0) == 0.5
    t, mass = cdf2.atoms()
    assert (t[0], mass[0]) == (0.0, 0.5)
    assert eval_cs_continuous(cdf2, phi2, mix2) == pytest.approx(eval_cs(path2, mix2), abs=1e-12)


def test_feasible_box_values():
    mix = MixtureSpec.pure(2, [1.0])
    box = feasible_box(mix, np.array([[1.0]]))
    assert box.T == pytest.approx(1 - math.exp(-3.0), abs=1e-12)
    assert box.L == pytest.approx(math.exp(3.0), abs=1e-9)
    # mixture and field zero: exponent is n
    empty = MixtureSpec(n=2, terms=(), h=np.zeros(2))
    box2 = feasible_box(empty, np.eye(2))
    assert box2.T == pytest.approx(2 - math.exp(-2.0) / math.sqrt(2.0), abs=1e-12)
    # increasing the weights grows both constants
    bigger = feasible_box(MixtureSpec.pure(2, [1.2]), np.array([[1.0]]))
    assert bigger.T > box.T and bigger.L > box.L


def test_support_check_rs():
    mix = MixtureSpec.pure(2, [0.3])
    cdf, phi = rs_pair(0.0)
    report = support_check(cdf, phi, mix)
    assert len(report.t) == 1
    assert report.t[0] == 0.0
    assert report.condition[0] == pytest.approx(2 * 0.09 + 1.0, abs=1e-12)
    assert not report.flagged[0]


def test_support_check_flags_deep_atoms():
    mix = MixtureSpec.pure(2, [0.3])
    # an atom close to the top where |Q - Phi(t)| is tiny violates the bound
    threshold = math.exp(-(2 * 0.09 + 1.0))
    t_bad = 1.0 - 0.5 * threshold
    cdf = ContinuousCdf((0.0, t_bad), (0.0, 1.0))
    phi = MatrixPath((0.0, 1.0), [np.zeros((1, 1)), np.ones((1, 1))])
    report = support_check(cdf, phi, mix)
    assert report.flagged.any()


def test_support_check_clean_at_minimizer():
    from spinvar.optimize import SolveOptions, search

    rng = np.random.default_rng(35)
    cases = [
        (MixtureSpec.pure(2, [1.0]), np.array([[1.0]])),
        (
            MixtureSpec(n=2, terms=((2, np.array([0.5, 0.4])),), h=np.array([0.1, 0.0])),
            random_correlation(rng, 2),
        ),
    ]
    for mix, q in cases:
        res = search(mix, q, SolveOptions())
        cdf, phi = from_discrete(res.best.path)
        report = support_check(cdf, phi, mix)
        assert not report.flagged.any()


def test_tail_dominated_by_gap():
    rng = np.random.default_rng(34)
    q = random_correlation(rng, 2)
    path = random_feasible_path(rng, q, 3)
    cdf, phi = from_discrete(path)
    for t in np.linspace(0.0, 1.9, 9):
        gap = (q - phi.value(t)) - hat_phi(cdf, phi, t)
        assert spectral_floor(gap) >= -1e-12


def test_norms():
    x1 = ContinuousCdf((0.0, 0.5), (0.0, 1.0))
    x2 = ContinuousCdf((0.0, 0.75), (0.0, 1.0))
    assert cdf_l1_distance(x1, x2, 1.0) == pytest.approx(0.25)
    p1 = MatrixPath((0.0, 1.0), [np.zeros((1, 1)), np.ones((1, 1))])
    assert path_sup_distance(p1, p1) == 0.0


def test_lipschitz_probe_under_bound():
    mix = MixtureSpec.pure(2, [0.4])
    q = np.array([[1.0]])
    box = feasible_box(mix, q)
    pairs = []
    for q_hat in (0.05, 0.1, 0.15, 0.2, 0.25):
        pairs.append(rs_pair(q_hat))
    empirical, bound = lipschitz_probe(mix, box, pairs)
    assert 0 < empirical <= bound
    assert bound == pytest.approx(lipschitz_bound(mix, box))


def test_lipschitz_first_order_scaling():
    mix = MixtureSpec.pure(2, [0.4])
    base = 0.2
    values = {}
    for d in (0.02, 0.002):
        cdf1, phi = rs_pair(base)
        cdf2, _ = rs_pair(base + d)
        values[d] = abs(eval_cs_continuous(cdf1, phi, mix) - eval_cs_continuous(cdf2, phi, mix))
    ratio = values[0.02] / values[0.002]
    assert ratio == pytest.approx(10.0, rel=0.15)


def test_lookups_take_arrays():
    rng = np.random.default_rng(36)
    q = random_correlation(rng, 2)
    cdf, phi = from_discrete(random_feasible_path(rng, q, 4))
    ts = np.array([-0.5, 0.0, 0.3, 1.1, 2.0, 2.5] + [*phi.t, *cdf.t])
    assert isinstance(cdf.value(0.3), float)
    np.testing.assert_array_equal(cdf.value(ts), [cdf.value(t) for t in ts])
    np.testing.assert_array_equal(phi.value(ts), [phi.value(t) for t in ts])
    grid = np.stack([ts, ts[::-1]])
    assert hat_phi(cdf, phi, grid).shape == grid.shape + (2, 2)
    np.testing.assert_array_equal(
        hat_phi(cdf, phi, grid), [[hat_phi(cdf, phi, t) for t in row] for row in grid]
    )


# a string, a bool (once read as t = 1) and non-finite numbers, each in a
# knot that is otherwise valid
BAD_KNOTS = [("0.5", 1.0), (True, 1.0), (math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0)]
BAD_KNOT_IDS = ["string", "bool", "nan-position", "nan-value", "inf-position"]


@pytest.mark.parametrize("t, v", BAD_KNOTS, ids=BAD_KNOT_IDS)
def test_cdf_knots_must_be_finite_reals(t, v):
    # each used to be read with float() and accepted; v is the first value
    with pytest.raises(ValidationError, match="finite reals"):
        ContinuousCdf((0.0, t), (v, 1.0))


@pytest.mark.parametrize("t, v", BAD_KNOTS, ids=BAD_KNOT_IDS)
def test_matrix_path_knots_must_be_finite_reals(t, v):
    # v is the trace the top knot's matrix carries, so only t or v is wrong
    top = np.full((1, 1), math.nan if math.isnan(v) else 0.5 if t == "0.5" else 1.0)
    with pytest.raises(ValidationError, match="finite"):
        MatrixPath((0.0, t), [np.zeros((1, 1)), top])
