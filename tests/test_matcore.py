import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvar.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    ValidationError,
    ZeroDivisor,
)
from spinvar.matcore import (
    MixtureSpec,
    chol_logdet,
    check_constraint,
    cholesky,
    frobenius,
    hadamard_div,
    mixture_apply,
    spectral_floor,
    stack_inverses,
    stack_logdets,
    sym_inverse,
    symmetrize,
)


def test_frobenius_examples():
    assert frobenius(np.eye(2), np.eye(2)) == 2.0
    a = np.array([[1.0, 2.0], [2.0, 3.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert frobenius(a, b) == pytest.approx(4.0)
    h = np.array([1.0, 0.0])
    assert frobenius(np.outer(h, h), a) == pytest.approx(a[0, 0])


def test_frobenius_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        frobenius(np.eye(2), np.eye(3))


def test_mixture_apply_examples():
    mix = MixtureSpec.pure(2, [1.0, 1.0])
    a = np.array([[1.0, 0.5], [0.5, 0.2]])
    np.testing.assert_allclose(mix.xi(a), a**2)
    np.testing.assert_allclose(mix.xi_prime(a), 2 * a)
    np.testing.assert_allclose(mixture_apply("theta", mix, a), a**2)
    zero = np.zeros((2, 2))
    for kind in ("xi", "xi_prime", "theta"):
        np.testing.assert_array_equal(mixture_apply(kind, mix, zero), zero)
    # xi_second of a pure quadratic term is the constant weight matrix
    np.testing.assert_allclose(mix.xi_second(zero), 2 * np.ones((2, 2)))


def test_mixture_theta_identity():
    rng = np.random.default_rng(0)
    mix = MixtureSpec(n=3, terms=((2, rng.uniform(0, 1, 3)), (4, rng.uniform(0, 1, 3))),
                      h=np.zeros(3))
    a = symmetrize(rng.uniform(-1, 1, (3, 3)))
    theta = mixture_apply("theta", mix, a)
    np.testing.assert_allclose(theta, a * mix.xi_prime(a) - mix.xi(a), atol=1e-14)


def test_xi_third_is_zero_for_a_quadratic_mixture_at_zero_entries():
    # the p = 2 term of xi''' has coefficient 0; A^(o -1) would be inf at the
    # zero off-diagonals of Q = I and at Q_0 = 0, and 0 * inf = NaN
    mix = MixtureSpec.pure(2, [1.0, 0.5, 2.0])
    stack = np.array([np.eye(3), np.zeros((3, 3)), 0.5 * np.eye(3)])
    third = mix.series(stack)[:, 4]
    assert np.all(np.isfinite(third))
    np.testing.assert_array_equal(third, np.zeros_like(stack))
    np.testing.assert_array_equal(mixture_apply("xi_third", mix, np.eye(3)), np.zeros((3, 3)))


def test_xi_third_is_the_derivative_of_xi_second():
    rng = np.random.default_rng(2)
    mix = MixtureSpec(n=3, terms=((2, rng.uniform(0, 1, 3)), (4, rng.uniform(0, 1, 3)),
                                  (6, rng.uniform(0, 1, 3))), h=np.zeros(3))
    a = symmetrize(rng.uniform(-1, 1, (3, 3)))
    c = symmetrize(rng.uniform(-1, 1, (3, 3)))
    h = 1e-6
    fd = (mix.xi_second(a + h * c) - mix.xi_second(a - h * c)) / (2 * h)
    np.testing.assert_allclose(mixture_apply("xi_third", mix, a) * c, fd, rtol=1e-7, atol=1e-8)


def test_mixture_validation():
    with pytest.raises(ValidationError):
        MixtureSpec(n=1, terms=((3, [1.0]),), h=[0.0])  # odd p
    with pytest.raises(ValidationError):
        MixtureSpec(n=2, terms=((2, [1.0]),), h=[0.0, 0.0])  # wrong beta length
    with pytest.raises(ValidationError):
        MixtureSpec(n=1, terms=((2, [-0.1]),), h=[0.0])  # negative weight
    for n in (2.7, "2", True):  # int() would read the first two as 2 and the last as 1
        with pytest.raises(ValidationError, match="species count"):
            MixtureSpec(n=n, terms=((2, [0.1, 0.2]),), h=[0.0, 0.0])


def test_chol_logdet_examples():
    assert chol_logdet(np.eye(3)) == 0.0
    assert chol_logdet(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0))
    with pytest.raises(NotPositiveDefinite):
        chol_logdet(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_non_finite_matrices_do_not_factor():
    # numpy's Cholesky returns a nan or inf factor for these without raising
    for bad in (np.array([[np.nan]]), np.array([[np.inf]]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(NotPositiveDefinite):
            cholesky(bad)
        with pytest.raises(NotPositiveDefinite):
            chol_logdet(bad)
    logdet, ok = stack_logdets(np.array([[[np.nan]], [[2.0]], [[np.inf]]]))
    assert ok.tolist() == [False, True, False]
    assert logdet.tolist() == [0.0, pytest.approx(np.log(2.0)), 0.0]


def test_sym_inverse_examples():
    np.testing.assert_allclose(sym_inverse(np.eye(2)), np.eye(2))
    np.testing.assert_allclose(sym_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    with pytest.raises(NotPositiveDefinite):
        sym_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_sym_inverse_contract():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(n, n))
        a = symmetrize(a @ a.T + np.eye(n))
        inv = sym_inverse(a)
        np.testing.assert_array_equal(inv, inv.T)
        assert np.max(np.abs(a @ inv - np.eye(n))) < 1e-8


def test_spectral_floor_examples():
    assert spectral_floor(np.eye(2)) == pytest.approx(1.0)
    assert spectral_floor(np.array([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(0.0, abs=1e-12)
    assert spectral_floor(np.diag([2.0, -1.0])) == pytest.approx(-1.0)


def test_hadamard_div_examples():
    a = np.array([[4.0, 2.0], [2.0, 4.0]])
    b = np.full((2, 2), 2.0)
    np.testing.assert_allclose(hadamard_div(a, b), np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(hadamard_div(a, a), np.ones((2, 2)))
    with pytest.raises(ZeroDivisor) as info:
        hadamard_div(a, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert info.value.index == (0, 1)


def test_hadamard_div_takes_a_stack():
    # one matrix at a time before; the error terms divide a whole stack
    rng = np.random.default_rng(43)
    a, b = symmetrize(rng.normal(size=(3, 2, 2))), symmetrize(rng.uniform(0.5, 2.0, (3, 2, 2)))
    out = hadamard_div(a, b)
    for k in range(3):
        assert out[k].tobytes() == hadamard_div(a[k], b[k]).tobytes()
    # the first guarded entry of the stack: matrix 1 before matrix 2
    b[2, 0, 0] = 0.0
    b[1, 0, 1] = b[1, 1, 0] = -1e-15
    with pytest.raises(ZeroDivisor) as info:
        hadamard_div(a, b)
    assert (info.value.index, info.value.value) == ((0, 1), -1e-15)
    with pytest.raises(DimensionMismatch, match="shape mismatch"):
        hadamard_div(a, b[:2])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_hadamard_div_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    a = symmetrize(rng.uniform(-1, 1, (n, n)))
    b = symmetrize(rng.uniform(0.5, 2.0, (n, n)))
    np.testing.assert_allclose(hadamard_div(a, b) * b, symmetrize(a), atol=1e-12)


def test_check_constraint():
    assert check_constraint(np.eye(2)) == []
    assert any("unit diagonal" in p for p in check_constraint(np.diag([1.0, 2.0])))
    singular = np.ones((2, 2))
    assert any("positive definite" in p for p in check_constraint(singular))
    # non-finite and huge entries used to raise a RuntimeWarning
    for bad in (np.nan, np.inf, -np.inf):
        assert check_constraint(np.array([[bad]])) == [
            f"constraint entries must be finite, got [{bad}]"
        ]
    assert check_constraint(np.array([[1e308]])) == ["unit diagonal required, got [1e+308]"]
    huge = np.array([[1.0, 1e308], [-1e308, 1.0]])
    assert check_constraint(huge) == [
        "constraint must be symmetric",
        "off-diagonal entries must lie in [-1, 1]",
    ]
    # a diagonal 5e-6 above 1 is not unit; the positive definite test still
    # runs on it
    d = 1.0 + 5e-6
    indefinite = np.array([[d, 1.0, -1.0], [1.0, d, 1.0], [-1.0, 1.0, d]])
    assert check_constraint(indefinite) == [
        f"unit diagonal required, got {[d] * 3}",
        "constraint must be positive definite, lam_min = -1.000e+00",
    ]


def test_check_constraint_tolerance_is_absolute():
    """tol bounds the unit-diagonal and symmetry errors absolutely; numpy's
    default relative tolerance of 1e-5 would let both through."""
    assert check_constraint(np.array([[1.000005]])) == ["unit diagonal required, got [1.000005]"]
    assert check_constraint(np.array([[1.0, 0.9], [0.900004, 1.0]])) == ["constraint must be symmetric"]
    assert check_constraint(np.array([[1.0 + 1e-10, 0.9], [0.9 + 1e-10, 1.0]])) == []


def test_l1_delta():
    m1 = MixtureSpec.pure(2, [1.0])
    m2 = MixtureSpec.pure(2, [1.1])
    assert m1.l1_delta(m2) == pytest.approx(abs(1.0 - 1.21))


def test_l1_delta_sums_the_terms_of_one_degree():
    # the terms were held in a dict by p, so a repeated p kept only its
    # last term: 0.09 here, although both mixtures have xi(q) = 0.25 q^2
    split = MixtureSpec(n=1, terms=((2, [0.3]), (2, [0.4])), h=[0.0])
    pure = MixtureSpec.pure(2, [0.5])
    assert split.xi(np.eye(1)) == pure.xi(np.eye(1))
    assert split.l1_delta(pure) == pure.l1_delta(split) == 0.0
    two = MixtureSpec(n=2, terms=((2, [0.3, 0.0]), (4, [0.2, 0.1]), (2, [0.0, 0.4])), h=[0.0, 0.0])
    # B_2 = diag(0.09, 0.16) against 0.25 everywhere: 0.16 + 0.09 + 2 * 0.25
    assert two.l1_delta(MixtureSpec(n=2, terms=((2, [0.5, 0.5]), (4, [0.2, 0.1])), h=[0.0, 0.0])) == (
        pytest.approx(0.75)
    )


def _mixed_stack(rng, n):
    """A (3, 4, n, n) stack of PD, singular and indefinite matrices."""
    mats = []
    for _ in range(3):
        row = []
        for kind in rng.permutation(["pd", "pd", "singular", "indefinite"]):
            g = rng.normal(size=(n, n))
            if kind == "pd":
                row.append(symmetrize(g @ g.T + 0.1 * np.eye(n)))
            elif kind == "singular":
                row.append(np.diag(np.r_[rng.uniform(0.5, 2.0, n - 1), 0.0]))
            else:
                row.append(np.diag(np.r_[rng.uniform(0.5, 2.0, n - 1), -1.0]))
        mats.append(row)
    return np.array(mats)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_stacked_factorization_matches_per_matrix(n):
    rng = np.random.default_rng(40 + n)
    stack = _mixed_stack(rng, n)
    logdet, ok = stack_logdets(stack)
    assert logdet.shape == ok.shape == (3, 4)
    assert ok.sum() == 6  # the PD matrices, two per row
    for idx in np.ndindex(3, 4):
        try:
            cholesky(stack[idx])
            factors = True
        except NotPositiveDefinite:
            factors = False
        assert ok[idx] == factors, idx
        if factors:
            np.testing.assert_allclose(logdet[idx], chol_logdet(stack[idx]), rtol=1e-12)
        else:
            assert logdet[idx] == 0.0
    # every matrix factors: the stacked call alone, with the same results,
    # and the inverses of the positive definite matrices from one call
    pd = stack[ok]
    logdet_pd, ok_pd = stack_logdets(pd)
    assert ok_pd.all()
    np.testing.assert_allclose(logdet_pd, logdet[ok], rtol=1e-12)
    for a, a_inv in zip(pd, stack_inverses(pd)):
        np.testing.assert_allclose(a_inv, sym_inverse(a), rtol=1e-12)


# rows in ratio 2 : 1, so exactly singular; Cholesky's rounding still gives
# it a finite log-det
CHOLESKY_ACCEPTS_SINGULAR = np.array([[5688.0, 2844.0], [2844.0, 1422.0]]) / 2**20


def test_stack_inverses_raises_a_domain_error_on_a_singular_matrix():
    # np.linalg.inv's LinAlgError is not a DomainError, so it ended a solve
    with pytest.raises(NotPositiveDefinite, match="does not invert"):
        stack_inverses(np.stack([np.eye(2), CHOLESKY_ACCEPTS_SINGULAR]))
