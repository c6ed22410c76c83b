"""A ledger of known wrong answers: one strict expected failure per open
correctness finding of ROADMAP.md, named by its item number.

Each test asserts the right answer, so it fails today.  ``strict`` turns an
unexpected pass into a failure, and ``raises`` names the expected
exception, so a different error still fails: the change that fixes a
finding removes its marker, and no marker is widened.  The references are
closed forms quoted in ROADMAP.md.
"""

import numpy as np
import pytest

from spinvar.errors import ZeroDivisor
from spinvar.functionals import eval_cs
from spinvar.matcore import MixtureSpec
from spinvar.optimize import SolveOptions, continuation, duality_gap
from spinvar.path import DiscretePath
from spinvar.variation import critical_residual

# the 1RSB minima of the pure p = 4 model (Crisanti & Sommers, Z. Phys. B 87
# (1992) 341): beta = 2 and beta = 1.5
PURE4_BETA2, PURE4_BETA15 = 1.8652002308, 1.1218702

# two decoupled p = 4 species at beta 2 and 1.7: the sum of their 1RSB
# minima, reached at one common weight sequence holding both atoms
PAIR = MixtureSpec(n=2, terms=((4, np.array([2.0, 0.0])), (4, np.array([0.0, 1.7]))), h=np.zeros(2))
PAIR_VALUE, PAIR_X = 3.2785292186, (0.0, 0.596278, 0.747144, 1.0)

# the full-RSB minimum of xi(q) = 1.5^2 q^2 + 0.43^2 q^4
FULL_RSB = MixtureSpec(n=1, terms=((2, np.array([1.5])), (4, np.array([0.43]))), h=np.zeros(1))
FULL_RSB_VALUE = 1.0799730558


def known_wrong(item, finding, raises=AssertionError):
    return pytest.mark.xfail(strict=True, raises=raises, reason=f"ROADMAP {item}: {finding}")


def _minima(mix, q, r_max):
    rep = duality_gap(mix, q, SolveOptions(r_max=r_max))
    return rep.min_cs, rep.min_parisi


@pytest.fixture(scope="module")
def pair_parisi_point():
    return continuation("parisi", PAIR, np.eye(2), 4, PAIR_X, SolveOptions())


@known_wrong("item 1", "a zero weight drops the level's trace term (off by 0.136)")
def test_zero_weight_matches_a_tiny_weight():
    mix, q = MixtureSpec.pure(2, [1.0]), np.eye(1)
    levels = (np.array([[0.1]]), np.array([[0.2929]]), q)
    at_zero = eval_cs(DiscretePath((0.0, 0.0, 1.0), levels), mix)
    assert at_zero == pytest.approx(eval_cs(DiscretePath((0.0, 1e-8, 1.0), levels), mix), abs=1e-7)


@known_wrong("item 3", "the weight grid misplaces the 1RSB atom (off by 7.2e-4)")
def test_pure4_beta2_reaches_its_1rsb_minimum():
    for value in _minima(MixtureSpec.pure(4, [2.0]), np.eye(1), 3):
        assert value == pytest.approx(PURE4_BETA2, abs=1e-6)


@known_wrong("item 8", "the search stays replica symmetric (off by 3.1e-3)")
def test_pure4_beta15_breaks_symmetry():
    for value in _minima(MixtureSpec.pure(4, [1.5]), np.eye(1), 3):
        assert value == pytest.approx(PURE4_BETA15, abs=1e-5)


@known_wrong("items 10 and 22", "the warm chain misplaces the pair's atoms at r = 4 (off by 9.5e-3)")
def test_decoupled_pair_reaches_the_sum_of_its_species():
    for value in _minima(PAIR, np.eye(2), 4):
        assert value == pytest.approx(PAIR_VALUE, abs=2e-4)


@known_wrong("item 11", "the multiplier form stops on a higher branch (off by 2.0e-2)")
def test_multiplier_form_at_the_pair_weights(pair_parisi_point):
    assert pair_parisi_point.value_at_eps_min == pytest.approx(PAIR_VALUE, abs=1e-5)


@known_wrong("item 15", "the search error exceeds the discretization error (excess 1.6e-6)")
def test_full_rsb_excess_at_five_levels():
    for value in _minima(FULL_RSB, np.eye(1), 5):
        assert value - FULL_RSB_VALUE <= 5e-7


@known_wrong("item 16", "the lower side divides by a zero xi'' entry", raises=ZeroDivisor)
def test_lower_certificate_on_decoupled_species(pair_parisi_point):
    point = pair_parisi_point
    critical_residual("lower", point.path, PAIR, point.stages[-1].eps, point.lam)


@known_wrong("item 30", "two p = 4 replicas at q_1 stop above 2C at r = 3, x_1 = 0.3125 (off by 1.24e-3)")
def test_pure4_replica_pair_at_q1_reaches_twice_its_minimum():
    # two copies of the beta = 2 model held at the overlap q_1 of its 1RSB
    # minimum: the pair's minimum is twice the scalar one
    q1 = 0.873454
    pair = MixtureSpec(n=2, terms=((4, np.array([2.0, 2.0])),), h=np.zeros(2))
    for value in _minima(pair, np.array([[1.0, q1], [q1, 1.0]]), 3):
        assert value == pytest.approx(2.0 * PURE4_BETA2, abs=1e-5)
