"""Two real replicas: a coupled n = 2 case with a known answer.

Two copies of the scalar pure p = 2 model (xi(q) = beta^2 q^2) with their
overlap held at q are the n = 2 mixture with beta = (b, b), h = 0 and
Q = [[1, q], [q, 1]].  Its minimum F_2(q) is at most twice the scalar
minimum F_1, with equality on [0, q_EA] for p = 2 (q_EA = 1 - 1/(beta
sqrt 2) = 0.5286 at beta = 1.5) and a strict fall beyond it; flipping the
second copy gives F_2(-q) = F_2(q).  A value below 2 F_1 where equality
holds would be a wrong answer.  References: Panchenko & Talagrand, "On the
overlap in the multiple spherical SK models", Ann. Probab. 35 (2007);
Franz & Parisi, J. Phys. I 5 (1995) 1401.
"""

import numpy as np
import pytest

from spinvar.matcore import MixtureSpec
from spinvar.optimize import SolveOptions, duality_gap
from spinvar.reference import pure2_rs_value


def two_replicas(p, beta, q):
    """(min_cs, min_parisi) of the constrained pair at r_max = 3."""
    mix = MixtureSpec(n=2, terms=((p, np.array([beta, beta])),), h=np.zeros(2))
    rep = duality_gap(mix, np.array([[1.0, q], [q, 1.0]]), SolveOptions(r_max=3))
    return rep.min_cs, rep.min_parisi


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5])
def test_pair_reaches_twice_the_scalar_minimum_inside_the_flat_region(q):
    twice = 2.0 * pure2_rs_value(1.5)
    for value in two_replicas(2, 1.5, q):
        assert value == pytest.approx(twice, abs=1e-6)
        assert value >= twice - 1e-9  # never below the bound F_2 <= 2 F_1


@pytest.mark.parametrize("beta, q, drop", [(1.5, 0.6, 5e-4), (0.5, 0.2, 5e-3)],
                         ids=["beyond-q_EA", "replica-symmetric"])
def test_pair_falls_below_twice_the_scalar_minimum_off_the_support(beta, q, drop):
    # measured: 6.5e-4 below at beta = 1.5, q = 0.6; 1.04e-2 at beta = 0.5, q = 0.2
    twice = 2.0 * pure2_rs_value(beta)
    for value in two_replicas(2, beta, q):
        assert value < twice - drop


def test_flipping_one_replica_keeps_the_minimum():
    for flipped, value in zip(two_replicas(2, 1.5, -0.5), two_replicas(2, 1.5, 0.5)):
        assert flipped == pytest.approx(value, abs=1e-12)
