"""Free-energy functionals of vector-spin spherical models.

Evaluate the discrete multiplier (Parisi) and multiplier-free
(Crisanti-Sommers) functionals over monotone matrix paths, minimize both
through a log-det barrier continuation, and verify the identities tying
their critical points together.
"""

from .errors import SpinvarError
from .matcore import MixtureSpec
from .optimize import GapReport, SolveOptions, continuation, duality_gap, minimize_fixed, search
from .path import DiscretePath, d_sequence, lambda_sequence

__all__ = [
    "SpinvarError",
    "MixtureSpec",
    "DiscretePath",
    "lambda_sequence",
    "d_sequence",
    "SolveOptions",
    "GapReport",
    "minimize_fixed",
    "continuation",
    "search",
    "duality_gap",
]

__version__ = "0.1.0"
