"""Exception types shared across the library."""


class SpinvarError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SpinvarError):
    pass


class DomainError(SpinvarError):
    """A point lies outside the domain of a functional, or no start inside it exists."""


class NotPositiveDefinite(DomainError):
    """A matrix that must be positive definite failed its factorization."""


class ZeroDivisor(SpinvarError):
    """An entrywise divisor fell below the division guard tolerance."""

    def __init__(self, i: int, j: int, value: float):
        super().__init__(f"entrywise divisor at ({i},{j}) is {value!r}, below tolerance")
        self.index = (i, j)
        self.value = value


class InfeasibleMultiplier(DomainError):
    """The first matrix of the multiplier chain is not positive definite."""


class InfeasiblePath(DomainError):
    """The path violates a feasibility requirement of the functional at hand."""


class DegenerateIncrement(DomainError):
    """A path increment is singular, so the log-det barrier is infinite."""

    def __init__(self, level: int, detail: str = ""):
        msg = f"increment {level} -> {level + 1} is not positive definite"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.level = level


class NonStrictWeights(SpinvarError):
    """The weight sequence is not strictly increasing where it must be."""


class InfeasibleStep(SpinvarError):
    """A finite-difference probe point left the domain of the functional."""


class DegenerateTrace(SpinvarError):
    """Two distinct path levels share a trace and cannot be trace-parametrized."""


class NoFeasibleStart(DomainError):
    """No feasible starting point could be constructed for the solver."""


class ParseError(SpinvarError):
    """A problem file could not be parsed."""


class ValidationError(SpinvarError):
    """One or more validation problems; ``problems`` lists all of them."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
