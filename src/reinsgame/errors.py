"""Exception hierarchy for the solver library."""


class ReinsGameError(Exception):
    """Base class for all library errors."""


class DomainError(ReinsGameError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class DegeneratePremiumError(DomainError):
    """A premium loading is degenerate (xi1 = 0 divides the response formulas)."""


class RangeError(DomainError):
    """An inverse-function argument lies outside the function's open range."""


class IntegrationError(ReinsGameError):
    """A numeric integral misses its tolerance: a quadrature, a claim law's layer-moment
    table against double spacing, or m(d) at a root too near the table's tail cut."""


class NoRootError(ReinsGameError):
    """A root finder found no sign change inside its search bracket."""

    def __init__(self, message: str, lo: float, hi: float, f_lo: float, f_hi: float):
        super().__init__(f"{message}: no sign change on [{lo:g}, {hi:g}] "
                         f"(f_lo={f_lo:g}, f_hi={f_hi:g})")
        self.lo, self.hi = lo, hi
        self.f_lo, self.f_hi = f_lo, f_hi


class ConvergenceError(ReinsGameError):
    """A solver's result fails its residual check."""


class ConfigError(ReinsGameError):
    """A configuration file or parameter set is invalid."""
