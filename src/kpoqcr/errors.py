"""Exception types.  The CLI maps these onto process exit codes."""


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, malformed file."""


class SpectrumError(RuntimeError):
    """Eigenproblem postconditions violated (truncation tail, parity, ...)."""


class CatStateError(ValueError):
    """Cat-state construction is ill defined (e.g. alpha = 0)."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    index is the position of the failing integral in its batch.
    """

    def __init__(self, message: str, achieved_rel_err: float = float("nan"),
                 index: int | None = None):
        super().__init__(message)
        self.achieved_rel_err = achieved_rel_err
        self.index = index


class MatchingError(RuntimeError):
    """Secular matching assumptions violated (level spread vs. pump photon)."""


class ChargeDistributionError(RuntimeError):
    """Island charge distribution not converged within the charge cutoff."""


class EvolveError(RuntimeError):
    """Time evolution failed (invalid inputs, trace drift)."""


class SteadyStateError(RuntimeError):
    """No unique steady state, or residual above tolerance."""
