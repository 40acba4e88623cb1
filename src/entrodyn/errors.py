"""Exception taxonomy: a ConfigError is an invalid input, a NoChannelsError nothing to bound."""


class EntrodynError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EntrodynError):
    """An input is invalid: a config, a model, a parameter or a run setting."""


class DimMismatchError(EntrodynError):
    """Operands have incompatible matrix dimensions."""


class NotHermitianError(ConfigError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotDensityError(EntrodynError):
    """A matrix fails the density-matrix invariants (Hermitian, PSD, unit trace)."""


class PositivityLostError(EntrodynError):
    """A propagated state developed an eigenvalue below ``-positivity_tol``."""

    def __init__(self, time: float, min_eig: float, positivity_tol: float):
        self.time = time
        self.min_eig = min_eig
        self.positivity_tol = positivity_tol
        super().__init__(
            f"state lost positivity at t={time:.6g} (min eigenvalue {min_eig:.3e} "
            f"< -{positivity_tol:.1e}); try a smaller dt"
        )


class NumericsError(EntrodynError):
    """A numerical health check failed (trace drift, broken self-check)."""


class NoChannelsError(EntrodynError):
    """Nothing to bound: no usable decoherence channel."""


class ZeroChannelError(NoChannelsError):
    """Every supplied channel operator has zero Frobenius norm."""


class BadDimensionError(ConfigError):
    """Hilbert-space dimension outside the supported range."""


class DegenerateSteadyStateError(EntrodynError):
    """The generator's null space has dimension greater than one."""

    def __init__(self, null_dimension: int):
        self.null_dimension = null_dimension
        super().__init__(
            f"fixed-point set is a manifold (null-space dimension {null_dimension}); "
            "no unique steady state"
        )


class NoSteadyStateError(EntrodynError):
    """No null direction found within tolerance; the cutoff is misconfigured."""


class UnknownModelError(ConfigError):
    """Requested preset name is not in the catalog."""


class BadParamsError(ConfigError):
    """A parameter value is missing, unknown, or out of range."""
