"""Exception types shared across the toolkit."""


class HssError(Exception):
    """Base class for all toolkit errors."""


class OrderMismatchError(HssError):
    """Two spectra have different truncation orders, or a spectrum does not
    reach the harmonic an operation needs. A spectrum is a bare coefficient
    row, so no base frequency is compared."""


class InsufficientSamplesError(HssError):
    """Too few samples to resolve the requested harmonic order."""


class ResidualImaginaryError(HssError):
    """A quantity that should describe a real signal has a non-negligible imaginary part."""


class ModulationOutOfRangeError(HssError):
    """Modulation index outside [0, 1]."""


class DimensionMismatchError(HssError):
    """Block or vector dimensions are inconsistent."""


class SingularSystemError(HssError):
    """The lifted system matrix is numerically singular or a solve failed its residual check."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class PhaseImbalanceError(HssError):
    """A lifted model is not balanced over the three phases: it does not
    commute with the 120-degree phase rotation."""

    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = defect


class HalfWaveAsymmetryError(HssError):
    """A lifted model does not commute with the half-wave operator: a
    half-period shift with the upper and lower arms swapped."""

    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = defect


class UnknownVariableError(HssError):
    """Requested state variable or phase label does not exist."""


class NotSettledError(HssError):
    """Trajectory has not reached a periodic steady state."""


class ShootingError(NotSettledError):
    """Newton shooting found no attracting periodic orbit."""

    def __init__(self, message: str, iterations: int, defect: float):
        super().__init__(message)
        self.iterations = iterations
        self.defect = defect


class NumericalBlowupError(HssError):
    """A simulated state left the physically plausible range."""


class FieldValueError(ValueError):
    """A dataclass field holds a value no model can use; ``key`` names the
    field, and ``message`` says what is wrong without naming it."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key} {message}")
        self.key = key
        self.message = message


class SchemaViolationError(HssError):
    """Configuration file is malformed, has unknown keys, or fails an invariant."""
