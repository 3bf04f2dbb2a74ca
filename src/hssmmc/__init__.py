"""Harmonic state-space modeling toolkit for the three-phase modular
multilevel converter: frequency-domain steady-state operating points,
closed-loop small-signal dynamic models, and a nonlinear time-domain
reference simulator for validating both.
"""

from .errors import (
    DimensionMismatchError,
    HalfWaveAsymmetryError,
    HssError,
    InsufficientSamplesError,
    ModulationOutOfRangeError,
    NotSettledError,
    NumericalBlowupError,
    OrderMismatchError,
    PhaseImbalanceError,
    ResidualImaginaryError,
    SchemaViolationError,
    ShootingError,
    SingularSystemError,
    UnknownVariableError,
)
from .harmonic import (
    frequency_matrix,
    synthesize,
    toeplitz,
)
from .plant import (
    PHASES,
    STATE_LABELS,
    LiftedModel,
    MmcParameters,
    open_loop_insertion_indices,
)
from .steady import (
    OperatingPoint,
    assemble_steady,
    solve_steady_state,
)
from .smallsignal import (
    ControllerParams,
    EnvelopeResponse,
    assemble_smallsignal,
    eigenvalues,
    envelope_response,
    reconstruct_perturbation,
    references_from_operating_point,
)
from .simulate import (
    SimulationConfig,
    Trajectory,
    compare_spectra,
    settled_open_loop,
    settled_spectrum,
    simulate_closed_loop,
    simulate_open_loop,
    total_harmonic_distortion,
)
from .config import RunConfig, load_config, parse_config

__version__ = "0.1.0"
