"""Lifted steady-state model of the open-loop MMC and its harmonic
operating-point solver.

The plant's coefficient model at the open-loop insertion indices is lifted
to truncation order h (``PeriodicCoefficients.lifted``), giving a
12*(2h+1)-square complex matrix whose blocks are Toeplitz operators of the
periodic coefficients plus the diagonal differentiation terms. Setting the
lifted derivative to zero yields the periodic operating point directly from
one linear solve. The operating point keeps the solution as one
(12, 2h+1) coefficient array in ``STATE_LABELS`` order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ResidualImaginaryError,
    SingularSystemError,
    UnknownVariableError,
)
from .harmonic import SYMMETRY_RTOL, HarmonicVector, synthesize
from .plant import (
    PHASES,
    STATE_LABELS,
    STATE_VARIABLES,
    LiftedModel,
    MmcParameters,
    plant_coefficients,
    state_position,
)

# 1-norm condition number above which a lifted solve is rejected.
CONDITION_LIMIT = 1e12

# Residual bound for accepting a steady-state solve, relative to ||B U||.
RESIDUAL_RTOL = 1e-9

# The conjugate-symmetry gate measures each state's defect against its own
# largest coefficient, but never against less than this fraction of the
# whole solution's: the solve's rounding error scales with the whole
# solution (up to 8e-16 of it on both presets), so a state that vanishes
# with m, such as the circulating current, would otherwise read it as a
# defect.
SYMMETRY_FLOOR = 1e-4


def assemble_steady(
    params: MmcParameters, indices: tuple[np.ndarray, np.ndarray], h: int
) -> LiftedModel:
    """Lift the plant's coefficient model at the insertion indices (n_u, n_l).

    With a load inductance the phase-current diagonal blocks carry the
    per-harmonic load impedance, through the A1 term of the lift.
    """
    n_u, n_l = indices
    if n_u.shape[-1] != 2 * h + 1:
        raise DimensionMismatchError(
            f"insertion indices built at order {n_u.shape[-1] // 2}, model requested {h}"
        )
    return plant_coefficients(params, n_u, n_l).lifted(STATE_LABELS, ("v_dc",))


def dc_input_vector(v_dc: float, h: int) -> np.ndarray:
    """Lifted input: v_dc in the dc slot, zeros in every harmonic slot."""
    u = np.zeros(2 * h + 1, dtype=complex)
    u[h] = v_dc
    return u


@dataclass(frozen=True)
class OperatingPoint:
    """Periodic steady state of the plant.

    Row r of ``coeffs`` holds the harmonic coefficients k = -h..h of state
    ``STATE_LABELS[r]``; ``n_u`` and ``n_l`` are the (3, 2h+1) insertion
    indices the point was solved at.
    """

    h: int
    omega1: float
    coeffs: np.ndarray
    n_u: np.ndarray
    n_l: np.ndarray
    condition: float
    residual: float

    def spectrum(self, variable: str, phase: str) -> HarmonicVector:
        if variable not in STATE_VARIABLES:
            raise UnknownVariableError(
                f"unknown variable {variable!r}; expected one of {STATE_VARIABLES}"
            )
        if phase not in PHASES:
            raise UnknownVariableError(f"unknown phase {phase!r}")
        return HarmonicVector(self.h, self.omega1, self.coeffs[state_position(variable, phase)])

    @property
    def symmetry_floor(self) -> float:
        """Least scale a state's real-signal check measures against:
        ``SYMMETRY_FLOOR`` of the whole solution's peak, as in the solve's
        conjugate-symmetry gate."""
        return SYMMETRY_FLOOR * float(np.max(np.abs(self.coeffs)))

    def state_vector_at(self, t) -> np.ndarray:
        """Synthesized 12-state plant vector at time(s) t."""
        floor = self.symmetry_floor
        return np.array(
            [synthesize(HarmonicVector(self.h, self.omega1, c), t, floor=floor) for c in self.coeffs]
        )

    def power_balance(self, params: MmcParameters) -> dict[str, float]:
        """One-period average dc input power, load dissipation and arm
        losses, by Parseval from the coefficients."""
        i_c, i_g = self.coeffs[0:3], self.coeffs[9:12]

        def mean_square(c):
            return float(np.sum(np.abs(c) ** 2))

        return {
            "dc_input": params.V_dc * float(np.sum(i_c[:, self.h].real)),
            "load": params.R_load * mean_square(i_g),
            "arm_loss": params.R * (mean_square(i_c + 0.5 * i_g) + mean_square(i_c - 0.5 * i_g)),
        }


def solve_lifted(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Gated dense solve of A x = b; returns x, the 1-norm condition number
    of A and the residual ||A x - b||.

    Raises SingularSystemError when the condition number exceeds
    CONDITION_LIMIT or is not finite (a singular A reads inf), or when the
    residual exceeds RESIDUAL_RTOL * ||b||.
    """
    condition = float(np.linalg.cond(A, 1))
    if not condition <= CONDITION_LIMIT:
        raise SingularSystemError(
            f"lifted matrix numerically singular (1-norm condition number {condition:.3e})",
            condition=condition,
        )

    x = np.linalg.solve(A, b)

    b_norm = np.linalg.norm(b)
    residual = float(np.linalg.norm(A @ x - b))
    if b_norm > 0 and residual > RESIDUAL_RTOL * b_norm:
        raise SingularSystemError(
            f"solve residual {residual:.3e} exceeds {RESIDUAL_RTOL:.1e} * ||B U||",
            condition=condition,
        )
    return x, condition, residual


def solve_steady_state(
    model: LiftedModel, u: np.ndarray, indices: tuple[np.ndarray, np.ndarray]
) -> OperatingPoint:
    """Periodic operating point from the algebraic solve of the lifted model
    assembled at ``indices``.

    Raises SingularSystemError when the gated solve (``solve_lifted``)
    rejects the lifted matrix or its solution.
    """
    rhs = model.B @ np.asarray(u, dtype=complex)
    x_ss, condition, residual = solve_lifted(model.A, -rhs)

    coeffs = x_ss.reshape(len(model.state_labels), 2 * model.h + 1)
    coeffs.flags.writeable = False
    peaks = np.max(np.abs(coeffs), axis=1)
    scale = np.maximum(peaks, SYMMETRY_FLOOR * float(peaks.max()))
    defects = np.max(np.abs(coeffs[:, ::-1] - np.conj(coeffs)), axis=1)
    defects = np.divide(defects, scale, out=np.zeros_like(defects), where=scale > 0)
    worst = int(np.argmax(defects))
    if not defects[worst] <= SYMMETRY_RTOL:  # a NaN defect fails too
        raise ResidualImaginaryError(
            f"steady solution for {model.state_labels[worst]} violates conjugate symmetry "
            f"(defect {defects[worst]:.3e})"
        )
    n_u, n_l = indices
    return OperatingPoint(model.h, model.omega1, coeffs, n_u, n_l, condition, residual)
