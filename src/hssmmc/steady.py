"""Lifted steady-state model of the open-loop MMC and its harmonic
operating-point solver.

The plant equations are differentiated by complex step at the insertion
indices of ``instants(h)`` instants of a period (``plant_samples``) and
lifted to truncation order h (``lift_phase_samples``), giving phase a's
4*(2h+1)-square complex matrix, whose blocks are Toeplitz operators of the
periodic coefficients plus the diagonal differentiation terms. Setting the
lifted derivative to zero yields phase a's periodic operating point from
one linear solve, and phases b and c are its T/3 rotations. The operating
point keeps the solution as one (12, 2h+1) coefficient array in
``STATE_LABELS`` order. Its energy balance is the simulator's
``simulate.power_balance`` on its values at ``instants(h)`` instants
(``harmonic.sample``): a period mean of products of order-h rows is exact
on that many samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ResidualImaginaryError,
    SingularSystemError,
)
from .harmonic import SYMMETRY_RTOL, instants, sample, synthesize
from .plant import (
    PHASES,
    STATE_LABELS,
    LiftedModel,
    MmcParameters,
    complex_step_jacobian,
    lift_phase_samples,
    phase_rotation,
    plant_phase_equations,
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


def plant_samples(params: MmcParameters, indices: tuple[np.ndarray, np.ndarray], h: int) -> np.ndarray:
    """Complex-step Jacobian samples (3, 4, 5, N) of
    ``plant_phase_equations`` per phase with respect to (i_c, v_cu, v_cl,
    i_g, v_dc), at the insertion indices (n_u, n_l) at N = ``instants(h)``
    instants. The plant is linear in its states, taken at zero.

    Raises DimensionMismatchError for indices of another order, and
    ResidualImaginaryError for indices that are not conjugate symmetric: a
    complex step reads only imaginary parts, so complex index values would
    give a wrong Jacobian.
    """
    n = np.stack(indices)
    if n.shape[-1] != 2 * h + 1:
        raise DimensionMismatchError(
            f"insertion indices built at order {n.shape[-1] // 2}, model requested {h}"
        )
    defect = float(np.max(np.abs(n[..., ::-1] - n.conj()))) / (float(np.max(np.abs(n))) or 1.0)
    if not defect <= SYMMETRY_RTOL:
        raise ResidualImaginaryError(
            f"insertion indices violate conjugate symmetry (defect {defect:.3e})"
        )
    n_u, n_l = sample(n, instants(h))
    zero = np.zeros_like(n_u)
    jacobian = complex_step_jacobian(
        plant_phase_equations(params), (zero, zero, zero, zero, n_u, n_l, params.V_dc), (0, 1, 2, 3, 6)
    )
    return np.moveaxis(jacobian, 1, -1)


def assemble_steady(
    params: MmcParameters, indices: tuple[np.ndarray, np.ndarray], h: int
) -> LiftedModel:
    """Lifted plant model of phase a at the insertion indices (n_u, n_l):
    four state blocks, input block the dc-bus voltage, derived from the
    plant equations (``plant_samples``)."""
    return lift_phase_samples(plant_samples(params, indices, h), h, params.omega1)


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

    def spectrum(self, variable: str, phase: str) -> np.ndarray:
        """Read-only view of the coefficient row of ``variable`` on ``phase``;
        UnknownVariableError for a variable or phase there is not."""
        row = self.coeffs[state_position(variable, phase)]
        row.flags.writeable = False
        return row

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
            [synthesize(c, self.omega1, t, floor=floor) for c in self.coeffs]
        )


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
    model: LiftedModel, v_dc: float, indices: tuple[np.ndarray, np.ndarray]
) -> OperatingPoint:
    """Periodic operating point from the algebraic solve of phase a's lifted
    model assembled at ``indices``, under the constant dc-bus voltage
    ``v_dc``: the model's one input, lifted, is v_dc at k = 0 and zero at
    every other harmonic. It drives the three phases alike, so phases b and
    c are the T/3 rotations of phase a (``phase_rotation``).

    Raises SingularSystemError when the gated solve (``solve_lifted``)
    rejects the lifted matrix or its solution, and ResidualImaginaryError
    when a state's coefficients are not conjugate symmetric.
    """
    u = np.zeros(2 * model.h + 1, dtype=complex)
    u[model.h] = v_dc
    x_a, condition, residual = solve_lifted(model.A, -(model.B @ u))
    rotations = np.array([phase_rotation(model.h, phase) for phase in PHASES])
    # STATE_LABELS runs over the three phases within each variable.
    coeffs = (x_a.reshape(-1, 1, 2 * model.h + 1) * rotations).reshape(len(STATE_LABELS), -1)
    coeffs.flags.writeable = False
    peaks = np.max(np.abs(coeffs), axis=1)
    scale = np.maximum(peaks, SYMMETRY_FLOOR * float(peaks.max()))
    defects = np.max(np.abs(coeffs[:, ::-1] - np.conj(coeffs)), axis=1)
    defects = np.divide(defects, scale, out=np.zeros_like(defects), where=scale > 0)
    worst = int(np.argmax(defects))
    if not defects[worst] <= SYMMETRY_RTOL:  # a NaN defect fails too
        raise ResidualImaginaryError(
            f"steady solution for {STATE_LABELS[worst]} violates conjugate symmetry "
            f"(defect {defects[worst]:.3e})"
        )
    n_u, n_l = indices
    return OperatingPoint(model.h, model.omega1, coeffs, n_u, n_l, condition, residual)
