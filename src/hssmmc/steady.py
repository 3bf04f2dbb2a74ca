"""Lifted steady-state model of the open-loop MMC and its harmonic
operating-point solver.

The plant's coefficient model at the open-loop insertion indices is lifted
to truncation order h (``harmonic.lift``), giving a 12*(2h+1)-square
complex matrix whose blocks are Toeplitz operators of the periodic
coefficients plus the diagonal differentiation terms. Setting the lifted
derivative to zero yields the periodic operating point directly from one
linear solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    ResidualImaginaryError,
    SingularSystemError,
    UnknownVariableError,
)
from .harmonic import SYMMETRY_RTOL, HarmonicBlockMatrix, HarmonicVector
from .plant import (
    PHASES,
    STATE_LABELS,
    STATE_VARIABLES,
    InsertionIndexSet,
    MmcParameters,
    plant_coefficients,
)

# Condition-number estimate above which a lifted solve is rejected.
CONDITION_LIMIT = 1e12

# Residual bound for accepting a steady-state solve, relative to ||B U||.
RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class HssSteadyModel:
    """Lifted open-loop model: dX/dt = A X + B U with U the dc-bus block."""

    h: int
    omega1: float
    A: HarmonicBlockMatrix
    B: HarmonicBlockMatrix
    params: MmcParameters
    indices: InsertionIndexSet

    @property
    def state_labels(self) -> tuple[str, ...]:
        return tuple(self.A.block_rows)


def assemble_steady(params: MmcParameters, indices: InsertionIndexSet, h: int) -> HssSteadyModel:
    """Lift the plant's coefficient model at the given insertion indices.

    With a load inductance the phase-current diagonal blocks carry the
    per-harmonic load impedance, through the A1 term of the lift.
    """
    if indices.order != h:
        raise DimensionMismatchError(
            f"insertion indices built at order {indices.order}, model requested {h}"
        )
    if indices.base_frequency != params.omega1:
        raise DimensionMismatchError("insertion indices and parameters disagree on omega1")

    A, B = plant_coefficients(params, *indices.coefficient_arrays()).lifted()
    labels = list(STATE_LABELS)
    return HssSteadyModel(
        h=h,
        omega1=params.omega1,
        A=HarmonicBlockMatrix(labels, labels, h, A),
        B=HarmonicBlockMatrix(labels, ["v_dc"], h, B),
        params=params,
        indices=indices,
    )


def dc_input_vector(v_dc: float, h: int) -> np.ndarray:
    """Lifted input: v_dc in the dc slot, zeros in every harmonic slot."""
    u = np.zeros(2 * h + 1, dtype=complex)
    u[h] = v_dc
    return u


@dataclass(frozen=True)
class OperatingPoint:
    """Harmonic coefficients of the periodic steady state of all plant states."""

    h: int
    omega1: float
    i_c: dict[str, HarmonicVector]
    v_cu: dict[str, HarmonicVector]
    v_cl: dict[str, HarmonicVector]
    i_g: dict[str, HarmonicVector]
    indices: InsertionIndexSet
    condition: float
    residual: float

    def spectrum(self, variable: str, phase: str) -> HarmonicVector:
        if variable not in STATE_VARIABLES:
            raise UnknownVariableError(
                f"unknown variable {variable!r}; expected one of {STATE_VARIABLES}"
            )
        if phase not in PHASES:
            raise UnknownVariableError(f"unknown phase {phase!r}")
        return getattr(self, variable)[phase]

    def state_vector_at(self, t) -> np.ndarray:
        """Synthesized 12-state plant vector at time(s) t."""
        from .harmonic import synthesize

        series = [
            synthesize(self.spectrum(var, p), t)
            for var in STATE_VARIABLES
            for p in PHASES
        ]
        return np.array(series)


def solve_lifted(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Gated dense solve of A x = b; returns x, the condition estimate and
    the residual ||A x - b||.

    Raises SingularSystemError when the condition estimate exceeds
    CONDITION_LIMIT or the residual exceeds RESIDUAL_RTOL * ||b||.
    """
    lu, piv = scipy.linalg.lu_factor(A)
    anorm = np.linalg.norm(A, 1)
    rcond, info = scipy.linalg.lapack.zgecon(lu, anorm)
    condition = np.inf if rcond == 0.0 else 1.0 / float(rcond)
    if info != 0 or condition > CONDITION_LIMIT:
        raise SingularSystemError(
            f"lifted matrix numerically singular (condition estimate {condition:.3e})",
            condition=condition,
        )

    x = scipy.linalg.lu_solve((lu, piv), b)

    b_norm = np.linalg.norm(b)
    residual = float(np.linalg.norm(A @ x - b))
    if b_norm > 0 and residual > RESIDUAL_RTOL * b_norm:
        raise SingularSystemError(
            f"solve residual {residual:.3e} exceeds {RESIDUAL_RTOL:.1e} * ||B U||",
            condition=condition,
        )
    return x, condition, residual


def solve_steady_state(model: HssSteadyModel, u: np.ndarray) -> OperatingPoint:
    """Periodic operating point from the algebraic solve of the lifted model.

    Raises SingularSystemError when the gated solve (``solve_lifted``)
    rejects the lifted matrix or its solution.
    """
    rhs = model.B.dense @ np.asarray(u, dtype=complex)
    x_ss, condition, residual = solve_lifted(model.A.dense, -rhs)

    n = 2 * model.h + 1
    vectors: dict[str, dict[str, HarmonicVector]] = {var: {} for var in STATE_VARIABLES}
    for var in STATE_VARIABLES:
        for p in PHASES:
            sl = model.A.row_slice(f"{var}{p}")
            hv = HarmonicVector(model.h, model.omega1, x_ss[sl])
            if not hv.is_real_signal(SYMMETRY_RTOL):
                raise ResidualImaginaryError(
                    f"steady solution for {var}{p} violates conjugate symmetry "
                    f"(defect {hv.conjugate_symmetry_defect():.3e})"
                )
            vectors[var][p] = hv

    return OperatingPoint(
        h=model.h,
        omega1=model.omega1,
        i_c=vectors["i_c"],
        v_cu=vectors["v_cu"],
        v_cl=vectors["v_cl"],
        i_g=vectors["i_g"],
        indices=model.indices,
        condition=condition,
        residual=residual,
    )


def extract_spectrum(op: OperatingPoint, variable: str, phase: str) -> HarmonicVector:
    """Labeled accessor for one steady-state spectrum."""
    return op.spectrum(variable, phase)
