"""Closed-loop small-signal model of the MMC with proportional-resonant
ac-voltage control.

The control law realized here (and in the nonlinear reference simulator) is

    v_sx* = H_v(s) (v_gx* - v_gx) + k_f v_gx,
    n_ux  = 1/2 - v_sx*/V_dc,
    n_lx  = 1/2 + v_sx*/V_dc,

with H_v(s) = K_p + K_r s / (s^2 + w1^2) realized per phase by two states:

    dx1/dt = -w1^2 x2 + K_r e,   dx2/dt = x1,   y = x1.

Linearizing about a harmonic operating point extends the plant's
coefficient model with the controller rows and the periodic gain columns
(the F vectors): ``compute_f_coefficients`` returns this closed-loop
``PeriodicCoefficients``, and each F vector is an entry of its tensors.
The same lift as the steady model (``PeriodicCoefficients.lifted``) turns
it into an 18-block ``LiftedModel`` whose inputs are the dc-bus
perturbation and the three per-phase voltage-reference perturbations;
``time_domain_linearized_A`` evaluates it at one instant.

Eigenvalue screening (``eigenvalues``) uses the three-phase balance of the
model: the lifted A is block diagonal over the three phase sequences
(``LiftedModel.sequence_blocks``), and the spectrum comes from two
eigendecompositions a third of the size of A.

Envelope responses of this LTI model to a reference step are exact
zero-order-hold propagations by its transition matrix, so they hold for
any time step.

``eigenvalues`` and ``envelope_response`` import scipy in their bodies:
the steady and simulator scenarios import this module too, and need no
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ResidualImaginaryError,
    UnknownVariableError,
)
from .harmonic import HarmonicVector, synthesize
from .plant import (
    PHASES,
    STATE_LABELS,
    LiftedModel,
    MmcParameters,
    PeriodicCoefficients,
    fold_terminal_voltage,
    plant_coefficients,
)
from .steady import OperatingPoint, solve_lifted

PR_LABELS = ("pr_a1", "pr_a2", "pr_b1", "pr_b2", "pr_c1", "pr_c2")
SMALLSIG_STATE_LABELS = STATE_LABELS + PR_LABELS
SMALLSIG_INPUT_LABELS = ("v_dc", "v_ga_ref", "v_gb_ref", "v_gc_ref")


@dataclass(frozen=True)
class ControllerParams:
    """Proportional-resonant ac-voltage controller gains; the resonance is
    at the plant's fundamental ``MmcParameters.omega1``."""

    K_p: float          # proportional gain, dimensionless
    K_r: float          # resonant gain, 1/s
    k_f: float          # measured-voltage feedforward gain, dimensionless

    def __post_init__(self):
        if self.K_p < 0 or self.K_r < 0:
            raise ValueError("K_p and K_r must be >= 0")


def compute_f_coefficients(
    op: OperatingPoint, params: MmcParameters, ctrl: ControllerParams
) -> PeriodicCoefficients:
    """Closed-loop coefficient model linearized about an operating point.

    States are ``SMALLSIG_STATE_LABELS`` and inputs ``SMALLSIG_INPUT_LABELS``.
    The plant rows are the plant's coefficient model at the operating
    indices. The controller acts through the modulation voltage v_mod,
    which moves the indices as n_u = 1/2 - v_mod/V_dc and
    n_l = 1/2 + v_mod/V_dc. With all controller gains zero the set
    collapses to the open-loop couplings.
    """
    plant = plant_coefficients(params, op.n_u, op.n_l)
    k = 2 * op.h + 1
    one = np.zeros(k)
    one[op.h] = 1.0
    i_c, v_cu, v_cl, i_g = op.coeffs.reshape(4, 3, k)
    L = params.L
    C = params.C_arm
    v_dc = params.V_dc

    # Plant-row response to each phase's modulation voltage at the
    # operating point (the F vectors); the lower-arm row carries the minus
    # sign of its arm current i_c - i_g/2.
    ph = np.arange(3)
    dv_mod = np.zeros((12, 3, k), dtype=complex)
    dv_mod[ph, ph] = (1.0 / (2.0 * L * v_dc)) * (v_cu - v_cl)
    dv_mod[3 + ph, ph] = (-1.0 / (C * v_dc)) * (i_c + 0.5 * i_g)
    dv_mod[6 + ph, ph] = (1.0 / (C * v_dc)) * (i_c - 0.5 * i_g)
    dv_mod[9 + ph, ph] = (1.0 / (L * v_dc)) * (v_cu + v_cl)

    x1, x2 = 12 + 2 * ph, 13 + 2 * ph
    A0 = np.zeros((18, 18, k), dtype=complex)
    A1 = np.zeros_like(A0)
    B = np.zeros((18, len(SMALLSIG_INPUT_LABELS), k), dtype=complex)
    A0[:12, :12], A1[:12, :12], B[:12, :1] = plant.A0, plant.A1, plant.B

    # Controller per phase, with the error e = v* - v_g:
    #   v_mod = K_p e + x1 + k_f v_g,  dx1/dt = -w1^2 x2 + K_r e,  dx2/dt = x1.
    error_gain = np.zeros((18, 3, k), dtype=complex)
    error_gain[:12] = ctrl.K_p * dv_mod
    error_gain[x1, ph] = ctrl.K_r * one
    B[:, 1:] = error_gain
    A0[:12, x1] = dv_mod
    A0[x1, x2] = -params.omega1**2 * one
    A0[x2, x1] = one
    # Every row's coefficient of v_g: through -e and the feed-forward term.
    g = -error_gain
    g[:12] += ctrl.k_f * dv_mod

    fold_terminal_voltage(A0, A1, g, params)
    return PeriodicCoefficients(params.omega1, A0, A1, B)


def assemble_smallsignal(
    op: OperatingPoint, params: MmcParameters, ctrl: ControllerParams, h: int
) -> LiftedModel:
    """Lift the closed-loop coefficient model about an operating point.

    The load-inductance term enters as T(A1) Q, the part of the lifted
    derivative that the periodic orbit itself carries.
    """
    if h != op.h:
        raise DimensionMismatchError(
            f"operating point solved at order {op.h}, model requested {h}"
        )

    return compute_f_coefficients(op, params, ctrl).lifted(
        SMALLSIG_STATE_LABELS, SMALLSIG_INPUT_LABELS
    )


def eigenvalues(model: LiftedModel) -> np.ndarray:
    """Spectrum of the lifted A, sorted by real part descending, then by
    imaginary part.

    Computed from the phase-sequence blocks of A
    (``LiftedModel.sequence_blocks``): one eigendecomposition each of
    blocks 0 and 1, a third of the size of A, and the conjugate of block 1's
    spectrum for block 2. Raises PhaseImbalanceError when A is not balanced
    over the three phases.
    """
    import scipy.linalg

    parts = [scipy.linalg.eigvals(block, overwrite_a=True) for block in model.sequence_blocks()]
    eig = np.concatenate([*parts, parts[1].conj()])
    order = np.lexsort((eig.imag, -eig.real))
    return eig[order]


def load_voltage_spectrum(op: OperatingPoint, params: MmcParameters, phase: str) -> HarmonicVector:
    """Spectrum of the ac terminal voltage v_g = Z_load(k) * i_g per harmonic."""
    i_g = op.spectrum("i_g", phase)
    k = i_g.harmonic_indices
    return HarmonicVector(op.h, op.omega1, params.load_impedance(k) * i_g.coeffs)


def references_from_operating_point(op: OperatingPoint, params: MmcParameters) -> dict[str, complex]:
    """Per-phase fundamental reference phasors matching the operating point.

    Returned phasors V satisfy v*(t) = Re(V exp(j w1 t)) and reproduce the
    operating point's own fundamental terminal voltage. The closed loop
    settles near that open-loop orbit but not onto it: the controller also
    feeds back the load-voltage harmonics.
    """
    refs = {}
    for p in PHASES:
        v_g = load_voltage_spectrum(op, params, p)
        refs[p] = 2.0 * v_g[1]
    return refs


def reference_spectrum(phasor: complex, h: int, omega1: float) -> HarmonicVector:
    """Fundamental-only harmonic vector of Re(phasor * exp(j w1 t))."""
    return HarmonicVector.from_dict(
        {+1: 0.5 * phasor, -1: 0.5 * np.conj(phasor)}, h, omega1
    )


def operating_controller_states(
    op: OperatingPoint,
    params: MmcParameters,
    ctrl: ControllerParams,
    refs: dict[str, complex],
) -> dict[str, tuple[HarmonicVector, HarmonicVector]]:
    """Periodic resonant-controller states consistent with the operating point.

    The first state is fixed by requiring the controller output to
    reproduce the operating-point insertion indices; the second follows
    from its integrator relation (dc slot from the first state's own
    equation). Used to place linearization checks on the closed-loop
    trajectory.
    """
    out = {}
    for i, p in enumerate(PHASES):
        v_g = load_voltage_spectrum(op, params, p)
        v_ref = reference_spectrum(refs[p], op.h, op.omega1)
        err = v_ref - v_g
        # Modulation voltage that generates the operating-point indices.
        n_u = HarmonicVector(op.h, op.omega1, op.n_u[i])
        v_mod = (HarmonicVector.constant(0.5, op.h, op.omega1) - n_u) * params.V_dc
        x1 = v_mod - ctrl.K_p * err - ctrl.k_f * v_g
        k = x1.harmonic_indices
        with np.errstate(divide="ignore", invalid="ignore"):
            c2 = np.where(k != 0, x1.coeffs / (1j * k * op.omega1), 0.0)
        c2[op.h] = ctrl.K_r * err[0] / params.omega1 ** 2
        x2 = HarmonicVector(op.h, op.omega1, c2)
        out[p] = (x1, x2)
    return out


def operating_state_at(
    op: OperatingPoint,
    params: MmcParameters,
    ctrl: ControllerParams,
    refs: dict[str, complex],
    t: float,
) -> np.ndarray:
    """The 18 closed-loop states of the operating point at time t, in
    ``SMALLSIG_STATE_LABELS`` order: the plant orbit followed by the
    controller states of ``operating_controller_states``."""
    prs = operating_controller_states(op, params, ctrl, refs)
    return np.concatenate(
        [op.state_vector_at(t), [synthesize(prs[p][i], t) for p in PHASES for i in (0, 1)]]
    )


def time_domain_linearized_A(
    op: OperatingPoint,
    params: MmcParameters,
    ctrl: ControllerParams,
    t: float,
) -> np.ndarray:
    """Instantaneous 18x18 closed-loop Jacobian at time t on the operating orbit.

    This is the closed-loop coefficient model evaluated at one instant, so
    it is exactly what the lifted blocks represent in the time domain (the
    frequency-translation diagonals excluded). Requires a purely resistive
    ac load.
    """
    if params.L_load != 0.0:
        raise ValueError("time-domain Jacobian is defined for a resistive ac load")
    return compute_f_coefficients(op, params, ctrl).at(t)[0]


@dataclass(frozen=True)
class EnvelopeResponse:
    """Harmonic-coefficient envelopes of the small-signal states over time."""

    t: np.ndarray
    states: np.ndarray              # (n_times, n_blocks*(2h+1)) complex
    h: int
    omega1: float
    labels: tuple[str, ...]

    def block(self, label: str) -> np.ndarray:
        try:
            i = self.labels.index(label)
        except ValueError:
            raise UnknownVariableError(f"no state block {label!r}") from None
        n = 2 * self.h + 1
        return self.states[:, i * n : (i + 1) * n]

    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()


def envelope_response(
    model: LiftedModel,
    delta_u: np.ndarray,
    t_end: float,
    dt: float,
    t_start: float = 0.0,
    store_every: int = 1,
) -> EnvelopeResponse:
    """Exact zero-order-hold response of the lifted small-signal model to
    the lifted input vector ``delta_u``, active from ``t_start`` on.

    The state starts at zero at ``t_start`` and steps as x <- Phi x + Gamma u,
    where Phi and Gamma are the top blocks of expm([[A dt, B dt], [0, 0]])
    (Van Loan 1978), so the grid values are exact for any ``dt``. Every
    ``store_every``-th grid point is stored, and the last one, at ``t_end``,
    always is.
    """
    import scipy.linalg

    A = model.A
    Bd = model.B
    dim, n_in = Bd.shape
    delta_u = np.asarray(delta_u, dtype=complex)
    if delta_u.shape != (n_in,):
        raise DimensionMismatchError(f"input vector must have shape ({n_in},)")
    n_steps = int(round((t_end - t_start) / dt))
    if n_steps < 1:
        raise ValueError("t_end must lie at least one step after t_start")

    augmented = np.zeros((dim + n_in, dim + n_in), dtype=complex)
    augmented[:dim, :dim] = A * dt
    augmented[:dim, dim:] = Bd * dt
    top = scipy.linalg.expm(augmented)[:dim]
    phi, gamma = top[:, :dim], top[:, dim:]
    gu = gamma @ delta_u

    x = np.zeros(dim, dtype=complex)
    n_store = -(-n_steps // store_every) + 1
    out = np.empty((n_store, dim), dtype=complex)
    t_out = np.empty(n_store)
    out[0] = x
    t_out[0] = t_start
    j = 1

    for n in range(n_steps):
        x = phi @ x + gu
        if (n + 1) % store_every == 0 or n + 1 == n_steps:
            out[j] = x
            t_out[j] = t_start + (n + 1) * dt
            j += 1

    return EnvelopeResponse(
        t=t_out[:j],
        states=out[:j],
        h=model.h,
        omega1=model.omega1,
        labels=model.state_labels,
    )


def lifted_reference_step(
    model: LiftedModel, phase: str, delta_phasor: complex
) -> np.ndarray:
    """Lifted input vector for a reference-amplitude step on one phase.

    A fundamental-frequency step lives in the k = +/-1 slots of that
    phase's reference block, as a conjugate pair of half the phasor.
    """
    if phase not in PHASES:
        raise UnknownVariableError(f"unknown phase {phase!r}")
    n = 2 * model.h + 1
    u = np.zeros(len(SMALLSIG_INPUT_LABELS) * n, dtype=complex)
    col = SMALLSIG_INPUT_LABELS.index(f"v_g{phase}_ref")
    u[col * n + model.h + 1] = 0.5 * delta_phasor
    u[col * n + model.h - 1] = 0.5 * np.conj(delta_phasor)
    return u


def settled_envelope_state(model: LiftedModel, delta_u_final: np.ndarray) -> np.ndarray:
    """Algebraic settled state -A^-1 B dU of the small-signal model.

    Raises SingularSystemError under the same condition and residual gates
    as the steady solve.
    """
    return solve_lifted(model.A, -(model.B @ delta_u_final))[0]


def reconstruct_perturbation(
    env: EnvelopeResponse, variable: str, phase: str, rtol: float = 1e-6
) -> np.ndarray:
    """Real time series of one state's perturbation from its envelopes.

    The imaginary residual of the reconstruction is checked against
    ``rtol`` times the series scale; a violation signals envelopes that do
    not describe a real signal.
    """
    if variable in ("pr1", "pr2"):
        label = f"pr_{phase}{variable[-1]}"
    else:
        label = f"{variable}{phase}"
    if label not in env.labels:
        raise UnknownVariableError(f"no state {variable!r} phase {phase!r}")

    coeffs = env.block(label)
    k = np.arange(-env.h, env.h + 1)
    phases_mat = np.exp(1j * np.outer(env.t, k) * env.omega1)
    series = np.sum(coeffs * phases_mat, axis=1)

    scale = float(np.max(np.abs(series)))
    if scale > 0.0:
        max_imag = float(np.max(np.abs(series.imag)))
        if max_imag > rtol * scale:
            raise ResidualImaginaryError(
                f"imaginary residual {max_imag:.3e} exceeds {rtol:.1e} * {scale:.3e}"
            )
    return series.real
