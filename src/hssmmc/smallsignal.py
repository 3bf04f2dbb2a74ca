"""Closed-loop small-signal model of the MMC with proportional-resonant
ac-voltage control.

The control law realized here (and in the nonlinear reference simulator) is

    v_sx* = H_v(s) (v_gx* - v_gx) + k_f v_gx,
    n_ux  = 1/2 - v_sx*/V_dc,
    n_lx  = 1/2 + v_sx*/V_dc,

with H_v(s) = K_p + K_r s / (s^2 + w1^2) realized per phase by two states:

    dx1/dt = -w1^2 x2 + K_r e,   dx2/dt = x1,   y = x1.

The lifted model derives from the closed-loop equations the simulator
integrates (``_closed_loop_equations``): their complex-step Jacobian on the
operating orbit at ``instants(h)`` instants (``_closed_loop_samples``),
lifted as the steady model is (``lift_phase_samples``) to phase a's 6-block
``LiftedModel`` with inputs v_dc and phase a's voltage reference. Phases b
and c are its T/3 rotations (``LiftedModel.for_phase``).

Eigenvalue screening (``eigenvalues``) splits the model by the half-wave
operator (``LiftedModel.phase_blocks``, with the controller states' images
in ``SMALLSIG_HALF_WAVE_IMAGE``): two numpy eigendecompositions of about
half its size give phase a's spectrum, which the three phases share.

Envelope responses of this LTI model to a reference step are exact
zero-order-hold propagations by its transition matrix, so they hold for
any time step. The transition matrix comes from ``_expm``, a numpy
scaling-and-squaring [13/13] Padé exponential (Higham 2005), so this
module, like the rest of the package, runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ResidualImaginaryError,
    UnknownVariableError,
)
from .harmonic import HarmonicVector, instants, sample, synthesize
from .plant import (
    HALF_WAVE_IMAGE,
    PHASE_STATES,
    PHASES,
    STATE_LABELS,
    LiftedModel,
    MmcParameters,
    complex_step_jacobian,
    lift_phase_samples,
    plant_phase_equations,
)
from .steady import OperatingPoint, plant_samples

PR_LABELS = ("pr_a1", "pr_a2", "pr_b1", "pr_b2", "pr_c1", "pr_c2")
SMALLSIG_STATE_LABELS = STATE_LABELS + PR_LABELS

# Half-wave images (``plant.HALF_WAVE_IMAGE``) of the closed-loop states:
# the PR states are driven by the ac voltage error, which carries odd
# harmonics, so they flip sign with i_g.
SMALLSIG_HALF_WAVE_IMAGE = {**HALF_WAVE_IMAGE, "pr_1": ("pr_1", -1), "pr_2": ("pr_2", -1)}


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


# The positions in the 18-state vector of each phase's six states, in the
# argument order of _closed_loop_equations: i_c, v_cu, v_cl, i_g, x1, x2.
_PHASE_COLUMNS = [PHASE_STATES[p] + [12 + 2 * p, 13 + 2 * p] for p in range(len(PHASES))]


def _closed_loop_equations(params: MmcParameters, ctrl: ControllerParams):
    """The closed-loop equations of one phase leg, as a function
    (v_star, i_c, v_cu, v_cl, i_g, x1, x2) -> the time derivatives of
    (i_c, v_cu, v_cl, i_g, x1, x2), with x1, x2 the PR controller states and
    v_star the voltage reference at that instant.

    As in ``plant_phase_equations``, which supplies the plant rows, every
    operation is elementwise: the arguments are floats for one phase or
    (3,) or (3, k) arrays for all three.

    The insertion indices follow from the modulation voltage
    v_mod = K_p (v* - v_g) + x1 + k_f v_g, n_u,l = 1/2 -+ v_mod / V_dc. With
    an inductive load part the terminal voltage v_g = R_load i_g +
    L_load di_g/dt depends on di_g/dt, which itself depends on the
    insertion indices; that linear relation is solved in closed form, so no
    inner iteration is needed. A zero denominator there raises
    ZeroDivisionError on floats and gives inf on arrays.

    Raises ValueError for V_dc = 0, where the index law is undefined.
    """
    plant = plant_phase_equations(params)
    v_dc = params.V_dc
    if v_dc == 0.0:
        raise ValueError("the closed loop needs a nonzero V_dc: its insertion indices divide by it")
    # Reciprocals, as numpy's complex division uses: a real column runs as a real run.
    inv_v_dc = 1.0 / v_dc
    K_p = ctrl.K_p
    K_r = ctrl.K_r
    w1sq = params.omega1 ** 2
    R_L = params.R_load
    L_L = params.L_load
    kd = ctrl.k_f - ctrl.K_p
    kd_R_L = kd * R_L
    kd_L_L = kd * L_L
    R_g = params.R + 2.0 * R_L
    L_g = params.L + 2.0 * L_L

    def derivatives(v_star, i_c, v_cu, v_cl, i_g, x1, x2):
        # v_mod is w + kd L_load di_g/dt, and the plant's
        # (L + 2 L_load) di_g/dt = -n_u v_cu + n_l v_cl - (R + 2 R_load) i_g
        # becomes linear in di_g/dt.
        sigma = (v_cu + v_cl) * inv_v_dc
        w = K_p * v_star + x1 + kd_R_L * i_g
        di_g = (sigma * w - 0.5 * (v_cu - v_cl) - R_g * i_g) * (1.0 / (L_g - kd_L_L * sigma))
        v_mod = w + kd_L_L * di_g
        v_g = R_L * i_g + L_L * di_g
        n_u = 0.5 - v_mod * inv_v_dc
        n_l = 0.5 + v_mod * inv_v_dc
        return (
            *plant(i_c, v_cu, v_cl, i_g, n_u, n_l, v_dc),
            -w1sq * x2 + K_r * (v_star - v_g),
            x1,
        )

    return derivatives


def _closed_loop_samples(
    op: OperatingPoint, params: MmcParameters, ctrl: ControllerParams, t0: float = 0.0
) -> np.ndarray:
    """Complex-step Jacobian samples (3, 6, 7, N) of
    ``_closed_loop_equations`` per phase with respect to its six states
    (``_PHASE_COLUMNS`` order) and v*, on the operating orbit at the N =
    ``instants(op.h)`` instants t0 + j T / N, all 18 rows sampled by one
    inverse FFT.

    The equations see v* and x1 only through the modulation voltage, so the
    samples take v* = 0 and the PR states ``operating_controller_states``
    gives with zero references: no reference phasor is needed, which an
    order-0 point lacks.
    """
    prs = operating_controller_states(op, params, ctrl, {p: 0.0 for p in PHASES})
    rows = np.concatenate([op.coeffs, prs])
    k = np.arange(-op.h, op.h + 1)
    x = sample(rows * np.exp(1j * k * params.omega1 * t0), instants(op.h))
    y = x[np.transpose(_PHASE_COLUMNS)]  # (6, 3, N)
    jacobian = complex_step_jacobian(
        _closed_loop_equations(params, ctrl), (np.zeros_like(y[0]), *y), (1, 2, 3, 4, 5, 6, 0)
    )
    return np.moveaxis(jacobian, 1, -1)


def assemble_smallsignal(
    op: OperatingPoint, params: MmcParameters, ctrl: ControllerParams, h: int
) -> LiftedModel:
    """Lifted closed-loop model of phase a about an operating point, derived
    from the closed-loop equations (``_closed_loop_samples``), inputs v_dc
    and v_ga_ref. The v_dc input is the plant's own dc-bus term, the steady
    model's input (``plant_samples``).
    """
    if h != op.h:
        raise DimensionMismatchError(
            f"operating point solved at order {op.h}, model requested {h}"
        )
    closed = _closed_loop_samples(op, params, ctrl)
    dc = np.zeros_like(closed[:, :, :1])
    dc[:, :4] = plant_samples(params, (op.n_u, op.n_l), h)[:, :, 4:]
    return lift_phase_samples(
        np.concatenate([closed[:, :, :6], dc, closed[:, :, 6:]], axis=2), h, params.omega1,
        [SMALLSIG_STATE_LABELS[i] for i in _PHASE_COLUMNS[0]], ("v_dc", "v_ga_ref"),
    )


def eigenvalues(model: LiftedModel) -> np.ndarray:
    """Spectrum of the lifted A of all three phases, sorted by real part
    descending, then by imaginary part.

    Computed from the two half-wave halves of phase a's A
    (``LiftedModel.phase_blocks`` with ``SMALLSIG_HALF_WAVE_IMAGE``, which
    also covers the plant states of a steady model): one numpy
    eigendecomposition of each, about half its size, whose spectra together
    are repeated three times, once per phase. Raises HalfWaveAsymmetryError
    when A does not commute with the half-wave operator.
    """
    halves = model.phase_blocks(SMALLSIG_HALF_WAVE_IMAGE)
    eig = np.tile(np.concatenate([np.linalg.eigvals(half) for half in halves]), len(PHASES))
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


def operating_controller_states(
    op: OperatingPoint,
    params: MmcParameters,
    ctrl: ControllerParams,
    refs: dict[str, complex],
) -> np.ndarray:
    """Periodic resonant-controller states consistent with the operating
    point: (6, 2h+1) coefficient rows in ``PR_LABELS`` order.

    The first state of each phase is fixed by requiring the controller
    output to reproduce the operating-point insertion indices; the second
    follows from its integrator relation (dc slot from the first state's own
    equation). ``refs[p]`` is phase p's fundamental reference phasor. Used
    to place linearization checks on the closed-loop trajectory.
    """
    h = op.h
    k = np.arange(-h, h + 1)
    v_g = np.array([load_voltage_spectrum(op, params, p).coeffs for p in PHASES])
    v_ref = np.zeros_like(v_g)
    if h >= 1:
        for i, p in enumerate(PHASES):
            v_ref[i, h + 1] = 0.5 * refs[p]
            v_ref[i, h - 1] = 0.5 * np.conj(refs[p])
    err = v_ref - v_g
    # Modulation voltage that generates the operating-point indices.
    v_mod = (np.where(k == 0, 0.5, 0.0) - op.n_u) * params.V_dc
    x1 = v_mod - ctrl.K_p * err - ctrl.k_f * v_g
    with np.errstate(divide="ignore", invalid="ignore"):
        x2 = np.where(k != 0, x1 / (1j * k * op.omega1), 0.0)
    # Python complex arithmetic: numpy's complex division differs by an ulp.
    x2[:, h] = [ctrl.K_r * complex(e) / params.omega1 ** 2 for e in err[:, h]]
    return np.stack([x1, x2], axis=1).reshape(2 * len(PHASES), 2 * h + 1)


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
        [op.state_vector_at(t), [synthesize(HarmonicVector(op.h, op.omega1, c), t) for c in prs]]
    )


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


def envelope_response(
    model: LiftedModel,
    delta_u: np.ndarray,
    t_end: float,
    dt: float,
    t_start: float = 0.0,
) -> EnvelopeResponse:
    """Exact zero-order-hold response of the lifted small-signal model to
    the lifted input vector ``delta_u``, active from ``t_start`` on.

    The state starts at zero at ``t_start`` and steps as x <- Phi x + Gamma u,
    where Phi and Gamma are the top blocks of expm([[A dt, B dt], [0, 0]])
    (Van Loan 1978, with ``_expm``), so the grid values are exact for any
    ``dt``. Every grid point from ``t_start`` to ``t_end`` is stored.
    """
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
    top = _expm(augmented)[:dim]
    phi, gamma = top[:, :dim], top[:, dim:]
    gu = gamma @ delta_u

    x = np.zeros(dim, dtype=complex)
    out = np.empty((n_steps + 1, dim), dtype=complex)
    out[0] = x
    for n in range(n_steps):
        x = phi @ x + gu
        out[n + 1] = x

    return EnvelopeResponse(
        t=t_start + np.arange(n_steps + 1) * dt,
        states=out,
        h=model.h,
        omega1=model.omega1,
        labels=model.state_labels,
    )


# Coefficients b_0..b_13 of the [13/13] Padé approximant of exp, and the
# largest 1-norm for which it meets double-precision unit roundoff in
# backward error (Higham 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Padé
    approximant (Higham 2005): a is scaled by 2^-s into the 1-norm ball of
    radius ``_THETA13``, exp(a 2^-s) = (V - U)^-1 (V + U) with U and V the
    odd and even parts of the Padé numerator, and the result squared s
    times."""
    norm = float(np.linalg.norm(a, 1))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def lifted_reference_step(
    model: LiftedModel, phase: str, delta_phasor: complex
) -> np.ndarray:
    """Lifted input vector of ``model`` for a reference-amplitude step on
    one phase, whose model ``model`` is (``LiftedModel.for_phase``).

    A fundamental-frequency step lives in the k = +/-1 slots of that
    phase's reference block, as a conjugate pair of half the phasor.
    """
    label = f"v_g{phase}_ref"
    if label not in model.input_labels:
        raise UnknownVariableError(f"model has no input {label!r}")
    n = 2 * model.h + 1
    u = np.zeros(len(model.input_labels) * n, dtype=complex)
    col = model.input_labels.index(label)
    u[col * n + model.h + 1] = 0.5 * delta_phasor
    u[col * n + model.h - 1] = 0.5 * np.conj(delta_phasor)
    return u


# Largest imaginary residual of a reconstructed perturbation, relative to its peak.
RECONSTRUCT_RTOL = 1e-6


def reconstruct_perturbation(env: EnvelopeResponse, variable: str, phase: str) -> np.ndarray:
    """Real time series of one state's perturbation from its envelopes.

    The imaginary residual of the reconstruction is checked against
    ``RECONSTRUCT_RTOL`` times the series scale; a violation signals
    envelopes that do not describe a real signal.
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
        if max_imag > RECONSTRUCT_RTOL * scale:
            raise ResidualImaginaryError(
                f"imaginary residual {max_imag:.3e} exceeds {RECONSTRUCT_RTOL:.1e} * {scale:.3e}"
            )
    return series.real
