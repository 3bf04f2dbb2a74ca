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
``LiftedModel``, block v leg variable v of ``SMALLSIG_VARIABLES``, with
input blocks v_dc and phase a's voltage reference. Phases b and c are its
T/3 rotations (``LiftedModel.for_phase``).

Eigenvalue screening (``eigenvalues``) splits the model by the half-wave
operator (``LiftedModel.phase_blocks``, with the image of each leg
variable in ``LEG_HALF_WAVE``): two numpy eigendecompositions of about
half its size give phase a's spectrum, which each phase has.

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
    FieldValueError,
    ResidualImaginaryError,
    UnknownVariableError,
)
from .harmonic import instants, sample, synthesize
from .plant import (
    PHASES,
    STATE_LABELS,
    STATE_VARIABLES,
    LiftedModel,
    MmcParameters,
    check_finite,
    complex_step_jacobian,
    lift_phase_samples,
    plant_phase_equations,
)
from .steady import OperatingPoint, plant_samples

# The closed-loop leg variables, in the argument order of
# _closed_loop_equations; the 18 states are variable-major like the plant's
# (``plant.STATE_LABELS``), entry 3 v + p being variable v of phase p.
SMALLSIG_VARIABLES = STATE_VARIABLES + ("pr_1", "pr_2")
PR_LABELS = ("pr_a1", "pr_b1", "pr_c1", "pr_a2", "pr_b2", "pr_c2")
SMALLSIG_STATE_LABELS = STATE_LABELS + PR_LABELS

# The half-wave operator T2 shifts the states by half a period and swaps
# the upper and lower arms. Each leg variable v of SMALLSIG_VARIABLES maps
# to (image, sign), image a position there: variable v of T2 x at t is
# sign * x_image(t + T/2), so its harmonic k is sign * (-1)^k times harmonic
# k of the image. Both loops commute with T2, and the plant's orbit is
# invariant: i_c and v_cu + v_cl carry dc and even harmonics, i_g and
# v_cu - v_cl odd ones. The first four entries are the plant's.
LEG_HALF_WAVE = (
    (0, 1),   # i_c: itself
    (2, 1),   # v_cu: v_cl, the arms swap
    (1, 1),   # v_cl: v_cu
    (3, -1),  # i_g: itself, negated
    (4, -1),  # pr_1: itself, negated: driven by the ac voltage error, odd like i_g
    (5, -1),  # pr_2: itself, negated, as pr_1
)


@dataclass(frozen=True)
class ControllerParams:
    """Proportional-resonant ac-voltage controller gains; the resonance is
    at the plant's fundamental ``MmcParameters.omega1``."""

    K_p: float          # proportional gain, dimensionless
    K_r: float          # resonant gain, 1/s
    k_f: float          # measured-voltage feedforward gain, dimensionless

    def __post_init__(self):
        check_finite(self)
        for name in ("K_p", "K_r"):
            if getattr(self, name) < 0:
                raise FieldValueError(name, "must be >= 0")


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
    (``SMALLSIG_VARIABLES`` order) and v*, on the operating orbit at the N =
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
    y = x.reshape(len(SMALLSIG_VARIABLES), len(PHASES), -1)
    jacobian = complex_step_jacobian(
        _closed_loop_equations(params, ctrl), (np.zeros_like(y[0]), *y), (1, 2, 3, 4, 5, 6, 0)
    )
    return np.moveaxis(jacobian, 1, -1)


def assemble_smallsignal(
    op: OperatingPoint, params: MmcParameters, ctrl: ControllerParams, h: int
) -> LiftedModel:
    """Lifted closed-loop model of phase a about an operating point, derived
    from the closed-loop equations (``_closed_loop_samples``): six state
    blocks, input blocks v_dc and phase a's voltage reference. The v_dc
    input is the plant's own dc-bus term, the steady model's input
    (``plant_samples``).
    """
    if h != op.h:
        raise DimensionMismatchError(
            f"operating point solved at order {op.h}, model requested {h}"
        )
    closed = _closed_loop_samples(op, params, ctrl)
    dc = np.zeros_like(closed[:, :, :1])
    dc[:, :4] = plant_samples(params, (op.n_u, op.n_l), h)[:, :, 4:]
    return lift_phase_samples(
        np.concatenate([closed[:, :, :6], dc, closed[:, :, 6:]], axis=2), h, params.omega1
    )


def eigenvalues(model: LiftedModel) -> np.ndarray:
    """Spectrum of the lifted A of one phase leg, sorted by real part
    descending, then by imaginary part. The three legs are rotations of one
    another (``LiftedModel.for_phase``), so each has this spectrum, and the
    three-phase model has each eigenvalue three times.

    Computed from the two half-wave halves of A (``LiftedModel.phase_blocks``
    with the first entries of ``LEG_HALF_WAVE``, one per state block): one
    numpy eigendecomposition of each, about half its size. Raises
    HalfWaveAsymmetryError when A does not commute with the half-wave
    operator.
    """
    halves = model.phase_blocks(LEG_HALF_WAVE[: model.A.shape[0] // (2 * model.h + 1)])
    eig = np.concatenate([np.linalg.eigvals(half) for half in halves])
    order = np.lexsort((eig.imag, -eig.real))
    return eig[order]


def load_voltage_spectrum(op: OperatingPoint, params: MmcParameters, phase: str) -> np.ndarray:
    """Coefficient row of the ac terminal voltage v_g = Z_load(k) * i_g."""
    return params.load_impedance(np.arange(-op.h, op.h + 1)) * op.spectrum("i_g", phase)


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
        refs[p] = 2.0 * complex(v_g[op.h + 1])
    return refs


def operating_controller_states(
    op: OperatingPoint,
    params: MmcParameters,
    ctrl: ControllerParams,
    refs: dict[str, complex],
) -> np.ndarray:
    """Periodic resonant-controller states consistent with the operating
    point: (6, 2h+1) coefficient rows in ``PR_LABELS`` order, the first
    state of phases a, b, c, then the second.

    The first state of each phase is fixed by requiring the controller
    output to reproduce the operating-point insertion indices; the second
    follows from its integrator relation (dc slot from the first state's own
    equation). ``refs[p]`` is phase p's fundamental reference phasor. Used
    to place linearization checks on the closed-loop trajectory.
    """
    h = op.h
    k = np.arange(-h, h + 1)
    v_g = np.array([load_voltage_spectrum(op, params, p) for p in PHASES])
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
    return np.concatenate([x1, x2])


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
        [op.state_vector_at(t), [synthesize(c, op.omega1, t) for c in prs]]
    )


@dataclass(frozen=True)
class EnvelopeResponse:
    """Harmonic-coefficient envelopes of the small-signal states of the leg
    of ``phase`` over time, in the model's block order."""

    t: np.ndarray
    states: np.ndarray              # (n_times, n_blocks*(2h+1)) complex
    h: int
    omega1: float
    phase: str

    def block(self, variable: str) -> np.ndarray:
        """Envelopes of leg variable ``variable`` (``SMALLSIG_VARIABLES``);
        UnknownVariableError for one the model does not hold."""
        n = 2 * self.h + 1
        if variable not in SMALLSIG_VARIABLES[: self.states.shape[1] // n]:
            raise UnknownVariableError(f"no state block {variable!r}")
        i = SMALLSIG_VARIABLES.index(variable)
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

    The state starts at zero at ``t_start`` and steps as x <- Phi x + Gamma u
    (``_zero_order_hold_step``), so the grid values are exact for any ``dt``.
    Every grid point from ``t_start`` to ``t_end`` is stored.
    """
    phi, gu = _zero_order_hold_step(model, delta_u, dt)
    n_steps = int(round((t_end - t_start) / dt))
    if n_steps < 1:
        raise ValueError("t_end must lie at least one step after t_start")

    dim = phi.shape[0]
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
        phase=model.phase,
    )


def _zero_order_hold_step(
    model: LiftedModel, delta_u: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Phi and Gamma u of one exact zero-order-hold step of length ``dt``,
    x <- Phi x + Gamma u, with the lifted input vector ``delta_u``: the top
    blocks of expm([[A dt, B dt], [0, 0]]) (Van Loan 1978)."""
    dim, n_in = model.B.shape
    delta_u = np.asarray(delta_u, dtype=complex)
    if delta_u.shape != (n_in,):
        raise DimensionMismatchError(f"input vector must have shape ({n_in},)")
    augmented = np.zeros((dim + n_in, dim + n_in), dtype=complex)
    augmented[:dim, :dim] = model.A * dt
    augmented[:dim, dim:] = model.B * dt
    top = _expm(augmented)[:dim]
    return top[:, :dim], top[:, dim:] @ delta_u


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


def lifted_reference_step(model: LiftedModel, delta_phasor: complex) -> np.ndarray:
    """Lifted input vector of ``model`` for a reference-amplitude step on
    its phase (``LiftedModel.for_phase``).

    A fundamental-frequency step lives in the k = +/-1 slots of the
    reference block, input block 1, as a conjugate pair of half the phasor.
    DimensionMismatchError for a model without a reference input, such as
    a steady one.
    """
    n = 2 * model.h + 1
    if model.B.shape[1] < 2 * n:
        raise DimensionMismatchError("model has no voltage-reference input")
    u = np.zeros(model.B.shape[1], dtype=complex)
    u[n + model.h + 1] = 0.5 * delta_phasor
    u[n + model.h - 1] = 0.5 * np.conj(delta_phasor)
    return u


# Largest imaginary residual of a reconstructed perturbation, relative to its peak.
RECONSTRUCT_RTOL = 1e-6


def reconstruct_perturbation(env: EnvelopeResponse, variable: str) -> np.ndarray:
    """Real time series of the perturbation of leg variable ``variable``
    (``SMALLSIG_VARIABLES``) of the envelope's phase from its envelopes.

    The imaginary residual of the reconstruction is checked against
    ``RECONSTRUCT_RTOL`` times the series scale; a violation signals
    envelopes that do not describe a real signal.
    """
    coeffs = env.block(variable)
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
