"""Nonlinear time-domain reference simulator of the average-value MMC.

Fixed-step RK4, deterministic and bit-reproducible for identical inputs.
Open-loop runs drive the plant with sinusoidal insertion indices;
closed-loop runs add the per-phase proportional-resonant ac-voltage
controller, with reference phasors that are constant over a run. The
equations are written once, elementwise (``plant.plant_phase_equations``
and ``smallsignal._closed_loop_equations``), and the lifted models are
derived from the same functions. On numpy arrays, ``_rk4`` advances a block of
state columns with shared references; a column runs exactly the
operations of a single-vector run. One real closed-loop state runs as
three per-phase systems on Python floats (``_closed_loop_floats``): the
phases share only the constant dc bus, and the same expressions in the
same order give the same doubles as a one-column block. Settled
trajectories feed the spectral extraction used to cross-check the lifted
models.

Time lives on one grid: a fundamental period holds ``steps_per_period``
RK4 steps of dt = period / steps_per_period, and every run length, start
point and window is a whole number of those steps. Every run is a
``Trajectory``: one state array on the grid t = (n0 + i)·dt, so runs that
continue one another lie on one grid and join by concatenation.

Both loops commute with the half-wave operator H (``HALF_WAVE_OPERATOR``:
half a period on, arms swapped, ac quantities negated), so both shoot
(Aprille & Trick 1972) on the half-wave map G = H F_half, F_half the RK4
map over half a period, and the second half of a period is H applied to
the first; ``steps_per_period`` is even so that T/2 is a grid point. The
open loop is linear time-periodic at fixed insertion indices, so G is
affine, and both open-loop runs are composed from one 13-column RK4 pass
over half a period (``_open_loop_periods``): a transient
(``simulate_open_loop``) or the periodic orbit at G's fixed point
(``settled_open_loop``). ``settle_periods`` sets how long a transient must
be before its last two periods are checked for settling. The closed loop
is integrated step by step and shot by Newton (``settled_closed_loop``):
each pass is one real float run over half a period, and the Jacobian of G
is the exact derivative of that run's RK4 map (``_tangent_map``), block
diagonal over the phases, from stage Jacobians by complex step (Squire &
Trapp 1998) taken for every step in one array call
(``plant.complex_step_jacobian``, as for the lifted models).
A reference step in an exported closed-loop run is two runs, the second
starting from the first one's final state with the stepped references
(``pipelines.reference_step_run``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ModulationOutOfRangeError,
    NotSettledError,
    NumericalBlowupError,
    OrderMismatchError,
    ShootingError,
)
from .harmonic import HarmonicVector, analyze
from .plant import (
    PHASES,
    PHASE_SHIFT,
    MmcParameters,
    complex_step_jacobian,
    plant_rhs,
    split_phase,
)
from .smallsignal import (
    _PHASE_COLUMNS,
    SMALLSIG_HALF_WAVE_IMAGE,
    SMALLSIG_STATE_LABELS,
    ControllerParams,
    _closed_loop_equations,
)
from .steady import solve_lifted

# A simulated state magnitude beyond this multiple of the dc-bus voltage
# (or of unity for an unenergized bus) aborts the run.
BLOWUP_FACTOR = 1e9

# Last-two-period RMS change below this fraction of the signal RMS counts
# as settled.
SETTLE_RTOL = 1e-3

# Closed-loop Newton shooting stops at this relative defect of the
# half-wave map, and gives up after this many Newton updates.
SHOOTING_DEFECT_TOL = 1e-10
SHOOTING_MAX_ITERATIONS = 8

_PHASE_ANGLES = np.array([PHASE_SHIFT[p] for p in PHASES])


@dataclass(frozen=True)
class SimulationConfig:
    """Run lengths on the fundamental-period grid.

    A fundamental period holds ``steps_per_period`` RK4 steps, an even
    number so that half a period is a grid point (the half-wave map); a
    run lasts ``total_periods`` periods, more than the ``settle_periods``
    that ``simulate_open_loop`` needs before its settled check.
    """

    steps_per_period: int
    total_periods: int
    settle_periods: int

    def __post_init__(self):
        if self.steps_per_period < 4:
            raise ValueError("steps_per_period must be >= 4")
        if self.steps_per_period % 2:
            raise ValueError("steps_per_period must be even")
        if self.settle_periods < 2:
            raise ValueError("settle_periods must be >= 2")
        if self.total_periods <= self.settle_periods:
            raise ValueError("total_periods must exceed settle_periods")

    def n_steps(self) -> int:
        return self.total_periods * self.steps_per_period


@dataclass
class Trajectory:
    """One simulation run: ``states[i]`` is the state at grid point n0 + i,
    t = (n0 + i)·dt, on a grid of ``steps_per_period`` steps per
    fundamental period.

    ``states`` is (n, 12) in ``STATE_LABELS`` order for an open-loop run and
    (n, 18) in ``SMALLSIG_STATE_LABELS`` order, the plant states followed by
    the PR controller states, for a closed-loop run.
    """

    dt: float
    steps_per_period: int
    n0: int
    states: np.ndarray
    t: np.ndarray = field(init=False)

    def __post_init__(self):
        self.t = (self.n0 + np.arange(self.states.shape[0])) * self.dt

    def series(self, variable: str, phase: str) -> np.ndarray:
        from .plant import state_position

        return self.states[:, state_position(variable, phase)]


def _check_blowup(rows: np.ndarray, scale: float, n0: int, dt: float, steps_per_period: int):
    """Raise NumericalBlowupError at the first of ``rows``, the states at
    grid points n0, n0 + 1, ..., that is not finite or beyond
    ``BLOWUP_FACTOR`` * scale; the message names its grid step, period and
    time."""
    size = np.max(np.abs(rows.reshape(rows.shape[0], -1)), axis=1)
    bad = ~(size <= BLOWUP_FACTOR * scale)  # a NaN fails too
    if np.any(bad):
        i = int(np.argmax(bad))
        step = n0 + i
        raise NumericalBlowupError(
            f"state magnitude {size[i]:.3e} left the plausible range at step {step} "
            f"(period {step // steps_per_period}, t = {step * dt:.6g} s)"
        )


def _rk4(
    rhs, x0: np.ndarray, n0: int, n_steps: int, dt: float, steps_per_period: int, scale: float
) -> np.ndarray:
    """Fixed-step RK4 from grid point ``n0``; returns all n_steps+1 states
    including the initial one.

    ``x0`` is one state vector or a block of state columns that ``rhs``
    advances together; a complex ``x0`` runs complex.

    The state is checked for blow-up once per period of steps and at the
    end; a failed check names the grid step, its period and its time.
    """
    x = np.asarray(x0)
    x = x.astype(np.result_type(x, float))
    out = np.empty((n_steps + 1,) + x.shape, x.dtype)
    out[0] = x
    t0 = n0 * dt
    half = 0.5 * dt
    sixth = dt / 6.0
    # A run that blows up overflows before its next check; the check, not
    # numpy's warnings, reports it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(n_steps):
            t = t0 + n * dt
            if n % steps_per_period == 0:
                _check_blowup(x[None], scale, n0 + n, dt, steps_per_period)
            k1 = rhs(t, x)
            k2 = rhs(t + half, x + half * k1)
            k3 = rhs(t + half, x + half * k2)
            k4 = rhs(t + dt, x + dt * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[n + 1] = x
    _check_blowup(x[None], scale, n0 + n_steps, dt, steps_per_period)
    return out


def default_initial_state(params: MmcParameters) -> np.ndarray:
    """Capacitor sums at the dc-bus voltage, all currents zero."""
    x0 = np.zeros(12)
    x0[3:9] = params.V_dc
    return x0


def _open_loop_rhs(params: MmcParameters, m: float, v_dc):
    """Open-loop right-hand side with sinusoidal insertion indices.

    ``v_dc`` is a scalar for one 12-state vector, or one value per column
    of a (12, k) state block.
    """
    w1 = params.omega1
    phi = _PHASE_ANGLES.reshape((3,) + (1,) * np.ndim(v_dc))

    def rhs(t, x):
        n_u = 0.5 - 0.5 * m * np.cos(w1 * t - phi)
        return plant_rhs(x, n_u, 1.0 - n_u, v_dc, params)

    return rhs


def _check_modulation(m: float):
    if not 0.0 <= m <= 1.0:
        raise ModulationOutOfRangeError(f"modulation index {m} outside [0, 1]")


def _half_wave_operator() -> np.ndarray:
    """The half-wave operator H on the closed-loop states as an 18 x 18
    signed permutation matrix, (H x)_v = sign * x_image for each state v,
    from ``SMALLSIG_HALF_WAVE_IMAGE``: i_c stays, v_cu and v_cl swap, and
    i_g and the PR states change sign. With references that are pure
    fundamentals, v*(t + T/2) = -v*(t), so a closed-loop run started at
    H x half a period on is H applied to the run started at x; an
    open-loop run does the same under the 12 x 12 plant block."""
    position = {split_phase(label): i for i, label in enumerate(SMALLSIG_STATE_LABELS)}
    H = np.zeros((len(position), len(position)))
    for i, label in enumerate(SMALLSIG_STATE_LABELS):
        variable, phase = split_phase(label)
        image, sign = SMALLSIG_HALF_WAVE_IMAGE[variable]
        H[i, position[image, phase]] = sign
    return H


HALF_WAVE_OPERATOR = _half_wave_operator()


def _open_loop_periods(
    params: MmcParameters, m: float, spp: int, n0: int, n_periods: int, x0: np.ndarray | None
) -> Trajectory:
    """Open-loop run over grid points n0 .. n0 + n_periods * spp, composed
    from one RK4 pass over half a period.

    At fixed insertion indices the plant is linear time-periodic and
    commutes with the plant block H of ``HALF_WAVE_OPERATOR``, and rest
    x_rest is H-invariant. The pass advances 13 columns from n0, rest with input v_dc (r)
    and the identity with no input (Psi). Half period q runs from x_q as
    H^q (r(s) + Psi(s) d_q), d_q = H^q x_q - x_rest, and
    d_{q+1} = Phi d_q + g with Phi = H Psi(T/2), g = H r(T/2) - x_rest.
    ``x0`` is the state at n0, or None for the periodic orbit
    d* = (I - Phi)^-1 g. Each half period is checked for blow-up; from rest
    at m = 0 every d_q is exactly zero.
    """
    _check_modulation(m)
    half = spp // 2
    dt = params.period / spp
    scale = max(params.V_dc, 1.0)
    x_rest = default_initial_state(params)
    H = HALF_WAVE_OPERATOR[:12, :12]
    rhs = _open_loop_rhs(params, m, np.r_[params.V_dc, np.zeros(12)])
    run = _rk4(rhs, np.hstack([x_rest[:, None], np.eye(12)]), n0, half, dt, spp, scale)
    image = H @ run  # H applied at every step
    phi, g = image[-1, :, 1:], image[-1, :, 0] - x_rest
    d = _shooting_fixed_point(phi, g)[0] if x0 is None else x0 - x_rest
    states = np.empty((n_periods * spp + 1, 12))
    for q in range(2 * n_periods):
        rows = states[q * half : (q + 1) * half + 1]
        basis = (run, image)[q % 2].reshape(-1, 13)
        rows[:] = (basis @ np.concatenate(([1.0], d))).reshape(rows.shape)
        _check_blowup(rows, scale, n0 + q * half, dt, spp)
        d = phi @ d + g
    return Trajectory(dt, spp, n0, states)


def simulate_open_loop(
    params: MmcParameters,
    m: float,
    cfg: SimulationConfig,
    x0: np.ndarray | None = None,
) -> Trajectory:
    """Open-loop transient from ``x0`` (default: rest) over the configured
    run, every grid point composed from one RK4 pass over half a period."""
    x_init = default_initial_state(params) if x0 is None else np.asarray(x0, dtype=float)
    return _open_loop_periods(params, m, cfg.steps_per_period, 0, cfg.total_periods, x_init)


def settled_open_loop(params: MmcParameters, m: float, cfg: SimulationConfig) -> Trajectory:
    """Periodic steady state of the open-loop plant by shooting (Aprille &
    Trick 1972) on the last two periods of the configured grid, composed
    from the fixed point of the affine half-wave map (``_open_loop_periods``).

    The fixed point is solved as its deviation from rest, so the m = 0
    equilibrium comes out exact. The orbit lies on the grid of a
    ``simulate_open_loop`` run, so ``settling_profile`` measures the
    shooting defect.

    Raises SingularSystemError when the gated solve rejects I - Phi, and
    NotSettledError when the largest Floquet multiplier is not below one.
    """
    spp = cfg.steps_per_period
    return _open_loop_periods(params, m, spp, cfg.n_steps() - 2 * spp, 2, None)


def _shooting_fixed_point(phi: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Fixed point of the half-wave map x -> phi x + g, and the largest
    Floquet multiplier: one period is two half-wave maps, so it is the
    largest eigenvalue magnitude of phi, squared.

    Raises SingularSystemError when the gated solve (``steady.solve_lifted``)
    rejects I - phi, and NotSettledError when the largest Floquet multiplier
    is not below one: the fixed point then exists but no transient settles
    onto it.
    """
    x, _, _ = solve_lifted(np.eye(g.size) - phi, g)
    multiplier = float(np.max(np.abs(np.linalg.eigvals(phi)))) ** 2
    if multiplier >= 1.0:
        raise NotSettledError(
            f"largest Floquet multiplier {multiplier:.6g} is not below 1: "
            "the periodic orbit is not attracting"
        )
    return x, multiplier


def _closed_loop_rhs(params: MmcParameters, ctrl: ControllerParams, amps: np.ndarray):
    """Right-hand side of the 18-state closed-loop model with constant
    per-phase reference phasors ``amps``.

    ``amps`` is (3,) for one 18-state vector, or (3, 1), shared, for an
    (18, k) block of state columns. Every operation is elementwise, so a
    column of a block advances exactly as that column alone would. The
    tests run blocks of columns as a reference for the float path and for
    the shooting Jacobian (``_tangent_map``).
    """
    w1 = params.omega1
    re, im = amps.real, amps.imag
    derivatives = _closed_loop_equations(params, ctrl)

    def rhs(t, x):
        # Scalar t: math.cos costs a fraction of np.cos per call.
        v_star = re * math.cos(w1 * t) - im * math.sin(w1 * t)
        d = np.empty(x.shape, x.dtype)
        d[0:3], d[3:6], d[6:9], d[9:12], d[12:18:2], d[13:18:2] = derivatives(
            v_star, x[0:3], x[3:6], x[6:9], x[9:12], x[12:18:2], x[13:18:2]
        )
        return d

    return rhs


def _reference_amps(refs: dict[str, complex]) -> np.ndarray:
    return np.array([refs[p] for p in PHASES], dtype=complex)


def _closed_loop_run(params, ctrl, amps, steps_per_period, n_steps, x0, n0) -> np.ndarray:
    """Closed-loop RK4 states at grid points n0 .. n0 + n_steps.

    One real state vector advances phase by phase on Python floats
    (``_closed_loop_floats``): the phases share only the constant dc bus,
    and numpy's cost per call on 3-element slices is most of a step. A
    block of state columns, or a complex state, advances in ``_rk4``; the
    tests use it as an independent reference."""
    x0 = np.asarray(x0)
    if x0.ndim == 1 and not np.iscomplexobj(x0):
        return _closed_loop_floats(params, ctrl, amps, steps_per_period, n_steps, x0, n0)
    dt = params.period / steps_per_period
    rhs = _closed_loop_rhs(params, ctrl, amps)
    return _rk4(rhs, x0, n0, n_steps, dt, steps_per_period, max(params.V_dc, 1.0))


def _closed_loop_floats(params, ctrl, amps, steps_per_period, n_steps, x0, n0) -> np.ndarray:
    """``_rk4`` of ``_closed_loop_rhs`` from one real state vector, bit for
    bit, run on Python floats one phase at a time.

    The same equations (``_closed_loop_equations``) and the same RK4 stage
    expressions are evaluated in the same order, so every double matches
    the array run. Between the blow-up checks, once per period of steps,
    each phase advances on its own, a segment of steps at a time
    (``_float_segments``); the cosines and sines at the stage times are
    shared by the three. A zero di_g denominator raises
    NumericalBlowupError naming its step, where an array run would carry
    inf to the next check.
    """
    spp = steps_per_period
    dt = params.period / spp
    scale = max(params.V_dc, 1.0)
    derivatives = _closed_loop_equations(params, ctrl)
    w1 = params.omega1
    t0 = n0 * dt
    half = 0.5 * dt
    sixth = dt / 6.0
    out = np.empty((n_steps + 1, x0.size))
    out[0] = x0
    states = [tuple(out[0, c].tolist()) for c in _PHASE_COLUMNS]
    refs = list(zip(amps.real.tolist(), amps.imag.tolist()))
    for start, stop in _float_segments(n_steps, spp):
        if start % spp == 0:
            _check_blowup(out[start][None], scale, n0 + start, dt, spp)
        cos_sin = []
        for n in range(start, stop):
            t = t0 + n * dt
            cos_sin.append((
                math.cos(w1 * t), math.sin(w1 * t),
                math.cos(w1 * (t + half)), math.sin(w1 * (t + half)),
                math.cos(w1 * (t + dt)), math.sin(w1 * (t + dt)),
            ))
        for p, (re, im) in enumerate(refs):
            rows = []
            x = states[p]
            try:
                for c1, s1, c2, s2, c4, s4 in cos_sin:
                    x = _phase_rk4_step(
                        derivatives, x, re * c1 - im * s1, re * c2 - im * s2, re * c4 - im * s4,
                        half, dt, sixth,
                    )
                    rows += x
            except ZeroDivisionError:
                step = n0 + start + len(rows) // len(x)
                raise NumericalBlowupError(
                    f"the di_g denominator L + 2 L_load - (k_f - K_p) L_load sigma is zero "
                    f"at step {step} (period {step // spp}, t = {step * dt:.6g} s)"
                ) from None
            states[p] = x
            out[start + 1 : stop + 1, _PHASE_COLUMNS[p]] = np.array(rows).reshape(-1, len(x))
    _check_blowup(out[n_steps][None], scale, n0 + n_steps, dt, spp)
    return out


# A float run advances each phase over at most this many steps before the
# next phase, which keeps its lists of Python floats small.
_FLOAT_SEGMENT_STEPS = 250


def _float_segments(n_steps: int, spp: int):
    """(start, stop) of the step segments of a float run: none longer than
    ``_FLOAT_SEGMENT_STEPS``, and none across a multiple of ``spp``, where
    the blow-up check comes."""
    for period_start in range(0, n_steps, spp):
        period_stop = min(period_start + spp, n_steps)
        for start in range(period_start, period_stop, _FLOAT_SEGMENT_STEPS):
            yield start, min(start + _FLOAT_SEGMENT_STEPS, period_stop)


def _phase_rk4_step(f, x, v1, v2, v4, half, dt, sixth):
    """One RK4 step of one phase's six closed-loop states ``x`` on floats,
    with the references v1, v2, v4 at the start, middle and end of the step:
    the stage expressions of ``_rk4``."""
    i_c, v_cu, v_cl, i_g, x1, x2 = x
    a1, b1, c1, d1, e1, f1 = f(v1, i_c, v_cu, v_cl, i_g, x1, x2)
    a2, b2, c2, d2, e2, f2 = f(
        v2, i_c + half * a1, v_cu + half * b1, v_cl + half * c1,
        i_g + half * d1, x1 + half * e1, x2 + half * f1,
    )
    a3, b3, c3, d3, e3, f3 = f(
        v2, i_c + half * a2, v_cu + half * b2, v_cl + half * c2,
        i_g + half * d2, x1 + half * e2, x2 + half * f2,
    )
    a4, b4, c4, d4, e4, f4 = f(
        v4, i_c + dt * a3, v_cu + dt * b3, v_cl + dt * c3,
        i_g + dt * d3, x1 + dt * e3, x2 + dt * f3,
    )
    return (
        i_c + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
        v_cu + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
        v_cl + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
        i_g + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4),
        x1 + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4),
        x2 + sixth * (f1 + 2.0 * f2 + 2.0 * f3 + f4),
    )


def simulate_closed_loop(
    params: MmcParameters,
    ctrl: ControllerParams,
    refs: dict[str, complex],
    steps_per_period: int,
    n_steps: int,
    x0: np.ndarray | None = None,
    n0: int = 0,
) -> Trajectory:
    """Integrate the closed-loop model with per-phase reference phasors.

    ``refs[p]`` is the complex fundamental phasor of phase p's voltage
    reference, v*(t) = Re(refs[p] * exp(j w1 t)), constant over the run.
    The run takes ``n_steps`` steps of a ``steps_per_period`` grid from grid
    point ``n0``; the default start is the cold start of
    ``default_initial_state`` with zero controller states.
    """
    if x0 is None:
        x0 = np.concatenate([default_initial_state(params), np.zeros(6)])
    states = _closed_loop_run(
        params, ctrl, _reference_amps(refs), steps_per_period, n_steps, x0, n0
    )
    return Trajectory(params.period / steps_per_period, steps_per_period, n0, states)


@dataclass(frozen=True)
class PeriodicOrbit:
    """One period of a periodic orbit found by Newton shooting on the
    half-wave map, with the shooting diagnostics. The first half of the
    period is the RK4 run from states[0], bit for bit; the second half is
    the half-wave operator applied to it. Repeated, states[:-1] is the RK4
    run from states[0] over later periods to the shooting tolerance."""

    trajectory: Trajectory      # states[0] is the fixed point, at grid point n0
    iterations: int             # Newton updates taken
    defect: float               # relative defect of the half-wave map at states[0]
    multiplier: float           # largest full-period Floquet multiplier, max|eig(J)|²


def _tangent_map(params, ctrl, amps, steps_per_period, n0, run) -> np.ndarray:
    """Jacobian of the closed-loop RK4 map from run[0] to run[-1], the
    states at grid points n0 .. n0 + n of one real run with reference
    phasors ``amps`` (3,), as an 18 x 18 matrix.

    The phases share only the constant dc bus, so the Jacobian is block
    diagonal over them (``_PHASE_COLUMNS``). The four RK4 stage states of
    every step are recomputed from the run on (3, n) arrays, and every stage
    Jacobian A = df/dy is taken by complex step in one call of
    ``_closed_loop_equations`` on (3 phases, 4 stages, n steps) arguments
    (``complex_step_jacobian``). Step i's matrix is the derivative of its RK4
    update, M = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A1,
    K2 = A2 (I + dt/2 K1), K3 = A3 (I + dt/2 K2), K4 = A4 (I + dt K3), and
    the steps are multiplied in pairs, about log2(n) batched products. The
    products are carried as M - I, (I + B)(I + A) = I + A + B + BA, so the
    identity is not rounded into the small entries. At sec3's rest state
    with K_p = 2, against an extended-precision product, the products of M
    itself left one entry 1.5e-11 off relative to itself; this form leaves
    9e-14, and the complex step of a whole run 1.5e-12.
    """
    dt = params.period / steps_per_period
    half = 0.5 * dt
    sixth = dt / 6.0
    f = _closed_loop_equations(params, ctrl)
    n = run.shape[0] - 1
    t = n0 * dt + np.arange(n) * dt
    w1 = params.omega1
    re, im = amps.real[:, None], amps.imag[:, None]

    def v_star(times):
        return re * np.cos(w1 * times) - im * np.sin(w1 * times)

    v1, v2, v4 = v_star(t), v_star(t + half), v_star(t + dt)
    eye = np.eye(6)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y1 = run[:-1, np.transpose(_PHASE_COLUMNS)].transpose(1, 2, 0)  # (6, 3, n)
        y2 = y1 + half * np.array(f(v1, *y1))
        y3 = y1 + half * np.array(f(v2, *y2))
        y4 = y1 + dt * np.array(f(v2, *y3))
        y = np.stack([y1, y2, y3, y4], axis=2)  # (6, 3, 4, n)
        v = np.stack([v1, v2, v2, v4], axis=1)
        a = complex_step_jacobian(f, (v, *y), range(1, 7))  # (3, 4, n, 6, 6)
        k1 = a[:, 0]
        k2 = a[:, 1] @ (eye + half * k1)
        k3 = a[:, 2] @ (eye + half * k2)
        k4 = a[:, 3] @ (eye + dt * k3)
        d = sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)  # M - I, (3, n, 6, 6)
        while d.shape[1] > 1:
            if d.shape[1] % 2:
                d = np.concatenate([d, np.zeros((3, 1, 6, 6))], axis=1)
            earlier, later = d[:, 0::2], d[:, 1::2]
            d = earlier + later + later @ earlier
    jacobian = np.zeros((18, 18))
    for p, c in enumerate(_PHASE_COLUMNS):
        jacobian[np.ix_(c, c)] = eye + d[p, 0]
    return jacobian


def settled_closed_loop(
    params: MmcParameters,
    ctrl: ControllerParams,
    refs: dict[str, complex],
    steps_per_period: int,
    n0: int,
    x_guess: np.ndarray,
) -> PeriodicOrbit:
    """Periodic steady state of the closed loop by Newton shooting from grid
    point ``n0`` on the half-wave map.

    The references are constant phasors, so v*(t + T/2) = -v*(t), and the
    closed loop commutes with the half-wave operator H
    (``HALF_WAVE_OPERATOR``): the RK4 run from n0 + spp/2 started at H x is
    H applied to the run from n0 started at x, up to rounding. With F_half
    the RK4 map over half a period from ``n0``, the one-period map is G∘G
    for the half-wave map G(x) = H F_half(x), so a fixed point of G is the
    state on the attracting orbit. Each iteration is one real RK4 run over
    half a period on floats (``_closed_loop_floats``), which gives G(x), and
    the exact derivative of the RK4 map along it (``_tangent_map``), which
    gives its Jacobian J = H dF_half/dx to rounding: the stage Jacobians
    come from the equations by complex step, with no step-size trade-off
    (Squire & Trapp 1998), and the phases give three 6 x 6 blocks. The
    update solves (I - J) dx = G(x) - x through the same gated solve as
    ``settled_open_loop``; the full-period monodromy matrix at the fixed
    point is J², so the largest Floquet multiplier is max|eig(J)|². The
    relative defect is max_i |G(x)_i - x_i| / RMS_i, with RMS_i the RMS of
    state i over the period (1 where that is 0); Newton stops when it is at
    or below ``SHOOTING_DEFECT_TOL``. The returned period is the last
    half-period run followed by H applied to its rows.

    Raises ValueError for an odd ``steps_per_period``, which has no grid
    point at half a period; ShootingError (carrying the iteration count and
    the defect) when the orbit is not attracting or the defect is still
    above the tolerance after ``SHOOTING_MAX_ITERATIONS`` updates; and
    SingularSystemError when the gated solve rejects I - J.
    """
    if steps_per_period % 2:
        raise ValueError(
            f"steps_per_period must be even for half-wave shooting, got {steps_per_period}"
        )
    H = HALF_WAVE_OPERATOR
    amps = _reference_amps(refs)
    x = np.array(x_guess, dtype=float)
    for iteration in range(SHOOTING_MAX_ITERATIONS + 1):
        first_half = _closed_loop_floats(
            params, ctrl, amps, steps_per_period, steps_per_period // 2, x, n0
        )
        orbit = np.concatenate([first_half, first_half[1:] @ H.T])
        end = H @ first_half[-1]
        rms = np.sqrt(np.mean(orbit[:-1] ** 2, axis=0))
        defect = float(np.max(np.abs(end - x) / np.where(rms > 0, rms, 1.0)))
        jacobian = H @ _tangent_map(params, ctrl, amps, steps_per_period, n0, first_half)
        try:
            dx, multiplier = _shooting_fixed_point(jacobian, end - x)
        except NotSettledError as exc:
            raise ShootingError(
                f"after {iteration} Newton iterations (relative defect {defect:.3e}): {exc}",
                iteration,
                defect,
            ) from exc
        if defect <= SHOOTING_DEFECT_TOL:
            trajectory = Trajectory(params.period / steps_per_period, steps_per_period, n0, orbit)
            return PeriodicOrbit(trajectory, iteration, defect, multiplier)
        x = x + dx
    raise ShootingError(
        f"Newton shooting left a relative defect {defect:.3e} above "
        f"{SHOOTING_DEFECT_TOL:.0e} after {SHOOTING_MAX_ITERATIONS} iterations",
        SHOOTING_MAX_ITERATIONS,
        defect,
    )


# settling_profile measures each state's change against its own RMS, but
# never against less than this fraction of the largest state RMS of the
# run, the floor compare_spectra puts under a spectrum's components.
SETTLE_FLOOR = 1e-6


def settling_profile(traj: Trajectory, n_periods: int = 5) -> np.ndarray:
    """Per-period relative RMS change of each state over the final periods.

    Returns an array of shape (n_periods, n_states): entry (i, j) compares
    period -(i+1) against period -(i+2), most recent first. Each change is
    relative to the state's RMS over the later period, floored at
    ``SETTLE_FLOOR`` times the largest state RMS of that period: rounding
    in the integration scales with the whole state, so a state that
    vanishes with m would otherwise read it as a change.
    """
    spp = traj.steps_per_period
    x = traj.states
    if x.shape[0] < (n_periods + 1) * spp + 1:
        raise NotSettledError("trajectory too short for the requested settling profile")
    out = np.empty((n_periods, x.shape[1]))
    for i in range(n_periods):
        last = x[x.shape[0] - 1 - (i + 1) * spp : x.shape[0] - 1 - i * spp]
        prev = x[x.shape[0] - 1 - (i + 2) * spp : x.shape[0] - 1 - (i + 1) * spp]
        diff = np.sqrt(np.mean((last - prev) ** 2, axis=0))
        scale = np.sqrt(np.mean(last**2, axis=0))
        scale = np.maximum(scale, SETTLE_FLOOR * scale.max())
        out[i] = diff / np.where(scale > 0, scale, 1.0)
    return out


def is_settled(traj: Trajectory) -> bool:
    """Last-two-period RMS change at most ``SETTLE_RTOL`` for every state."""
    return bool(np.all(settling_profile(traj, n_periods=1)[0] <= SETTLE_RTOL))


def settled_spectrum(
    traj: Trajectory,
    variable: str,
    phase: str,
    h: int,
    omega1: float,
) -> HarmonicVector:
    """Fourier coefficients of one state over the final fundamental period."""
    if not is_settled(traj):
        worst = float(np.max(settling_profile(traj, n_periods=1)[0]))
        raise NotSettledError(
            f"last-two-period RMS change {worst:.3e} exceeds {SETTLE_RTOL:.1e}"
        )
    spp = traj.steps_per_period
    series = traj.series(variable, phase)
    samples = series[-spp - 1 : -1]
    t0 = float(traj.t[-spp - 1])
    return analyze(samples, h, omega1, t0=t0)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-harmonic comparison of two spectra of equal order."""

    h: int
    a_mag: np.ndarray
    b_mag: np.ndarray
    abs_error: np.ndarray
    rel_error: np.ndarray
    floor: float
    dominant: np.ndarray            # bool mask over k = -h..h

    @property
    def harmonic_indices(self) -> np.ndarray:
        return np.arange(-self.h, self.h + 1)

    def max_rel_error_dominant(self) -> float:
        if not np.any(self.dominant):
            return 0.0
        return float(np.max(self.rel_error[self.dominant]))

    def max_rel_error(self) -> float:
        return float(np.max(self.rel_error))


def compare_spectra(
    a: HarmonicVector,
    b: HarmonicVector,
    dominant_fraction: float = 0.01,
) -> ComparisonReport:
    """Symmetric spectral comparison with a floored relative error.

    Relative error is |a_k - b_k| / max(|a_k|, |b_k|, floor); the floor is
    1e-6 of the largest component so negligible harmonics cannot produce
    meaningless percentages. Components within ``dominant_fraction``
    of the largest one form the dominant set.
    """
    if a.order != b.order:
        raise OrderMismatchError(f"orders differ: {a.order} vs {b.order}")
    a_mag = np.abs(a.coeffs)
    b_mag = np.abs(b.coeffs)
    peak = max(float(a_mag.max()), float(b_mag.max()))
    floor = 1e-6 * peak if peak > 0 else 1e-30
    abs_err = np.abs(a.coeffs - b.coeffs)
    denom = np.maximum(np.maximum(a_mag, b_mag), floor)
    rel_err = abs_err / denom
    dominant = np.maximum(a_mag, b_mag) >= dominant_fraction * peak if peak > 0 else np.zeros_like(a_mag, bool)
    return ComparisonReport(
        h=a.order,
        a_mag=a_mag,
        b_mag=b_mag,
        abs_error=abs_err,
        rel_error=rel_err,
        floor=float(floor),
        dominant=dominant,
    )


def total_harmonic_distortion(hv: HarmonicVector, k_max: int | None = None) -> float:
    """RMS of harmonics 2..k_max relative to the fundamental."""
    if hv.order < 1:
        raise OrderMismatchError("need at least the fundamental to compute distortion")
    k_max = hv.order if k_max is None else min(k_max, hv.order)
    fund = abs(hv[1])
    if fund == 0.0:
        return np.inf
    num = np.sqrt(sum(abs(hv[k]) ** 2 for k in range(2, k_max + 1)))
    return float(num / fund)


def power_balance(traj: Trajectory, params: MmcParameters) -> dict[str, float]:
    """One-period average dc input power, load dissipation, and arm losses."""
    spp = traj.steps_per_period
    s = slice(-spp - 1, -1)
    i_c = traj.states[s, 0:3]
    i_g = traj.states[s, 9:12]
    i_u = i_c + 0.5 * i_g
    i_l = i_c - 0.5 * i_g
    p_in = params.V_dc * float(np.mean(np.sum(i_c, axis=1)))
    p_load = float(np.mean(np.sum(params.R_load * i_g**2, axis=1)))
    p_arm = float(np.mean(np.sum(params.R * (i_u**2 + i_l**2), axis=1)))
    return {"dc_input": p_in, "load": p_load, "arm_loss": p_arm}
