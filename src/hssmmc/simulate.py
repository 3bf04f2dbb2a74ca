"""Nonlinear time-domain reference simulator of the average-value MMC.

Fixed-step RK4, deterministic and bit-reproducible for identical inputs.
Open-loop runs drive the plant with sinusoidal insertion indices;
closed-loop runs add the per-phase proportional-resonant ac-voltage
controller, with reference phasors that are constant over a run. The
equations are written once, elementwise (``plant.plant_phase_equations``
and ``smallsignal._closed_loop_equations``), and the lifted models are
derived from the same functions. Settled trajectories feed the spectral
extraction used to cross-check the lifted models, and the one energy
balance (``power_balance``), which also checks a lifted operating point
from its samples.

Time lives on one grid: a fundamental period holds ``steps_per_period``
RK4 steps of dt = period / steps_per_period, and every run length, start
point and window is a whole number of those steps. Every run is a
``Trajectory``: one state array on the grid t = (n0 + i)·dt, so runs that
continue one another lie on one grid and join by concatenation.

An open-loop state vector is variable-major with the phase fastest
(``plant``), so phase p's leg is column p of ``x.reshape(-1, 3)``. The
phase legs share only the constant dc bus, so a closed-loop run is one
phase leg: its six variables in ``SMALLSIG_VARIABLES`` order, driven by
that phase's reference phasor. Both loops commute with the half-wave
operator H, one signed permutation per leg (``LEG_HALF_WAVE_OPERATOR``,
from ``LEG_HALF_WAVE``: half a period on, arms swapped, ac quantities
negated), so both shoot (Aprille & Trick 1972) on the half-wave map
G = H F_half, F_half the RK4 map over half a period, and the second half
of a period is H applied to the first; ``steps_per_period`` is even so
that T/2 is a grid point. Stage Jacobians by complex step (Squire & Trapp
1998), many steps per array call as for the lifted models, give each
step's RK4 matrix (``_rk4_step_maps``). The open loop is linear at fixed
insertion indices, so its steps are exact affine maps, and a transient
(``simulate_open_loop``) or the periodic orbit at G's fixed point
(``settled_open_loop``) is composed from the maps of half a period
(``_open_loop_periods``). The closed loop runs on Python floats
(``_closed_loop_floats``) and is shot by Newton (``settled_closed_loop``)
with the exact derivative of each run's RK4 map (``_tangent_map``). The
small-signal check runs the stepped phase's leg alone, since it reads
nothing else. The exported three-phase transient
(``pipelines.reference_step_run``) runs each phase's leg on its own and
places it in that phase's columns, with legs b and c in forked workers
(``workers.fork_map``) on Linux with more than one usable CPU in a
single-threaded process, for example one whose BLAS runs with
OPENBLAS_NUM_THREADS=1; its export is byte-identical either way. This
module itself forks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    FieldValueError,
    NotSettledError,
    NumericalBlowupError,
    OrderMismatchError,
    ShootingError,
)
from .harmonic import fourier
from .plant import (
    PHASES,
    PHASE_SHIFT,
    MmcParameters,
    check_modulation_index,
    check_phase,
    complex_step_jacobian,
    plant_phase_equations,
    state_position,
)
from .smallsignal import LEG_HALF_WAVE, ControllerParams, _closed_loop_equations
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

_PHASE_ANGLES = np.array([[PHASE_SHIFT[p]] for p in PHASES])  # (3, 1)


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
    settle_periods: int = 40

    def __post_init__(self):
        if self.steps_per_period < 4:
            raise FieldValueError("steps_per_period", "must be >= 4")
        if self.steps_per_period % 2:
            raise FieldValueError("steps_per_period", "must be even")
        if self.settle_periods < 2:
            raise FieldValueError("settle_periods", "must be >= 2")
        if self.total_periods <= self.settle_periods:
            raise FieldValueError("total_periods", "must exceed settle_periods")

    def n_steps(self) -> int:
        return self.total_periods * self.steps_per_period


@dataclass
class Trajectory:
    """One simulation run: ``states[i]`` is the state at grid point n0 + i,
    t = (n0 + i)·dt, on a grid of ``steps_per_period`` steps per
    fundamental period.

    ``states`` is (n, 12) in ``STATE_LABELS`` order for an open-loop run,
    and (n, 6) for a closed-loop run, the six variables of the leg of
    ``phases[0]`` in ``SMALLSIG_VARIABLES`` order. The exported three-phase
    transient (``pipelines.reference_step_run``) is (n, 18) in
    ``SMALLSIG_STATE_LABELS`` order, the plant states followed by the PR
    controller states.
    """

    dt: float
    steps_per_period: int
    n0: int
    states: np.ndarray
    phases: tuple[str, ...] = PHASES
    t: np.ndarray = field(init=False)

    def __post_init__(self):
        self.t = (self.n0 + np.arange(self.states.shape[0])) * self.dt

    def series(self, variable: str, phase: str) -> np.ndarray:
        """One plant state over the run; UnknownVariableError for a phase
        the run lacks."""
        return self.states[:, state_position(variable, phase, self.phases)]

    @cached_property
    def settling_change(self) -> float:
        """Largest last-two-period RMS change of any state
        (``settling_profile``), computed on first use: a run's states stay fixed."""
        return float(np.max(settling_profile(self, n_periods=1)[0]))


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


def default_initial_state(params: MmcParameters) -> np.ndarray:
    """Capacitor sums at the dc-bus voltage, all currents zero."""
    x0 = np.zeros(12)
    x0[3:9] = params.V_dc
    return x0


# The half-wave operator H on one phase leg's six closed-loop states, the
# signed permutation (H x)_v = sign * x_image of ``LEG_HALF_WAVE``: i_c
# stays, v_cu and v_cl swap, and i_g and the PR states change sign. With
# references that are pure fundamentals, v*(t + T/2) = -v*(t), so a
# closed-loop run started at H x half a period on is H applied to the run
# started at x; an open-loop run does the same under the 4 x 4 plant block.
LEG_HALF_WAVE_OPERATOR = np.array(
    [[sign * (j == image) for j in range(len(LEG_HALF_WAVE))] for image, sign in LEG_HALF_WAVE],
    dtype=float,
)


# The open-loop pass builds its step maps this many steps at a time, which
# bounds its temporaries at any steps_per_period.
_MAP_SEGMENT_STEPS = 64


def _half_period_maps(params: MmcParameters, m: float, spp: int, n0: int) -> np.ndarray:
    """(3, spp/2 + 1, 4, 5) maps D[p, s] of the open-loop RK4 run from grid
    point n0: phase p's deviation from rest after s steps is
    d + D[p, s] (d, 1), d its deviation at n0. Each step is the RK4 map
    (``_rk4_step_maps``) of the linear y' = [[A(t), f(x_rest, t)], [0, 0]] y,
    y = (d, 1): A by complex step at zero states, and the forcing exactly
    zero at m = 0. The prefix products, carried as ``_rk4_step_maps`` says,
    take log2 batched rounds per segment of ``_MAP_SEGMENT_STEPS``."""
    half, dt, v = spp // 2, params.period / spp, params.V_dc
    f = plant_phase_equations(params)
    maps = np.zeros((3, half + 1, 4, 5))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, half, _MAP_SEGMENT_STEPS):
            stop = min(start + _MAP_SEGMENT_STEPS, half)
            t = n0 * dt + np.arange(start, stop) * dt
            t = np.stack([t, t + 0.5 * dt, t + dt])[:, None]  # stage times, (3, 1, n)
            n_u = 0.5 - 0.5 * m * np.cos(params.omega1 * t - _PHASE_ANGLES)
            a = np.zeros(n_u.shape + (5, 5))
            a[..., :4, :4] = complex_step_jacobian(f, (0.0, 0.0, 0.0, 0.0, n_u, 1.0 - n_u, v), range(4))
            a[..., :4, 4] = np.stack(f(0.0, v, v, 0.0, n_u, 1.0 - n_u, v), axis=-1)
            d = _rk4_step_maps(a[0], a[1], a[1], a[2], dt)[..., :4, :]  # (3, n, 4, 5)
            k = 1
            while k < stop - start:
                d[:, k:] = d[:, k:] + d[:, :-k] + d[:, k:, :, :4] @ d[:, :-k]
                k *= 2
            carry = maps[:, start, None]
            maps[:, start + 1 : stop + 1] = d + carry + d[..., :4] @ carry
    return maps


def _open_loop_periods(
    params: MmcParameters, m: float, spp: int, n0: int, n_periods: int, orbit: bool
) -> Trajectory:
    """Open-loop run over grid points n0 .. n0 + n_periods * spp, composed
    from ``_half_period_maps``. The plant commutes with the half-wave
    operator H, per phase, and x_rest = H x_rest: half period q runs from
    x_q as x_rest + H^q (d_q + D_s (d_q, 1)), d_q = H^q x_q - x_rest, and
    d_{q+1} = Phi d_q + g is H applied to its last row. The run starts at
    rest, d_0 = 0, or with ``orbit`` on the orbit d* = (I - Phi)^-1 g. Each
    half period is checked for blow-up; from rest at m = 0 every d_q is
    exactly zero."""
    check_modulation_index(m)
    half, dt = spp // 2, params.period / spp
    x_rest = default_initial_state(params)
    maps = _half_period_maps(params, m, spp, n0)
    H = LEG_HALF_WAVE_OPERATOR[:4, :4]  # the plant's block
    if orbit:
        phi = H @ (np.eye(4) + maps[:, -1, :, :4])  # per phase; Phi is block diagonal
        d = _shooting_fixed_point(phi, (H @ maps[:, -1, :, 4:])[..., 0])[0]
    else:
        d = np.zeros((3, 4))
    states = np.empty((n_periods * spp + 1, 12))
    with np.errstate(over="ignore", invalid="ignore"):
        for q in range(2 * n_periods):
            rows = states[q * half : (q + 1) * half + 1]
            z = np.append(d, np.ones((3, 1)), axis=1)[..., None]
            dev = d[:, None] + (maps.reshape(3, -1, 5) @ z).reshape(3, -1, 4)
            d = dev[:, -1] @ H.T
            rows[:] = x_rest + (dev @ H.T if q % 2 else dev).transpose(1, 2, 0).reshape(-1, 12)
            _check_blowup(rows, max(params.V_dc, 1.0), n0 + q * half, dt, spp)
    return Trajectory(dt, spp, n0, states)


def simulate_open_loop(params: MmcParameters, m: float, cfg: SimulationConfig) -> Trajectory:
    """Open-loop transient from rest (``default_initial_state``) over the
    configured run (``_open_loop_periods``)."""
    return _open_loop_periods(params, m, cfg.steps_per_period, 0, cfg.total_periods, False)


def settled_open_loop(params: MmcParameters, m: float, cfg: SimulationConfig) -> Trajectory:
    """Periodic steady state of the open-loop plant on the last two periods
    of the configured grid, at the fixed point of the affine half-wave map
    (``_open_loop_periods``), solved as its deviation from rest, so the
    m = 0 equilibrium comes out exact. The orbit lies on the grid of a
    ``simulate_open_loop`` run, so ``settling_profile`` measures the
    shooting defect.

    Raises SingularSystemError when the gated solve rejects I - Phi, and
    NotSettledError when the largest Floquet multiplier is not below one.
    """
    spp = cfg.steps_per_period
    return _open_loop_periods(params, m, spp, cfg.n_steps() - 2 * spp, 2, True)


def _shooting_fixed_point(phi: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Fixed point (L, n) of the half-wave map x -> Phi x + g of L phase
    legs, from the (L, n, n) leg blocks ``phi`` of Phi and the (L, n)
    offsets ``g``, and the largest Floquet multiplier: one period is two
    half-wave maps, so it is the largest eigenvalue magnitude of Phi,
    squared. The legs share only the constant dc bus, so Phi is block
    diagonal over them; it is assembled leg by leg and solved once.

    Raises SingularSystemError when the gated solve (``steady.solve_lifted``)
    rejects I - Phi, and NotSettledError when the largest Floquet multiplier
    is not below one: the fixed point then exists but no transient settles
    onto it.
    """
    p, n = g.shape
    phi = (np.eye(p)[:, None, :, None] * phi[:, :, None]).reshape(p * n, p * n)
    x, _, _ = solve_lifted(np.eye(p * n) - phi, g.ravel())
    multiplier = float(np.max(np.abs(np.linalg.eigvals(phi)))) ** 2
    if multiplier >= 1.0:
        raise NotSettledError(
            f"largest Floquet multiplier {multiplier:.6g} is not below 1: "
            "the periodic orbit is not attracting"
        )
    return x.reshape(p, n), multiplier


def _closed_loop_floats(params, ctrl, ref, steps_per_period, n_steps, x0, n0) -> np.ndarray:
    """Closed-loop RK4 states of one phase leg at grid points n0 .. n0 +
    n_steps from its six real states ``x0``, with its reference phasor
    ``ref``.

    The run is on Python floats: numpy's cost per call on a leg's six
    states would be most of a step. The state is checked for blow-up
    (``_check_blowup``) once per period of steps and at the end, and a
    period's rows are stored together. A zero di_g denominator raises
    NumericalBlowupError naming its step.
    """
    spp = steps_per_period
    dt = params.period / spp
    scale = max(params.V_dc, 1.0)
    derivatives = _closed_loop_equations(params, ctrl)
    w1 = params.omega1
    t0 = n0 * dt
    half = 0.5 * dt
    sixth = dt / 6.0
    re, im = float(ref.real), float(ref.imag)
    out = np.empty((n_steps + 1, 6))
    out[0] = x0
    x = tuple(out[0].tolist())
    for start in range(0, n_steps, spp):
        _check_blowup(out[start][None], scale, n0 + start, dt, spp)
        stop = min(start + spp, n_steps)
        rows = []
        try:
            for n in range(start, stop):
                t = t0 + n * dt
                x = _phase_rk4_step(
                    derivatives, x,
                    re * math.cos(w1 * t) - im * math.sin(w1 * t),
                    re * math.cos(w1 * (t + half)) - im * math.sin(w1 * (t + half)),
                    re * math.cos(w1 * (t + dt)) - im * math.sin(w1 * (t + dt)),
                    half, dt, sixth,
                )
                rows += x
        except ZeroDivisionError:
            step = n0 + start + len(rows) // 6
            raise NumericalBlowupError(
                f"the di_g denominator L + 2 L_load - (k_f - K_p) L_load sigma is zero "
                f"at step {step} (period {step // spp}, t = {step * dt:.6g} s)"
            ) from None
        out[start + 1 : stop + 1] = np.array(rows).reshape(-1, 6)
    _check_blowup(out[n_steps][None], scale, n0 + n_steps, dt, spp)
    return out


def _phase_rk4_step(f, x, v1, v2, v4, half, dt, sixth):
    """One RK4 step of one phase's six closed-loop states ``x`` on floats,
    with the references v1, v2, v4 at the start, middle and end of the step."""
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
    phase: str,
    ref: complex,
    steps_per_period: int,
    n_steps: int,
    x0: np.ndarray | None = None,
    n0: int = 0,
) -> Trajectory:
    """Integrate the closed-loop model of the leg of ``phase``.

    ``ref`` is the complex fundamental phasor of the leg's voltage
    reference, v*(t) = Re(ref * exp(j w1 t)), constant over the run. The
    run takes ``n_steps`` steps of a ``steps_per_period`` grid from grid
    point ``n0`` on Python floats (``_closed_loop_floats``); the default
    start is the cold start, the capacitor sums at the dc-bus voltage and
    every current and controller state zero. The three-phase transient that
    ``simulate-closed`` exports is three such runs
    (``pipelines.reference_step_run``).

    Raises UnknownVariableError for a phase outside ``PHASES``, and
    ValueError when ``x0`` is not one real vector of the leg's 6 states.
    """
    check_phase(phase)
    if x0 is None:
        x0 = [0.0, params.V_dc, params.V_dc, 0.0, 0.0, 0.0]
    x0 = np.asarray(x0)
    if x0.shape != (6,) or np.iscomplexobj(x0):
        raise ValueError(f"x0 must be one real 6-state vector, got {x0.dtype} of shape {x0.shape}")
    states = _closed_loop_floats(params, ctrl, ref, steps_per_period, n_steps, x0, n0)
    return Trajectory(params.period / steps_per_period, steps_per_period, n0, states, (phase,))


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


def _rk4_step_maps(a1, a2, a3, a4, dt):
    """M - I for the RK4 steps of a linear y' = A(t) y from the stage
    Jacobians A1 .. A4: M = I + dt/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A1,
    K2 = A2 (I + dt/2 K1), K3 = A3 (I + dt/2 K2), K4 = A4 (I + dt K3).
    Products are carried in this form, (I + B)(I + A) = I + A + B + BA, so
    the identity is not rounded into the small entries: at sec3's rest
    state with K_p = 2, against an extended-precision product, the closed
    loop's products of M itself left one entry 1.5e-11 off relative to
    itself, this form 9e-14, and the complex step of a whole run 1.5e-12."""
    eye = np.eye(a1.shape[-1])
    k2 = a2 @ (eye + 0.5 * dt * a1)
    k3 = a3 @ (eye + 0.5 * dt * k2)
    k4 = a4 @ (eye + dt * k3)
    return dt / 6.0 * (a1 + 2.0 * k2 + 2.0 * k3 + k4)


def _tangent_map(params, ctrl, ref, steps_per_period, n0, run) -> np.ndarray:
    """(6, 6) Jacobian of the closed-loop RK4 map from run[0] to run[-1],
    the states at grid points n0 .. n0 + n of one real run of a leg with
    reference phasor ``ref``.

    The four RK4 stage states of every step are recomputed from the run,
    read as (6, n) arrays, and every stage Jacobian is taken by complex step
    in one call of ``_closed_loop_equations`` on (4 stages, n steps)
    arguments (``complex_step_jacobian``). The step matrices
    (``_rk4_step_maps``) are multiplied in pairs, about log2(n) batched
    products.
    """
    dt = params.period / steps_per_period
    half = 0.5 * dt
    f = _closed_loop_equations(params, ctrl)
    n = run.shape[0] - 1
    t = n0 * dt + np.arange(n) * dt
    w1 = params.omega1

    def v_star(times):
        return ref.real * np.cos(w1 * times) - ref.imag * np.sin(w1 * times)

    v1, v2, v4 = v_star(t), v_star(t + half), v_star(t + dt)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y1 = run[:-1].T  # (6 leg variables, n)
        y2 = y1 + half * np.array(f(v1, *y1))
        y3 = y1 + half * np.array(f(v2, *y2))
        y4 = y1 + dt * np.array(f(v2, *y3))
        y = np.stack([y1, y2, y3, y4], axis=1)  # (6, 4, n)
        v = np.stack([v1, v2, v2, v4])
        a = complex_step_jacobian(f, (v, *y), range(1, 7))  # (4, n, 6, 6)
        d = _rk4_step_maps(a[0], a[1], a[2], a[3], dt)  # M - I, (n, 6, 6)
        while d.shape[0] > 1:
            if d.shape[0] % 2:
                d = np.concatenate([d, np.zeros((1, 6, 6))])
            earlier, later = d[0::2], d[1::2]
            d = earlier + later + later @ earlier
    return np.eye(6) + d[0]


def settled_closed_loop(
    params: MmcParameters,
    ctrl: ControllerParams,
    phase: str,
    ref: complex,
    steps_per_period: int,
    n0: int,
    x_guess: np.ndarray,
) -> PeriodicOrbit:
    """Periodic steady state of the closed-loop leg of ``phase``, with
    reference phasor ``ref``, by Newton shooting from grid point ``n0`` on
    the half-wave map G(x) = H F_half(x), F_half the RK4 map over half a
    period from ``n0`` and H ``LEG_HALF_WAVE_OPERATOR``: the one-period map
    is G∘G, so a fixed point of G is the state on the attracting orbit.
    ``x_guess`` holds the leg's 6 states. Each iteration is one real run
    over half a period on floats (``_closed_loop_floats``), which gives
    G(x), and the exact derivative of its RK4 map (``_tangent_map``), which
    gives the Jacobian J = H dF_half/dx to rounding. The update solves
    (I - J) dx = G(x) - x through the same gated solve as
    ``settled_open_loop``; the monodromy matrix at the fixed point is J²,
    so the largest Floquet multiplier is max|eig(J)|². The relative defect
    is max_i |G(x)_i - x_i| / RMS_i, with RMS_i the RMS of state i over the
    period (1 where that is 0); Newton stops when it is at or below
    ``SHOOTING_DEFECT_TOL``; the period it returns is a ``PeriodicOrbit``.

    Raises UnknownVariableError for a phase outside ``PHASES``; ValueError
    for an odd ``steps_per_period``, which has no grid point at half a
    period, and for an ``x_guess`` of another size; ShootingError (carrying
    the iteration count and the defect) when the orbit is not attracting or
    the defect is still above the tolerance after
    ``SHOOTING_MAX_ITERATIONS`` updates; and SingularSystemError when the
    gated solve rejects I - J.
    """
    check_phase(phase)
    if steps_per_period % 2:
        raise ValueError(
            f"steps_per_period must be even for half-wave shooting, got {steps_per_period}"
        )
    H = LEG_HALF_WAVE_OPERATOR
    x = np.array(x_guess, dtype=float)
    if x.shape != (6,):
        raise ValueError(f"x_guess must be one vector of 6 states, got shape {x.shape}")
    for iteration in range(SHOOTING_MAX_ITERATIONS + 1):
        first_half = _closed_loop_floats(
            params, ctrl, ref, steps_per_period, steps_per_period // 2, x, n0
        )
        orbit = np.concatenate([first_half, first_half[1:] @ H.T])
        end = H @ first_half[-1]
        rms = np.sqrt(np.mean(orbit[:-1] ** 2, axis=0))
        defect = float(np.max(np.abs(end - x) / np.where(rms > 0, rms, 1.0)))
        jacobian = H @ _tangent_map(params, ctrl, ref, steps_per_period, n0, first_half)
        try:
            dx, multiplier = _shooting_fixed_point(jacobian[None], (end - x)[None])
        except NotSettledError as exc:
            raise ShootingError(
                f"after {iteration} Newton iterations (relative defect {defect:.3e}): {exc}",
                iteration,
                defect,
            ) from exc
        if defect <= SHOOTING_DEFECT_TOL:
            dt = params.period / steps_per_period
            trajectory = Trajectory(dt, steps_per_period, n0, orbit, (phase,))
            return PeriodicOrbit(trajectory, iteration, defect, multiplier)
        x = x + dx[0]
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


def settled_spectrum(
    traj: Trajectory,
    variable: str,
    phase: str,
    h: int,
    omega1: float,
) -> np.ndarray:
    """Coefficients k = -h..h of one state over the final fundamental
    period, referred to t = 0: the ``fourier`` row of the period's samples,
    shifted by its start time t0."""
    worst = traj.settling_change
    if not worst <= SETTLE_RTOL:  # a NaN change fails too
        raise NotSettledError(
            f"last-two-period RMS change {worst:.3e} exceeds {SETTLE_RTOL:.1e}"
        )
    spp = traj.steps_per_period
    samples = traj.series(variable, phase)[-spp - 1 : -1]
    t0 = float(traj.t[-spp - 1])
    return fourier(samples, h) * np.exp(-1j * np.arange(-h, h + 1) * omega1 * t0)


# Components at or above this share of the larger spectrum's peak form
# compare_spectra's dominant set.
DOMINANT_FRACTION = 0.002


def compare_spectra(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric spectral comparison of two coefficient rows of equal order
    with a floored relative error.

    Returns ``(rel_error, dominant)`` over k = -h..h. The relative error is
    |a_k - b_k| / max(|a_k|, |b_k|, floor); the floor is 1e-6 of the
    largest component so negligible harmonics cannot produce meaningless
    percentages. ``dominant`` marks the components within
    ``DOMINANT_FRACTION`` of the largest one.
    """
    if a.shape != b.shape:
        raise OrderMismatchError(f"orders differ: {a.size // 2} vs {b.size // 2}")
    a_mag = np.abs(a)
    b_mag = np.abs(b)
    peak = max(float(a_mag.max()), float(b_mag.max()))
    floor = 1e-6 * peak if peak > 0 else 1e-30
    larger = np.maximum(a_mag, b_mag)
    rel_err = np.abs(a - b) / np.maximum(larger, floor)
    dominant = larger >= DOMINANT_FRACTION * peak if peak > 0 else np.zeros_like(larger, bool)
    return rel_err, dominant


def total_harmonic_distortion(coeffs: np.ndarray) -> float:
    """RMS of harmonics 2..h relative to the fundamental, from the
    coefficient row ``coeffs`` (k = -h..h)."""
    h = coeffs.size // 2
    if h < 1:
        raise OrderMismatchError("need at least the fundamental to compute distortion")
    fund = abs(coeffs[h + 1])
    if fund == 0.0:
        return np.inf
    num = np.sqrt(sum(abs(coeffs[h + k]) ** 2 for k in range(2, h + 1)))
    return float(num / fund)


def power_balance(states: np.ndarray, params: MmcParameters) -> dict[str, float]:
    """One-period average dc input power, load dissipation and arm losses
    from one period of (n, 12) plant states at n uniform instants, in
    ``STATE_LABELS`` order: the settled orbit's last period, or an operating
    point's values at ``harmonic.instants(h)`` instants, on which the mean
    of a product of two order-h signals is exact."""
    i_c = states[:, 0:3]
    i_g = states[:, 9:12]
    i_u = i_c + 0.5 * i_g
    i_l = i_c - 0.5 * i_g
    p_in = params.V_dc * float(np.mean(np.sum(i_c, axis=1)))
    p_load = float(np.mean(np.sum(params.R_load * i_g**2, axis=1)))
    p_arm = float(np.mean(np.sum(params.R * (i_u**2 + i_l**2), axis=1)))
    return {"dc_input": p_in, "load": p_load, "arm_loss": p_arm}
