"""Shared fixtures. The transmission-scale preset drives the expensive
session-scoped artifacts (the shooting orbit, the brute-force settled
open-loop run, the small-signal context) so the verification tests share
one simulation each."""

import math

import numpy as np
import pytest

from hssmmc import MmcParameters
from hssmmc.config import load_config
from hssmmc.harmonic import block_toeplitz, fourier, lift
from hssmmc.pipelines import SmallsigContext, solve_operating_point
from hssmmc.plant import (
    PHASE_SHIFT,
    PHASE_STATES,
    PHASES,
    STATE_LABELS,
    LiftedModel,
    complex_step_jacobian,
    plant_phase_equations,
)
from hssmmc.simulate import Trajectory, _check_blowup, default_initial_state, settled_open_loop
from hssmmc.smallsignal import (
    _PHASE_COLUMNS,
    SMALLSIG_STATE_LABELS,
    _closed_loop_equations,
    _closed_loop_samples,
)
from hssmmc.steady import dc_input_vector, plant_samples


@pytest.fixture(scope="session")
def sec3_cfg():
    return load_config("sec3-simulation")


@pytest.fixture(scope="session")
def sec3_params(sec3_cfg):
    return sec3_cfg.params


@pytest.fixture(scope="session")
def sec3_op(sec3_cfg):
    return solve_operating_point(sec3_cfg)


def rk4(rhs, x0, n0, n_steps, dt, steps_per_period, scale):
    """Fixed-step RK4 from grid point ``n0`` on numpy arrays; returns all
    n_steps+1 states including the initial one. ``x0`` is one state vector
    or a block of state columns that ``rhs`` advances together; a complex
    ``x0`` runs complex. The state is checked for blow-up
    (``simulate._check_blowup``) once per period of steps and at the end.
    The array reference for the simulator's float and composed runs.
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


def plant_derivatives(params, x, n_u, n_l, v_dc):
    """Time derivative of the 12 plant states ``x``, or of a (12, k) block
    of state columns, real or complex: ``plant_phase_equations`` on the (3,)
    or (3, k) slices. The insertion indices broadcast against the slices,
    and ``v_dc`` is a scalar or one value per column."""
    return np.concatenate(
        plant_phase_equations(params)(x[0:3], x[3:6], x[6:9], x[9:12], n_u, n_l, v_dc)
    )


def closed_loop_rhs(params, ctrl, amps):
    """Right-hand side of the 18-state closed-loop model with constant
    per-phase reference phasors ``amps``, for ``rk4``.

    ``amps`` is (3,) for one 18-state vector, or (3, 1), shared, for an
    (18, k) block of state columns. Every operation is elementwise, so a
    column of a block advances exactly as that column alone would.
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


def closed_loop_block(params, ctrl, refs, spp, n_steps, columns, n0):
    """Closed-loop RK4 states at grid points n0 .. n0 + n_steps of an
    (18, k) block of state columns, real or complex, with the reference
    phasors ``refs``: the array reference for ``simulate_closed_loop``'s
    run on Python floats."""
    amps = np.array([refs[p] for p in PHASES], dtype=complex)[:, None]
    rhs = closed_loop_rhs(params, ctrl, amps)
    return rk4(rhs, columns, n0, n_steps, params.period / spp, spp, max(params.V_dc, 1.0))


def sequential_open_loop(params, m, cfg):
    """Open-loop run from rest, integrated step by step rather than composed
    from the half-wave map: an independent reference for
    ``simulate_open_loop`` and ``settled_open_loop``.

    Each phase advances on Python floats with ``plant_phase_equations``, the
    stage expressions of ``rk4`` and the indices of
    ``test_simulate._open_loop_rhs``, a period at a time, which gives
    ``rk4``'s states bit for bit at a tenth of its cost; the 12-state row
    is checked for blow-up at every period start and at the end, as
    ``rk4`` does.
    """
    spp = cfg.steps_per_period
    n_steps = cfg.n_steps()
    dt = params.period / spp
    half, sixth = 0.5 * dt, dt / 6.0
    w1, v_dc = params.omega1, params.V_dc
    scale = max(v_dc, 1.0)
    f = plant_phase_equations(params)
    states = np.empty((n_steps + 1, 12))
    states[0] = default_initial_state(params)
    for start in range(0, n_steps, spp):
        _check_blowup(states[start][None], scale, start, dt, spp)
        stop = min(start + spp, n_steps)
        for p, phase in enumerate(PHASES):
            phi = PHASE_SHIFT[phase]
            i_c, v_cu, v_cl, i_g = states[start, p::3].tolist()
            rows = []
            for n in range(start, stop):
                t = n * dt
                n1 = 0.5 - 0.5 * m * math.cos(w1 * t - phi)
                n2 = 0.5 - 0.5 * m * math.cos(w1 * (t + half) - phi)
                n4 = 0.5 - 0.5 * m * math.cos(w1 * (t + dt) - phi)
                a1, b1, c1, d1 = f(i_c, v_cu, v_cl, i_g, n1, 1.0 - n1, v_dc)
                a2, b2, c2, d2 = f(
                    i_c + half * a1, v_cu + half * b1, v_cl + half * c1, i_g + half * d1,
                    n2, 1.0 - n2, v_dc,
                )
                a3, b3, c3, d3 = f(
                    i_c + half * a2, v_cu + half * b2, v_cl + half * c2, i_g + half * d2,
                    n2, 1.0 - n2, v_dc,
                )
                a4, b4, c4, d4 = f(
                    i_c + dt * a3, v_cu + dt * b3, v_cl + dt * c3, i_g + dt * d3,
                    n4, 1.0 - n4, v_dc,
                )
                i_c = i_c + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                v_cu = v_cu + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                v_cl = v_cl + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
                i_g = i_g + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                rows.append((i_c, v_cu, v_cl, i_g))
            states[start + 1 : stop + 1, p::3] = rows
    _check_blowup(states[n_steps][None], scale, n_steps, dt, spp)
    return Trajectory(dt, spp, 0, states)


@pytest.fixture(scope="session")
def sec3_traj(sec3_cfg):
    """Brute-force settling: the full 122-period transient, step by step, so
    that shooting is checked against a run that does not use its map."""
    return sequential_open_loop(sec3_cfg.params, sec3_cfg.m, sec3_cfg.sim)


@pytest.fixture(scope="session")
def sec3_orbit(sec3_cfg):
    """Periodic orbit by shooting, on the last two periods of the same grid."""
    return settled_open_loop(sec3_cfg.params, sec3_cfg.m, sec3_cfg.sim)


@pytest.fixture(scope="session")
def smallsig_ctx(sec3_cfg):
    return SmallsigContext(sec3_cfg)


@pytest.fixture(scope="session")
def smallsig_comparisons(smallsig_ctx):
    return {a: smallsig_ctx.compare(a) for a in (10e3, 5e3)}


@pytest.fixture(scope="session")
def fast_params():
    """Small, strongly damped system for cheap simulation tests."""
    return MmcParameters(
        R=5.0, L=0.05, C_sm=2e-3, N=10, V_dc=1000.0, omega1=314.0, R_load=10.0
    )


def random_real_vector(rng, h, omega1, scale=1.0):
    """Random conjugate-symmetric harmonic coefficient array."""
    from hssmmc import HarmonicVector

    c = rng.normal(size=2 * h + 1) + 1j * rng.normal(size=2 * h + 1)
    c = 0.5 * (c + np.conj(c[::-1])) * scale
    return HarmonicVector(h, omega1, c)


def state_space_at(p, n_u, n_l):
    """Instantaneous (A, B) of the plant for index values (3,) n_u and n_l:
    the complex-step Jacobian of the direct-form equations that the lifted
    models sample, with respect to the states and v_dc."""
    zero = np.zeros(3)
    args = (zero, zero, zero, zero, np.asarray(n_u, float), np.asarray(n_l, float), p.V_dc)
    jacobian = complex_step_jacobian(plant_phase_equations(p), args, (0, 1, 2, 3, 6))
    A, B = np.zeros((12, 12)), np.zeros((12, 1))
    for phase, rows in enumerate(PHASE_STATES):
        A[np.ix_(rows, rows)] = jacobian[phase, :, :4]
        B[rows, 0] = jacobian[phase, :, 4]
    return A, B


def block(model, row, col=None):
    """View of one block of a lifted model: block (row, col) of A, or of B
    when ``col`` is an input label; with no ``col``, the whole block row of A."""
    n = 2 * model.h + 1
    r = model.state_labels.index(row)
    rows = slice(r * n, (r + 1) * n)
    if col is None:
        return model.A[rows]
    if col in model.input_labels:
        c, matrix = model.input_labels.index(col), model.B
    else:
        c, matrix = model.state_labels.index(col), model.A
    return matrix[rows, c * n : (c + 1) * n]


def dense_lift(samples, states, inputs, h, omega1, state_labels, input_labels):
    """Lifted model of all three phases from per-phase Jacobian samples
    (3, n, n + m, N): each phase's own coefficients placed on the diagonal,
    at ``states[p]`` in the state vector and ``inputs[p]`` in the input
    vector, with no rotation of phase a. An independent reference for the
    phase-a model and its rotations (``LiftedModel.for_phase``)."""
    coeffs = fourier(samples, h)
    n = samples.shape[1]
    shape = (len(state_labels), len(state_labels), 2 * h + 1)
    A = np.zeros(shape, dtype=complex)
    B = np.zeros((shape[0], len(input_labels), shape[2]), dtype=complex)
    for p, rows in enumerate(states):
        A[np.ix_(rows, rows)] = coeffs[p, :, :n]
        B[np.ix_(rows, inputs[p])] = coeffs[p, :, n:]
    return LiftedModel(
        h, omega1, lift(A, omega1), block_toeplitz(B), tuple(state_labels), tuple(input_labels)
    )


def dense_steady(params, indices, h):
    """Three-phase reference of ``assemble_steady``: 12 state blocks, input v_dc."""
    return dense_lift(
        plant_samples(params, indices, h), PHASE_STATES, [[0]] * 3, h, params.omega1,
        STATE_LABELS, ("v_dc",),
    )


def dense_steady_coeffs(params, indices, h):
    """The (12, 2h+1) operating point of the dense reference, by one
    ``numpy.linalg.solve``."""
    model = dense_steady(params, indices, h)
    x = np.linalg.solve(model.A, -(model.B @ dc_input_vector(params.V_dc, h)))
    return x.reshape(len(STATE_LABELS), 2 * h + 1)


DENSE_SMALLSIG_INPUT_LABELS = ("v_dc", "v_ga_ref", "v_gb_ref", "v_gc_ref")


def dense_smallsignal(op, params, ctrl, h):
    """Three-phase reference of ``assemble_smallsignal``: 18 state blocks,
    inputs v_dc and the three voltage references."""
    closed = _closed_loop_samples(op, params, ctrl)
    dc = np.zeros_like(closed[:, :, :1])
    dc[:, :4] = plant_samples(params, (op.n_u, op.n_l), h)[:, :, 4:]
    return dense_lift(
        np.concatenate([closed, dc], axis=2), _PHASE_COLUMNS, [[1 + p, 0] for p in range(3)],
        h, params.omega1, SMALLSIG_STATE_LABELS, DENSE_SMALLSIG_INPUT_LABELS,
    )


def settled_state(model, delta_u):
    """Algebraic settled state -A^-1 B dU of a lifted small-signal model."""
    return np.linalg.solve(model.A, -(model.B @ delta_u))


def linearized_A(op, params, ctrl, t):
    """Instantaneous 18x18 closed-loop Jacobian at time t on the operating
    orbit: the complex-step Jacobian the lifted A is the lift of
    (``_closed_loop_samples``), at one instant."""
    a = _closed_loop_samples(op, params, ctrl, t)[:, :, :6, 0]
    out = np.zeros((18, 18))
    for p, c in enumerate(_PHASE_COLUMNS):
        out[np.ix_(c, c)] = a[p]
    return out


def _phase_raised(samples, rows, cols, phase, rel):
    """A copy of per-phase Jacobian samples with the entries (rows, cols) of
    ``phase`` raised by ``rel`` of the largest sample at every instant."""
    out = samples.copy()
    out[phase, rows, cols] += rel * np.max(np.abs(samples))
    return out


def unbalanced(samples, rel=1e-6):
    """Per-phase Jacobian samples (3, n, n + m, N) with phase b's i_c row,
    state and input columns, raised by ``rel`` of the largest sample: phase b
    is no longer the T/3 rotation of phase a."""
    return _phase_raised(samples, 0, slice(None), 1, rel)


def phase_b_raised(samples, rel=1e-6):
    """Per-phase Jacobian samples with every entry of phase b's own state
    columns raised by ``rel`` of the largest sample."""
    n = samples.shape[1]
    return _phase_raised(samples, slice(None), slice(0, n), 1, rel)


def with_nan(samples, phase=1):
    """Per-phase Jacobian samples with one NaN, in the i_c row and v_cu
    column of ``phase`` at the first instant: by default phase b's."""
    out = samples.copy()
    out[phase, 0, 1, 0] = np.nan
    return out


def half_wave_broken(model, rel=1e-6):
    """Phase a's ``model`` with the coupling of (i_c, k = 3) to (i_c, k = 0)
    raised by ``rel`` of max|A|: it couples an odd to an even harmonic of
    i_c, which breaks the half-wave symmetry."""
    import dataclasses

    n = 2 * model.h + 1
    A = model.A.copy()
    start = model.state_labels.index("i_ca") * n + model.h
    A[start + 3, start] += rel * np.max(np.abs(A))
    return dataclasses.replace(model, A=A)
