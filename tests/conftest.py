"""Shared fixtures. The transmission-scale preset drives the expensive
session-scoped artifacts (the shooting orbit, the brute-force settled
open-loop run, the small-signal context) so the verification tests share
one simulation each."""

import math

import numpy as np
import pytest

from hssmmc import MmcParameters
from hssmmc.config import load_config
from hssmmc.pipelines import SmallsigContext, solve_operating_point
from hssmmc.plant import (
    PHASE_SHIFT,
    PHASE_STATES,
    PHASES,
    complex_step_jacobian,
    plant_phase_equations,
    split_phase,
)
from hssmmc.simulate import Trajectory, _check_blowup, default_initial_state, settled_open_loop


@pytest.fixture(scope="session")
def sec3_cfg():
    return load_config("sec3-simulation")


@pytest.fixture(scope="session")
def sec3_params(sec3_cfg):
    return sec3_cfg.params


@pytest.fixture(scope="session")
def sec3_op(sec3_cfg):
    return solve_operating_point(sec3_cfg)


def sequential_open_loop(params, m, cfg):
    """Open-loop run from rest, integrated step by step rather than composed
    from the half-wave map: an independent reference for
    ``simulate_open_loop`` and ``settled_open_loop``.

    Each phase advances on Python floats with ``plant_phase_equations``, the
    stage expressions of ``_rk4`` and the indices of
    ``test_simulate._open_loop_rhs``, a period at a time, which gives
    ``_rk4``'s states bit for bit at a tenth of its cost; the 12-state row
    is checked for blow-up at every period start and at the end, as
    ``_rk4`` does.
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


def unbalanced(model, label="i_cb", rel=1e-6):
    """``model`` with the whole block row of ``label`` raised by ``rel`` of
    max|A|, which breaks its balance over the three phases."""
    import dataclasses

    n = 2 * model.h + 1
    r = model.state_labels.index(label)
    A = model.A.copy()
    A[r * n : (r + 1) * n] += rel * np.max(np.abs(A))
    return dataclasses.replace(model, A=A)


def half_wave_broken(model, rel=1e-6):
    """``model`` with the coupling of (i_c, k = 3) to (i_c, k = 0) raised by
    ``rel`` of max|A| on all three phases: it keeps the balance over the
    phases but couples an odd to an even harmonic of i_c, which breaks the
    half-wave symmetry."""
    import dataclasses

    n = 2 * model.h + 1
    A = model.A.copy()
    delta = rel * np.max(np.abs(A))
    for phase in "abc":
        start = model.state_labels.index(f"i_c{phase}") * n + model.h
        A[start + 3, start] += delta
    return dataclasses.replace(model, A=A)


def phase_b_raised(model, rel=1e-6):
    """``model`` with every entry of phase b's own diagonal block raised by
    ``rel`` of max|A|: the off-phase blocks stay exactly zero, but phase b
    is no longer the T/3 shift of phase a."""
    import dataclasses

    n = 2 * model.h + 1
    rows = np.concatenate([
        np.arange(i * n, (i + 1) * n)
        for i, label in enumerate(model.state_labels)
        if split_phase(label)[1] == "b"
    ])
    A = model.A.copy()
    A[np.ix_(rows, rows)] += rel * np.max(np.abs(A))
    return dataclasses.replace(model, A=A)


def with_nan(model, entry=(5, 7)):
    """``model`` with one NaN entry in A. The default entry is off-phase at
    h = 3 (row i_ca, column i_cb); (0, 1) lies in phase a's own block at
    every h >= 1."""
    import dataclasses

    A = model.A.copy()
    A[entry] = np.nan
    return dataclasses.replace(model, A=A)
