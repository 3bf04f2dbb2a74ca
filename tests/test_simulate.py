"""Nonlinear reference simulator: integration, settling, spectra, comparisons."""

import dataclasses
import functools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hssmmc import (
    ControllerParams,
    NotSettledError,
    NumericalBlowupError,
    OrderMismatchError,
    SimulationConfig,
    SingularSystemError,
    Trajectory,
    compare_spectra,
    settled_open_loop,
    settled_spectrum,
    simulate_closed_loop,
    simulate_open_loop,
    total_harmonic_distortion,
)
from hssmmc.config import RunConfig, StepConfig, load_config
from hssmmc.errors import ShootingError, UnknownVariableError
from hssmmc.harmonic import fourier, sample
from hssmmc.pipelines import SmallsigContext, reference_step_run, step_grid_index
from hssmmc.plant import PHASE_SHIFT, PHASES, STATE_LABELS, STATE_VARIABLES
from hssmmc.simulate import (
    DOMINANT_FRACTION,
    LEG_HALF_WAVE_OPERATOR,
    SETTLE_FLOOR,
    SETTLE_RTOL,
    SHOOTING_DEFECT_TOL,
    _half_period_maps,
    _shooting_fixed_point,
    _tangent_map,
    default_initial_state,
    power_balance,
    settled_closed_loop,
    settling_profile,
)

from conftest import (
    closed_loop_block,
    coefficient_row,
    phase_columns,
    plant_derivatives,
    random_real_vector,
    rk4,
    sequential_open_loop,
)

W1 = 314.0

# A composed open-loop run may differ from the step-by-step RK4 run by
# rounding only: by at most this share of each state's peak. Rounding scales
# with the whole state, so each peak is floored at SETTLE_FLOOR of the
# largest one, as in settling_profile.
COMPOSED_RTOL = 1e-9

# The batched half-period maps may differ from the 13-column RK4 pass, run
# in extended precision, by rounding only: in each column, by at most this
# share of each state's peak, floored at SETTLE_FLOOR of the column's
# largest peak. Entries that vanish by symmetry at m = 0 carry about 1e-17
# of their column's peak, which the floor reads as up to 1.1e-11.
MAPS_RTOL = 1e-10

# The shooting Jacobian from the tangent of the float run may differ from
# the complex-step Jacobian of a 19-column block run by rounding only: by
# at most this share of the largest entry, both scaled by the state sizes.
TANGENT_RTOL = 1e-12


def fast_cfg(params, periods=12, settle=10):
    return SimulationConfig(steps_per_period=2000, total_periods=periods, settle_periods=settle)


def tracking_loop():
    """PR gains and balanced references of 0.35 V_dc for the fast circuit."""
    refs = {p: 350.0 * np.exp(-1j * s) for p, s in (("a", 0.0), ("b", 2 * np.pi / 3), ("c", -2 * np.pi / 3))}
    return ControllerParams(K_p=0.6, K_r=300.0, k_f=1.0), refs


def closed_loop_rest(params):
    return np.concatenate([default_initial_state(params), np.zeros(6)])


def leg(x, phase):
    """Phase ``phase``'s leg of the 18 variable-major closed-loop states
    ``x``, or of each row of a run of them: its six variables."""
    return x.reshape(x.shape[:-1] + (6, 3))[..., PHASES.index(phase)]


def preset_closed_loop(preset, x_over_r, m=None):
    """A preset's circuit with load reactance X/R = ``x_over_r`` and
    modulation ``m`` (default the preset's), its controller, the references
    of its operating point, and the operating point's closed-loop state at
    a grid step of 400 per period."""
    from hssmmc.pipelines import solve_operating_point
    from hssmmc.smallsignal import operating_state_at, references_from_operating_point

    cfg = load_config(preset)
    params = dataclasses.replace(cfg.params, L_load=x_over_r * cfg.params.R_load / cfg.params.omega1)
    cfg = dataclasses.replace(cfg, params=params, m=cfg.m if m is None else m)
    op = solve_operating_point(cfg)
    refs = references_from_operating_point(op, params)

    def state_at(n):
        return operating_state_at(op, params, cfg.ctrl, refs, n * params.period / 400)

    return params, cfg.ctrl, refs, state_at


def _open_loop_rhs(params, m, v_dc):
    """Open-loop right-hand side with sinusoidal insertion indices, for
    ``rk4``: ``v_dc`` is a scalar for one 12-state vector, or one value per
    column of a (12, k) state block."""
    phi = np.array([PHASE_SHIFT[p] for p in PHASES]).reshape((3,) + (1,) * np.ndim(v_dc))

    def rhs(t, x):
        n_u = 0.5 - 0.5 * m * np.cos(params.omega1 * t - phi)
        return plant_derivatives(params, x, n_u, 1.0 - n_u, v_dc)

    return rhs


def composed_error(composed, reference):
    """Largest difference of two runs on one grid, per state relative to
    the reference's peak floored at SETTLE_FLOOR of the largest peak."""
    assert np.array_equal(composed.t, reference.t)
    peak = np.max(np.abs(reference.states), axis=0)
    scale = np.maximum(peak, SETTLE_FLOOR * peak.max())
    return float(np.max(np.abs(composed.states - reference.states) / scale))


def blowup_step(error):
    """(grid step, period) that a NumericalBlowupError names."""
    found = re.search(r"at step (\d+) \(period (\d+),", str(error))
    return int(found.group(1)), int(found.group(2))


class TestSimulationConfig:
    def test_validation(self):
        assert SimulationConfig(4, 3, 2).n_steps() == 12
        with pytest.raises(ValueError, match="steps_per_period"):
            SimulationConfig(steps_per_period=3, total_periods=50, settle_periods=40)
        with pytest.raises(ValueError, match="settle_periods"):
            SimulationConfig(steps_per_period=400, total_periods=50, settle_periods=1)

    def test_settle_budget(self):
        with pytest.raises(ValueError, match="total_periods must exceed settle_periods"):
            SimulationConfig(steps_per_period=2000, total_periods=40, settle_periods=40)


class TestOpenLoop:
    def test_equilibrium_stays_constant(self, fast_params):
        traj = simulate_open_loop(fast_params, 0.0, fast_cfg(fast_params))
        assert np.all(traj.states == traj.states[0])
        assert traj.states[0, 3] == fast_params.V_dc

    def test_determinism(self, fast_params):
        cfg = fast_cfg(fast_params)
        a = simulate_open_loop(fast_params, 0.6, cfg)
        b = simulate_open_loop(fast_params, 0.6, cfg)
        assert np.array_equal(a.states, b.states)

    def test_blowup_names_its_period(self, fast_params):
        # A negative arm resistance makes the open loop unstable. The
        # parameter check rejects it, so it is set past that check.
        params = dataclasses.replace(fast_params)
        object.__setattr__(params, "R", -20.0)
        cfg = fast_cfg(params)
        spp = cfg.steps_per_period
        with pytest.raises(NumericalBlowupError) as info:
            simulate_open_loop(params, 0.5, cfg)
        step, period = blowup_step(info.value)
        assert period > 0
        assert period == step // spp
        # The step-by-step run checks at period starts, so it first fails
        # at the start of the next period.
        with pytest.raises(NumericalBlowupError) as info:
            sequential_open_loop(params, 0.5, cfg)
        assert blowup_step(info.value) == ((period + 1) * spp, period + 1)

    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_matches_sequential_rk4(self, preset):
        cfg = load_config(preset)
        sim = SimulationConfig(cfg.sim.steps_per_period, total_periods=5, settle_periods=2)
        composed = simulate_open_loop(cfg.params, cfg.m, sim)
        assert composed_error(composed, sequential_open_loop(cfg.params, cfg.m, sim)) <= COMPOSED_RTOL

    @settings(max_examples=20, deadline=None)
    @given(m=st.floats(0.0, 1.0), x_over_r=st.floats(0.0, 0.5))
    def test_matches_sequential_rk4_property(self, fast_params, m, x_over_r):
        params = dataclasses.replace(
            fast_params, L_load=x_over_r * fast_params.R_load / fast_params.omega1
        )
        sim = SimulationConfig(steps_per_period=200, total_periods=5, settle_periods=2)
        composed = simulate_open_loop(params, m, sim)
        assert composed_error(composed, sequential_open_loop(params, m, sim)) <= COMPOSED_RTOL

    @settings(max_examples=20, deadline=None)
    @given(
        preset=st.sampled_from(["sec3-simulation", "table1-prototype"]),
        m=st.floats(0.0, 1.0),
        x_over_r=st.floats(0.0, 0.5),
        n0=st.integers(0, 4000),
    )
    def test_half_period_maps_match_rk4_columns(self, preset, m, x_over_r, n0):
        # The step-by-step pass: 13 columns over half a period, rest with
        # input v_dc and the identity with none. In double precision its own
        # rounding of the rest column reaches 5e-11 of i_c's peak at small m.
        params = load_config(preset).params
        params = dataclasses.replace(params, L_load=x_over_r * params.R_load / params.omega1)
        spp = 400
        x_rest = default_initial_state(params)
        rhs = _open_loop_rhs(params, m, np.r_[params.V_dc, np.zeros(12)])
        columns = np.hstack([x_rest[:, None], np.eye(12)])
        run = rk4(rhs, columns.astype(np.longdouble), n0, spp // 2, params.period / spp, spp, params.V_dc)
        maps = _half_period_maps(params, m, spp, n0)
        composed = np.broadcast_to(columns, run.shape).copy()
        for p, rows in enumerate(np.array(phase_columns(12))):
            composed[:, rows, 0] += maps[p, ..., 4]
            composed[:, rows[:, None], 1 + rows] += maps[p, ..., :4]
        peak = np.max(np.abs(run), axis=0)
        scale = np.maximum(peak, SETTLE_FLOOR * peak.max(axis=0))
        assert np.max(np.abs(composed - run) / scale) <= MAPS_RTOL

    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_settled_pass_memory(self, preset):
        # The maps are built a segment at a time, so the pass holds little
        # beyond its maps and the orbit: at most 2 MB at 2000 steps per period.
        cfg = load_config(preset)
        assert cfg.sim.steps_per_period == 2000
        settled_open_loop(cfg.params, cfg.m, cfg.sim)  # first-call caches are not the pass's
        tracemalloc.start()
        try:
            settled_open_loop(cfg.params, cfg.m, cfg.sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_circulating_spectrum_structure(self, sec3_orbit, sec3_params):
        ic = settled_spectrum(sec3_orbit, "i_c", "a", 4, sec3_params.omega1)
        assert min(abs(ic[4]), abs(ic[4 + 2])) >= 10 * max(abs(ic[4 + 1]), abs(ic[4 + 3]))

    def test_ac_current_distortion(self, sec3_orbit, sec3_params):
        ig = settled_spectrum(sec3_orbit, "i_g", "a", 10, sec3_params.omega1)
        assert total_harmonic_distortion(ig) < 0.01

    def test_settling_monotonicity(self, sec3_traj, sec3_params):
        profile = settling_profile(sec3_traj, n_periods=5)
        worst = profile.max(axis=1)
        assert np.all(np.diff(worst) > 0)  # most recent first: older periods larger

    def test_energy_balance(self, sec3_orbit, sec3_params):
        spp = sec3_orbit.steps_per_period
        balance = power_balance(sec3_orbit.states[-spp - 1 : -1], sec3_params)
        mismatch = abs(balance["dc_input"] - balance["load"] - balance["arm_loss"])
        assert mismatch <= 0.01 * balance["dc_input"]


class TestShooting:
    def test_matches_brute_force_settling(self, sec3_orbit, sec3_traj, sec3_cfg):
        """Shooting and 120 settle periods agree to a small share of each
        state family's peak; what is left is the brute-force transient."""
        def family(traj, var):
            return np.array([
                settled_spectrum(traj, var, p, sec3_cfg.h, sec3_cfg.params.omega1)
                for p in PHASES
            ])

        for var in STATE_VARIABLES:
            shot, brute = family(sec3_orbit, var), family(sec3_traj, var)
            peak = max(np.max(np.abs(shot)), np.max(np.abs(brute)))
            assert np.max(np.abs(shot - brute)) <= 1e-4 * peak, var

    def test_orbit_lies_on_the_transient_grid(self, sec3_orbit, sec3_traj):
        assert np.array_equal(sec3_orbit.t, sec3_traj.t[-sec3_orbit.t.size :])

    def test_unstable_map_raises_not_settled(self):
        # phi is a half-wave map: the one-period multiplier is 1.2².
        phi = np.diag([1.2] + [0.5] * 11).reshape(3, 4, 3, 4)[range(3), :, range(3)]
        with pytest.raises(NotSettledError, match="1.44"):
            _shooting_fixed_point(phi, np.ones((3, 4)))

    @pytest.mark.filterwarnings("error")
    def test_singular_map_raises(self):
        with pytest.raises(SingularSystemError, match="condition number inf"):
            _shooting_fixed_point(np.array([np.eye(4)] * 3), np.ones((3, 4)))

    def test_small_modulation_orbit_is_settled(self, sec3_cfg):
        # At m = 1e-6 the circulating currents are about 1e-10 A, at the
        # rounding floor of an integration whose capacitor voltages are
        # 3.2e5 V; measured against their own RMS alone they read 1e-2.
        params = sec3_cfg.params
        orbit = settled_open_loop(params, 1e-6, sec3_cfg.sim)
        assert np.max(np.sqrt(np.mean(orbit.series("i_c", "a") ** 2))) < 1e-9
        assert np.max(settling_profile(orbit, n_periods=1)) <= 1e-6 * SETTLE_RTOL
        ig = settled_spectrum(orbit, "i_g", "a", 3, params.omega1)
        assert abs(ig[3 + 1]) > 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.floats(0.0, 1.0),
        x_over_r=st.floats(0.0, 0.5),
    )
    def test_orbit_properties(self, fast_params, m, x_over_r):
        params = dataclasses.replace(
            fast_params, L_load=x_over_r * fast_params.R_load / fast_params.omega1
        )
        cfg = SimulationConfig(steps_per_period=200, total_periods=4, settle_periods=2)
        orbit = settled_open_loop(params, m, cfg)
        assert np.max(settling_profile(orbit, n_periods=1)) <= 1e-9

        rest = settled_open_loop(params, 0.0, cfg)
        deviation = rest.states.copy()
        deviation[:, 3:9] -= params.V_dc
        assert np.max(np.abs(deviation)) <= 1e-12 * params.V_dc


class TestClosedLoop:
    def test_zero_gains_zero_reference_matches_open_loop(self, fast_params):
        ctrl = ControllerParams(K_p=0.0, K_r=0.0, k_f=0.0)
        refs = {"a": 0.0 + 0.0j, "b": 0.0 + 0.0j, "c": 0.0 + 0.0j}
        cfg = fast_cfg(fast_params)
        opened = simulate_open_loop(fast_params, 0.0, cfg)
        for p, phase in enumerate(PHASES):
            closed = simulate_closed_loop(
                fast_params, ctrl, phase, refs[phase], cfg.steps_per_period, cfg.n_steps()
            )
            assert np.array_equal(closed.states[:, :4], opened.states[:, p::3])
            assert np.all(closed.states[:, 4:] == 0.0)

    def test_tracks_reference_fundamental(self, fast_params):
        # A claim about the settled orbit, so it is read from the shooting
        # orbit at period 30 of a 2000-step grid.
        ctrl, refs = tracking_loop()
        spp = 2000
        orbit = settled_closed_loop(
            fast_params, ctrl, "a", refs["a"], spp, 30 * spp, leg(closed_loop_rest(fast_params), "a")
        ).trajectory
        i_g = fourier(orbit.series("i_g", "a")[:-1], 3)
        achieved = 2 * abs(i_g[3 + 1]) * fast_params.R_load
        assert achieved == pytest.approx(abs(refs["a"]), rel=0.02)

    def test_reference_step_event_grows_amplitude(self, fast_params):
        ctrl = ControllerParams(K_p=0.6, K_r=300.0, k_f=1.0)
        amp = 0.3 * fast_params.V_dc
        refs = {p: amp + 0.0j for p in ("a", "b", "c")}
        cfg = RunConfig(
            params=fast_params,
            m=0.5,
            h=3,
            sim=SimulationConfig(steps_per_period=2000, total_periods=24, settle_periods=10),
            ctrl=ctrl,
            step=StepConfig(period=16, phase="a", amplitude=0.2 * amp),
        )
        traj = reference_step_run(cfg, refs, step_grid_index(cfg), cfg.sim.n_steps())
        spp = traj.steps_per_period
        pre = np.max(np.abs(traj.series("i_g", "a")[14 * spp : 16 * spp]))
        post = np.max(np.abs(traj.series("i_g", "a")[-2 * spp :]))
        assert post > 1.1 * pre

    def test_joined_run_is_the_concatenation_of_its_segments(self, fast_params):
        # The segments before and after a step lie on one grid, so joining
        # them moves no time stamp.
        ctrl = ControllerParams(K_p=0.6, K_r=300.0, k_f=1.0)
        refs = {p: 300.0 + 0.0j for p in ("a", "b", "c")}
        cfg = RunConfig(
            params=fast_params,
            m=0.5,
            h=3,
            sim=SimulationConfig(steps_per_period=400, total_periods=6, settle_periods=2),
            ctrl=ctrl,
            step=StepConfig(period=4, phase="b", amplitude=60.0),
        )
        n_step, n_end = step_grid_index(cfg), cfg.sim.n_steps()
        joined = reference_step_run(cfg, refs, n_step, n_end)
        # Phase b's phasor lengthened by the 60 V step along itself.
        stepped = {**refs, "b": 360.0 + 0.0j}
        for phase in PHASES:
            pre = simulate_closed_loop(fast_params, ctrl, phase, refs[phase], 400, n_step)
            after = simulate_closed_loop(
                fast_params, ctrl, phase, stepped[phase], 400, n_end - n_step,
                x0=pre.states[-1], n0=n_step,
            )
            assert np.array_equal(joined.t, np.concatenate([pre.t[:-1], after.t]))
            assert np.array_equal(leg(joined.states, phase), np.concatenate([pre.states[:-1], after.states]))

    def test_zero_dc_bus_is_a_value_error(self, fast_params):
        # The parameters accept V_dc = 0, where the open loop runs; the
        # closed-loop insertion indices divide by it.
        params = dataclasses.replace(fast_params, V_dc=0.0)
        ctrl, refs = tracking_loop()
        with pytest.raises(ValueError, match="V_dc"):
            simulate_closed_loop(params, ctrl, "a", refs["a"], 400, 400)
        with pytest.raises(ValueError, match="V_dc"):
            settled_closed_loop(params, ctrl, "a", refs["a"], 400, 0, leg(closed_loop_rest(params), "a"))

    def test_blowup_detection(self, fast_params):
        ctrl = ControllerParams(K_p=0.6, K_r=300.0, k_f=1.0)
        x0 = np.array([0.0, 1e16, 1e16, 0.0, 0.0, 0.0])
        cfg = fast_cfg(fast_params)
        with pytest.raises(NumericalBlowupError):
            simulate_closed_loop(fast_params, ctrl, "a", 0.0j, cfg.steps_per_period, cfg.n_steps(), x0=x0)


def block_run(params, ctrl, refs, spp, n_steps, x0, n0):
    """The closed-loop run of the state ``x0`` as a one-column block, which
    advances in ``rk4`` on arrays, not on floats."""
    return closed_loop_block(params, ctrl, refs, spp, n_steps, x0[:, None], n0)[:, :, 0]


def blowup_message(run):
    """The message of the NumericalBlowupError that ``run()`` raises, with
    every warning an error: the typed error comes with no numpy noise."""
    with pytest.raises(NumericalBlowupError) as info, warnings.catch_warnings():
        warnings.simplefilter("error")
        run()
    return str(info.value)


class TestClosedLoopFloatPath:
    """``simulate_closed_loop`` advances one phase leg's real state on
    Python floats; a block of 18-state columns runs all three legs' equations
    on arrays in ``conftest.rk4``. Each leg's run is the same doubles as its
    columns of the block."""

    @pytest.mark.parametrize("x_over_r", [0.0, 0.3])
    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_matches_a_one_column_block(self, preset, x_over_r):
        # From a perturbed orbit state, off a period boundary and over two
        # blow-up checks, with phase a's reference stepped.
        params, ctrl, refs, guess_at = preset_closed_loop(preset, x_over_r)
        spp, n0, n_steps = 400, 15 * 400 + 137, 2 * 400 + 50
        x = guess_at(n0)
        x0 = x + 0.01 * np.maximum(np.abs(x), 1.0) * np.random.default_rng(7).standard_normal(18)
        stepped = {**refs, "a": 1.05 * refs["a"]}
        block = block_run(params, ctrl, stepped, spp, n_steps, x0, n0)
        for phase in PHASES:
            run = simulate_closed_loop(params, ctrl, phase, stepped[phase], spp, n_steps, x0=leg(x0, phase), n0=n0)
            assert np.array_equal(run.states, leg(block, phase))

    @settings(max_examples=20, deadline=None)
    @given(
        preset=st.sampled_from(["sec3-simulation", "table1-prototype"]),
        m=st.floats(0.0, 1.0),
        x_over_r=st.floats(0.0, 0.5),
        k_p=st.floats(0.0, 2.0),
        n0=st.integers(0, 4000),
    )
    def test_matches_a_one_column_block_property(self, preset, m, x_over_r, k_p, n0):
        params, ctrl, refs, guess_at = preset_closed_loop(preset, x_over_r, m)
        ctrl = dataclasses.replace(ctrl, K_p=k_p)
        spp, n_steps = 400, 450
        x0 = guess_at(n0)
        block = block_run(params, ctrl, refs, spp, n_steps, x0, n0)
        for phase in PHASES:
            run = simulate_closed_loop(params, ctrl, phase, refs[phase], spp, n_steps, x0=leg(x0, phase), n0=n0)
            assert np.array_equal(run.states, leg(block, phase))

    def test_rejects_a_block_or_a_complex_state(self, fast_params):
        ctrl, refs = tracking_loop()
        x0 = leg(closed_loop_rest(fast_params), "a")
        for bad in (x0[:, None], x0 + 0j, x0[:4]):
            with pytest.raises(ValueError, match="one real 6-state vector"):
                simulate_closed_loop(fast_params, ctrl, "a", refs["a"], 400, 10, x0=bad)

    def test_blowup_names_the_same_step_on_both_paths(self, fast_params):
        # A negative arm resistance makes the closed loop unstable. The
        # parameter check rejects it, so it is set past that check.
        params = dataclasses.replace(fast_params)
        object.__setattr__(params, "R", -20.0)
        ctrl, refs = tracking_loop()
        spp, n_steps = 400, 40 * 400
        x0 = closed_loop_rest(params)
        # The block stops at the first blow-up of any leg; here leg a's.
        message = blowup_message(lambda: simulate_closed_loop(params, ctrl, "a", refs["a"], spp, n_steps))
        assert message == blowup_message(lambda: block_run(params, ctrl, refs, spp, n_steps, x0, 0))
        step, period = blowup_step(message)
        assert period > 0
        assert step == period * spp

    def test_zero_di_g_denominator_is_a_blowup(self, fast_params):
        # L + 2 L_load - (k_f - K_p) L_load sigma is 0.25 + 0.5 - 1.5 * 0.25 * 2,
        # exactly zero at the cold start, where sigma = (v_cu + v_cl) / V_dc = 2.
        # Floats raise ZeroDivisionError there; it must not escape.
        params = dataclasses.replace(fast_params, L=0.25, L_load=0.25)
        ctrl = ControllerParams(K_p=0.0, K_r=300.0, k_f=1.5)
        _, refs = tracking_loop()
        message = blowup_message(lambda: simulate_closed_loop(params, ctrl, "a", refs["a"], 400, 800))
        assert "denominator" in message
        assert blowup_step(message) == (0, 0)


def block_jacobian(params, ctrl, refs, spp, n0, x):
    """Jacobian of the half-period RK4 map at ``x`` by complex step through a
    19-column block run, x and x + i s_j e_j with s_j = 1e-30 max(|x_j|, 1):
    the shooting Jacobian as a whole-run complex pass builds it."""
    steps = 1e-30 * np.maximum(np.abs(x), 1.0)
    columns = np.hstack([x[:, None], x[:, None] + 1j * np.diag(steps)])
    return closed_loop_block(params, ctrl, refs, spp, spp // 2, columns, n0)[-1][:, 1:].imag / steps


def tangent_error(params, ctrl, refs, spp, n0, x):
    """Largest difference of ``_tangent_map`` along each leg's float run
    from ``x`` and that leg's block of ``block_jacobian``, both scaled by
    the state sizes max(|x|, 1), relative to the largest scaled entry. The
    block Jacobian's off-leg blocks must be exactly zero: no leg's map
    depends on another's states, which is why the legs run apart."""
    # (row phase, column phase, row variable, column variable)
    reference = block_jacobian(params, ctrl, refs, spp, n0, x).reshape(6, 3, 6, 3).transpose(1, 3, 0, 2)
    assert np.all(reference[~np.eye(3, dtype=bool)] == 0.0)
    reference = reference[range(3), range(3)]
    tangent = np.array([
        _tangent_map(
            params, ctrl, refs[phase], spp, n0,
            simulate_closed_loop(params, ctrl, phase, refs[phase], spp, spp // 2, x0=leg(x, phase), n0=n0).states,
        )
        for phase in PHASES
    ])
    size = np.maximum(np.abs(x), 1.0).reshape(6, 3).T
    scale = size[:, None, :] / size[:, :, None]
    reference, tangent = reference * scale, tangent * scale
    return float(np.max(np.abs(tangent - reference)) / np.max(np.abs(reference)))


class TestClosedLoopShooting:
    @pytest.mark.parametrize("x_over_r", [0.0, 0.3])
    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_tangent_is_the_complex_step_jacobian(self, preset, x_over_r):
        params, ctrl, refs, guess_at = preset_closed_loop(preset, x_over_r)
        spp, n0 = 400, 15 * 400
        assert tangent_error(params, ctrl, refs, spp, n0, guess_at(n0)) <= TANGENT_RTOL

    @settings(max_examples=20, deadline=None)
    @given(
        preset=st.sampled_from(["sec3-simulation", "table1-prototype"]),
        m=st.floats(0.0, 1.0),
        x_over_r=st.floats(0.0, 0.5),
        k_p=st.floats(0.0, 2.0),
        n0=st.integers(0, 4000),
    )
    def test_tangent_is_the_complex_step_jacobian_property(self, preset, m, x_over_r, k_p, n0):
        params, ctrl, refs, guess_at = preset_closed_loop(preset, x_over_r, m)
        ctrl = dataclasses.replace(ctrl, K_p=k_p)
        assert tangent_error(params, ctrl, refs, 400, n0, guess_at(n0)) <= TANGENT_RTOL

    def test_orbit_is_the_settled_cold_start(self, fast_params):
        ctrl, refs = tracking_loop()
        spp, periods = 400, 20
        rest = closed_loop_rest(fast_params)
        for phase in PHASES:
            orbit = settled_closed_loop(
                fast_params, ctrl, phase, refs[phase], spp, periods * spp, leg(rest, phase)
            )
            assert orbit.defect <= SHOOTING_DEFECT_TOL
            assert orbit.multiplier < 1.0

            cold = simulate_closed_loop(fast_params, ctrl, phase, refs[phase], spp, periods * spp)
            last = cold.states[-spp - 1 :]
            shot = orbit.trajectory.states
            assert orbit.trajectory.t[0] == cold.t[-1]
            deviation = np.sqrt(np.mean((last - shot) ** 2, axis=0))
            assert np.all(deviation <= SETTLE_RTOL * np.sqrt(np.mean(shot**2, axis=0)))

    @pytest.mark.parametrize("x_over_r", [0.0, 0.3])
    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_orbit_is_a_half_period_run_and_its_half_wave_image(self, preset, x_over_r):
        params, ctrl, refs, guess_at = preset_closed_loop(preset, x_over_r)
        spp, n0 = 400, 15 * 400
        orbits = [
            settled_closed_loop(params, ctrl, phase, refs[phase], spp, n0, leg(guess_at(n0), phase))
            for phase in PHASES
        ]
        for phase, orbit in zip(PHASES, orbits):
            shot = orbit.trajectory.states
            assert shot.shape == (spp + 1, 6)

            # The first half is the RK4 run from the fixed point itself.
            first = simulate_closed_loop(params, ctrl, phase, refs[phase], spp, spp // 2, x0=shot[0], n0=n0)
            assert np.array_equal(first.states, shot[: spp // 2 + 1])

            # The composed second half follows the sequential run within
            # rounding of the shooting defect.
            sequential = simulate_closed_loop(params, ctrl, phase, refs[phase], spp, spp, x0=shot[0], n0=n0)
            assert np.array_equal(sequential.t, orbit.trajectory.t)
            peak = np.max(np.abs(sequential.states), axis=0)
            assert np.all(np.abs(shot - sequential.states) <= 1e-9 * peak)

        # multiplier is the full-period Floquet multiplier: the largest
        # eigenvalue magnitude of a forward-difference monodromy matrix
        # over one whole period from the fixed point, here each leg's block
        # of the 18-state block run's. Its step, 1e-6 of each state, keeps
        # the reference within 3e-7 of central differences.
        x = np.stack([orbit.trajectory.states[0] for orbit in orbits], axis=1).ravel()
        columns = np.hstack([x[:, None], x[:, None] + np.diag(1e-6 * np.maximum(np.abs(x), 1.0))])
        steps = np.diag(columns[:, 1:]) - x
        end = closed_loop_block(params, ctrl, refs, spp, spp, columns, n0)[-1]
        monodromy = ((end[:, 1:] - end[:, :1]) / steps).reshape(6, 3, 6, 3)
        for p, orbit in enumerate(orbits):
            multiplier = np.max(np.abs(np.linalg.eigvals(monodromy[:, p, :, p])))
            assert orbit.multiplier == pytest.approx(multiplier, rel=1e-6)

    def test_multiplier_matches_central_differences_at_small_modulation(self):
        # At m = 0.05 the circulating currents are far below their typical
        # size, so a difference step in each state's own units is mostly
        # rounding there: a forward-difference Jacobian left the multiplier
        # 5e-6 off. The complex-step Jacobian has no step to choose.
        params, ctrl, refs, guess_at = preset_closed_loop("sec3-simulation", 0.3, m=0.05)
        spp, n0 = 400, 15 * 400
        orbits = [
            settled_closed_loop(params, ctrl, phase, refs[phase], spp, n0, leg(guess_at(n0), phase))
            for phase in PHASES
        ]

        # Reference: a central-difference monodromy matrix over one whole
        # period from the fixed points, with the steps as represented, and
        # each leg's block of it.
        x = np.stack([orbit.trajectory.states[0] for orbit in orbits], axis=1).ravel()
        step = np.diag(1e-5 * np.maximum(np.abs(x), 1.0))
        columns = np.hstack([x[:, None] + step, x[:, None] - step])
        steps = np.diag(columns[:, :18]) - np.diag(columns[:, 18:])
        end = closed_loop_block(params, ctrl, refs, spp, spp, columns, n0)[-1]
        monodromy = ((end[:, :18] - end[:, 18:]) / steps).reshape(6, 3, 6, 3)
        for p, orbit in enumerate(orbits):
            multiplier = np.max(np.abs(np.linalg.eigvals(monodromy[:, p, :, p])))
            assert orbit.multiplier == pytest.approx(multiplier, rel=1e-7)

    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_orbit_repeated_is_the_rk4_continuation(self, preset):
        # verify-smallsig measures its step against the stepped leg's orbit
        # repeated over the comparison window, in place of an unstepped run;
        # the two agree to the shooting tolerance.
        cfg = load_config(preset)
        cfg = dataclasses.replace(
            cfg,
            sim=dataclasses.replace(cfg.sim, steps_per_period=400),
            step=dataclasses.replace(cfg.step, period=15, window_periods=5),
        )
        ctx = SmallsigContext(cfg)
        phase = cfg.step.phase
        assert ctx.orbit.trajectory.phases == (phase,)
        orbit = ctx.orbit.trajectory.states
        run = simulate_closed_loop(
            cfg.params, cfg.ctrl, phase, ctx.refs[phase], ctx.spp, ctx.window_steps, x0=orbit[0], n0=ctx.n_step
        )
        repeated = np.resize(orbit[:-1], run.states.shape)
        peak = np.max(np.abs(orbit), axis=0)
        assert np.all(np.abs(run.states - repeated) <= 1e-8 * peak)

    @pytest.mark.parametrize("h", [3, 7])
    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_step_half_a_period_on_reads_the_same_nrmse(self, preset, h):
        # The orbit and the lifted model commute with the half-wave
        # operator, so the step half a period on is the same step under H,
        # and the perturbation NRMSE is the same to rounding. The tolerance
        # was fixed before measuring. n_step moves before the first compare:
        # the orbit is shot at n_step on first use.
        cfg = load_config(preset)
        cfg = dataclasses.replace(
            cfg,
            h=h,
            sim=dataclasses.replace(cfg.sim, steps_per_period=400),
            step=dataclasses.replace(cfg.step, period=15, window_periods=5),
        )
        readings = []
        for shift in (0, 400 // 2):
            ctx = SmallsigContext(cfg)
            ctx.n_step += shift
            readings.append(ctx.compare(cfg.step.amplitude).nrmse)
            assert ctx.orbit.trajectory.n0 == 15 * 400 + shift
        for var in ("i_c", "i_g"):
            assert readings[1][var] == pytest.approx(readings[0][var], rel=1e-9, abs=0)

    def test_odd_grid_has_no_half_period_point(self, fast_params):
        ctrl, refs = tracking_loop()
        with pytest.raises(ValueError, match="even"):
            settled_closed_loop(fast_params, ctrl, "a", refs["a"], 401, 0, leg(closed_loop_rest(fast_params), "a"))

    def test_non_attracting_orbit_raises(self, fast_params):
        # Feed-forward gain 3 makes the loop unstable on this circuit.
        _, refs = tracking_loop()
        ctrl = ControllerParams(K_p=0.6, K_r=300.0, k_f=3.0)
        with pytest.raises(ShootingError, match="not attracting") as info:
            settled_closed_loop(fast_params, ctrl, "a", refs["a"], 200, 200, leg(closed_loop_rest(fast_params), "a"))
        assert info.value.iterations == 0
        assert info.value.defect > SHOOTING_DEFECT_TOL
        assert isinstance(info.value, NotSettledError)

    def test_iteration_cap_raises(self, fast_params, monkeypatch):
        from hssmmc import simulate

        monkeypatch.setattr(simulate, "SHOOTING_MAX_ITERATIONS", 1)
        ctrl, refs = tracking_loop()
        with pytest.raises(ShootingError, match="after 1 iterations") as info:
            settled_closed_loop(fast_params, ctrl, "a", refs["a"], 200, 200, leg(closed_loop_rest(fast_params), "a"))
        assert info.value.iterations == 1
        assert info.value.defect > SHOOTING_DEFECT_TOL


@functools.cache
def leg_orbits(preset):
    """A preset's closed loop, the operating point's closed-loop state at
    period 15, and each leg's orbit from there at the benchmark's length:
    400 steps per period, from period 15."""
    params, ctrl, refs, guess_at = preset_closed_loop(preset, 0.0)
    n0 = 15 * 400
    x = guess_at(n0)
    orbits = {
        phase: settled_closed_loop(params, ctrl, phase, refs[phase], 400, n0, leg(x, phase))
        for phase in PHASES
    }
    return params, ctrl, refs, x, orbits


class TestLegRuns:
    """A closed-loop run is one phase leg, named by its phase. The legs
    share only the constant dc bus, so each leg's run is its columns of the
    18-state block run of all three."""

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_window_run_is_the_block_columns(self, preset, phase):
        # From the orbit states, with the phase's reference stepped, over the
        # benchmark's 5-period window: the same doubles.
        params, ctrl, refs, _, orbits = leg_orbits(preset)
        n0 = orbits[phase].trajectory.n0
        x = np.stack([orbits[p].trajectory.states[0] for p in PHASES], axis=1).ravel()
        stepped = {**refs, phase: 1.05 * refs[phase]}
        block = block_run(params, ctrl, stepped, 400, 5 * 400, x, n0)
        one = simulate_closed_loop(params, ctrl, phase, stepped[phase], 400, 5 * 400, x0=leg(x, phase), n0=n0)
        assert one.phases == (phase,)
        assert np.array_equal(one.t[: 400 + 1], orbits[phase].trajectory.t)
        assert np.array_equal(one.states, leg(block, phase))

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_leg_orbits_share_the_floquet_multiplier(self, preset, phase):
        # Balanced legs are one another a third of a period on, so they share
        # their multipliers; the block run's monodromy is block diagonal, and
        # its largest multiplier is the largest of the legs'. A defect of
        # 1e-10 moves a multiplier by about that much relative, so 1e-8
        # leaves a hundredfold margin.
        orbits = leg_orbits(preset)[-1]
        assert orbits[phase].defect <= SHOOTING_DEFECT_TOL
        largest = max(orbit.multiplier for orbit in orbits.values())
        assert orbits[phase].multiplier == pytest.approx(largest, rel=1e-8)

    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_cold_start_is_the_block_columns(self, preset):
        params, ctrl, refs, _, _ = leg_orbits(preset)
        cold = np.repeat([0.0, params.V_dc, params.V_dc, 0.0, 0.0, 0.0], 3)
        block = block_run(params, ctrl, refs, 400, 400, cold, 0)
        for phase in PHASES:
            one = simulate_closed_loop(params, ctrl, phase, refs[phase], 400, 400)
            assert np.array_equal(one.states, leg(block, phase))

    def test_series_of_a_missing_leg_is_an_unknown_variable_error(self):
        params, ctrl, refs, guess_at = preset_closed_loop("sec3-simulation", 0.0)
        one = simulate_closed_loop(params, ctrl, "b", refs["b"], 400, 10, x0=leg(guess_at(0), "b"))
        assert one.phases == ("b",)
        assert one.series("i_c", "b").shape == (11,)
        for phase in ("a", "c", "d"):
            with pytest.raises(UnknownVariableError):
                one.series("i_c", phase)

    def test_rejects_a_three_leg_state_for_one_leg(self):
        params, ctrl, refs, guess_at = preset_closed_loop("sec3-simulation", 0.0)
        with pytest.raises(ValueError, match="one real 6-state vector"):
            simulate_closed_loop(params, ctrl, "a", refs["a"], 400, 10, x0=guess_at(0))
        with pytest.raises(ValueError, match="one vector of 6 states"):
            settled_closed_loop(params, ctrl, "a", refs["a"], 400, 0, guess_at(0))

    def test_unknown_phase_is_an_unknown_variable_error(self):
        params, ctrl, refs, guess_at = preset_closed_loop("sec3-simulation", 0.0)
        x = leg(guess_at(0), "a")
        with pytest.raises(UnknownVariableError, match="'d'"):
            simulate_closed_loop(params, ctrl, "d", refs["a"], 400, 10, x0=x)
        with pytest.raises(UnknownVariableError, match="'d'"):
            settled_closed_loop(params, ctrl, "d", refs["a"], 400, 0, x)


@settings(max_examples=20, deadline=None)
@given(
    preset=st.sampled_from(["sec3-simulation", "table1-prototype"]),
    m=st.floats(0.0, 1.0),
    x_over_r=st.floats(0.0, 0.5),
    gains=st.lists(st.floats(0.5, 1.5), min_size=3, max_size=3),
    turns=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
    n0=st.integers(0, 4000),
)
def test_closed_loop_commutes_with_the_half_wave_operator(
    preset, m, x_over_r, gains, turns, n0
):
    # What half-wave shooting rests on: with fundamental references of any
    # per-phase amplitude and angle, v*(t + T/2) = -v*(t), so the run from
    # n0 + spp/2 started at H x is H applied to the run from n0 started at x.
    params, ctrl, refs, guess_at = preset_closed_loop(preset, x_over_r, m)
    spp = 400
    H = LEG_HALF_WAVE_OPERATOR
    for phase, g, a in zip(PHASES, gains, turns):
        ref = refs[phase] * g * np.exp(1j * a)
        x = leg(guess_at(n0), phase)
        run = simulate_closed_loop(params, ctrl, phase, ref, spp, spp, x0=x, n0=n0)
        shifted = simulate_closed_loop(params, ctrl, phase, ref, spp, spp, x0=H @ x, n0=n0 + spp // 2)
        image = run.states @ H.T
        peak = np.max(np.abs(image), axis=0)
        scale = np.maximum(peak, SETTLE_FLOOR * peak.max())
        assert np.max(np.abs(shifted.states - image) / scale) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(
    preset=st.sampled_from(["sec3-simulation", "table1-prototype"]),
    m=st.floats(0.0, 1.0),
    x_over_r=st.floats(0.0, 0.5),
    n0=st.integers(0, 4000),
)
def test_open_loop_commutes_with_the_half_wave_operator(preset, m, x_over_r, n0):
    # What the half-period open-loop pass rests on: n_u(t + T/2) = n_l(t)
    # and H x_rest = x_rest for the plant block H of the operator, so the
    # step-by-step run from n0 + spp/2 started at H x is H applied to the
    # run from n0 started at x.
    params, _, _, guess_at = preset_closed_loop(preset, x_over_r, m)
    spp = 400
    dt = params.period / spp
    H = np.kron(LEG_HALF_WAVE_OPERATOR[:4, :4], np.eye(3))  # on the 12 variable-major plant states
    rhs = _open_loop_rhs(params, m, params.V_dc)
    x = guess_at(n0)[:12]
    image = rk4(rhs, x, n0, spp, dt, spp, params.V_dc) @ H.T
    shifted = rk4(rhs, H @ x, n0 + spp // 2, spp, dt, spp, params.V_dc)
    peak = np.max(np.abs(image), axis=0)
    scale = np.maximum(peak, SETTLE_FLOOR * peak.max())
    assert np.max(np.abs(shifted - image) / scale) <= 1e-10


class TestBlowupCheck:
    def test_reports_step_within_one_period_of_failure(self):
        period = 0.02
        dt = period / 100
        t_nan = 3.37 * period

        def rhs(t, x):
            return np.full_like(x, np.nan) if t >= t_nan else -x

        with pytest.raises(NumericalBlowupError) as info:
            rk4(rhs, np.ones(3), 0, 1000, dt, 100, 1.0)
        step = int(re.search(r"at step (\d+)", str(info.value)).group(1))
        assert t_nan <= step * dt <= t_nan + period


class TestSettledSpectrum:
    def test_constant_trajectory(self, fast_params):
        traj = simulate_open_loop(fast_params, 0.0, fast_cfg(fast_params))
        vc = settled_spectrum(traj, "v_cu", "a", 3, W1)
        assert vc[3] == pytest.approx(fast_params.V_dc)
        assert np.max(np.abs(np.delete(vc, 3))) < 1e-9

    def test_offset_start_time(self):
        # The final period starts at t0, part way into a period: the
        # coefficients come back referred to t = 0.
        rng = np.random.default_rng(6)
        coeffs = np.stack([random_real_vector(rng, 3) for _ in STATE_LABELS])
        spp, n0 = 80, 37
        n = 3 * spp + 1
        values = sample(coeffs, spp)[:, (n0 + np.arange(n)) % spp]
        traj = Trajectory(2 * np.pi / W1 / spp, spp, n0, values.T)
        assert traj.t[-spp - 1] % (2 * np.pi / W1) > 0.1 * (2 * np.pi / W1)
        for r, label in enumerate(STATE_LABELS):
            back = settled_spectrum(traj, label[:-1], label[-1], 3, W1)
            assert np.max(np.abs(back - coeffs[r])) < 1e-9

    def test_not_settled_raises(self, sec3_params):
        cfg = SimulationConfig(steps_per_period=2000, total_periods=6, settle_periods=3)
        traj = simulate_open_loop(sec3_params, 0.5, cfg)
        with pytest.raises(NotSettledError):
            settled_spectrum(traj, "i_c", "a", 3, sec3_params.omega1)
        with pytest.raises(NotSettledError, match=f"{traj.settling_change:.3e}"):
            settled_spectrum(traj, "i_g", "b", 3, sec3_params.omega1)

    def test_settled_check_runs_once_per_trajectory(self, fast_params, monkeypatch):
        # Every spectrum of one run reads the same last two periods.
        from hssmmc import simulate

        traj = simulate_open_loop(fast_params, 0.5, fast_cfg(fast_params))
        calls = []
        monkeypatch.setattr(
            simulate, "settling_profile", lambda *a, **k: calls.append(a) or settling_profile(*a, **k)
        )
        for label in STATE_LABELS:
            settled_spectrum(traj, label[:-1], label[-1], 3, W1)
        assert len(calls) == 1
        assert traj.settling_change == np.max(settling_profile(traj, n_periods=1))

    def test_matches_steady_solve(self, sec3_orbit, sec3_op, sec3_params):
        for var in ("i_c", "v_cu", "i_g"):
            sim = settled_spectrum(sec3_orbit, var, "a", 3, sec3_params.omega1)
            rel_error, dominant = compare_spectra(sec3_op.spectrum(var, "a"), sim)
            assert np.max(rel_error[dominant]) <= 0.02


class TestCompareSpectra:
    def test_equal_spectra(self):
        c = coefficient_row({0: 2.0, 1: 1.0, -1: 1.0}, 2)
        rel_error, _ = compare_spectra(c, c)
        assert np.max(rel_error) == 0.0

    def test_factor_two(self):
        b = coefficient_row({0: 2.0, 1: 1.0, -1: 1.0}, 2)
        rel_error, _ = compare_spectra(2.0 * b, b)
        nonzero = np.abs(b) > 0
        assert np.allclose(rel_error[nonzero], 0.5)

    def test_floor_suppresses_negligible_harmonics(self):
        a = coefficient_row({0: 1.0, 2: 1e-14}, 2)
        b = coefficient_row({0: 1.0, 2: 3e-14}, 2)
        rel_error, _ = compare_spectra(a, b)
        assert rel_error[2 + 2] < 1e-6

    def test_dominant_set(self):
        # At or above DOMINANT_FRACTION of the peak is dominant.
        c = coefficient_row({0: 1.0, 1: DOMINANT_FRACTION, 2: 0.99 * DOMINANT_FRACTION}, 2)
        _, dominant = compare_spectra(c, c)
        assert dominant.tolist() == [False, False, True, True, False]

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            compare_spectra(np.zeros(5, dtype=complex), np.zeros(7, dtype=complex))


class TestDistortion:
    def test_pure_fundamental(self):
        c = coefficient_row({1: 1.0, -1: 1.0}, 5)
        assert total_harmonic_distortion(c) == 0.0

    def test_known_ratio(self):
        c = coefficient_row({1: 1.0, -1: 1.0, 3: 0.05, -3: 0.05}, 5)
        assert total_harmonic_distortion(c) == pytest.approx(0.05)

    def test_requires_fundamental(self):
        with pytest.raises(OrderMismatchError):
            total_harmonic_distortion(np.zeros(1, dtype=complex))


def test_trajectory_series_accessor(fast_params):
    traj = simulate_open_loop(fast_params, 0.0, fast_cfg(fast_params, periods=4, settle=2))
    assert np.all(traj.series("v_cu", "a") == fast_params.V_dc)
    with pytest.raises(UnknownVariableError):
        traj.series("v_cu", "x")
