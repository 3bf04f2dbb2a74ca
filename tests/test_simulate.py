"""Nonlinear reference simulator: integration, settling, spectra, comparisons."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hssmmc import (
    ControllerParams,
    HarmonicVector,
    NotSettledError,
    NumericalBlowupError,
    OrderMismatchError,
    SimulationConfig,
    SingularSystemError,
    compare_spectra,
    settled_open_loop,
    settled_spectrum,
    simulate_closed_loop,
    simulate_open_loop,
    total_harmonic_distortion,
)
from hssmmc.config import RunConfig, StepConfig, load_config
from hssmmc.errors import ShootingError
from hssmmc.harmonic import analyze
from hssmmc.pipelines import ReferenceStepRuns, step_grid_index
from hssmmc.plant import PHASES, STATE_VARIABLES
from hssmmc.simulate import (
    SETTLE_FLOOR,
    SETTLE_RTOL,
    SHOOTING_DEFECT_TOL,
    _rk4,
    _shooting_fixed_point,
    default_initial_state,
    power_balance,
    settled_closed_loop,
    settling_profile,
    simulate_closed_loop_columns,
)

from conftest import sequential_open_loop

W1 = 314.0

# A composed open-loop run may differ from the step-by-step RK4 run by
# rounding only: by at most this share of each state's peak. Rounding scales
# with the whole state, so each peak is floored at SETTLE_FLOOR of the
# largest one, as in settling_profile.
COMPOSED_RTOL = 1e-9


def fast_cfg(params, periods=12, settle=10):
    return SimulationConfig(steps_per_period=2000, total_periods=periods, settle_periods=settle)


def tracking_loop():
    """PR gains and balanced references of 0.35 V_dc for the fast circuit."""
    refs = {p: 350.0 * np.exp(-1j * s) for p, s in (("a", 0.0), ("b", 2 * np.pi / 3), ("c", -2 * np.pi / 3))}
    return ControllerParams(K_p=0.6, K_r=300.0, k_f=1.0), refs


def closed_loop_rest(params):
    return np.concatenate([default_initial_state(params), np.zeros(6)])


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

    def test_blowup_detection(self, fast_params):
        x0 = default_initial_state(fast_params)
        x0[0] = 1e16
        with pytest.raises(NumericalBlowupError):
            simulate_open_loop(fast_params, 0.5, fast_cfg(fast_params), x0=x0)

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

    def test_circulating_spectrum_structure(self, sec3_orbit, sec3_params):
        hv = settled_spectrum(sec3_orbit, "i_c", "a", 4, sec3_params.omega1)
        assert min(abs(hv[0]), abs(hv[2])) >= 10 * max(abs(hv[1]), abs(hv[3]))

    def test_ac_current_distortion(self, sec3_orbit, sec3_params):
        hv = settled_spectrum(sec3_orbit, "i_g", "a", 10, sec3_params.omega1)
        assert total_harmonic_distortion(hv) < 0.01

    def test_settling_monotonicity(self, sec3_traj, sec3_params):
        profile = settling_profile(sec3_traj, n_periods=5)
        worst = profile.max(axis=1)
        assert np.all(np.diff(worst) > 0)  # most recent first: older periods larger

    def test_energy_balance(self, sec3_orbit, sec3_params):
        balance = power_balance(sec3_orbit, sec3_params)
        mismatch = abs(balance["dc_input"] - balance["load"] - balance["arm_loss"])
        assert mismatch <= 0.01 * balance["dc_input"]


class TestShooting:
    def test_matches_brute_force_settling(self, sec3_orbit, sec3_traj, sec3_cfg):
        """Shooting and 120 settle periods agree to a small share of each
        state family's peak; what is left is the brute-force transient."""
        def family(traj, var):
            return np.array([
                settled_spectrum(traj, var, p, sec3_cfg.h, sec3_cfg.params.omega1).coeffs
                for p in PHASES
            ])

        for var in STATE_VARIABLES:
            shot, brute = family(sec3_orbit, var), family(sec3_traj, var)
            peak = max(np.max(np.abs(shot)), np.max(np.abs(brute)))
            assert np.max(np.abs(shot - brute)) <= 1e-4 * peak, var

    def test_orbit_lies_on_the_transient_grid(self, sec3_orbit, sec3_traj):
        assert np.array_equal(sec3_orbit.t, sec3_traj.t[-sec3_orbit.t.size :])

    def test_unstable_map_raises_not_settled(self):
        phi = np.diag([1.2] + [0.5] * 11)
        with pytest.raises(NotSettledError, match="1.2"):
            _shooting_fixed_point(phi, np.ones(12))

    @pytest.mark.filterwarnings("error")
    def test_singular_map_raises(self):
        with pytest.raises(SingularSystemError, match="condition number inf"):
            _shooting_fixed_point(np.eye(12), np.ones(12))

    def test_small_modulation_orbit_is_settled(self, sec3_cfg):
        # At m = 1e-6 the circulating currents are about 1e-10 A, at the
        # rounding floor of an integration whose capacitor voltages are
        # 3.2e5 V; measured against their own RMS alone they read 1e-2.
        params = sec3_cfg.params
        orbit = settled_open_loop(params, 1e-6, sec3_cfg.sim)
        assert np.max(np.sqrt(np.mean(orbit.series("i_c", "a") ** 2))) < 1e-9
        assert np.max(settling_profile(orbit, n_periods=1)) <= 1e-6 * SETTLE_RTOL
        hv = settled_spectrum(orbit, "i_g", "a", 3, params.omega1)
        assert abs(hv[1]) > 0.0

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
        closed = simulate_closed_loop(fast_params, ctrl, refs, cfg.steps_per_period, cfg.n_steps())
        opened = simulate_open_loop(fast_params, 0.0, cfg)
        assert np.array_equal(closed.states[:, :12], opened.states)
        assert np.all(closed.states[:, 12:] == 0.0)

    def test_tracks_reference_fundamental(self, fast_params):
        # A claim about the settled orbit, so it is read from the shooting
        # orbit at period 30 of a 2000-step grid.
        ctrl, refs = tracking_loop()
        spp = 2000
        orbit = settled_closed_loop(
            fast_params, ctrl, refs, spp, 30 * spp, closed_loop_rest(fast_params)
        ).trajectory
        i_g = analyze(orbit.series("i_g", "a")[:-1], 3, W1, t0=float(orbit.t[0]))
        achieved = 2 * abs(i_g[1]) * fast_params.R_load
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
        runs = ReferenceStepRuns(cfg, refs, step_grid_index(cfg))
        traj = runs.joined(cfg.step.amplitude, cfg.sim.n_steps())
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
        runs = ReferenceStepRuns(cfg, refs, step_grid_index(cfg))
        n_end = cfg.sim.n_steps()
        joined = runs.joined(cfg.step.amplitude, n_end)
        stepped = runs.after(cfg.step.amplitude, n_end - runs.n_step)
        assert np.array_equal(joined.t, np.concatenate([runs.pre.t[:-1], stepped.t]))
        assert np.array_equal(joined.states, np.concatenate([runs.pre.states[:-1], stepped.states]))

    def test_blowup_detection(self, fast_params):
        ctrl = ControllerParams(K_p=0.6, K_r=300.0, k_f=1.0)
        refs = {p: 0.0 + 0.0j for p in ("a", "b", "c")}
        x0 = np.zeros(18)
        x0[3:9] = 1e16
        cfg = fast_cfg(fast_params)
        with pytest.raises(NumericalBlowupError):
            simulate_closed_loop(fast_params, ctrl, refs, cfg.steps_per_period, cfg.n_steps(), x0=x0)


class TestClosedLoopColumns:
    @pytest.mark.parametrize("x_over_r", [0.0, 0.3])
    def test_column_is_the_single_run(self, fast_params, x_over_r):
        # An (18, k) block advances each column exactly as that column alone.
        params = dataclasses.replace(
            fast_params, L_load=x_over_r * fast_params.R_load / fast_params.omega1
        )
        ctrl, refs = tracking_loop()
        x0 = simulate_closed_loop(params, ctrl, refs, 400, 400).states[-1]
        columns = [refs, {p: 1.1 * v for p, v in refs.items()}, {"a": 0j, "b": 50.0 + 0j, "c": -20j}]
        runs = simulate_closed_loop_columns(params, ctrl, columns, 400, 800, x0, n0=400)
        for refs_j, run in zip(columns, runs):
            single = simulate_closed_loop(params, ctrl, refs_j, 400, 800, x0=x0, n0=400)
            assert np.array_equal(run.t, single.t)
            assert np.array_equal(run.states, single.states)


class TestClosedLoopShooting:
    def test_orbit_is_the_settled_cold_start(self, fast_params):
        ctrl, refs = tracking_loop()
        spp, periods = 400, 20
        orbit = settled_closed_loop(
            fast_params, ctrl, refs, spp, periods * spp, closed_loop_rest(fast_params)
        )
        assert orbit.defect <= SHOOTING_DEFECT_TOL
        assert orbit.multiplier < 1.0

        cold = simulate_closed_loop(fast_params, ctrl, refs, spp, periods * spp)
        last = cold.states[-spp - 1 :]
        shot = orbit.trajectory.states
        assert orbit.trajectory.t[0] == cold.t[-1]
        deviation = np.sqrt(np.mean((last - shot) ** 2, axis=0))
        assert np.all(deviation <= SETTLE_RTOL * np.sqrt(np.mean(shot**2, axis=0)))

    def test_orbit_starts_the_closed_loop_run_it_repeats(self, fast_params):
        ctrl, refs = tracking_loop()
        orbit = settled_closed_loop(fast_params, ctrl, refs, 400, 800, closed_loop_rest(fast_params))
        run = simulate_closed_loop(
            fast_params, ctrl, refs, 400, 400, x0=orbit.trajectory.states[0], n0=800
        )
        assert np.array_equal(run.states, orbit.trajectory.states)

    def test_non_attracting_orbit_raises(self, fast_params):
        # Feed-forward gain 3 makes the loop unstable on this circuit.
        _, refs = tracking_loop()
        ctrl = ControllerParams(K_p=0.6, K_r=300.0, k_f=3.0)
        with pytest.raises(ShootingError, match="not attracting") as info:
            settled_closed_loop(fast_params, ctrl, refs, 200, 200, closed_loop_rest(fast_params))
        assert info.value.iterations == 0
        assert info.value.defect > SHOOTING_DEFECT_TOL
        assert isinstance(info.value, NotSettledError)

    def test_iteration_cap_raises(self, fast_params, monkeypatch):
        from hssmmc import simulate

        monkeypatch.setattr(simulate, "SHOOTING_MAX_ITERATIONS", 1)
        ctrl, refs = tracking_loop()
        with pytest.raises(ShootingError, match="after 1 iterations") as info:
            settled_closed_loop(fast_params, ctrl, refs, 200, 200, closed_loop_rest(fast_params))
        assert info.value.iterations == 1
        assert info.value.defect > SHOOTING_DEFECT_TOL


class TestBlowupCheck:
    def test_reports_step_within_one_period_of_failure(self):
        period = 0.02
        dt = period / 100
        t_nan = 3.37 * period

        def rhs(t, x):
            return np.full_like(x, np.nan) if t >= t_nan else -x

        with pytest.raises(NumericalBlowupError) as info:
            _rk4(rhs, np.ones(3), 0, 1000, dt, 100, 1.0)
        step = int(re.search(r"at step (\d+)", str(info.value)).group(1))
        assert t_nan <= step * dt <= t_nan + period


class TestSettledSpectrum:
    def test_constant_trajectory(self, fast_params):
        traj = simulate_open_loop(fast_params, 0.0, fast_cfg(fast_params))
        hv = settled_spectrum(traj, "v_cu", "a", 3, W1)
        assert hv[0] == pytest.approx(fast_params.V_dc)
        assert np.max(np.abs(np.delete(hv.coeffs, 3))) < 1e-9

    def test_not_settled_raises(self, sec3_params):
        cfg = SimulationConfig(steps_per_period=2000, total_periods=6, settle_periods=3)
        traj = simulate_open_loop(sec3_params, 0.5, cfg)
        with pytest.raises(NotSettledError):
            settled_spectrum(traj, "i_c", "a", 3, sec3_params.omega1)

    def test_matches_steady_solve(self, sec3_orbit, sec3_op, sec3_params):
        for var in ("i_c", "v_cu", "i_g"):
            sim_hv = settled_spectrum(sec3_orbit, var, "a", 3, sec3_params.omega1)
            report = compare_spectra(sec3_op.spectrum(var, "a"), sim_hv)
            assert report.max_rel_error_dominant() <= 0.02


class TestCompareSpectra:
    def test_equal_spectra(self):
        hv = HarmonicVector.from_dict({0: 2.0, 1: 1.0, -1: 1.0}, 2, W1)
        report = compare_spectra(hv, hv)
        assert report.max_rel_error() == 0.0

    def test_factor_two(self):
        b = HarmonicVector.from_dict({0: 2.0, 1: 1.0, -1: 1.0}, 2, W1)
        a = 2.0 * b
        report = compare_spectra(a, b)
        nonzero = np.abs(b.coeffs) > 0
        assert np.allclose(report.rel_error[nonzero], 0.5)

    def test_floor_suppresses_negligible_harmonics(self):
        a = HarmonicVector.from_dict({0: 1.0, 2: 1e-14}, 2, W1)
        b = HarmonicVector.from_dict({0: 1.0, 2: 3e-14}, 2, W1)
        report = compare_spectra(a, b)
        assert report.rel_error[report.harmonic_indices == 2] < 1e-6

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            compare_spectra(HarmonicVector(2, W1, np.zeros(5)), HarmonicVector(3, W1, np.zeros(7)))


class TestDistortion:
    def test_pure_fundamental(self):
        hv = HarmonicVector.from_dict({1: 1.0, -1: 1.0}, 5, W1)
        assert total_harmonic_distortion(hv) == 0.0

    def test_known_ratio(self):
        hv = HarmonicVector.from_dict({1: 1.0, -1: 1.0, 3: 0.05, -3: 0.05}, 5, W1)
        assert total_harmonic_distortion(hv) == pytest.approx(0.05)

    def test_requires_fundamental(self):
        with pytest.raises(OrderMismatchError):
            total_harmonic_distortion(HarmonicVector(0, W1, np.zeros(1)))


def test_trajectory_series_accessor(fast_params):
    traj = simulate_open_loop(fast_params, 0.0, fast_cfg(fast_params, periods=4, settle=2))
    assert np.all(traj.series("v_cu", "a") == fast_params.V_dc)
    with pytest.raises(KeyError):
        traj.series("v_cu", "x")
