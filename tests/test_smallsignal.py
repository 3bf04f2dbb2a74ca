"""Closed-loop linearization: gain vectors, lifted assembly, envelopes."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hssmmc import (
    ControllerParams,
    MmcParameters,
    assemble_smallsignal,
    assemble_steady,
    eigenvalues,
    envelope_response,
    frequency_matrix,
    open_loop_insertion_indices,
    reconstruct_perturbation,
    solve_steady_state,
    toeplitz,
)
from hssmmc.errors import (
    DimensionMismatchError,
    HalfWaveAsymmetryError,
    PhaseImbalanceError,
    ResidualImaginaryError,
    UnknownVariableError,
)
from hssmmc.harmonic import fourier
from hssmmc.pipelines import solve_operating_point
from hssmmc.plant import PHASES, STATE_VARIABLES, state_position
from hssmmc.smallsignal import (
    LEG_HALF_WAVE,
    EnvelopeResponse,
    SMALLSIG_STATE_LABELS,
    SMALLSIG_VARIABLES,
    lifted_reference_step,
    load_voltage_spectrum,
    operating_state_at,
    references_from_operating_point,
    _expm,
)
from conftest import (
    V_REF,
    block,
    closed_loop_rhs,
    dense_block,
    dense_smallsignal,
    dense_steady,
    envelope_final_state,
    half_wave_broken,
    linearized_A,
    peak_error,
    phase_b_raised,
    phase_columns,
    settled_state,
    unbalanced,
    with_nan,
)

W1 = 314.0


def sec3_like():
    return MmcParameters(
        R=1.0, L=0.36, C_sm=140e-6, N=20, V_dc=320e3, omega1=W1, R_load=551.12
    )


def solve(params, m, h):
    idx = open_loop_insertion_indices(m, h)
    model = assemble_steady(params, idx, h)
    return solve_steady_state(model, params.V_dc, idx)


def ctrl_default():
    return ControllerParams(K_p=0.6, K_r=300.0, k_f=1.0)


class TestControllerParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControllerParams(K_p=-0.1, K_r=1.0, k_f=1.0)
        with pytest.raises(ValueError):
            ControllerParams(K_p=0.1, K_r=-1.0, k_f=1.0)

    def test_pr_realization_transfer_function(self):
        # The two-state resonator with dx1 = -w1^2 x2 + K_r e, dx2 = x1,
        # y = x1 must realize K_r s / (s^2 + w1^2).
        K_r = 250.0
        A = np.array([[0.0, -(W1**2)], [1.0, 0.0]])
        B = np.array([K_r, 0.0])
        C = np.array([1.0, 0.0])
        for w in np.logspace(0, 4, 40):
            if abs(w - W1) / W1 < 1e-3:
                continue
            s = 1j * w
            H_ss = C @ np.linalg.solve(s * np.eye(2) - A, B)
            H_ref = K_r * s / (s**2 + W1**2)
            assert H_ss == pytest.approx(H_ref, rel=1e-9)


def coefficients(model, row, col):
    """Coefficients k = -h..h of entry (row, col) of the periodic A(t) the
    lifted A is the lift of, or of B(t) for an input block: the k = 0
    column of its lifted block, a Toeplitz operator there (the frequency
    matrix is zero at k = 0)."""
    return block(model, row, col)[:, model.h]


def assert_coefficients_equal(actual, expected):
    """Equal to rounding in every slot: within 1e-14 of the largest expected
    coefficient. A sampled derivation carries its rounding into the slots
    that are zero in exact arithmetic, at about 1e-17 of the scale."""
    assert np.max(np.abs(actual - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestFCoefficients:
    # The gain columns of the derived closed-loop model: the plant rows'
    # response to the modulation voltage through the PR state x1.
    def test_feedforward_equal_proportional(self):
        p = sec3_like()
        op = solve(p, 0.5, 3)
        ctrl = ControllerParams(K_p=0.7, K_r=100.0, k_f=0.7)
        model = assemble_smallsignal(op, p, ctrl, 3)
        for i, ph in enumerate(("a", "b", "c")):
            rotated = model.for_phase(ph)
            assert np.max(np.abs(coefficients(rotated, "i_c", "i_g"))) == 0.0
            expected = (1.0 / (2 * p.C_arm)) * op.n_u[i]
            assert_coefficients_equal(coefficients(rotated, "v_cu", "i_g"), expected)

    def test_zero_modulation_point(self):
        p = sec3_like()
        op = solve(p, 0.0, 3)
        model = assemble_smallsignal(op, p, ctrl_default(), 3)
        for ph in ("a", "b", "c"):
            rotated = model.for_phase(ph)
            assert np.max(np.abs(coefficients(rotated, "i_c", "pr_1"))) <= 1e-12 / p.L
            i2 = coefficients(rotated, "i_g", "pr_1")
            assert i2[3] == pytest.approx(2.0 / p.L, rel=1e-9)
            assert np.max(np.abs(np.delete(i2, 3))) <= 1e-9 / p.L

    def test_pr_state_column_recovers_voltage_imbalance_spectrum(self, sec3_op):
        # A dc unit on the controller state drives the circulating current
        # with the capacitor voltage imbalance spectrum.
        p = sec3_like()
        model = assemble_smallsignal(sec3_op, p, ctrl_default(), 3)
        gamma = block(model, "i_c", "pr_1")
        unit = np.zeros(7, dtype=complex)
        unit[3] = 1.0
        response = gamma @ unit
        imbalance = sec3_op.spectrum("v_cu", "a") - sec3_op.spectrum("v_cl", "a")
        expected = imbalance / (2 * p.L * p.V_dc)
        assert_coefficients_equal(response, expected)

    def test_gains_zero_lower_capacitor_column_matches_open_loop(self):
        p = sec3_like()
        op = solve(p, 0.5, 3)
        ctrl = ControllerParams(K_p=0.0, K_r=0.0, k_f=0.0)
        model = assemble_smallsignal(op, p, ctrl, 3)
        expected = (-1.0 / (2 * p.C_arm)) * op.n_l[0]
        assert_coefficients_equal(coefficients(model, "v_cl", "i_g"), expected)


class TestAssembly:
    def test_states_are_variable_major(self):
        # Entry 3 v + p of every state vector is leg variable v of phase p.
        assert len(SMALLSIG_STATE_LABELS) == 3 * len(SMALLSIG_VARIABLES)
        for v, variable in enumerate(SMALLSIG_VARIABLES):
            for p, phase in enumerate(PHASES):
                if variable in STATE_VARIABLES:
                    label = variable + phase
                    assert state_position(variable, phase) == 3 * v + p
                else:
                    label = f"pr_{phase}{variable[-1]}"
                assert SMALLSIG_STATE_LABELS[3 * v + p] == label

    def test_dimensions_and_phase(self, sec3_op, sec3_params, sec3_cfg):
        model = assemble_smallsignal(sec3_op, sec3_params, sec3_cfg.ctrl, 3)
        assert model.A.shape == (6 * 7, 6 * 7)
        assert model.B.shape == (6 * 7, 2 * 7)
        assert model.phase == "a"
        assert model.for_phase("c").phase == "c"

    def test_for_phase_rotates_from_the_model_own_phase(self, sec3_op, sec3_params, sec3_cfg):
        # Rotating phase b's model lands on the phase's own model, not on
        # phase a's rotated twice. Tolerance: 1e-12 of max|A|.
        model = assemble_smallsignal(sec3_op, sec3_params, sec3_cfg.ctrl, sec3_cfg.h)
        tol = 1e-12 * np.max(np.abs(model.A))
        b = model.for_phase("b")
        assert np.max(np.abs(b.for_phase("c").A - model.for_phase("c").A)) <= tol
        assert np.max(np.abs(b.for_phase("a").A - model.A)) <= tol
        assert np.max(np.abs(b.for_phase("b").A - b.A)) <= tol

    def test_for_phase_without_a_phase_is_an_unknown_variable_error(self, sec3_op, sec3_params, sec3_cfg):
        model = assemble_smallsignal(sec3_op, sec3_params, sec3_cfg.ctrl, 3)
        with pytest.raises(UnknownVariableError):
            dataclasses.replace(model, phase=None).for_phase("b")
        with pytest.raises(UnknownVariableError):
            model.for_phase("d")

    def test_pr_integrator_chain_blocks(self, sec3_op, sec3_params, sec3_cfg):
        model = assemble_smallsignal(sec3_op, sec3_params, sec3_cfg.ctrl, 3)
        Q = np.diag(frequency_matrix(3, W1))
        assert np.array_equal(block(model, "pr_2", "pr_1"), np.eye(7))
        assert np.array_equal(block(model, "pr_2", "pr_2"), -Q)
        assert np.array_equal(block(model, "pr_1", "pr_2"), -(W1**2) * np.eye(7))

    def test_reference_input_couplings(self, sec3_op, sec3_params, sec3_cfg):
        model = assemble_smallsignal(sec3_op, sec3_params, sec3_cfg.ctrl, 3)
        i3 = coefficients(model, "i_g", V_REF)
        assert np.allclose(block(model, "i_g", V_REF), toeplitz(i3))
        # The plant rows see v* only through K_p v* + x1.
        pr = sec3_cfg.ctrl.K_p * coefficients(model, "i_g", "pr_1")
        assert np.allclose(i3, pr, rtol=1e-12, atol=1e-12 * np.max(np.abs(pr)))
        assert np.array_equal(block(model, "pr_1", V_REF), sec3_cfg.ctrl.K_r * np.eye(7))
        assert np.count_nonzero(block(model, "pr_2", V_REF)) == 0

    def test_zero_gains_about_equilibrium_reduce_to_open_loop(self):
        p = sec3_like()
        op = solve(p, 0.0, 2)
        ctrl = ControllerParams(K_p=0.0, K_r=0.0, k_f=0.0)
        model = assemble_smallsignal(op, p, ctrl, 2)
        steady = assemble_steady(p, open_loop_insertion_indices(0.0, 2), 2)
        n4 = 4 * 5
        assert np.allclose(model.A[:n4, :n4], steady.A, atol=1e-12)


class TestEigenvalues:
    def test_sorted_descending_real(self, smallsig_ctx):
        eig = smallsig_ctx.eig
        assert np.all(np.diff(eig.real) <= 1e-12)

    def test_stable_configuration(self, smallsig_ctx):
        assert eig_max_real(smallsig_ctx.eig) < 0.0

    def test_added_resistance_shifts_spectrum_left(self, sec3_cfg):
        import dataclasses

        from hssmmc.pipelines import build_smallsignal_model

        _, model_base = build_smallsignal_model(sec3_cfg)
        heavy = dataclasses.replace(
            sec3_cfg, params=dataclasses.replace(sec3_cfg.params, R=1e3)
        )
        _, model_heavy = build_smallsignal_model(heavy)
        e0 = eigenvalues(model_base)
        e1 = eigenvalues(model_heavy)
        assert np.mean(e1.real) < np.mean(e0.real)
        assert e1[0].real < 0.0

    def test_conjugation_closure(self, smallsig_ctx):
        eig = smallsig_ctx.eig
        scale = np.max(np.abs(eig))
        d = np.abs(eig[:, None] - np.conj(eig)[None, :])
        assert np.max(np.min(d, axis=1)) <= 1e-9 * scale

    def test_interior_eigenvalues_stable_under_truncation(self, sec3_cfg):
        import dataclasses

        from hssmmc.pipelines import build_smallsignal_model, solve_operating_point

        cfg2 = dataclasses.replace(sec3_cfg, h=2)
        op2 = solve_operating_point(cfg2)
        model2 = assemble_smallsignal(op2, sec3_cfg.params, sec3_cfg.ctrl, 2)
        op3 = solve_operating_point(sec3_cfg)
        model3 = assemble_smallsignal(op3, sec3_cfg.params, sec3_cfg.ctrl, 3)
        e2 = eigenvalues(model2)
        e3 = eigenvalues(model3)
        strip = e2[np.abs(e2.imag) <= 0.5 * W1]
        assert strip.size > 0
        nearest = np.min(np.abs(strip[:, None] - e3[None, :]), axis=1)
        rel = nearest / np.maximum(np.abs(strip), 1.0)
        assert np.max(rel) <= 5e-3


def eig_max_real(eig):
    return float(np.max(eig.real))


class TestEnvelope:
    def test_zero_input_stays_zero(self, smallsig_ctx):
        model = smallsig_ctx.model
        env = envelope_response(model, zero_input(model), t_end=0.01, dt=1e-5)
        assert np.max(np.abs(env.states)) == 0.0

    def test_coarse_step_is_exact(self, smallsig_ctx):
        # dt * max|eig| is about 1.5 here; zero-order-hold propagation is
        # exact on any grid, so a 10x finer grid lands on the same points.
        model = smallsig_ctx.model
        u = lifted_reference_step(model, 10e3 * np.exp(1j * np.angle(smallsig_ctx.refs["a"])))
        coarse = envelope_response(model, u, t_end=0.1, dt=1e-3)
        fine = envelope_response(model, u, t_end=0.1, dt=1e-4)
        fine_t, fine_states = fine.t[::10], fine.states[::10]
        assert np.allclose(coarse.t, fine_t, rtol=0.0, atol=1e-12)
        err = np.max(np.abs(coarse.states - fine_states)) / np.max(np.abs(fine_states))
        assert err <= 1e-9

    def test_matches_rk4_reference(self, smallsig_ctx, sec3_cfg):
        # At the preset's step the two methods differ by RK4's truncation error.
        model = smallsig_ctx.model
        u = lifted_reference_step(model, 10e3 * np.exp(1j * np.angle(smallsig_ctx.refs["a"])))
        dt = smallsig_ctx.dt
        assert 0.01 <= dt * np.max(np.abs(smallsig_ctx.eig)) <= 0.02
        t_end = 10 * sec3_cfg.params.period
        env = envelope_response(model, u, t_end=t_end, dt=dt)
        ref = rk4_envelope(model.A, model.B @ u, 10 * sec3_cfg.sim.steps_per_period, dt)
        err = np.max(np.abs(env.states - ref)) / np.max(np.abs(ref))
        assert err <= 1e-8

    def test_settled_state_matches_algebraic_solve(self, smallsig_ctx):
        model = smallsig_ctx.model
        delta = 10e3 * np.exp(1j * np.angle(smallsig_ctx.refs["a"]))
        u = lifted_reference_step(model, delta)
        x_alg = settled_state(model, u)
        lam = np.max(np.abs(smallsig_ctx.eig))
        dt = 0.09 / lam
        x_end = envelope_final_state(model, u, t_end=2.8, dt=dt)
        err = np.linalg.norm(x_end - x_alg) / np.linalg.norm(x_alg)
        assert err <= 1e-3

    def test_final_state_is_the_last_envelope_point(self, smallsig_ctx):
        # envelope_final_state composes the steps by binary powers; over an
        # odd step count it meets the stored run's last point to rounding.
        model = smallsig_ctx.model
        u = lifted_reference_step(model, 10e3 * np.exp(1j * np.angle(smallsig_ctx.refs["a"])))
        dt = 0.09 / np.max(np.abs(smallsig_ctx.eig))
        last = envelope_response(model, u, t_end=1001 * dt, dt=dt).states[-1]
        x_end = envelope_final_state(model, u, t_end=1001 * dt, dt=dt)
        assert np.max(np.abs(x_end - last)) <= 1e-12 * np.max(np.abs(last))

    def test_lifted_step_slots(self, smallsig_ctx):
        model = smallsig_ctx.model
        u = lifted_reference_step(model, 10e3)
        n = 2 * model.h + 1
        assert u[V_REF * n + model.h + 1] == 5e3
        assert u[V_REF * n + model.h - 1] == 5e3
        assert np.count_nonzero(u) == 2

    def test_lifted_step_needs_a_reference_input(self):
        steady = assemble_steady(sec3_like(), open_loop_insertion_indices(0.5, 3), 3)
        with pytest.raises(DimensionMismatchError, match="no voltage-reference input"):
            lifted_reference_step(steady, 10e3)

    def test_reconstruct_zero(self, smallsig_ctx):
        model = smallsig_ctx.model
        env = envelope_response(model, zero_input(model), t_end=0.005, dt=1e-5)
        series = reconstruct_perturbation(env, "i_c")
        assert np.max(np.abs(series)) == 0.0

    def test_reconstruct_dc_only_envelope(self):
        t = np.linspace(0.0, 0.01, 11)
        n = 7
        states = np.zeros((11, 6 * n), dtype=complex)
        ramp = np.linspace(0.0, 2.0, 11)
        states[:, 0 * n + 3] = ramp  # dc slot of the first block
        env = EnvelopeResponse(t=t, states=states, h=3, omega1=W1, phase="a")
        series = reconstruct_perturbation(env, "i_c")
        assert np.allclose(series, ramp)

    def test_reconstruct_rejects_complex_envelope(self):
        t = np.linspace(0.0, 0.01, 5)
        n = 7
        states = np.zeros((5, 6 * n), dtype=complex)
        states[:, 0 * n + 4] = 1.0  # k=+1 slot only: not a real signal
        env = EnvelopeResponse(t=t, states=states, h=3, omega1=W1, phase="a")
        with pytest.raises(ResidualImaginaryError):
            reconstruct_perturbation(env, "i_c")

    def test_reconstruct_unknown_variable(self, smallsig_ctx):
        model = smallsig_ctx.model
        env = envelope_response(model, zero_input(model), t_end=0.002, dt=1e-5)
        with pytest.raises(UnknownVariableError):
            reconstruct_perturbation(env, "i_q")


def zero_input(model):
    return np.zeros(model.B.shape[1], dtype=complex)


def rk4_envelope(A, bu, n_steps, dt):
    """Explicit RK4 of d(dX)/dt = A dX + B dU from rest under a constant
    B dU, every grid point: the reference for the exact propagation."""
    x = np.zeros(A.shape[0], dtype=complex)
    out = [x]
    half = 0.5 * dt
    for _ in range(n_steps):
        k1 = A @ x + bu
        k2 = A @ (x + half * k1) + bu
        k3 = A @ (x + half * k2) + bu
        k4 = A @ (x + dt * k3) + bu
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.array(out)


@pytest.fixture(scope="module")
def small_model():
    p = sec3_like()
    return assemble_smallsignal(solve(p, 0.5, 1), p, ctrl_default(), 1)


@settings(max_examples=25, deadline=None)
@given(
    dt=st.floats(1e-5, 2e-3),
    n_steps=st.integers(4, 400),
    magnitude=st.floats(1e2, 1e5),
    angle=st.floats(-np.pi, np.pi),
    scale=st.floats(-3.0, 3.0),
)
def test_envelope_properties(small_model, dt, n_steps, magnitude, angle, scale):
    model = small_model.for_phase("b")
    t_end = n_steps * dt

    def response(phasor, step=dt):
        u = lifted_reference_step(model, phasor)
        return envelope_response(model, u, t_end=t_end, dt=step)

    phasor = magnitude * np.exp(1j * angle)
    env = response(phasor)
    peak = np.max(np.abs(env.states))
    assert peak > 0.0

    # Exact on any grid: a grid twice as fine lands on the same points.
    halved = response(phasor, dt / 2).states[::2]
    assert np.max(np.abs(halved - env.states)) <= 1e-9 * peak

    # Real-linear in the phasor (the step also fills the k = -1 slot).
    other = 0.5 * magnitude * np.exp(1j * (angle + 1.0))
    expected = scale * env.states + response(other).states
    combined = response(scale * phasor + other).states
    assert np.max(np.abs(combined - expected)) <= 1e-9 * np.max(np.abs(expected), initial=peak)

    # The envelopes describe a real signal.
    for var in SMALLSIG_VARIABLES:
        reconstruct_perturbation(env, var)


def expm_error(a):
    """1-norm of ``_expm(a)`` minus scipy's ``expm(a)``, relative to the
    1-norm of scipy's."""
    expected = scipy.linalg.expm(a)
    return np.linalg.norm(_expm(a) - expected, 1) / np.linalg.norm(expected, 1)


@pytest.mark.parametrize("steps_per_period", [400, 2000])
@pytest.mark.parametrize("h", [3, 7])
@pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
def test_expm_of_the_envelope_matrix_matches_scipy(preset, h, steps_per_period):
    # The augmented matrix whose exponential gives the envelope's
    # zero-order-hold transition (envelope_response).
    model = _preset_model(preset, h=h)
    dt = 2.0 * np.pi / model.omega1 / steps_per_period
    dim, n_in = model.B.shape
    augmented = np.zeros((dim + n_in, dim + n_in), dtype=complex)
    augmented[:dim, :dim] = model.A * dt
    augmented[:dim, dim:] = model.B * dt
    assert expm_error(augmented) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    log_norm=st.floats(-3.0, 3.0),
)
def test_expm_matches_scipy(n, seed, log_norm):
    # A dense complex Gaussian matrix, shifted so that its largest
    # eigenvalue real part is 0 (a real part beyond about 709 overflows
    # exp), and scaled to 1-norm 10^log_norm.
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m -= np.max(np.linalg.eigvals(m).real) * np.eye(n)
    assert expm_error(10.0**log_norm * m / np.linalg.norm(m, 1)) <= 1e-12


def assert_jacobian_matches_central_differences(op, params, ctrl):
    """``conftest.linearized_A`` against central differences of the
    simulator's closed-loop right-hand side at five instants on the
    operating orbit, row by row within 1e-5 relative."""
    refs = references_from_operating_point(op, params)
    rhs = closed_loop_rhs(params, ctrl, np.array([refs[p] for p in ("a", "b", "c")]))
    rng = np.random.default_rng(33)
    for t in rng.uniform(0.0, params.period, size=5):
        x_op = operating_state_at(op, params, ctrl, refs, t)
        A_an = linearized_A(op, params, ctrl, t)
        J = np.zeros((18, 18))
        for j in range(18):
            e = np.zeros(18)
            step = max(abs(x_op[j]), 1.0) * 1e-5
            e[j] = step
            J[:, j] = (rhs(t, x_op + e) - rhs(t, x_op - e)) / (2 * step)
        for i in range(18):
            denom = np.linalg.norm(A_an[i]) or 1.0
            assert np.linalg.norm(J[i] - A_an[i]) / denom <= 1e-5


class TestLinearizationPoint:
    def test_references_match_terminal_voltage_fundamental(self, sec3_op, sec3_params):
        refs = references_from_operating_point(sec3_op, sec3_params)
        for ph in ("a", "b", "c"):
            v_g = load_voltage_spectrum(sec3_op, sec3_params, ph)
            assert refs[ph] == pytest.approx(2.0 * v_g[sec3_op.h + 1])

    def test_time_domain_jacobian_matches_finite_differences(
        self, sec3_op, sec3_params, sec3_cfg
    ):
        assert_jacobian_matches_central_differences(sec3_op, sec3_params, sec3_cfg.ctrl)

    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_inductive_load_jacobian_matches_finite_differences(self, preset):
        # With an inductive load the coefficient model solves out the
        # L_load di_g/dt term at each instant, as the simulator does.
        import dataclasses

        from hssmmc.config import load_config
        from hssmmc.pipelines import solve_operating_point

        cfg = load_config(preset)
        params = dataclasses.replace(
            cfg.params, L_load=0.3 * cfg.params.R_load / cfg.params.omega1
        )
        op = solve_operating_point(dataclasses.replace(cfg, params=params))
        assert_jacobian_matches_central_differences(op, params, cfg.ctrl)

    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    def test_controller_reproduces_the_operating_point_indices(self, preset):
        # At X/R = 0 the PR states of operating_controller_states invert the
        # controller exactly: on the orbit, with the operating point's own
        # references, the closed loop's plant rows are the plant equations at
        # the point's insertion indices, to rounding. Each derivative is
        # compared with the peak of that variable's over the orbit.
        import dataclasses

        from hssmmc.config import load_config
        from hssmmc.harmonic import instants, sample
        from hssmmc.plant import PHASES, plant_phase_equations
        from hssmmc.smallsignal import _closed_loop_equations

        cfg = load_config(preset)
        params = dataclasses.replace(cfg.params, L_load=0.0)
        op = solve_operating_point(dataclasses.replace(cfg, params=params))
        refs = references_from_operating_point(op, params)
        amps = np.array([refs[p] for p in PHASES])
        n = instants(op.h)
        ts = np.arange(n) * params.period / n
        x = np.array([operating_state_at(op, params, cfg.ctrl, refs, t) for t in ts]).T
        v_star = (amps[:, None] * np.exp(1j * params.omega1 * ts)).real
        closed = _closed_loop_equations(params, cfg.ctrl)(
            v_star, x[0:3], x[3:6], x[6:9], x[9:12], x[12:15], x[15:18]
        )[:4]
        plant = plant_phase_equations(params)(
            x[0:3], x[3:6], x[6:9], x[9:12], sample(op.n_u, n), sample(op.n_l, n), params.V_dc
        )
        for c, d in zip(closed, plant):
            assert np.max(np.abs(c - d)) <= 1e-12 * np.max(np.abs(d))

    @pytest.mark.parametrize("h", [3, 15])
    def test_lift_of_sampled_jacobian_matches_assembly(self, sec3_cfg, h):
        # Fourier coefficients of the instantaneous Jacobian, lifted block by
        # block with toeplitz() and the frequency matrix, rebuild the
        # assembled closed-loop A of phase a.
        import dataclasses

        from hssmmc.pipelines import solve_operating_point

        cfg = dataclasses.replace(sec3_cfg, h=h)
        params, ctrl = cfg.params, cfg.ctrl
        op = solve_operating_point(cfg)
        ref = assemble_smallsignal(op, params, ctrl, h).A

        n_samples = 4 * (2 * h + 1)
        ts = np.arange(n_samples) * params.period / n_samples
        samples = np.array([linearized_A(op, params, ctrl, t) for t in ts])
        n = 2 * h + 1
        Q = np.diag(frequency_matrix(h, W1))
        lifted = np.zeros_like(ref)
        for i, r in enumerate(phase_columns(18)[0]):
            for j, c in enumerate(phase_columns(18)[0]):
                lifted_rc = toeplitz(fourier(samples[:, r, c], h))
                if r == c:
                    lifted_rc = lifted_rc - Q
                lifted[i * n : (i + 1) * n, j * n : (j + 1) * n] = lifted_rc
        assert np.max(np.abs(lifted - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFirstOrderConvergence:
    def test_halving_amplitude_at_least_halves_error(self, smallsig_comparisons):
        ten, five = smallsig_comparisons[10e3], smallsig_comparisons[5e3]
        for var in ("i_c", "i_g"):
            ratio = peak_error(ten, var) / peak_error(five, var)
            assert ratio >= 1.8


def conjugate_defect(model):
    """Relative defect of J A J = conj(A), J the per-block harmonic flip."""
    A = model.A
    n = 2 * model.h + 1
    flip = (np.arange(A.shape[0] // n)[:, None] * n + np.arange(n)[::-1]).ravel()
    return np.max(np.abs(A[np.ix_(flip, flip)] - np.conj(A))) / np.max(np.abs(A))


def rotation_defect(model):
    """Relative defect of the 120-degree rotation of a three-phase lifted A:
    P A P^T = D A D*, P the relabelling a -> b -> c of the state blocks and
    D = I kron diag(exp(+j k 2 pi / 3)). Block 3 v + p is leg variable v of
    phase p, so P moves block 3 v + (p - 1) mod 3 onto it."""
    A = model.A
    n = 2 * model.h + 1
    blocks = np.arange(A.shape[0] // n)
    previous = blocks - blocks % 3 + (blocks - 1) % 3
    rotation = (previous[:, None] * n + np.arange(n)).ravel()
    d = np.tile(np.exp(2j * np.pi / 3 * np.arange(-model.h, model.h + 1)), blocks.size)
    return np.max(np.abs(A[np.ix_(rotation, rotation)] - d[:, None] * A * np.conj(d))) / np.max(np.abs(A))


@settings(max_examples=30, deadline=None)
@given(
    preset=st.sampled_from(("sec3-simulation", "table1-prototype")),
    m=st.floats(0.0, 1.0),
    h=st.integers(1, 10),
    x_over_r=st.floats(0.0, 0.5),
)
def test_lift_symmetries(preset, m, h, x_over_r):
    # Conjugate symmetry on phase a's models; the rotation on the
    # three-phase reference, each phase lifted from its own samples.
    cfg = _preset_cfg(preset, m, h, x_over_r)
    idx = open_loop_insertion_indices(m, h)
    assert conjugate_defect(assemble_steady(cfg.params, idx, h)) <= 1e-13
    assert rotation_defect(dense_steady(cfg.params, idx, h)) <= 1e-13

    op = solve_operating_point(cfg)
    assert conjugate_defect(assemble_smallsignal(op, cfg.params, cfg.ctrl, h)) <= 1e-13
    assert rotation_defect(dense_smallsignal(op, cfg.params, cfg.ctrl, h)) <= 1e-13


def _preset_cfg(preset, m=None, h=None, x_over_r=0.0):
    import dataclasses

    from hssmmc.config import load_config

    cfg = load_config(preset)
    params = dataclasses.replace(
        cfg.params, L_load=x_over_r * cfg.params.R_load / cfg.params.omega1
    )
    return dataclasses.replace(
        cfg, m=cfg.m if m is None else m, h=cfg.h if h is None else h, params=params
    )


def _preset_model(preset, m=None, h=None, x_over_r=0.0):
    from hssmmc.pipelines import build_smallsignal_model

    return build_smallsignal_model(_preset_cfg(preset, m, h, x_over_r))[1]


def _model_from_samples(preset, perturb, h=3):
    """``_preset_model`` with its per-phase closed-loop Jacobian samples
    passed through ``perturb`` before the lift."""
    from unittest import mock

    from hssmmc import smallsignal

    samples = smallsignal._closed_loop_samples
    with mock.patch.object(smallsignal, "_closed_loop_samples", lambda *args: perturb(samples(*args))):
        return _preset_model(preset, h=h)


def assert_same_spectrum(preset, m=None, h=None, x_over_r=0.0):
    """``eigenvalues`` (phase a's half-wave blocks), each taken three
    times, once per phase, against the dense eigenvalues of the three-phase
    reference, matched one to one."""
    from scipy.optimize import linear_sum_assignment

    cfg = _preset_cfg(preset, m, h, x_over_r)
    op = solve_operating_point(cfg)
    blocks = np.tile(eigenvalues(assemble_smallsignal(op, cfg.params, cfg.ctrl, cfg.h)), len(PHASES))
    dense = scipy.linalg.eigvals(dense_smallsignal(op, cfg.params, cfg.ctrl, cfg.h).A)
    assert blocks.shape == dense.shape
    rows, cols = linear_sum_assignment(np.abs(blocks[:, None] - dense[None, :]))
    assert np.max(np.abs(blocks[rows] - dense[cols])) <= 1e-12 * np.max(np.abs(dense))


@settings(max_examples=25, deadline=None)
@given(
    preset=st.sampled_from(("sec3-simulation", "table1-prototype")),
    m=st.floats(0.0, 1.0),
    h=st.integers(1, 8),
    x_over_r=st.floats(0.0, 0.5),
)
@example(preset="sec3-simulation", m=0.0, h=0, x_over_r=0.0)
@example(preset="table1-prototype", m=0.0, h=0, x_over_r=0.3)
@example(preset="sec3-simulation", m=0.0, h=5, x_over_r=0.3)
@example(preset="table1-prototype", m=0.0, h=4, x_over_r=0.0)
def test_phase_block_spectrum_matches_dense(preset, m, h, x_over_r):
    assert_same_spectrum(preset, m, h, x_over_r)


@pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
def test_phase_block_spectrum_matches_dense_at_h30(preset):
    assert_same_spectrum(preset, h=30)


@pytest.mark.parametrize("phase", ["a", "b", "c"])
def test_envelope_of_each_phase_matches_the_three_phase_reference(smallsig_ctx, phase):
    # A step on one phase, propagated on that phase's rotation of phase a's
    # model and on the three-phase reference, over 5 periods at 400 steps
    # per period; the reference's other phases stay at rest.
    env, ref = _envelopes_on_leg_and_reference(smallsig_ctx, phase)
    peak = np.max(np.abs(ref.states))
    for variable in SMALLSIG_VARIABLES:
        for other in PHASES:
            expected = dense_block(ref.states, variable, other, ref.h)
            actual = env.block(variable) if other == phase else 0.0
            assert np.max(np.abs(actual - expected)) <= 1e-10 * peak


def _envelopes_on_leg_and_reference(ctx, phase):
    """The envelopes of a 10 kV step on ``phase``'s reference over 5 periods
    at 400 steps per period, on that phase's model and on the three-phase
    reference, whose input block 1 + p is phase p's reference."""
    cfg = ctx.cfg
    model = ctx.model.for_phase(phase)
    dense = dense_smallsignal(ctx.op, cfg.params, cfg.ctrl, cfg.h)
    delta = 10e3 * np.exp(1j * np.angle(ctx.refs[phase]))
    u = lifted_reference_step(model, delta)
    n = 2 * cfg.h + 1
    u_dense = np.zeros(dense.B.shape[1], dtype=complex)
    p = PHASES.index(phase)
    u_dense[(1 + p) * n : (2 + p) * n] = u[V_REF * n : (V_REF + 1) * n]
    dt = cfg.params.period / 400
    return (
        envelope_response(model, u, t_end=2000 * dt, dt=dt),
        envelope_response(dense, u_dense, t_end=2000 * dt, dt=dt),
    )


def test_reconstruction_of_every_leg_variable_matches_the_three_phase_reference(smallsig_ctx):
    # Every leg variable, the PR states too, read by name from phase b's
    # envelopes, against the same variable's block of the reference.
    env, ref = _envelopes_on_leg_and_reference(smallsig_ctx, "b")
    k = np.arange(-ref.h, ref.h + 1)
    rotating = np.exp(1j * np.outer(ref.t, k) * ref.omega1)
    for variable in SMALLSIG_VARIABLES:
        expected = np.sum(dense_block(ref.states, variable, "b", ref.h) * rotating, axis=1).real
        actual = reconstruct_perturbation(env, variable)
        assert np.max(np.abs(actual - expected)) <= 1e-9 * np.max(np.abs(expected))


class TestPhaseBalanceGate:
    def test_perturbed_phase_row_raises(self):
        with pytest.raises(PhaseImbalanceError) as info:
            _model_from_samples("table1-prototype", unbalanced)
        assert 1e-7 < info.value.defect < 1e-5

    def test_balanced_models_pass(self):
        # The steady lift has the same symmetry as the closed-loop one.
        steady = assemble_steady(sec3_like(), open_loop_insertion_indices(0.7, 4), 4)
        eigenvalues(steady)
        eigenvalues(_model_from_samples("sec3-simulation", lambda s: unbalanced(s, rel=1e-14)))

    def test_phase_b_off_its_rotation_of_phase_a_raises(self):
        with pytest.raises(PhaseImbalanceError) as info:
            _model_from_samples("table1-prototype", phase_b_raised)
        assert 1e-7 < info.value.defect < 1e-5

    def test_non_finite_model_raises_the_gate_error(self):
        # A NaN compares false with every bound, so it must fail the gate.
        with pytest.raises(PhaseImbalanceError):
            _model_from_samples("sec3-simulation", with_nan)

    def test_non_finite_entry_in_phase_a_block_raises_the_gate_error(self):
        with pytest.raises(PhaseImbalanceError):
            _model_from_samples("sec3-simulation", lambda s: with_nan(s, phase=0))

    def test_non_finite_entry_in_a_built_model_raises(self):
        import dataclasses

        model = _preset_model("sec3-simulation", h=3)
        A = model.A.copy()
        A[0, 1] = np.nan
        with pytest.raises(HalfWaveAsymmetryError):
            eigenvalues(dataclasses.replace(model, A=A))

    def test_half_wave_coupling_raises(self):
        model = half_wave_broken(_preset_model("sec3-simulation", h=3))
        with pytest.raises(HalfWaveAsymmetryError) as info:
            eigenvalues(model)
        assert not isinstance(info.value, PhaseImbalanceError)
        assert 1e-7 < info.value.defect < 1e-5

    def test_every_state_variable_needs_a_half_wave_image(self):
        # The plant's four images name no controller state.
        model = _preset_model("sec3-simulation", h=3)
        with pytest.raises(DimensionMismatchError, match="4 half-wave images for 6 state blocks"):
            model.phase_blocks(LEG_HALF_WAVE[:4])


# Largest difference of a lifted A sampled at instants(h) from the same A
# sampled at four times as many instants, relative to max|A|: the aliasing
# of the sampled derivation, which is not band-limited on inductive loads.
ALIASING_RTOL = 1e-13


@settings(max_examples=25, deadline=None)
@given(
    preset=st.sampled_from(("sec3-simulation", "table1-prototype")),
    m=st.floats(0.0, 1.0),
    x_over_r=st.floats(0.0, 0.5),
    h=st.integers(0, 15),
)
@example(preset="table1-prototype", m=1.0, x_over_r=0.5, h=15)
def test_lifted_models_do_not_alias(preset, m, x_over_r, h):
    import dataclasses
    from unittest import mock

    from hssmmc import harmonic, smallsignal, steady
    from hssmmc.config import load_config
    from hssmmc.pipelines import solve_operating_point

    cfg = load_config(preset)
    params = dataclasses.replace(cfg.params, L_load=x_over_r * cfg.params.R_load / cfg.params.omega1)
    cfg = dataclasses.replace(cfg, params=params, m=m if h else 0.0, h=h)
    op = solve_operating_point(cfg)

    def assemble():
        return (
            assemble_steady(params, (op.n_u, op.n_l), h).A,
            assemble_smallsignal(op, params, cfg.ctrl, h).A,
        )

    models = assemble()
    denser = lambda order: 4 * harmonic.instants(order)  # noqa: E731
    with mock.patch.object(steady, "instants", denser), mock.patch.object(smallsignal, "instants", denser):
        dense = assemble()
    for A, reference in zip(models, dense):
        assert np.max(np.abs(A - reference)) <= ALIASING_RTOL * np.max(np.abs(reference))


def centred_abscissa(model):
    """Largest real part among the eigenvalues of the lifted A whose
    eigenvector has its harmonic centre of mass within half a harmonic of
    k = 0: one copy of each Floquet exponent."""
    eig, vectors = np.linalg.eig(model.A)
    weight = np.abs(vectors.reshape(-1, 2 * model.h + 1, vectors.shape[1])) ** 2
    k = np.arange(-model.h, model.h + 1)[None, :, None]
    centre = np.sum(k * weight, axis=(0, 1)) / np.sum(weight, axis=(0, 1))
    return float(np.max(eig.real[np.abs(centre) < 0.5]))


@pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
def test_inductive_load_is_stable_and_matches_the_floquet_exponent(preset):
    # At X/R = 0.3 the derived lift keeps the load inductance solved out, as
    # the simulator's equations do; its centred abscissa is the decay rate
    # ln(mu)/T of the shooting orbit's largest Floquet multiplier.
    import dataclasses

    from hssmmc.config import load_config
    from hssmmc.pipelines import solve_operating_point
    from hssmmc.simulate import settled_closed_loop

    cfg = load_config(preset)
    params = dataclasses.replace(cfg.params, L_load=0.3 * cfg.params.R_load / cfg.params.omega1)
    cfg = dataclasses.replace(cfg, params=params, h=7)
    op = solve_operating_point(cfg)
    model = assemble_smallsignal(op, params, cfg.ctrl, 7)
    assert eigenvalues(model)[0].real < 0.0

    # The model is phase a's leg, so its orbit is leg a's.
    refs = references_from_operating_point(op, params)
    guess = operating_state_at(op, params, cfg.ctrl, refs, 0.0)
    orbit = settled_closed_loop(params, cfg.ctrl, "a", refs["a"], 400, 0, guess.reshape(6, 3)[:, 0])
    rate = np.log(orbit.multiplier) / params.period
    assert abs(centred_abscissa(model) - rate) <= 0.01
