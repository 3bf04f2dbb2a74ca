"""Lifted steady-state model assembly and operating-point solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hssmmc import (
    HarmonicVector,
    MmcParameters,
    ResidualImaginaryError,
    SingularSystemError,
    UnknownVariableError,
    assemble_steady,
    dc_input_vector,
    frequency_matrix,
    open_loop_insertion_indices,
    solve_steady_state,
    synthesize,
    toeplitz,
)
from hssmmc.errors import PhaseImbalanceError
from hssmmc.plant import HALF_WAVE_IMAGE, PHASE_STATES, PHASES, STATE_LABELS

from conftest import block, dense_steady_coeffs, plant_derivatives, state_space_at

W1 = 314.0


def sec3_like():
    return MmcParameters(
        R=1.0, L=0.36, C_sm=140e-6, N=20, V_dc=320e3, omega1=W1, R_load=551.12
    )


def solve(params, m, h):
    idx = open_loop_insertion_indices(m, h)
    model = assemble_steady(params, idx, h)
    return model, solve_steady_state(model, dc_input_vector(params.V_dc, h), idx)


class TestAssembly:
    def test_dimensions(self):
        p = sec3_like()
        model = assemble_steady(p, open_loop_insertion_indices(0.5, 3), 3)
        assert model.A.shape == (4 * 7, 4 * 7)
        assert model.B.shape == (4 * 7, 7)
        assert model.state_labels == ("i_ca", "v_cua", "v_cla", "i_ga")

    def test_dc_only_reduces_to_instantaneous_matrix(self):
        p = sec3_like()
        model = assemble_steady(p, open_loop_insertion_indices(0.0, 0), 0)
        half = np.full(3, 0.5)
        expected, _ = state_space_at(p, half, half)
        assert np.array_equal(model.A, expected[np.ix_(PHASE_STATES[0], PHASE_STATES[0])])
        assert np.max(np.abs(model.A.imag)) == 0.0

    def test_capacitor_diagonals_are_pure_frequency_blocks(self):
        p = sec3_like()
        model = assemble_steady(p, open_loop_insertion_indices(0.6, 3), 3)
        Q = np.diag(frequency_matrix(3, W1))
        for lbl in ("v_cua", "v_cla"):
            assert np.array_equal(block(model, lbl, lbl), -Q)

    def test_circulating_capacitor_coupling(self):
        p = sec3_like()
        n_u, n_l = open_loop_insertion_indices(0.8, 3)
        model = assemble_steady(p, (n_u, n_l), 3)
        expected = -toeplitz(n_u[0]) / (2 * p.L)
        assert np.allclose(block(model, "i_ca", "v_cua"), expected, atol=1e-15)

    def test_input_blocks(self):
        p = sec3_like()
        model = assemble_steady(p, open_loop_insertion_indices(0.8, 3), 3)
        eye = np.eye(7)
        for ph in PHASES:
            rotated = model.for_phase(ph)
            assert np.allclose(block(rotated, f"i_c{ph}", "v_dc"), eye / (2 * p.L))
            for var in ("v_cu", "v_cl", "i_g"):
                assert np.count_nonzero(block(rotated, f"{var}{ph}", "v_dc")) == 0

    def test_per_harmonic_load_impedance(self):
        p = MmcParameters(
            R=1.0, L=0.1, C_sm=1e-3, N=10, V_dc=1e3, omega1=W1, R_load=5.0, L_load=0.02
        )
        model = assemble_steady(p, open_loop_insertion_indices(0.5, 2), 2)
        blk = block(model, "i_ga", "i_ga")
        k = np.arange(-2, 3)
        # The equations solve L_load out: (L + 2 L_load) di_g/dt carries the
        # load impedance at harmonic k.
        expected = -(p.R + 2 * p.load_impedance(k)) - 1j * k * W1 * p.L
        assert np.allclose((p.L + 2 * p.L_load) * np.diag(blk), expected, atol=1e-12)


class TestDcInput:
    def test_values(self):
        u = dc_input_vector(320e3, 3)
        assert u[3] == 320e3
        assert np.count_nonzero(u) == 1

    def test_zero(self):
        assert np.count_nonzero(dc_input_vector(0.0, 3)) == 0

    def test_scalar_order(self):
        assert dc_input_vector(5.0, 0).shape == (1,)


class TestSolve:
    def test_zero_modulation_equilibrium(self):
        p = sec3_like()
        _, op = solve(p, 0.0, 3)
        for ph in PHASES:
            assert np.max(np.abs(op.spectrum("i_c", ph).coeffs)) <= 1e-12 * p.V_dc
            assert np.max(np.abs(op.spectrum("i_g", ph).coeffs)) <= 1e-12 * p.V_dc
            assert op.spectrum("v_cu", ph)[0] == pytest.approx(p.V_dc, rel=1e-12)
            ac = np.delete(op.spectrum("v_cu", ph).coeffs, 3)
            assert np.max(np.abs(ac)) <= 1e-9

    def test_residual_and_symmetry(self, sec3_op):
        assert sec3_op.residual <= 1e-9 * 320e3
        for var in ("i_c", "v_cu", "v_cl", "i_g"):
            for ph in PHASES:
                assert sec3_op.spectrum(var, ph).conjugate_symmetry_defect() <= 1e-9

    def test_dominant_structure(self, sec3_op):
        ic = sec3_op.spectrum("i_c", "a")
        assert abs(ic[0]) > 10 and abs(ic[2]) > 1
        assert abs(ic[1]) < 1e-9 * abs(ic[0])
        vc = sec3_op.spectrum("v_cu", "b")
        for k in (0, 1, 2, 3):
            assert abs(vc[k]) > 0
        ig = sec3_op.spectrum("i_g", "a")
        assert abs(ig[1]) > 10

    def test_phase_rotation(self, sec3_op):
        k = np.arange(-3, 4)
        shift = np.exp(-1j * k * 2 * np.pi / 3)
        for var in ("i_c", "v_cu", "v_cl", "i_g"):
            a = sec3_op.spectrum(var, "a").coeffs
            b = sec3_op.spectrum(var, "b").coeffs
            scale = np.max(np.abs(a)) or 1.0
            assert np.max(np.abs(b - a * shift)) <= 1e-6 * scale

    @pytest.mark.parametrize("x_over_r", [0.0, 0.3])
    def test_orbit_is_half_wave_symmetric(self, x_over_r):
        # Each state equals sign * (-1)^k times its image under the map
        # the eigen screening splits the lifted A by.
        import dataclasses

        p = sec3_like()
        p = dataclasses.replace(p, L_load=x_over_r * p.R_load / p.omega1)
        _, op = solve(p, 0.8, 6)
        parity = (-1.0) ** np.arange(-6, 7)
        for var, (image, sign) in HALF_WAVE_IMAGE.items():
            for ph in PHASES:
                x = op.spectrum(var, ph).coeffs
                shifted = sign * parity * op.spectrum(image, ph).coeffs
                assert np.max(np.abs(x - shifted)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
    @pytest.mark.parametrize("m", [1e-5, 1e-6, 1e-8])
    def test_small_modulation_passes_the_symmetry_gate(self, preset, m):
        # The circulating currents scale with m^2 and sink to the rounding
        # floor of the solve, which scales with the whole solution.
        from hssmmc.config import load_config

        params = load_config(preset).params
        _, op = solve(params, m, 3)
        assert 0.0 < np.max(np.abs(op.spectrum("i_c", "a").coeffs)) < 1e-6

    def test_non_conjugate_solution_raises(self):
        # A lifted A whose k = +1 coupling of n_u is not the conjugate of its
        # k = -1 coupling describes no real system, and the solution is no
        # real signal.
        p = sec3_like()
        idx = open_loop_insertion_indices(0.5, 3)
        model = assemble_steady(p, idx, 3)
        block(model, "i_ga", "v_cua")[4, 3] *= 1.01
        with pytest.raises(ResidualImaginaryError, match="conjugate symmetry"):
            solve_steady_state(model, dc_input_vector(p.V_dc, 3), idx)

    @pytest.mark.parametrize("arm", [0, 1])
    def test_non_conjugate_indices_raise(self, arm):
        # A complex step reads only imaginary parts: complex index values
        # would give a wrong Jacobian, so they are rejected.
        p = sec3_like()
        idx = [c.copy() for c in open_loop_insertion_indices(0.5, 3)]
        idx[arm][:, 4] *= 1.01
        with pytest.raises(ResidualImaginaryError, match="insertion indices"):
            assemble_steady(p, tuple(idx), 3)

    def test_phase_b_index_off_its_rotation_raises(self):
        # The phases must be the T/3 rotations of phase a: unbalanced
        # operation is a typed error, not a rotated phase-a answer.
        p = sec3_like()
        n_u, n_l = open_loop_insertion_indices(0.5, 3)
        n_u = n_u.copy()
        n_u[1] *= 1.0 + 1e-6
        with pytest.raises(PhaseImbalanceError) as info:
            assemble_steady(p, (n_u, n_l), 3)
        assert 1e-7 < info.value.defect < 1e-5

    @settings(max_examples=25, deadline=None)
    @given(
        preset=st.sampled_from(["sec3-simulation", "table1-prototype"]),
        m=st.floats(0.0, 1.0),
        h=st.integers(1, 10),
        x_over_r=st.floats(0.0, 0.5),
    )
    def test_matches_the_three_phase_reference(self, preset, m, h, x_over_r):
        # Phase a's solve and its rotations against one dense solve of the
        # three phases, each lifted from its own samples.
        import dataclasses

        from hssmmc.config import load_config

        params = load_config(preset).params
        params = dataclasses.replace(params, L_load=x_over_r * params.R_load / params.omega1)
        idx = open_loop_insertion_indices(m, h)
        op = solve_steady_state(assemble_steady(params, idx, h), dc_input_vector(params.V_dc, h), idx)
        reference = dense_steady_coeffs(params, idx, h)
        assert np.max(np.abs(op.coeffs - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.filterwarnings("error")
    def test_singular_system_detected(self):
        p = sec3_like()
        idx = open_loop_insertion_indices(0.5, 2)
        model = assemble_steady(p, idx, 2)
        model.A[:] = 0.0
        with pytest.raises(SingularSystemError) as raised:
            solve_steady_state(model, dc_input_vector(p.V_dc, 2), idx)
        assert raised.value.condition == np.inf

    @settings(max_examples=25, deadline=None)
    @given(
        preset=st.sampled_from(["sec3-simulation", "table1-prototype"]),
        m=st.floats(0.0, 1.0),
        h=st.integers(1, 15),
    )
    def test_condition_is_the_exact_one_norm_condition_number(self, preset, m, h):
        # scipy's LAPACK zgecon estimate of the same number is a lower
        # bound of it, up to rounding.
        import scipy.linalg

        from hssmmc.config import load_config
        from hssmmc.steady import solve_lifted

        params = load_config(preset).params
        model = assemble_steady(params, open_loop_insertion_indices(m, h), h)
        A = model.A
        _, condition, _ = solve_lifted(A, -(model.B @ dc_input_vector(params.V_dc, h)))
        assert condition == np.linalg.cond(A, 1)
        lu, _ = scipy.linalg.lu_factor(A)
        rcond, info = scipy.linalg.lapack.zgecon(lu, np.linalg.norm(A, 1))
        assert info == 0
        assert condition >= (1.0 - 1e-12) / rcond

    def test_reconstruction_satisfies_ode(self):
        # The synthesized periodic solution, differentiated spectrally, must
        # match the plant equations along the orbit (truncation-limited).
        p = sec3_like()
        _, op = solve(p, 0.5, 5)
        T = p.period
        ts = np.linspace(0.0, T, 400, endpoint=False)
        labels = [(var, ph) for var in ("i_c", "v_cu", "v_cl", "i_g") for ph in PHASES]
        q = frequency_matrix(5, W1)
        deriv = np.array([
            synthesize(HarmonicVector(5, W1, q * op.spectrum(var, ph).coeffs), ts)
            for var, ph in labels
        ])
        states = np.array([synthesize(op.spectrum(var, ph), ts) for var, ph in labels])
        n_u = np.array([synthesize(HarmonicVector(5, W1, c), ts) for c in op.n_u])
        n_l = np.array([synthesize(HarmonicVector(5, W1, c), ts) for c in op.n_l])
        residual = np.empty_like(deriv)
        for i, t in enumerate(ts):
            rhs = plant_derivatives(p, states[:, i], n_u[:, i], n_l[:, i], p.V_dc)
            residual[:, i] = deriv[:, i] - rhs
        for row, (var, ph) in enumerate(labels):
            rms_residual = np.sqrt(np.mean(residual[row] ** 2))
            rms_deriv = np.sqrt(np.mean(deriv[row] ** 2))
            assert rms_residual < 0.01 * rms_deriv


class TestExtractSpectrum:
    def test_accessor(self, sec3_op):
        hv = sec3_op.spectrum("v_cu", "b")
        assert np.array_equal(hv.coeffs, sec3_op.coeffs[STATE_LABELS.index("v_cub")])

    def test_zero_modulation_values(self):
        p = sec3_like()
        _, op = solve(p, 0.0, 3)
        assert np.max(np.abs(op.spectrum("i_c", "a").coeffs)) < 1e-9
        assert op.spectrum("v_cu", "a")[0] == pytest.approx(p.V_dc)

    def test_unknown_variable(self, sec3_op):
        with pytest.raises(UnknownVariableError):
            sec3_op.spectrum("i_x", "a")
        with pytest.raises(UnknownVariableError):
            sec3_op.spectrum("i_c", "d")
