"""Physical MMC model: parameters, insertion indices, time-domain state space."""

import numpy as np
import pytest

from hssmmc import (
    MmcParameters,
    ModulationOutOfRangeError,
    SimulationConfig,
    UnknownVariableError,
    open_loop_insertion_indices,
    simulate_open_loop,
    synthesize,
    toeplitz,
)
from hssmmc.plant import PHASES, state_position

from conftest import plant_derivatives, state_space_at

W1 = 314.0


def sec3_like():
    return MmcParameters(
        R=1.0, L=0.36, C_sm=140e-6, N=20, V_dc=320e3, omega1=W1, R_load=551.12
    )


class TestParameters:
    def test_arm_capacitance(self):
        p = sec3_like()
        assert p.C_arm == pytest.approx(140e-6 / 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            MmcParameters(R=1, L=0, C_sm=1e-4, N=20, V_dc=1, omega1=W1, R_load=1)
        with pytest.raises(ValueError):
            MmcParameters(R=-1, L=0.1, C_sm=1e-4, N=20, V_dc=1, omega1=W1, R_load=1)
        with pytest.raises(ValueError):
            MmcParameters(R=1, L=0.1, C_sm=1e-4, N=0, V_dc=1, omega1=W1, R_load=1)

    def test_load_impedance_per_harmonic(self):
        p = MmcParameters(
            R=1, L=0.1, C_sm=1e-4, N=10, V_dc=1, omega1=W1, R_load=2.0, L_load=0.01
        )
        assert p.load_impedance(0) == 2.0
        assert p.load_impedance(3) == pytest.approx(2.0 + 3j * W1 * 0.01)


# Expected entries of the order-3 insertion-index Toeplitz operators: the
# upper-arm matrices carry -m/4 (phase a) and m(1 -+ j sqrt3)/8 pairs
# (phases b, c); the lower-arm ones flip the modulation sign.
def expected_gamma(m, phi, sign):
    up = sign * m / 4 * np.exp(-1j * phi)   # harmonic +1 on the subdiagonal... see below
    lo = sign * m / 4 * np.exp(+1j * phi)
    mat = 0.5 * np.eye(7, dtype=complex)
    for i in range(6):
        mat[i, i + 1] = lo      # entry (i, j) with i - j = -1 holds harmonic -1
        mat[i + 1, i] = up
    return mat


class TestInsertionIndices:
    def test_zero_modulation(self):
        n_u, _ = open_loop_insertion_indices(0.0, 3)
        for i in range(3):
            assert n_u[i, 3] == 0.5
            assert np.allclose(np.delete(n_u[i], 3), 0.0)

    def test_out_of_range(self):
        # The indices and the open-loop simulator hold m to one rule.
        sim = SimulationConfig(steps_per_period=4, total_periods=3, settle_periods=2)
        for m in (1.2, -0.1):
            with pytest.raises(ModulationOutOfRangeError, match=f"^modulation index {m} outside"):
                open_loop_insertion_indices(m, 3)
            with pytest.raises(ModulationOutOfRangeError, match=f"^modulation index {m} outside"):
                simulate_open_loop(sec3_like(), m, sim)

    def test_phase_b_upper_coefficient(self):
        n_u, _ = open_loop_insertion_indices(0.8, 3)
        expected = 0.1 * (1 - 1j * np.sqrt(3.0))
        assert n_u[1, 3 - 1] == pytest.approx(expected, abs=1e-15)

    def test_phase_c_lower_coefficient(self):
        _, n_l = open_loop_insertion_indices(0.8, 3)
        expected = -0.1 * (1 + 1j * np.sqrt(3.0))
        assert n_l[2, 3 - 1] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("m", [0.8, 0.35, 1.0])
    def test_toeplitz_fixtures_entry_for_entry(self, m):
        n_u, n_l = open_loop_insertion_indices(m, 3)
        phis = {"a": 0.0, "b": 2 * np.pi / 3, "c": -2 * np.pi / 3}
        for i, p in enumerate(PHASES):
            T_u = toeplitz(n_u[i])
            T_l = toeplitz(n_l[i])
            assert np.allclose(T_u, expected_gamma(m, phis[p], -1.0), atol=1e-15)
            assert np.allclose(T_l, expected_gamma(m, phis[p], +1.0), atol=1e-15)

    def test_complementarity(self):
        n_u, n_l = open_loop_insertion_indices(0.7, 3)
        ts = np.linspace(0.0, 2 * np.pi / W1, 50)
        for i in range(3):
            total = synthesize(n_u[i], W1, ts) + synthesize(n_l[i], W1, ts)
            assert np.allclose(total, 1.0, atol=1e-12)

    def test_bounds(self):
        n_u, _ = open_loop_insertion_indices(1.0, 3)
        ts = np.linspace(0.0, 2 * np.pi / W1, 2000)
        for i in range(3):
            vals = synthesize(n_u[i], W1, ts)
            assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12


class TestPlantRhs:
    def test_dc_equilibrium(self):
        p = sec3_like()
        x = np.zeros(12)
        x[3:9] = p.V_dc
        n = np.full(3, 0.5)
        d = plant_derivatives(p, x, n, n, p.V_dc)
        assert np.allclose(d, 0.0, atol=1e-9)

    def test_zero_state_circulating_drive(self):
        p = sec3_like()
        d = plant_derivatives(p, np.zeros(12), np.full(3, 0.5), np.full(3, 0.5), p.V_dc)
        assert np.allclose(d[0:3], p.V_dc / (2 * p.L))
        assert d[0] == pytest.approx(444444.44, rel=1e-6)
        assert np.allclose(d[3:12], 0.0)

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(20)
        p = sec3_like()
        for _ in range(1000):
            x = rng.normal(scale=1e3, size=12)
            n_u = rng.uniform(0, 1, size=3)
            n_l = rng.uniform(0, 1, size=3)
            direct = plant_derivatives(p, x, n_u, n_l, p.V_dc)
            A, B = state_space_at(p, n_u, n_l)
            matrix = A @ x + B[:, 0] * p.V_dc
            scale = np.max(np.abs(direct)) or 1.0
            assert np.max(np.abs(direct - matrix)) <= 1e-12 * scale

    def test_finite_difference_jacobian(self):
        rng = np.random.default_rng(21)
        p = sec3_like()
        x = rng.normal(scale=1e3, size=12)
        n_u = rng.uniform(0, 1, size=3)
        n_l = rng.uniform(0, 1, size=3)
        A, _ = state_space_at(p, n_u, n_l)
        J = np.zeros((12, 12))
        for j in range(12):
            e = np.zeros(12)
            step = max(abs(x[j]), 1.0) * 1e-6
            e[j] = step
            J[:, j] = (
                plant_derivatives(p, x + e, n_u, n_l, p.V_dc)
                - plant_derivatives(p, x - e, n_u, n_l, p.V_dc)
            ) / (2 * step)
        for i in range(12):
            denom = np.linalg.norm(A[i]) or 1.0
            assert np.linalg.norm(J[i] - A[i]) / denom <= 1e-6

    def test_matrix_entries_at_zero_modulation(self):
        p = sec3_like()
        A, _ = state_space_at(p, np.full(3, 0.5), np.full(3, 0.5))
        assert A[0, 3] == pytest.approx(-1 / (4 * p.L))
        assert A[0, 6] == pytest.approx(-1 / (4 * p.L))
        assert A[9, 9] == pytest.approx(-(p.R + 2 * p.R_load) / p.L)

    def test_equilibrium_consistency(self):
        p = sec3_like()
        x = np.zeros(12)
        x[3:9] = p.V_dc
        n = np.full(3, 0.5)
        A, B = state_space_at(p, n, n)
        assert np.allclose(A @ x + B[:, 0] * p.V_dc, 0.0, atol=1e-9)

    def test_load_inductance_folds_into_phase_current(self):
        p = MmcParameters(
            R=1.0, L=0.1, C_sm=1e-3, N=10, V_dc=1e3, omega1=W1, R_load=5.0, L_load=0.02
        )
        A, _ = state_space_at(p, np.full(3, 0.5), np.full(3, 0.5))
        assert A[9, 9] == pytest.approx(-(p.R + 2 * p.R_load) / (p.L + 2 * p.L_load))
        # Circulating rows keep the arm inductance alone.
        assert A[0, 0] == pytest.approx(-p.R / p.L)

    def test_three_phase_rotation_symmetry(self):
        rng = np.random.default_rng(22)
        p = sec3_like()
        x = rng.normal(scale=1e3, size=12)
        n_u = rng.uniform(0, 1, size=3)
        n_l = rng.uniform(0, 1, size=3)
        d = plant_derivatives(p, x, n_u, n_l, p.V_dc)

        # Rotate phase labels a->b->c within every three-entry block.
        x_rot = x.copy()
        for blk in range(4):
            x_rot[3 * blk : 3 * blk + 3] = x[3 * blk : 3 * blk + 3][[2, 0, 1]]
        d_rot = plant_derivatives(p, x_rot, n_u[[2, 0, 1]], n_l[[2, 0, 1]], p.V_dc)
        for blk in range(4):
            assert np.allclose(
                d_rot[3 * blk : 3 * blk + 3], d[3 * blk : 3 * blk + 3][[2, 0, 1]]
            )


def test_state_position():
    assert state_position("i_c", "a") == 0
    assert state_position("v_cl", "b") == 7
    assert state_position("i_g", "c") == 11
    with pytest.raises(UnknownVariableError):
        state_position("q", "a")
