"""Harmonic-domain algebra: Toeplitz operators, synthesis, and the FFT pair
between samples and coefficient rows."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from hssmmc import (
    InsufficientSamplesError,
    ResidualImaginaryError,
    frequency_matrix,
    synthesize,
    toeplitz,
)
from hssmmc.harmonic import fourier, instants, sample

from conftest import coefficient_row, random_real_vector

W1 = 314.0


class TestToeplitz:
    def test_structure(self):
        rng = np.random.default_rng(2)
        c = random_real_vector(rng, 3)
        T = toeplitz(c)
        h = 3
        for i in range(7):
            for j in range(7):
                expected = c[i - j + h] if abs(i - j) <= h else 0.0
                assert T[i, j] == expected

    def test_constant_gives_identity_scaling(self):
        c = np.zeros(7, dtype=complex)
        c[3] = 2.5
        assert np.array_equal(toeplitz(c), 2.5 * np.eye(7))

    def test_open_loop_index_fixture(self):
        # 1/2 - (m/2)cos(w t): diagonal 1/2, first off-diagonals -m/4.
        m = 0.8
        T = toeplitz(coefficient_row({0: 0.5, 1: -m / 4, -1: -m / 4}, 3))
        assert np.allclose(np.diag(T), 0.5, atol=1e-15)
        assert np.allclose(np.diag(T, 1), -m / 4, atol=1e-15)
        assert np.allclose(np.diag(T, -1), -m / 4, atol=1e-15)
        assert np.allclose(np.diag(T, 2), 0.0, atol=1e-15)

    def test_product_matches_time_domain(self):
        # cos * cos = 1/2 + cos(2 w t)/2
        c = coefficient_row({1: 0.5, -1: 0.5}, 3)
        out = toeplitz(c) @ c
        assert out[3] == pytest.approx(0.5, abs=1e-15)
        assert out[3 + 2] == pytest.approx(0.25, abs=1e-15)
        assert out[3 - 2] == pytest.approx(0.25, abs=1e-15)
        assert out[3 + 1] == pytest.approx(0.0, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_real_vector(rng, 3)
            b = random_real_vector(rng, 3)
            alpha, beta = rng.normal(size=2)
            lhs = toeplitz(alpha * a + beta * b)
            rhs = alpha * toeplitz(a) + beta * toeplitz(b)
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestFrequencyMatrix:
    def test_values(self):
        q = frequency_matrix(1, W1)
        assert np.array_equal(q, np.array([-314j, 0.0, 314j]))

    def test_dc_only(self):
        q = frequency_matrix(0, W1)
        assert np.diag(q).shape == (1, 1)
        assert np.diag(q)[0, 0] == 0.0

    def test_linear_in_k(self):
        q = frequency_matrix(3, W1)
        assert q[0] == -3j * W1
        assert q[-1] == 3j * W1

    def test_purely_imaginary_and_antisymmetric(self):
        q = frequency_matrix(5, W1)
        assert np.all(q.real == 0.0)
        assert np.array_equal(q, -q[::-1])


class TestSynthesize:
    def test_known_values(self):
        c = coefficient_row({0: 1.0, 1: 0.5, -1: 0.5}, 1)
        assert synthesize(c, W1, 0.0) == pytest.approx(2.0)
        assert synthesize(c, W1, np.pi / W1) == pytest.approx(0.0, abs=1e-12)

    def test_sine_peak(self):
        c = coefficient_row({2: -0.5j, -2: 0.5j}, 2)
        assert synthesize(c, W1, np.pi / (4 * W1)) == pytest.approx(1.0)

    def test_rejects_non_real(self):
        c = coefficient_row({1: 1.0}, 1)
        with pytest.raises(ResidualImaginaryError):
            synthesize(c, W1, 0.1)

    def test_floor_scales_the_residual_check(self):
        # A spectrum far below the floor, with an imaginary residual that is
        # large against itself but rounding against the floor.
        c = coefficient_row({1: 1e-10, -1: 1e-10 + 1e-18j}, 1)
        with pytest.raises(ResidualImaginaryError):
            synthesize(c, W1, 0.1)
        assert synthesize(c, W1, 0.1, floor=1.0) == pytest.approx(2e-10 * np.cos(0.1 * W1))

    def test_vectorized(self):
        rng = np.random.default_rng(4)
        c = random_real_vector(rng, 3)
        ts = np.linspace(0.0, 0.02, 17)
        vals = synthesize(c, W1, ts)
        assert vals.shape == ts.shape
        assert vals[3] == pytest.approx(synthesize(c, W1, ts[3]))


class TestFourier:
    def test_constant(self):
        c = fourier(np.full(64, 5.0), 3)
        assert c[3] == pytest.approx(5.0)
        assert np.allclose(np.delete(c, 3), 0.0, atol=1e-12)

    def test_cosine(self):
        T = 2 * np.pi / W1
        t = np.arange(64) * T / 64
        c = fourier(np.cos(W1 * t), 3)
        assert c[3 + 1] == pytest.approx(0.5, abs=1e-10)
        assert c[3 - 1] == pytest.approx(0.5, abs=1e-10)
        assert abs(c[3]) < 1e-10 and abs(c[3 + 2]) < 1e-10

    def test_roundtrip_property(self):
        rng = np.random.default_rng(5)
        T = 2 * np.pi / W1
        for _ in range(25):
            h = rng.integers(1, 6)
            c = random_real_vector(rng, int(h))
            n = 4 * (2 * int(h) + 1) + int(rng.integers(0, 40))
            t = np.arange(n) * T / n
            back = fourier(synthesize(c, W1, t), int(h))
            assert np.max(np.abs(back - c)) < 1e-9

    @pytest.mark.parametrize("h", [0, 1, 3, 10])
    def test_insufficient_samples(self, h):
        # Four samples per coefficient: 27 cannot resolve h = 3, 28 can.
        n = 4 * (2 * h + 1)
        message = f"{n - 1} samples cannot resolve order {h}; need at least {n}"
        with pytest.raises(InsufficientSamplesError) as info:
            fourier(np.zeros(n - 1), h)
        assert str(info.value) == message
        with pytest.raises(InsufficientSamplesError) as info:
            fourier(np.zeros((3, n - 1)), h)
        assert str(info.value) == message
        assert fourier(np.ones(n), h).shape == (2 * h + 1,)
        assert fourier(np.ones((3, n)), h).shape == (3, 2 * h + 1)


@settings(max_examples=50, deadline=None)
@given(h=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_product_routes_agree(h, seed):
    # Bandwidths at most h/2 keep the product inside the band, so the
    # Toeplitz product, the sampled time-domain product and the product of
    # the lifted models' sampling FFTs are the same spectrum up to round-off.
    rng = np.random.default_rng(seed)
    a = np.pad(random_real_vector(rng, h // 2), h - h // 2)
    b = np.pad(random_real_vector(rng, h // 2), h - h // 2)
    via_toeplitz = toeplitz(a) @ b
    n = 4 * (2 * h + 1)
    t = np.arange(n) * (2 * np.pi / W1) / n
    via_samples = fourier(synthesize(a, W1, t) * synthesize(b, W1, t), h)
    a_t, b_t = sample(np.stack([a, b]), instants(h))
    via_fft = fourier(a_t * b_t, h)
    scale = np.max(np.abs(a)) * np.max(np.abs(b)) * (2 * h + 1)
    assert np.max(np.abs(via_samples - via_toeplitz)) <= 1e-14 * scale
    assert np.max(np.abs(via_fft - via_toeplitz)) <= 1e-14 * scale


class TestSampling:
    def test_instants_are_the_smallest_power_of_two_of_eight_per_order(self):
        for h in range(40):
            n = instants(h)
            assert n & (n - 1) == 0 and n // 2 < 8 * (h + 1) <= n
            assert n >= 4 * (2 * h + 1)

    @settings(max_examples=50, deadline=None)
    @given(h=st.integers(0, 15), seed=st.integers(0, 2**32 - 1))
    def test_fourier_inverts_sample(self, h, seed):
        rng = np.random.default_rng(seed)
        coeffs = np.stack([random_real_vector(rng, h) for _ in range(3)])
        values = sample(coeffs, instants(h))
        t = np.arange(instants(h)) * (2 * np.pi / W1) / instants(h)
        direct = np.array([synthesize(c, W1, t) for c in coeffs])
        scale = np.max(np.abs(coeffs)) * (2 * h + 1)
        assert np.max(np.abs(values - direct)) <= 1e-14 * scale
        assert np.max(np.abs(fourier(values, h) - coeffs)) <= 1e-14 * scale

    def test_constants_are_exact(self):
        # A power-of-two count keeps a constant exact through both FFTs.
        rng = np.random.default_rng(12)
        for h in (0, 1, 3, 7, 15, 30):
            c = rng.normal(size=(50, 1)) * 10.0 ** rng.uniform(-6, 6, size=(50, 1))
            coeffs = np.zeros((50, 2 * h + 1), dtype=complex)
            coeffs[:, h] = c[:, 0]
            values = sample(coeffs, instants(h))
            assert np.array_equal(values, np.broadcast_to(c, values.shape))
            assert np.array_equal(fourier(values, h), coeffs)
