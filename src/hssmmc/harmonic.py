"""Harmonic-domain algebra: Toeplitz convolution operators, the frequency
(differentiation) matrix, time-domain synthesis, the one FFT pair between
samples and coefficients, and the lift of periodic coefficient tensors.

Coefficients are stored for harmonic indices k = -h..+h in ascending order,
so ``coeffs[k + h]`` is the coefficient of ``exp(1j*k*w1*t)``. Every block
matrix in the toolkit uses the same ordering.

Coefficient arrays are the one format: a spectrum is a (2h+1,) complex
row, and the base frequency travels beside it. ``toeplitz`` and
``frequency_matrix`` return plain arrays, and ``block_toeplitz`` and
``lift`` turn (n, m, 2h+1) coefficient tensors into dense lifted matrices.
``sample`` and ``fourier`` move stacks of coefficient rows to and from
their values at n uniform instants per period: ``instants(h)`` for the
lifted models, a simulated period for the settled spectra. ``synthesize``
evaluates one row at arbitrary times.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientSamplesError, ResidualImaginaryError

# Relative tolerance used for conjugate-symmetry and residual-imaginary
# checks; sized for double-precision round-off over (2h+1)^2 operations.
SYMMETRY_RTOL = 1e-9


def toeplitz(coeffs) -> np.ndarray:
    """Toeplitz convolution operator of a stack (..., 2h+1) of coefficient
    arrays.

    Entry (i, j) is the coefficient of harmonic i - j, zero beyond the
    retained band. Multiplying the result by another vector's coefficient
    column gives the h-truncated Fourier coefficients of the time-domain
    product of the two signals. The result is a read-only view: row i is a
    reversed window of the zero-padded coefficients.
    """
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[-1]
    h = n // 2
    padded = np.zeros(coeffs.shape[:-1] + (2 * n - 1,), dtype=complex)
    padded[..., h : h + n] = coeffs
    return sliding_window_view(padded[..., ::-1], n, axis=-1)[..., ::-1, :]


def frequency_matrix(h: int, base_frequency: float) -> np.ndarray:
    """Diagonal j*k*w1, k = -h..h, of the differentiation matrix Q."""
    if h < 0:
        raise ValueError("h must be >= 0")
    if base_frequency <= 0:
        raise ValueError("base_frequency must be > 0")
    return 1j * np.arange(-h, h + 1) * base_frequency


def synthesize(coeffs, omega1: float, t, floor: float = 0.0):
    """Evaluate the real signal with the coefficient row ``coeffs``
    (k = -h..h) and fundamental ``omega1`` at time(s) ``t``.

    Raises ResidualImaginaryError when the reconstruction is not real to
    within ``SYMMETRY_RTOL`` relative to the largest coefficient, or to
    ``floor`` when that is larger, which signals a row that does not
    describe a real signal. A spectrum taken from a larger solution carries that
    solution's rounding, so its caller passes a floor scaled to it.
    """
    coeffs = np.asarray(coeffs)
    t_arr = np.asarray(t, dtype=float)
    h = coeffs.size // 2
    phases = np.exp(1j * np.multiply.outer(t_arr, np.arange(-h, h + 1)) * omega1)
    values = phases @ coeffs
    scale = max(float(np.max(np.abs(coeffs))), floor) or 1.0
    max_imag = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if max_imag > SYMMETRY_RTOL * scale:
        raise ResidualImaginaryError(
            f"imaginary residual {max_imag:.3e} exceeds {SYMMETRY_RTOL:.1e} * {scale:.3e}"
        )
    out = values.real
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def block_toeplitz(tensor: np.ndarray) -> np.ndarray:
    """Lift of an (n, m, 2h+1) coefficient tensor: block (r, c) is the
    Toeplitz operator of ``tensor[r, c]``. Only the nonzero blocks are
    built."""
    n, m, k = tensor.shape
    rows, cols = np.nonzero(np.any(tensor != 0, axis=2))
    out = np.zeros((n, k, m, k), dtype=complex)
    out[rows, :, cols, :] = toeplitz(tensor[rows, cols])
    return out.reshape(n * k, m * k)


def lift(A: np.ndarray, base_frequency: float) -> np.ndarray:
    """Lifted state matrix of dx/dt = A(t) x: block-Toeplitz(A) - I kron Q
    for a square (n, n, 2h+1) coefficient tensor, Q the frequency matrix."""
    n, _, k = A.shape
    out = block_toeplitz(A)
    out[np.diag_indices(n * k)] -= np.tile(frequency_matrix(k // 2, base_frequency), n)
    return out


def instants(h: int) -> int:
    """Instants per period at which the lifted models of order h are
    sampled: the smallest power of two >= 8(h + 1). A power of two keeps
    constants exact through ``sample`` and ``fourier``, and 8(h + 1) keeps
    the aliasing of the inductive closed loop, which is not band-limited,
    at rounding level."""
    return 1 << (8 * (h + 1) - 1).bit_length()


def sample(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Values at the instants t = j T / n of the real signals with the
    coefficient rows ``coeffs`` (..., 2h+1), 2h < n: an inverse real FFT
    of the k >= 0 half."""
    h = coeffs.shape[-1] // 2
    return np.fft.irfft(coeffs[..., h:], n, axis=-1, norm="forward")


def fourier(samples: np.ndarray, h: int) -> np.ndarray:
    """Coefficients k = -h..h of real signals sampled at t = j T / n along
    the last axis: a real FFT, with k < 0 the conjugate of k > 0. It is the
    rectangle-rule Fourier sum, exact for signals band-limited below
    Nyquist. Raises InsufficientSamplesError for fewer than 4(2h + 1)
    samples per period."""
    n = np.shape(samples)[-1]
    if n < 4 * (2 * h + 1):
        raise InsufficientSamplesError(
            f"{n} samples cannot resolve order {h}; need at least {4 * (2 * h + 1)}"
        )
    half = np.fft.rfft(samples, axis=-1, norm="forward")[..., : h + 1]
    return np.concatenate([half[..., :0:-1].conj(), half], axis=-1)
