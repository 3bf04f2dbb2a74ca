"""Average-value model of the three-phase MMC: circuit parameters, open-loop
insertion indices, the plant equations and the lifted model.

``plant_phase_equations`` is the one encoding of the plant, one phase leg
written once and elementwise: on floats for one phase, on arrays for all
three (``plant_rhs`` on the 12 states). The simulator integrates it, and
both lifted models derive from it (the closed loop through
``smallsignal._closed_loop_equations``): ``complex_step_jacobian`` samples
the Jacobian at ``harmonic.instants(h)`` instants of a period (Squire &
Trapp 1998), and ``lift_phase_samples`` lifts its FFT coefficients to
T(A) - I kron Q, as the alternating frequency-time method does (Cameron &
Griffin 1989).
``LiftedModel.phase_blocks`` checks that a lifted A is block diagonal over
the phases, with phases b and c the T/3 shifts of phase a, and splits phase
a's block into its two halves under the half-wave operator
(``HALF_WAVE_IMAGE``): the eigenvalue screening decomposes two blocks of
about a sixth of the size of A.

Insertion indices are (3, 2h+1) coefficient arrays (n_u, n_l), one row per
phase a, b, c.

State ordering (fixed, identical to the lifted block ordering):

    [i_ca, i_cb, i_cc,
     v_cua, v_cub, v_cuc,
     v_cla, v_clb, v_clc,
     i_ga, i_gb, i_gc]

where i_c are circulating currents, v_cu / v_cl the upper / lower arm sum
capacitor voltages, and i_g the ac phase currents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    HalfWaveAsymmetryError,
    ModulationOutOfRangeError,
    OrderMismatchError,
    PhaseImbalanceError,
    UnknownVariableError,
)
from .harmonic import block_toeplitz, fourier, lift

PHASES = ("a", "b", "c")

# Phase displacement of the fundamental for each leg, a leading.
PHASE_SHIFT = {"a": 0.0, "b": 2.0 * np.pi / 3.0, "c": -2.0 * np.pi / 3.0}

STATE_LABELS = (
    "i_ca", "i_cb", "i_cc",
    "v_cua", "v_cub", "v_cuc",
    "v_cla", "v_clb", "v_clc",
    "i_ga", "i_gb", "i_gc",
)

STATE_VARIABLES = ("i_c", "v_cu", "v_cl", "i_g")

# The half-wave operator T2 shifts the states by half a period and swaps
# the upper and lower arms. Each state variable maps to (image, sign):
# variable v of T2 x at t is sign * x_image(t + T/2), so its harmonic k is
# sign * (-1)^k times harmonic k of the image. The plant commutes with T2,
# and its orbit is invariant: i_c and v_cu + v_cl carry dc and even
# harmonics, i_g and v_cu - v_cl odd ones.
HALF_WAVE_IMAGE = {
    "i_c": ("i_c", 1),
    "v_cu": ("v_cl", 1),
    "v_cl": ("v_cu", 1),
    "i_g": ("i_g", -1),
}

# Largest entry of an off-phase block of a lifted A, of a phase block's
# difference from the T/3 shift of phase a's, or of an off-diagonal
# half-wave block, relative to max|A|, for which the model still counts as
# balanced over the three phases and half-wave symmetric; a balanced lift
# meets it to round-off.
SYMMETRY_DEFECT_RTOL = 1e-12


_STATE_INDEX = {label: i for i, label in enumerate(STATE_LABELS)}

# The positions in the state vector of each phase's states, in the argument
# order of plant_phase_equations: i_c, v_cu, v_cl, i_g.
PHASE_STATES = [[_STATE_INDEX[variable + phase] for variable in STATE_VARIABLES] for phase in PHASES]


def state_position(variable: str, phase: str) -> int:
    """Index of (variable, phase) in the plant state vector, e.g. ('i_c','a') -> 0."""
    try:
        return _STATE_INDEX[f"{variable}{phase}"]
    except KeyError:
        raise KeyError(f"no state {variable!r} phase {phase!r}") from None


def split_phase(label: str) -> tuple[str, str]:
    """(variable, phase) of a per-phase state label. The phase letter ends
    the label ('v_cub' -> ('v_cu', 'b')) or comes before a trailing state
    number ('pr_a1' -> ('pr_1', 'a'))."""
    i = len(label) - (2 if label[-1].isdigit() else 1)
    if i < 0 or label[i] not in PHASES:
        raise UnknownVariableError(f"state label {label!r} names no phase")
    return label[:i] + label[i + 1 :], label[i]


@dataclass(frozen=True)
class MmcParameters:
    """Electrical constants of one MMC installation.

    The equivalent arm capacitance is the series combination of the
    submodule capacitors, C_arm = C_sm / N.
    """

    R: float            # arm resistance, ohm
    L: float            # arm inductance, H
    C_sm: float         # submodule capacitance, F
    N: int              # submodules per arm
    V_dc: float         # dc-bus voltage, V
    omega1: float       # fundamental angular frequency, rad/s
    R_load: float       # ac-side load resistance, ohm
    L_load: float = 0.0  # ac-side load inductance, H

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("arm inductance L must be > 0")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.C_sm <= 0:
            raise ValueError("C_sm must be > 0")
        for name in ("R", "V_dc", "omega1", "R_load", "L_load"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.omega1 <= 0:
            raise ValueError("omega1 must be > 0")

    @property
    def C_arm(self) -> float:
        return self.C_sm / self.N

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega1

    def load_impedance(self, k: int | np.ndarray) -> complex | np.ndarray:
        """AC-side load impedance at harmonic k of the fundamental."""
        return self.R_load + 1j * k * self.omega1 * self.L_load


def open_loop_insertion_indices(m: float, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Sinusoidal open-loop insertion indices for modulation index m.

    n_u = 1/2 - (m/2) cos(w1 t - phi), n_l = 1/2 + (m/2) cos(w1 t - phi)
    with phi = 0, +2pi/3, -2pi/3 for phases a, b, c. Returns the (3, 2h+1)
    coefficient arrays (n_u, n_l), phases a, b, c.
    """
    if not 0.0 <= m <= 1.0:
        raise ModulationOutOfRangeError(f"modulation index {m} outside [0, 1]")
    if h < 1 and m != 0.0:
        raise OrderMismatchError("order >= 1 required for a fundamental component")
    phi = np.array([PHASE_SHIFT[p] for p in PHASES])
    n_u = np.zeros((3, 2 * h + 1), dtype=complex)
    n_u[:, h] = 0.5
    n_l = n_u.copy()
    if h >= 1:
        for arm, amplitude in ((n_u, -0.5 * m), (n_l, 0.5 * m)):
            arm[:, h + 1] = 0.5 * amplitude * np.exp(-1j * phi)
            arm[:, h - 1] = 0.5 * amplitude * np.exp(+1j * phi)
    return n_u, n_l


def plant_rhs(
    state: np.ndarray,
    n_u: np.ndarray,
    n_l: np.ndarray,
    v_dc: float,
    params: MmcParameters,
) -> np.ndarray:
    """Time derivative of the 12 plant states for given insertion indices.

    ``state`` is one 12-vector or a (12, k) block of k state columns, real
    or complex; the insertion indices broadcast against the (3,) or (3, k)
    state slices and ``v_dc`` is a scalar or one value per column. The
    equations are those of ``plant_phase_equations``, on all three phases
    at once.
    """
    x = np.asarray(state)
    d = np.empty(x.shape, np.result_type(x, float))
    d[0:3], d[3:6], d[6:9], d[9:12] = plant_phase_equations(params)(
        x[0:3], x[3:6], x[6:9], x[9:12], n_u, n_l, v_dc
    )
    return d


def plant_phase_equations(params: MmcParameters):
    """The direct-form plant equations of one phase leg, as a function
    (i_c, v_cu, v_cl, i_g, n_u, n_l, v_dc) -> (di_c, dv_cu, dv_cl, di_g)/dt.

    Every operation is elementwise, so the arguments are Python floats for
    one phase, or arrays of shape (3,) or (3, k), real or complex, for all
    three phases: the phases share only the dc bus. The same expressions in
    the same order give the same IEEE doubles either way.

    The ac load enters with its resistive part algebraic
    (v_g = R_load * i_g) and its inductive part folded into the phase
    current equation as an effective series inductance L + 2*L_load.
    """
    R = params.R
    # Reciprocals, as numpy's complex division uses: a real column runs as a real run.
    inv_L = 1.0 / params.L
    inv_C = 1.0 / params.C_arm
    R_g = R + 2.0 * params.R_load
    inv_L_g = 1.0 / (params.L + 2.0 * params.L_load)

    def derivatives(i_c, v_cu, v_cl, i_g, n_u, n_l, v_dc):
        # Inserted arm voltages and the arm-current share of i_g.
        v_u = n_u * v_cu
        v_l = n_l * v_cl
        i_half = 0.5 * i_g
        return (
            (-R * i_c - 0.5 * v_u - 0.5 * v_l + 0.5 * v_dc) * inv_L,
            n_u * (i_c + i_half) * inv_C,
            n_l * (i_c - i_half) * inv_C,
            (-v_u + v_l - R_g * i_g) * inv_L_g,
        )

    return derivatives


def complex_step_jacobian(f, args, wrt) -> np.ndarray:
    """(*S, outputs, len(wrt)) derivatives of the elementwise equations
    ``f`` with respect to ``args[i]``, i in ``wrt``, by complex step (Squire
    & Trapp 1998) in one call of ``f``; the real ``args`` broadcast to shape
    S. Column c of a new last axis adds i s to ``args[wrt[c]]``, s a power
    of two near 2^-100 max(|x|, 1), so a linear term's coefficient comes out
    exactly as ``f`` computes it."""
    columns = np.eye(len(wrt))
    z = [np.asarray(x)[..., None] for x in args]
    steps = []
    for c, i in enumerate(wrt):
        s = np.ldexp(1.0, np.frexp(np.maximum(np.abs(args[i]), 1.0))[1] - 100)
        z[i] = z[i] + 1j * s[..., None] * columns[c]
        steps.append(s)
    d = np.stack(np.broadcast_arrays(*f(*z)), axis=-2).imag
    return d / np.stack(np.broadcast_arrays(*steps), axis=-1)[..., None, :]


def lift_phase_samples(samples, states, inputs, h, omega1, state_labels, input_labels) -> LiftedModel:
    """Lifted model of per-phase Jacobian samples (3, n, n + m, N) at the
    instants t = j T / N: phase p's derivatives with respect to its n
    states, at ``states[p]`` in the state vector, then to m inputs, at
    ``inputs[p]`` in the input vector. Their coefficients k = -h..h
    (``fourier``) are A(t) and B(t); A is ``lift`` of A(t) and B the block
    Toeplitz lift of B(t)."""
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


@dataclass(frozen=True)
class LiftedModel:
    """Lifted LTI model dX/dt = A X + B U over harmonics k = -h..h.

    Block r of X holds the 2h+1 coefficients of ``state_labels[r]`` and
    block c of U those of ``input_labels[c]``. ``A`` and ``B`` are the dense
    complex lifted arrays.
    """

    h: int
    omega1: float
    A: np.ndarray
    B: np.ndarray
    state_labels: tuple[str, ...]
    input_labels: tuple[str, ...]

    def phase_blocks(self, half_wave: dict[str, tuple[str, int]]):
        """The two half-wave halves of phase a's block of A, each of about a
        sixth of its size: together they carry the spectrum of A once, and
        A carries it three times.

        The phases share only the dc bus, so a balanced lift is block
        diagonal over them, and phase b is phase a delayed by T/3 (phase c
        advanced by T/3): with D = diag(exp(-j 2 pi k / 3)) over (variable,
        k), A_b = D A_a D^H and A_c = D^H A_a D. The largest entry of the
        off-phase blocks, and then of A_b - D A_a D^H and A_c - D^H A_a D,
        relative to max|A|, is the rotation defect; each block is one
        gather of A, and unless the defect is at most SYMMETRY_DEFECT_RTOL
        (a NaN is not) PhaseImbalanceError is raised.

        The half-wave operator T2 commutes with D and acts on each (variable,
        k) of phase a's block as the signed permutation ``half_wave`` gives
        (``HALF_WAVE_IMAGE``); a state variable without an entry raises
        UnknownVariableError. Each pair of variables that T2 swaps is
        replaced in place by its normalized sum and difference, after which
        T2 is diagonal with entries +-1, and the block splits into the rows
        and columns of +1 and of -1, one gather each. The off-diagonal half
        blocks give the half-wave defect (a map that is no symmetry of A
        shows there too), and unless it is at most SYMMETRY_DEFECT_RTOL
        HalfWaveAsymmetryError is raised.
        """
        n_h = 2 * self.h + 1
        phase_rows = {}
        for i, label in enumerate(self.state_labels):
            variable, phase = split_phase(label)
            phase_rows.setdefault(variable, {})[phase] = i
        if any(len(rows) != len(PHASES) for rows in phase_rows.values()):
            raise DimensionMismatchError("every state variable needs one block per phase")
        pairs, plus = _half_wave_basis(tuple(phase_rows), half_wave, self.h)
        # index[p]: the rows (and columns) of phase p in (variable, k) order.
        blocks = np.array([[rows[p] for p in PHASES] for rows in phase_rows.values()])
        index = (blocks.T[:, :, None] * n_h + np.arange(n_h)).reshape(len(PHASES), -1)
        # The T/3 delay at each (variable, k), exponent reduced mod 3 so that
        # the weights are exact at every k.
        k = np.tile(np.arange(-self.h, self.h + 1), len(phase_rows))
        delay = np.exp(-2j * np.pi * (k % 3) / 3)

        scale = float(np.max(np.abs(self.A))) or 1.0

        def check(deviation, error, what):
            defect = float(np.max(np.abs(deviation), initial=0.0)) / scale
            if not defect <= SYMMETRY_DEFECT_RTOL:
                raise error(
                    f"lifted A is not {what}: defect {defect:.3e} of max|A| "
                    f"exceeds {SYMMETRY_DEFECT_RTOL:.0e}",
                    defect,
                )

        balance = "balanced over the phases"
        for p, rows in enumerate(index):
            for q, cols in enumerate(index):
                if p != q:
                    check(self.A[np.ix_(rows, cols)], PhaseImbalanceError, balance)
        block = self.A[np.ix_(index[0], index[0])]
        for p, d in ((1, delay), (2, delay.conj())):
            shifted = d[:, None] * block * d.conj()
            check(shifted - self.A[np.ix_(index[p], index[p])], PhaseImbalanceError, balance)

        _sum_and_difference(block, pairs, n_h)
        halves = (np.flatnonzero(plus), np.flatnonzero(~plus))
        for rows, cols in (halves, halves[::-1]):
            check(block[np.ix_(rows, cols)], HalfWaveAsymmetryError, "half-wave symmetric")
        return tuple(block[np.ix_(half, half)] for half in halves)


def _half_wave_basis(variables, half_wave, h):
    """The pairs (j, i), j < i, of the positions in ``variables`` that the
    half-wave operator swaps, and the mask of its +1 eigenvectors over the
    (variable, k) basis of a phase block once each pair is replaced by
    its sum (at j) and difference (at i).

    A variable that maps to itself, with sign s, is in the +1 half at the
    harmonics k with s (-1)^k = 1. The sum of a pair swapped with sign s is
    there at the same harmonics, and the difference at the others.
    """
    position = {v: j for j, v in enumerate(variables)}
    odd = np.arange(-h, h + 1) % 2 == 1
    pairs, plus = [], []
    for j, variable in enumerate(variables):
        try:
            image, sign = half_wave[variable]
            i = position[image]
        except KeyError:
            raise UnknownVariableError(
                f"state variable {variable!r} has no half-wave image among the states"
            ) from None
        if j < i:
            pairs.append((j, i))
        plus.append(odd if (sign < 0) != (j > i) else ~odd)
    return pairs, np.concatenate(plus)


def _sum_and_difference(block: np.ndarray, pairs, n_h: int):
    """Replace the rows, then the columns, of each pair (j, i) of variable
    blocks of ``block`` by their sum (at j) and difference (at i), each
    scaled by 1/sqrt(2), in place."""
    scale = np.sqrt(0.5)
    for view in (block, block.T):
        for j, i in pairs:
            first, second = view[j * n_h : (j + 1) * n_h], view[i * n_h : (i + 1) * n_h]
            first[...], second[...] = scale * (first + second), scale * (first - second)

