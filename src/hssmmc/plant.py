"""Average-value model of the three-phase MMC: circuit parameters, open-loop
insertion indices, the plant equations and the lifted model.

``plant_phase_equations`` is the one encoding of the plant, one phase leg
written once and elementwise: on floats for one phase, on (3,) or (3, k)
arrays for all three. The simulator integrates it, and
both lifted models derive from it (the closed loop through
``smallsignal._closed_loop_equations``): ``complex_step_jacobian`` samples
the Jacobian at ``harmonic.instants(h)`` instants of a period (Squire &
Trapp 1998), and ``lift_phase_samples`` lifts its FFT coefficients to
T(A) - I kron Q, as the alternating frequency-time method does (Cameron &
Griffin 1989).
A lifted model is one phase leg's: the phases share only the dc bus, and
phases b and c are the T/3 rotations of phase a (``phase_rotation``), so
``lift_phase_samples`` checks that balance once, on the coefficients of all
three phases, and lifts phase a's alone; ``LiftedModel.for_phase`` rotates
it onto phase b or c. Its blocks are addressed by position, state block v
being leg variable v (``LiftedModel``). ``LiftedModel.phase_blocks`` splits
it into its two halves under the half-wave operator
(``smallsignal.LEG_HALF_WAVE``): the eigenvalue screening decomposes two
blocks of about half its size.

Insertion indices are (3, 2h+1) coefficient arrays (n_u, n_l), one row per
phase a, b, c.

State ordering (fixed): every state vector is variable-major with the phase
fastest, entry 3 v + p being leg variable v of phase p, so
``x.reshape(-1, 3)`` is indexed (variable, phase). The 12 plant states are

    [i_ca, i_cb, i_cc,
     v_cua, v_cub, v_cuc,
     v_cla, v_clb, v_clc,
     i_ga, i_gb, i_gc]

where i_c are circulating currents, v_cu / v_cl the upper / lower arm sum
capacitor voltages, and i_g the ac phase currents; the 18 closed-loop
states append the PR controller states [pr_a1, pr_b1, pr_c1, pr_a2, pr_b2,
pr_c2]. The label strings name the states at the boundaries only: CSV
headers and report lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    FieldValueError,
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

STATE_VARIABLES = ("i_c", "v_cu", "v_cl", "i_g")

STATE_LABELS = tuple(variable + phase for variable in STATE_VARIABLES for phase in PHASES)

# Largest deviation of phase b's or c's Jacobian coefficients from the T/3
# rotation of phase a's, or largest entry of an off-diagonal half-wave
# block, relative to max|A| of phase a's lifted A, for which the model still
# counts as balanced over the three phases and half-wave symmetric; a
# balanced lift meets it to round-off.
SYMMETRY_DEFECT_RTOL = 1e-12


def state_position(variable: str, phase: str, phases: tuple[str, ...] = PHASES) -> int:
    """Index of (variable, phase) in a state vector of the legs ``phases``,
    L v + p with L legs, e.g. ('v_cl', 'b') -> 7 over all three.
    UnknownVariableError for a variable or phase they do not hold."""
    try:
        return len(phases) * STATE_VARIABLES.index(variable) + phases.index(phase)
    except ValueError:
        raise UnknownVariableError(f"no state {variable!r} phase {phase!r}") from None


def check_finite(obj):
    """Raise FieldValueError naming the first field of the dataclass ``obj``
    that is not a finite number: a nan or inf gain or constant reaches no
    physical model."""
    for f in fields(obj):
        if not math.isfinite(getattr(obj, f.name)):
            raise FieldValueError(f.name, "must be finite")


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
        check_finite(self)
        for name in ("L", "C_sm", "omega1"):
            if getattr(self, name) <= 0:
                raise FieldValueError(name, "must be > 0")
        if self.N < 1:
            raise FieldValueError("N", "must be >= 1")
        for name in ("R", "V_dc", "R_load", "L_load"):
            if getattr(self, name) < 0:
                raise FieldValueError(name, "must be >= 0")

    @property
    def C_arm(self) -> float:
        return self.C_sm / self.N

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega1

    def load_impedance(self, k: int | np.ndarray) -> complex | np.ndarray:
        """AC-side load impedance at harmonic k of the fundamental."""
        return self.R_load + 1j * k * self.omega1 * self.L_load


def check_modulation_index(m: float):
    """The library's rule for a modulation index: 0 <= m <= 1."""
    if not 0.0 <= m <= 1.0:
        raise ModulationOutOfRangeError(f"modulation index {m} outside [0, 1]")


def open_loop_insertion_indices(m: float, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Sinusoidal open-loop insertion indices for modulation index m.

    n_u = 1/2 - (m/2) cos(w1 t - phi), n_l = 1/2 + (m/2) cos(w1 t - phi)
    with phi = 0, +2pi/3, -2pi/3 for phases a, b, c. Returns the (3, 2h+1)
    coefficient arrays (n_u, n_l), phases a, b, c.
    """
    check_modulation_index(m)
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


def phase_rotation(h: int, phase: str) -> np.ndarray:
    """Weights d_k, k = -h..h, that turn phase a's harmonic k into
    ``phase``'s: phase b is phase a delayed by T/3, d_k = exp(-j 2 pi k / 3),
    phase c advanced by T/3, the conjugate, and phase a's weights are 1. The
    exponent is reduced mod 3, so that the weights are exact at every k.
    Any other ``phase`` raises UnknownVariableError."""
    if phase not in PHASES:
        raise UnknownVariableError(f"no phase {phase!r}; the phases are {PHASES}")
    d = np.exp(-2j * np.pi * (np.arange(-h, h + 1) % 3) / 3)
    return {"a": np.ones_like(d), "b": d, "c": d.conj()}[phase]


def _check_defect(deviation, scale: float, error, what: str):
    """Raise ``error`` unless the largest entry of ``deviation``, relative to
    ``scale``, is at most SYMMETRY_DEFECT_RTOL (a NaN is not)."""
    defect = float(np.max(np.abs(deviation), initial=0.0)) / scale
    if not defect <= SYMMETRY_DEFECT_RTOL:
        raise error(
            f"lifted A is not {what}: defect {defect:.3e} of max|A| "
            f"exceeds {SYMMETRY_DEFECT_RTOL:.0e}",
            defect,
        )


def lift_phase_samples(samples, h, omega1) -> LiftedModel:
    """Lifted model of phase a's leg from per-phase Jacobian samples
    (3, n, n + m, N) at the instants t = j T / N: phase p's derivatives with
    respect to its n leg variables, then to its m inputs, in the block order
    of ``LiftedModel``. Their coefficients k = -h..h
    (``fourier``) are A(t) and B(t); A is ``lift`` of phase a's A(t) and B
    the block Toeplitz lift of its B(t).

    The phases share only the dc bus, so in a balanced model phases b and c
    are the T/3 rotations of phase a (``LiftedModel.for_phase``): phase p's
    coefficients at k are phase a's times ``phase_rotation``'s d_k. The
    largest deviation from that, over every column and k, relative to
    max|A|, is the balance defect, and unless it is at most
    SYMMETRY_DEFECT_RTOL (a NaN is not) PhaseImbalanceError is raised.
    """
    coeffs = fourier(samples, h)
    n = samples.shape[1]
    A = lift(coeffs[0, :, :n], omega1)
    scale = float(np.max(np.abs(A))) or 1.0
    rotated = np.array([phase_rotation(h, phase) * coeffs[0] for phase in PHASES])
    _check_defect(coeffs - rotated, scale, PhaseImbalanceError, "balanced over the phases")
    return LiftedModel(h, omega1, A, block_toeplitz(coeffs[0, :, n:]), "a")


@dataclass(frozen=True)
class LiftedModel:
    """Lifted LTI model dX/dt = A X + B U of the leg of ``phase`` over
    harmonics k = -h..h; ``for_phase`` turns it into another phase's.

    Block v of X holds the 2h+1 coefficients of leg variable v, in
    ``smallsignal.SMALLSIG_VARIABLES`` order: a steady model has the first
    four, the plant's. Block 0 of U is v_dc and block 1, in a closed-loop
    model, the phase's voltage reference. ``A`` and ``B`` are the dense
    complex lifted arrays of the one leg.
    """

    h: int
    omega1: float
    A: np.ndarray
    B: np.ndarray
    phase: str

    def for_phase(self, phase: str) -> LiftedModel:
        """The model of ``phase``'s leg from this one's, A_p = D A D^H and
        B_p = D B D^H with D = diag(d_k) over (block, k): d_k is
        ``phase_rotation``'s weight for ``phase`` times the conjugate of the
        weight for this model's ``phase``, which undoes that rotation. From
        phase a, d_k is the first weight exactly. A model whose
        ``phase`` is None, or any other than ``PHASES`` holds, raises
        UnknownVariableError, as ``phase_rotation`` does.
        """
        d = phase_rotation(self.h, phase) * phase_rotation(self.h, self.phase).conj()
        rows = np.tile(d, self.A.shape[0] // d.size)[:, None]
        cols = np.tile(d.conj(), self.B.shape[1] // d.size)
        return LiftedModel(
            self.h, self.omega1, rows * self.A * rows.T.conj(), rows * self.B * cols, phase
        )

    def phase_blocks(self, half_wave: tuple[tuple[int, int], ...]):
        """The two half-wave halves of A, each of about half its size:
        together they carry the spectrum of A.

        The half-wave operator T2 acts on each (variable, k) of A as the
        signed permutation ``half_wave`` gives, one (image, sign) per state
        block: block j of T2 X is sign times block ``image`` half a period
        on (``smallsignal.LEG_HALF_WAVE``). Any other count of entries raises
        DimensionMismatchError. Each pair of blocks that T2 swaps is replaced
        by its normalized sum and difference, after which T2 is diagonal with
        entries +-1, and A splits into the rows and columns of +1 and of -1,
        one gather each. The largest entry of the off-diagonal half blocks,
        relative to max|A|, is the half-wave defect (a map that is no
        symmetry of A shows there too), and unless it is at most
        SYMMETRY_DEFECT_RTOL (a NaN is not) HalfWaveAsymmetryError is raised.
        """
        n_h = 2 * self.h + 1
        if len(half_wave) != self.A.shape[0] // n_h:
            raise DimensionMismatchError(
                f"{len(half_wave)} half-wave images for {self.A.shape[0] // n_h} state blocks"
            )
        pairs, plus = _half_wave_basis(half_wave, self.h)
        scale = float(np.max(np.abs(self.A))) or 1.0
        block = self.A.copy()
        _sum_and_difference(block, pairs, n_h)
        halves = (np.flatnonzero(plus), np.flatnonzero(~plus))
        for rows, cols in (halves, halves[::-1]):
            _check_defect(block[np.ix_(rows, cols)], scale, HalfWaveAsymmetryError, "half-wave symmetric")
        return tuple(block[np.ix_(half, half)] for half in halves)


def _half_wave_basis(half_wave, h):
    """The pairs (j, i), j < i, of the blocks that the half-wave operator
    swaps, and the mask of its +1 eigenvectors over the (block, k) basis of
    a phase block once each pair is replaced by its sum (at j) and
    difference (at i).

    A block that maps to itself, with sign s, is in the +1 half at the
    harmonics k with s (-1)^k = 1. The sum of a pair swapped with sign s is
    there at the same harmonics, and the difference at the others.
    """
    odd = np.arange(-h, h + 1) % 2 == 1
    pairs, plus = [], []
    for j, (i, sign) in enumerate(half_wave):
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

