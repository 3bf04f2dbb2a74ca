"""Scenario orchestration: steady and small-signal solves, reference
simulations, verification pipelines, and parameter sweeps.

Each ``run_*`` function executes one CLI scenario, writes its CSV set and
report into the output directory, and returns the process exit code
(0 thresholds met, 1 threshold failure; configuration and numerical errors
propagate as exceptions and are mapped by the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import RunConfig, StepConfig, apply_sweep_value
from .errors import HssError, SchemaViolationError
from .harmonic import instants, sample, synthesize
from .plant import PHASES, STATE_LABELS, STATE_VARIABLES, LiftedModel, open_loop_insertion_indices
from .reports import (
    write_csv,
    write_eigenvalue_csv,
    write_report,
    write_spectrum_csv,
    write_trajectory_csv,
    write_waveform_csv,
)
from .simulate import (
    SETTLE_RTOL,
    PeriodicOrbit,
    Trajectory,
    compare_spectra,
    power_balance,
    settled_closed_loop,
    settled_open_loop,
    settled_spectrum,
    settling_profile,
    simulate_closed_loop,
    simulate_open_loop,
    total_harmonic_distortion,
)
from .smallsignal import (
    SMALLSIG_STATE_LABELS,
    EnvelopeResponse,
    assemble_smallsignal,
    eigenvalues,
    envelope_response,
    lifted_reference_step,
    operating_state_at,
    reconstruct_perturbation,
    references_from_operating_point,
)
from .steady import (
    OperatingPoint,
    assemble_steady,
    solve_steady_state,
)
from .workers import fork_map, shared_empty

# Verification gates.
DOMINANT_REL_TOL = 0.02        # lifted vs simulated dominant components
WAVEFORM_NRMSE_TOL = 0.03      # reconstructed one-period waveforms
SMALLSIG_NRMSE_TOL = 0.10      # perturbation reconstruction vs nonlinear
ENERGY_BALANCE_TOL = 0.01      # dc input vs dissipation
ODD_HARMONIC_RATIO = 10.0      # circulating dc/2nd over odd components
HIGH_HARMONIC_FRACTION = 0.2   # capacitor 4th-and-above vs 3rd
LOW_HARMONICS = ("dc", "1st", "2nd", "3rd")  # each above 1e-6 of the peak
AC_CURRENT_THD_MAX = 0.01

# Analysis order used for the spectral-content claims.
CLAIMS_ORDER = 8


def nrmse(reference: np.ndarray, value: np.ndarray) -> float:
    """RMS error normalized by the reference signal's RMS."""
    ref = np.asarray(reference, dtype=float)
    val = np.asarray(value, dtype=float)
    denom = float(np.sqrt(np.mean(ref**2)))
    if denom == 0.0:
        return 0.0 if np.allclose(val, 0.0) else np.inf
    return float(np.sqrt(np.mean((val - ref) ** 2)) / denom)


def solve_operating_point(cfg: RunConfig) -> OperatingPoint:
    if cfg.h < 1 and cfg.m != 0.0:
        raise SchemaViolationError(
            f"h {cfg.h} cannot hold the fundamental of modulation index m {cfg.m}; "
            "h >= 1 is needed when m > 0"
        )
    indices = open_loop_insertion_indices(cfg.m, cfg.h)
    model = assemble_steady(cfg.params, indices, cfg.h)
    return solve_steady_state(model, cfg.params.V_dc, indices)


# ----------------------------------------------------------------- steady


def run_steady(cfg: RunConfig, out: Path, timestamp: bool) -> int:
    op = solve_operating_point(cfg)
    for var in STATE_VARIABLES:
        for p in PHASES:
            write_spectrum_csv(out / f"spectrum_hss_{var}_{p}.csv", op.spectrum(var, p), timestamp)
    title = f"steady solve (m={cfg.m}, h={cfg.h}, 1-norm condition number {op.condition:.3e})"
    checks = [energy_balance_check(power_balance(sample(op.coeffs, instants(op.h)).T, cfg.params))]
    ok = write_report(out / "report.txt", title, checks, timestamp)
    return 0 if ok else 1


def energy_balance_check(balance: dict[str, float]) -> tuple[str, bool, str]:
    """Report check of one-period powers: dc input against load plus arm losses."""
    mismatch = abs(balance["dc_input"] - balance["load"] - balance["arm_loss"])
    rel = mismatch / abs(balance["dc_input"]) if balance["dc_input"] else 0.0
    return ("energy balance", rel <= ENERGY_BALANCE_TOL, f"mismatch {rel:.4%} of dc input")


# --------------------------------------------------------------- smallsig


def _require_closed_loop(cfg: RunConfig):
    """A closed-loop scenario needs the controller, and a dc bus to divide
    the modulation voltage by: its insertion indices are 1/2 -+ v_mod / V_dc."""
    if cfg.ctrl is None:
        raise SchemaViolationError("[controller]: section required for this scenario")
    if cfg.params.V_dc == 0.0:
        raise SchemaViolationError(
            "[params] V_dc: must be > 0 for a closed-loop scenario, whose insertion "
            "indices divide the modulation voltage by it"
        )


def _require_reference_phasors(cfg: RunConfig):
    """A closed-loop run takes its reference phasors from the operating
    point's fundamental, which h = 0 does not hold."""
    if cfg.h < 1:
        raise SchemaViolationError(
            f"h {cfg.h} cannot hold the fundamental the reference phasors are "
            "taken from; h >= 1 is needed for a closed-loop run"
        )


def build_smallsignal_model(cfg: RunConfig) -> tuple[OperatingPoint, LiftedModel]:
    _require_closed_loop(cfg)
    op = solve_operating_point(cfg)
    return op, assemble_smallsignal(op, cfg.params, cfg.ctrl, cfg.h)


def run_smallsig(cfg: RunConfig, out: Path, timestamp: bool) -> int:
    _, model = build_smallsignal_model(cfg)
    eig = eigenvalues(model)
    write_eigenvalue_csv(out / "eigenvalues.csv", eig, timestamp)
    checks = [stability_check(eig)]
    ok = write_report(out / "report.txt", f"small-signal model (h={cfg.h})", checks, timestamp)
    return 0 if ok else 1


def growth_rate(eig: np.ndarray) -> float:
    """The stability reading of a lifted model: the real part of its
    rightmost eigenvalue, the first of ``eigenvalues``."""
    return float(eig[0].real)


def stability_check(eig: np.ndarray) -> tuple[str, bool, str]:
    """Report check that the lifted model's growth rate is negative."""
    rate = growth_rate(eig)
    return ("stability", rate < 0.0, f"max real part {rate:.4g} 1/s")


# --------------------------------------------------------------- simulate


def run_simulate_open(cfg: RunConfig, out: Path, timestamp: bool) -> int:
    traj = simulate_open_loop(cfg.params, cfg.m, cfg.sim)
    write_trajectory_csv(out / "trajectory.csv", traj, STATE_LABELS, timestamp)
    worst = float(np.max(settling_profile(traj, n_periods=1)[0]))
    settled = worst <= SETTLE_RTOL  # a NaN change fails too
    if settled:
        for var in STATE_VARIABLES:
            for p in PHASES:
                c = settled_spectrum(traj, var, p, cfg.h, cfg.params.omega1)
                write_spectrum_csv(out / f"spectrum_sim_{var}_{p}.csv", c, timestamp)
    detail = (
        f"max last-two-period RMS change {worst:.3e} (tol {SETTLE_RTOL:.1e}); "
        f"{cfg.sim.settle_periods} settle periods requested"
    )
    checks = [("settled", settled, detail)]
    write_report(out / "report.txt", f"open-loop simulation (m={cfg.m})", checks, timestamp)
    return 0


def run_simulate_closed(cfg: RunConfig, out: Path, timestamp: bool) -> int:
    _require_closed_loop(cfg)
    _require_reference_phasors(cfg)
    op = solve_operating_point(cfg)
    refs = references_from_operating_point(op, cfg.params)
    n_end = cfg.sim.n_steps()
    # No step, or one at or after the end of the run, leaves the whole run before it.
    n_step = n_end if cfg.step is None else min(step_grid_index(cfg), n_end)
    traj = reference_step_run(cfg, refs, n_step, n_end)
    write_trajectory_csv(out / "trajectory.csv", traj, SMALLSIG_STATE_LABELS, timestamp)
    checks = [("completed", True, f"{traj.t.size - 1} steps")]
    write_report(out / "report.txt", "closed-loop simulation", checks, timestamp)
    return 0


def step_grid_index(cfg: RunConfig) -> int:
    """Integration grid point of the configured reference step."""
    return cfg.step.period * cfg.sim.steps_per_period


def step_delta(refs: dict[str, complex], step: StepConfig, amplitude: float) -> complex:
    """Reference phasor step of ``amplitude`` volts along the stepped phase's phasor."""
    return amplitude * np.exp(1j * np.angle(refs[step.phase]))


def stepped_references(
    refs: dict[str, complex], step: StepConfig, amplitude: float
) -> dict[str, complex]:
    """``refs`` with the stepped phase's phasor lengthened by ``step_delta``."""
    stepped = dict(refs)
    stepped[step.phase] = refs[step.phase] + step_delta(refs, step, amplitude)
    return stepped


def reference_step_run(
    cfg: RunConfig, refs: dict[str, complex], n_step: int, n_end: int
) -> Trajectory:
    """The closed-loop transient over grid points 0..n_end that
    ``simulate-closed`` exports: a run from the cold start to grid point
    ``n_step`` with ``refs``, continued from its final state with
    ``stepped_references``, or with ``refs`` when ``cfg`` has no step. The
    step is active from the first interval that starts at its grid point,
    as the lifted envelope's input is, and both runs lie on the ``cfg.sim``
    grid, so the join is a concatenation.

    The legs share only the constant dc bus, so each phase's leg runs on
    its own (``simulate_closed_loop``), and its two runs are one item of
    ``workers.fork_map``: legs b and c run in forked workers while this
    process runs leg a, on Linux with more than one usable CPU in a
    single-threaded process (for example one whose BLAS runs with
    OPENBLAS_NUM_THREADS=1), and all three run here in turn elsewhere. Each
    writes its columns of one shared array, and the trajectory is the same
    doubles either way. Every leg's run is split at ``n_step``: t = n0·dt +
    n·dt rounds with n0, so a run straight through that grid point differs
    in the last digits. A leg that fails raises its error here, the first
    failing leg in ``PHASES`` order.
    """
    spp = cfg.sim.steps_per_period
    stepped = refs if cfg.step is None else stepped_references(refs, cfg.step, cfg.step.amplitude)
    states = shared_empty((n_end + 1, 6 * len(PHASES)))

    def leg_transient(leg: int):
        phase = PHASES[leg]
        pre = simulate_closed_loop(cfg.params, cfg.ctrl, phase, refs[phase], spp, n_step)
        after = simulate_closed_loop(
            cfg.params, cfg.ctrl, phase, stepped[phase],
            spp, n_end - n_step, x0=pre.states[-1], n0=n_step,
        )
        states[: n_step + 1, leg :: len(PHASES)] = pre.states
        states[n_step:, leg :: len(PHASES)] = after.states

    fork_map(leg_transient, range(len(PHASES)))
    return Trajectory(cfg.params.period / spp, spp, 0, states)


# ----------------------------------------------------------- verify-steady


def run_verify_steady(cfg: RunConfig, out: Path, timestamp: bool) -> int:
    op = solve_operating_point(cfg)
    traj = settled_open_loop(cfg.params, cfg.m, cfg.sim)
    w1 = cfg.params.omega1
    spp = traj.steps_per_period
    t_grid = traj.t[-spp - 1 : -1]

    checks = []

    # Dominant-component agreement and one-period waveform match.
    for var in STATE_VARIABLES:
        for p in PHASES:
            hss = op.spectrum(var, p)
            sim = settled_spectrum(traj, var, p, cfg.h, w1)
            write_spectrum_csv(out / f"spectrum_hss_{var}_{p}.csv", hss, timestamp)
            write_spectrum_csv(out / f"spectrum_sim_{var}_{p}.csv", sim, timestamp)

            rel_error, dominant = compare_spectra(hss, sim)
            mask = dominant & (np.abs(np.arange(-cfg.h, cfg.h + 1)) <= 3)
            worst = float(np.max(rel_error[mask])) if np.any(mask) else 0.0
            checks.append(
                (
                    f"dominant {var} {p}",
                    worst <= DOMINANT_REL_TOL,
                    f"max rel err {worst:.4%} (tol {DOMINANT_REL_TOL:.0%})",
                )
            )

            wave_hss = synthesize(hss, w1, t_grid, floor=op.symmetry_floor)
            wave_sim = traj.series(var, p)[-spp - 1 : -1]
            err = nrmse(wave_sim, wave_hss)
            write_waveform_csv(out / f"waveform_{var}_{p}.csv", t_grid, wave_hss, wave_sim, timestamp)
            checks.append(
                (
                    f"waveform {var} {p}",
                    err <= WAVEFORM_NRMSE_TOL,
                    f"NRMSE {err:.4%} (tol {WAVEFORM_NRMSE_TOL:.0%})",
                )
            )

    checks.extend(spectral_content_checks(traj, cfg))

    checks.append(energy_balance_check(power_balance(traj.states[-spp - 1 : -1], cfg.params)))

    ok = write_report(
        out / "report.txt", f"steady-state verification (m={cfg.m}, h={cfg.h})", checks, timestamp
    )
    return 0 if ok else 1


def spectral_content_checks(traj: Trajectory, cfg: RunConfig) -> list[tuple[str, bool, str]]:
    """Structural claims about the settled spectra of a healthy operating point:
    circulating currents carry dc plus even harmonics, capacitor voltages are
    dominated by their first three harmonics, ac currents are near-sinusoidal.
    """
    w1 = cfg.params.omega1
    h = CLAIMS_ORDER
    checks = []
    for p in PHASES:
        ic = settled_spectrum(traj, "i_c", p, h, w1)
        even = min(abs(ic[h]), abs(ic[h + 2]))
        odd = max(abs(ic[h + 1]), abs(ic[h + 3]))
        checks.append(
            (
                f"circulating dc/2nd dominance {p}",
                even >= ODD_HARMONIC_RATIO * odd,
                f"min(dc,2nd)={even:.4g} A vs {ODD_HARMONIC_RATIO}x max(1st,3rd)={ODD_HARMONIC_RATIO * odd:.4g} A",
            )
        )
    for var in ("v_cu", "v_cl"):
        for p in PHASES:
            vc = np.abs(settled_spectrum(traj, var, p, h, w1)[h:])
            floor = 1e-6 * vc.max()
            under = [f"{name} {v:.4g} V" for name, v in zip(LOW_HARMONICS, vc) if not v > floor]
            high = vc[4:].max()
            limit = HIGH_HARMONIC_FRACTION * vc[3]
            checks.append(
                (
                    f"capacitor harmonic content {var} {p}",
                    not under and high < limit,
                    f"4th+ max {high:.4g} V vs {HIGH_HARMONIC_FRACTION:.0%} of 3rd = {limit:.4g} V; "
                    f"{', '.join(under) + ' under' if under else 'dc to 3rd above'} "
                    f"the floor {floor:.4g} V",
                )
            )
    for p in PHASES:
        ig = settled_spectrum(traj, "i_g", p, max(h, 10), w1)
        thd = total_harmonic_distortion(ig)
        checks.append(
            (
                f"ac current distortion {p}",
                thd < AC_CURRENT_THD_MAX,
                f"THD {thd:.4%} (max {AC_CURRENT_THD_MAX:.0%})",
            )
        )
    return checks


# --------------------------------------------------------- verify-smallsig


@dataclass
class SmallsigComparison:
    """Perturbation trajectories of one step amplitude over the window."""

    t: np.ndarray
    nonlinear: dict[str, np.ndarray]      # keyed 'i_c', 'i_g' (phase of the step)
    reconstructed: dict[str, np.ndarray]
    nrmse: dict[str, float]
    pre_step_peak: dict[str, float]
    post_step_peak: dict[str, float]
    envelope: EnvelopeResponse


class SmallsigContext:
    """Shared state for small-signal verification runs.

    Builds the operating point, the lifted model and the closed-loop
    periodic orbit at the step's grid point once; individual step amplitudes
    reuse them. The comparison reads the stepped phase alone, and the phase
    legs share only the constant dc bus, so the orbit and the stepped runs
    cover that phase's leg alone. The orbit comes from Newton shooting
    (``settled_closed_loop``) started from the stepped leg of the operating
    point with its controller states at the step instant, and is found on
    first use, so an unstable model is reported without it. Repeated, it is
    the run without the step. The step comes at a whole-period grid point
    and the comparison window lasts ``window_periods`` whole periods of the
    ``cfg.sim`` grid, the same grid the lifted envelope is sampled on.
    """

    def __init__(self, cfg: RunConfig):
        if cfg.step is None:
            raise SchemaViolationError("[step]: section required for this scenario")
        _require_reference_phasors(cfg)
        self.cfg = cfg
        self.op, self.model = build_smallsignal_model(cfg)
        self.refs = references_from_operating_point(self.op, cfg.params)
        self.eig = eigenvalues(self.model)
        self.spp = cfg.sim.steps_per_period
        self.dt = cfg.params.period / self.spp
        self.n_step = step_grid_index(cfg)
        self.window_steps = cfg.step.window_periods * self.spp

    @cached_property
    def orbit(self) -> PeriodicOrbit:
        """The stepped leg's closed-loop orbit with the unstepped reference,
        one period from the step's grid point."""
        cfg = self.cfg
        guess = operating_state_at(self.op, cfg.params, cfg.ctrl, self.refs, self.n_step * self.dt)
        phase = cfg.step.phase
        leg = guess.reshape(-1, len(PHASES))[:, PHASES.index(phase)]
        return settled_closed_loop(
            cfg.params, cfg.ctrl, phase, self.refs[phase], self.spp, self.n_step, leg
        )

    def compare(self, amplitude: float) -> SmallsigComparison:
        """The stepped leg's run from the orbit's state at the step against
        the lifted envelope of the stepped phase's model; the nonlinear
        perturbation is that run minus the orbit repeated over the window,
        the run without the step."""
        cfg = self.cfg
        phase = cfg.step.phase
        orbit = self.orbit.trajectory
        delta = step_delta(self.refs, cfg.step, amplitude)
        stepped = simulate_closed_loop(
            cfg.params, cfg.ctrl, phase, self.refs[phase] + delta,
            self.spp, self.window_steps, x0=orbit.states[0], n0=self.n_step,
        )
        t_step = self.n_step * self.dt
        model = self.model.for_phase(phase)
        env = envelope_response(
            model,
            lifted_reference_step(model, delta),
            t_end=t_step + self.window_steps * self.dt,
            dt=self.dt,
            t_start=t_step,
        )

        t = env.t
        nonlinear = {}
        reconstructed = {}
        nrmse_map = {}
        pre_peak = {}
        post_peak = {}
        for var in ("i_c", "i_g"):
            periodic = orbit.series(var, phase)
            d_nl = stepped.series(var, phase) - np.resize(periodic[:-1], self.window_steps + 1)
            d_hss = reconstruct_perturbation(env, var)
            nonlinear[var] = d_nl
            reconstructed[var] = d_hss
            nrmse_map[var] = nrmse(d_nl, d_hss)
            pre_peak[var] = float(np.max(np.abs(periodic)))
            post_peak[var] = float(np.max(np.abs(stepped.series(var, phase)[-self.spp - 1 :])))

        return SmallsigComparison(
            t=t,
            nonlinear=nonlinear,
            reconstructed=reconstructed,
            nrmse=nrmse_map,
            pre_step_peak=pre_peak,
            post_step_peak=post_peak,
            envelope=env,
        )


def run_verify_smallsig(cfg: RunConfig, out: Path, timestamp: bool) -> int:
    ctx = SmallsigContext(cfg)
    write_eigenvalue_csv(out / "eigenvalues.csv", ctx.eig, timestamp)

    checks = [stability_check(ctx.eig)]
    if not checks[0][1]:
        write_report(out / "report.txt", "small-signal verification", checks, timestamp)
        return 1

    comp = ctx.compare(cfg.step.amplitude)
    for var in ("i_c", "i_g"):
        write_waveform_csv(
            out / f"perturbation_{var}_{cfg.step.phase}.csv",
            comp.t,
            comp.reconstructed[var],
            comp.nonlinear[var],
            timestamp,
        )
        checks.append(
            (
                f"perturbation NRMSE {var} {cfg.step.phase}",
                comp.nrmse[var] <= SMALLSIG_NRMSE_TOL,
                f"{comp.nrmse[var]:.4%} (tol {SMALLSIG_NRMSE_TOL:.0%})",
            )
        )
        checks.append(
            (
                f"post-step amplitude {var} {cfg.step.phase}",
                comp.post_step_peak[var] > comp.pre_step_peak[var],
                f"{comp.pre_step_peak[var]:.6g} A -> {comp.post_step_peak[var]:.6g} A",
            )
        )

    _write_envelope_csv(
        out / f"envelope_i_c_{cfg.step.phase}.csv",
        comp.envelope,
        "i_c",
        max(1, ctx.spp // 8),
        timestamp,
    )

    ok = write_report(
        out / "report.txt",
        f"small-signal verification (step {cfg.step.amplitude:.4g} V on phase {cfg.step.phase})",
        checks,
        timestamp,
    )
    return 0 if ok else 1


def _write_envelope_csv(
    path: Path, env: EnvelopeResponse, variable: str, thin: int, timestamp: bool
):
    """Envelopes of one leg variable at every ``thin``-th grid point."""
    block = env.block(variable)[::thin]
    columns = ["t"]
    for k in range(-env.h, env.h + 1):
        columns += [f"re_k{k}", f"im_k{k}"]
    rows = (
        (t, *(part for c in coeffs for part in (c.real, c.imag)))
        for t, coeffs in zip(env.t[::thin], block)
    )
    write_csv(path, columns, rows, timestamp)


# ------------------------------------------------------------------ sweep


STEADY_SWEEP_COLUMNS = (
    "value", "i_ca_k0", "i_ca_k2", "v_cua_k1", "v_cua_k2", "v_cua_k3", "i_ga_k1", "error",
)
SMALLSIG_SWEEP_COLUMNS = ("value", "max_eig_real", "error")


def _mag(c: np.ndarray, k: int) -> float:
    """|c_k| of the coefficient row ``c``, 0 beyond its order."""
    h = c.size // 2
    return abs(c[h + k]) if k <= h else 0.0


def steady_sweep_row(cfg: RunConfig) -> list[float]:
    op = solve_operating_point(cfg)
    ic = op.spectrum("i_c", "a")
    vc = op.spectrum("v_cu", "a")
    ig = op.spectrum("i_g", "a")
    return [_mag(ic, 0), _mag(ic, 2), _mag(vc, 1), _mag(vc, 2), _mag(vc, 3), _mag(ig, 1)]


def smallsig_sweep_row(cfg: RunConfig) -> list[float]:
    _, model = build_smallsignal_model(cfg)
    return [growth_rate(eigenvalues(model))]


def run_sweep(cfg: RunConfig, out: Path, timestamp: bool) -> int:
    if cfg.sweep is None:
        raise SchemaViolationError("[sweep]: section required for the sweep scenario")
    sweep = cfg.sweep
    if sweep.scenario == "steady":
        columns, row = STEADY_SWEEP_COLUMNS, steady_sweep_row
    else:
        columns, row = SMALLSIG_SWEEP_COLUMNS, smallsig_sweep_row

    rows = []
    failures = 0
    for value in sweep.values:
        try:
            point = apply_sweep_value(cfg, sweep.key, value)
            rows.append([value, *row(point), ""])
        except (HssError, ValueError) as exc:  # recorded per value, sweep continues
            failures += 1
            pad = len(columns) - 2
            rows.append([value, *([""] * pad), str(exc).replace(",", ";")])

    write_csv(out / "sweep.csv", columns, rows, timestamp)
    checks = [
        ("sweep points", failures == 0, f"{len(sweep.values) - failures}/{len(sweep.values)} succeeded")
    ]
    ok = write_report(out / "report.txt", f"sweep over {sweep.key}", checks, timestamp)
    return 0 if ok else 1


SCENARIO_RUNNERS = {
    "steady": run_steady,
    "smallsig": run_smallsig,
    "simulate-open": run_simulate_open,
    "simulate-closed": run_simulate_closed,
    "verify-steady": run_verify_steady,
    "verify-smallsig": run_verify_smallsig,
    "sweep": run_sweep,
}
