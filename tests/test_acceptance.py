"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. Heavy artifacts (the open-loop shooting orbit and the
closed-loop step comparisons) come from session fixtures and are shared
across criteria.
"""

import dataclasses
import time

import numpy as np
import pytest

from hssmmc import (
    compare_spectra,
    open_loop_insertion_indices,
    synthesize,
    toeplitz,
)
from hssmmc.cli import main
from hssmmc.config import apply_sweep_value, load_config
from hssmmc.pipelines import (
    DOMINANT_FRACTION,
    SmallsigContext,
    DOMINANT_REL_TOL,
    SMALLSIG_NRMSE_TOL,
    WAVEFORM_NRMSE_TOL,
    nrmse,
    solve_operating_point,
    steady_sweep_row,
)
from hssmmc.plant import PHASES, STATE_VARIABLES
from hssmmc.simulate import (
    settled_open_loop,
    settled_spectrum,
    total_harmonic_distortion,
)
from hssmmc.smallsignal import (
    envelope_response,
    lifted_reference_step,
    operating_state_at,
    references_from_operating_point,
)

from conftest import closed_loop_rhs, linearized_A, settled_state


def report_line(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")


def test_criterion_1_insertion_index_operator_fixtures():
    start = time.perf_counter()
    worst = 0.0
    for m in (0.8, 0.31, 1.0):
        n_u, n_l = open_loop_insertion_indices(m, 3)
        phis = {"a": 0.0, "b": 2 * np.pi / 3, "c": -2 * np.pi / 3}
        for row, p in enumerate(PHASES):
            for arm, sign in ((n_u, -1.0), (n_l, +1.0)):
                T = toeplitz(arm[row])
                expected = 0.5 * np.eye(7, dtype=complex)
                up = sign * m / 4 * np.exp(-1j * phis[p])
                lo = sign * m / 4 * np.exp(+1j * phis[p])
                for i in range(6):
                    expected[i + 1, i] = up
                    expected[i, i + 1] = lo
                worst = max(worst, float(np.max(np.abs(T - expected))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-15 and elapsed < 1.0
    report_line(1, "insertion-index operator fixtures", ok,
                f"max entry deviation {worst:.2e} (tol 1e-15), {elapsed:.3f} s")
    assert worst <= 1e-15
    assert elapsed < 1.0

    # Spot values: phase-a off-diagonal and phase-b upper entry at m = 0.8.
    n_u, _ = open_loop_insertion_indices(0.8, 3)
    assert toeplitz(n_u[0])[0, 1] == pytest.approx(-0.2, abs=1e-15)
    assert toeplitz(n_u[1])[0, 1] == pytest.approx(
        0.1 * (1 - 1j * np.sqrt(3.0)), abs=1e-15
    )


def steady_agreement(cfg, op, traj):
    """Worst dominant-component error and worst one-period waveform NRMSE
    of the lifted operating point against a settled trajectory."""
    w1 = cfg.params.omega1
    spp = traj.steps_per_period
    t_grid = traj.t[-spp - 1 : -1]
    worst_dom = 0.0
    worst_wave = 0.0
    for var in STATE_VARIABLES:
        for p in PHASES:
            hss_hv = op.spectrum(var, p)
            sim_hv = settled_spectrum(traj, var, p, cfg.h, w1)
            rep = compare_spectra(hss_hv, sim_hv, dominant_fraction=DOMINANT_FRACTION)
            mask = rep.dominant & (np.abs(rep.harmonic_indices) <= 3)
            worst_dom = max(worst_dom, float(np.max(rep.rel_error[mask])))
            wave_hss = synthesize(hss_hv, t_grid)
            wave_sim = traj.series(var, p)[-spp - 1 : -1]
            worst_wave = max(worst_wave, nrmse(wave_sim, wave_hss))
    return worst_dom, worst_wave


def test_criterion_2_steady_state_oracle_equivalence(sec3_cfg, sec3_op, sec3_orbit):
    worst_dom, worst_wave = steady_agreement(sec3_cfg, sec3_op, sec3_orbit)
    ok = worst_dom <= DOMINANT_REL_TOL and worst_wave <= WAVEFORM_NRMSE_TOL
    report_line(2, "steady-state oracle equivalence", ok,
                f"dominant rel err {worst_dom:.3%} (tol 2%), waveform NRMSE {worst_wave:.3%} (tol 3%)")
    assert worst_dom <= DOMINANT_REL_TOL
    assert worst_wave <= WAVEFORM_NRMSE_TOL


def test_criterion_3_spectral_content_claims(sec3_cfg, sec3_orbit):
    w1 = sec3_cfg.params.omega1
    ratios = []
    for p in PHASES:
        ic = settled_spectrum(sec3_orbit, "i_c", p, 8, w1)
        ratios.append(min(abs(ic[0]), abs(ic[2])) / max(abs(ic[1]), abs(ic[3])))
    even_over_odd = min(ratios)

    high_fraction = 0.0
    low_ok = True
    for var in ("v_cu", "v_cl"):
        for p in PHASES:
            vc = settled_spectrum(sec3_orbit, var, p, 8, w1)
            floor = 1e-6 * max(abs(vc[k]) for k in range(9))
            low_ok &= all(abs(vc[k]) > floor for k in (0, 1, 2, 3))
            high_fraction = max(
                high_fraction, max(abs(vc[k]) for k in range(4, 9)) / abs(vc[3])
            )

    thd = max(
        total_harmonic_distortion(settled_spectrum(sec3_orbit, "i_g", p, 10, w1))
        for p in PHASES
    )
    ok = even_over_odd >= 10.0 and low_ok and high_fraction < 0.2 and thd < 0.01
    report_line(3, "spectral-content claims", ok,
                f"dc/2nd over odd {even_over_odd:.1f}x (min 10x), "
                f"4th+/3rd {high_fraction:.3f} (max 0.2), THD {thd:.3%} (max 1%)")
    assert even_over_odd >= 10.0
    assert low_ok
    assert high_fraction < 0.2
    assert thd < 0.01


def test_criterion_4_smallsignal_oracle_equivalence(smallsig_comparisons):
    comp = smallsig_comparisons[10e3]
    ok = all(comp.nrmse[v] <= SMALLSIG_NRMSE_TOL for v in ("i_c", "i_g")) and all(
        comp.post_step_peak[v] > comp.pre_step_peak[v] for v in ("i_c", "i_g")
    )
    report_line(4, "small-signal oracle equivalence", ok,
                f"NRMSE i_c {comp.nrmse['i_c']:.3%}, i_g {comp.nrmse['i_g']:.3%} (tol 10%); "
                f"amplitudes grew {comp.pre_step_peak['i_c']:.1f}->{comp.post_step_peak['i_c']:.1f} A, "
                f"{comp.pre_step_peak['i_g']:.1f}->{comp.post_step_peak['i_g']:.1f} A")
    for var in ("i_c", "i_g"):
        assert comp.nrmse[var] <= SMALLSIG_NRMSE_TOL
        assert comp.post_step_peak[var] > comp.pre_step_peak[var]


def test_table1_preset_smallsignal_verification():
    """Criterion 4's gates on table1-prototype at preset length: the
    configured step, its grid and its window as shipped."""
    cfg = load_config("table1-prototype")
    ctx = SmallsigContext(cfg)
    comp = ctx.compare(cfg.step.amplitude)
    print(f"table1-prototype: Newton shooting {ctx.orbit.iterations} iterations, "
          f"defect {ctx.orbit.defect:.1e}, Floquet multiplier {ctx.orbit.multiplier:.3f}; "
          f"NRMSE i_c {comp.nrmse['i_c']:.3%}, i_g {comp.nrmse['i_g']:.3%} (tol 10%)")
    for var in ("i_c", "i_g"):
        assert comp.nrmse[var] <= SMALLSIG_NRMSE_TOL
        assert comp.post_step_peak[var] > comp.pre_step_peak[var]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The absolute peak-error ratio lands in [3.0, 3.2], not [1.8, 2.2]: the "
        "linearization's systematic (first-order) mismatch is small enough that "
        "the genuinely quadratic nonlinear response dominates the error at these "
        "step amplitudes. Halving the amplitude still at least halves the error. "
        "See README.md, section 'Expected failure'."
    ),
)
def test_criterion_5_linearization_first_order_convergence(smallsig_comparisons):
    ten, five = smallsig_comparisons[10e3], smallsig_comparisons[5e3]
    ratios = {v: ten.peak_error[v] / five.peak_error[v] for v in ("i_c", "i_g")}
    ok = all(1.8 <= r <= 2.2 for r in ratios.values())
    report_line(5, "linearization first-order convergence", ok,
                f"peak-error ratios i_c {ratios['i_c']:.2f}, i_g {ratios['i_g']:.2f} "
                f"(required within [1.8, 2.2]; >= 2 means the error at least halves)")
    for r in ratios.values():
        assert 1.8 <= r <= 2.2


def test_criterion_6_analytic_jacobian_check(sec3_cfg, sec3_op):
    params, ctrl = sec3_cfg.params, sec3_cfg.ctrl
    refs = references_from_operating_point(sec3_op, params)
    base = np.array([refs[p] for p in PHASES])
    rhs = closed_loop_rhs(params, ctrl, base)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for t in rng.uniform(0.0, params.period, size=50):
        x_op = operating_state_at(sec3_op, params, ctrl, refs, t)
        A_an = linearized_A(sec3_op, params, ctrl, t)
        J = np.zeros((18, 18))
        for j in range(18):
            e = np.zeros(18)
            step = max(abs(x_op[j]), 1.0) * 1e-5
            e[j] = step
            J[:, j] = (rhs(t, x_op + e) - rhs(t, x_op - e)) / (2 * step)
        for i in range(18):
            denom = np.linalg.norm(A_an[i]) or 1.0
            worst = max(worst, float(np.linalg.norm(J[i] - A_an[i]) / denom))
    ok = worst <= 1e-5
    report_line(6, "analytic Jacobian check", ok,
                f"worst per-row rel err {worst:.2e} over 50 points (tol 1e-5)")
    assert worst <= 1e-5


def test_criterion_7_h_convergence(sec3_cfg):
    orders = (1, 2, 3, 5, 7)
    rows = {h: np.array(steady_sweep_row(apply_sweep_value(sec3_cfg, "h", h))) for h in orders}
    ref = rows[7]

    # Dominant metric set at the reference order: i_c dc/2nd, v_cu 1st..3rd,
    # i_g 1st, keeping entries above the dominance share of their family peak.
    op7 = solve_operating_point(apply_sweep_value(sec3_cfg, "h", 7))
    peaks = [
        np.max(np.abs(op7.spectrum("i_c", "a").coeffs)),
        np.max(np.abs(op7.spectrum("i_c", "a").coeffs)),
        np.max(np.abs(op7.spectrum("v_cu", "a").coeffs)),
        np.max(np.abs(op7.spectrum("v_cu", "a").coeffs)),
        np.max(np.abs(op7.spectrum("v_cu", "a").coeffs)),
        np.max(np.abs(op7.spectrum("i_g", "a").coeffs)),
    ]
    included = ref >= DOMINANT_FRACTION * np.array(peaks)

    change_3_to_7 = float(np.max(np.abs(rows[3] - ref)[included] / ref[included]))
    deltas = [
        float(np.max(np.abs(rows[b] - rows[a])[included] / ref[included]))
        for a, b in zip(orders, orders[1:])
    ]
    monotone = all(x > y for x, y in zip(deltas, deltas[1:]))
    ok = change_3_to_7 < 0.005 and monotone
    report_line(7, "h-convergence", ok,
                f"dominant change h=3 to 7: {change_3_to_7:.4%} (tol 0.5%); "
                f"deltas {['%.2e' % d for d in deltas]} monotone={monotone}")
    assert change_3_to_7 < 0.005
    assert monotone


def test_criterion_8_invariant_suite(sec3_cfg, sec3_op, smallsig_ctx):
    params = sec3_cfg.params

    defect = max(
        sec3_op.spectrum(var, p).conjugate_symmetry_defect()
        for var in STATE_VARIABLES
        for p in PHASES
    )

    residual_ok = sec3_op.residual <= 1e-9 * params.V_dc

    k = np.arange(-3, 4)
    shift = np.exp(-1j * k * 2 * np.pi / 3)
    rotation = 0.0
    for var in STATE_VARIABLES:
        a = sec3_op.spectrum(var, "a").coeffs
        b = sec3_op.spectrum(var, "b").coeffs
        scale = np.max(np.abs(a)) or 1.0
        rotation = max(rotation, float(np.max(np.abs(b - a * shift)) / scale))

    op0 = solve_operating_point(dataclasses.replace(sec3_cfg, m=0.0))
    eq_err = 0.0
    for p in PHASES:
        eq_err = max(eq_err, np.max(np.abs(op0.spectrum("i_c", p).coeffs)) / params.V_dc)
        eq_err = max(eq_err, np.max(np.abs(op0.spectrum("i_g", p).coeffs)) / params.V_dc)
        dev = op0.spectrum("v_cu", p).coeffs.copy()
        dev[3] -= params.V_dc
        eq_err = max(eq_err, float(np.max(np.abs(dev))) / params.V_dc)

    model = smallsig_ctx.model
    delta = 10e3 * np.exp(1j * np.angle(smallsig_ctx.refs["a"]))
    u = lifted_reference_step(model, "a", delta)
    x_alg = settled_state(model, u)
    dt = 0.09 / np.max(np.abs(smallsig_ctx.eig))
    env = envelope_response(model, u, t_end=2.8, dt=dt)
    env_err = float(np.linalg.norm(env.states[-1] - x_alg) / np.linalg.norm(x_alg))

    ok = (
        defect <= 1e-9
        and residual_ok
        and rotation <= 1e-6
        and eq_err <= 1e-12
        and env_err <= 1e-3
    )
    report_line(8, "invariant suite", ok,
                f"conj defect {defect:.1e} (1e-9), residual ok={residual_ok}, "
                f"rotation {rotation:.1e} (1e-6), m=0 deviation {eq_err:.1e}, "
                f"envelope settled err {env_err:.1e} (1e-3)")
    assert defect <= 1e-9
    assert residual_ok
    assert rotation <= 1e-6
    assert eq_err <= 1e-12
    assert env_err <= 1e-3


def test_criterion_9_rk4_self_convergence(sec3_cfg, sec3_orbit, sec3_op):
    w1 = sec3_cfg.params.omega1
    fine_cfg = dataclasses.replace(sec3_cfg.sim, steps_per_period=2 * sec3_cfg.sim.steps_per_period)
    fine = settled_open_loop(sec3_cfg.params, sec3_cfg.m, fine_cfg)

    worst = 0.0
    for var in STATE_VARIABLES:
        peak = np.max(np.abs(sec3_op.spectrum(var, "a").coeffs))
        coarse_hv = settled_spectrum(sec3_orbit, var, "a", 3, w1)
        fine_hv = settled_spectrum(fine, var, "a", 3, w1)
        for k in range(0, 4):
            mag_f = abs(fine_hv[k])
            if mag_f >= DOMINANT_FRACTION * peak:
                worst = max(worst, abs(abs(coarse_hv[k]) - mag_f) / mag_f)
    ok = worst < 1e-4
    report_line(9, "RK4 self-convergence", ok,
                f"dominant-component change at halved step {worst:.2e} (tol 1e-4)")
    assert worst < 1e-4


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main([
            "verify-steady", "--config", "sec3-simulation",
            "--out", str(out), "--no-timestamp",
        ])
        assert code == 0
        outs.append(out)
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    identical = files1 == files2 and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in files1
    )
    report_line(10, "determinism", identical,
                f"{len(files1)} files byte-identical across two runs")
    assert identical


@pytest.mark.parametrize("preset", ["sec3-simulation", "table1-prototype"])
def test_inductive_load_steady_agreement(preset):
    """The lifted operating point matches the shooting orbit at X/R = 0.3."""
    cfg = load_config(preset)
    params = dataclasses.replace(
        cfg.params, L_load=0.3 * cfg.params.R_load / cfg.params.omega1
    )
    cfg = dataclasses.replace(cfg, params=params)
    worst_dom, worst_wave = steady_agreement(
        cfg, solve_operating_point(cfg), settled_open_loop(params, cfg.m, cfg.sim)
    )
    print(f"{preset} X/R = 0.3: dominant rel err {worst_dom:.3%}, waveform NRMSE {worst_wave:.3%}")
    assert worst_dom <= DOMINANT_REL_TOL
    assert worst_wave <= WAVEFORM_NRMSE_TOL
