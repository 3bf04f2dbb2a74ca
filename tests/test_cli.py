"""Command-line interface: exit codes, file emission, schema stability."""

import pytest

from hssmmc.cli import main
from hssmmc.plant import plant_coefficients

from conftest import unbalanced

FAST = """
[params]
R = 5.0
L = 0.05
C_sm = 2e-3
N = 10
V_dc = 1000.0
omega1 = 314.0
R_load = 10.0

[run]
m = 0.5
h = 3

[controller]
K_p = 0.6
K_r = 300.0
k_f = 1.0

[sim]
steps_per_period = 400
settle_periods = 8
total_periods = 10
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST, encoding="utf-8")
    return str(path)


def fast_config_with_step(tmp_path, period, phase="a"):
    path = tmp_path / f"step{period}{phase}.ini"
    step = f"\n[step]\nperiod = {period}\nphase = {phase}\namplitude = 15.0\nwindow_periods = 6\n"
    path.write_text(FAST + step, encoding="utf-8")
    return str(path)


def _unbalance_smallsignal_models(monkeypatch):
    """Make every small-signal model the pipelines build unbalanced over
    the phases (``conftest.unbalanced``: the i_cb block row perturbed)."""
    import hssmmc.pipelines as pipelines

    assemble = pipelines.assemble_smallsignal
    monkeypatch.setattr(
        pipelines, "assemble_smallsignal", lambda *args: unbalanced(assemble(*args))
    )


class TestExitCodes:
    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST.replace("m = 0.5", "m = 2.0"), encoding="utf-8")
        assert main(["steady", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_preset(self, tmp_path):
        assert main(["steady", "--config", "nope", "--out", str(tmp_path / "o")]) == 2

    def test_override_out_of_range(self, fast_config, tmp_path):
        code = main(["steady", "--config", fast_config, "--out", str(tmp_path / "o"), "--m", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("key, old, value", [("m", "0.5", "1.5"), ("h", "3", "-1")])
    def test_file_and_override_give_one_message(self, fast_config, tmp_path, capsys, key, old, value):
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST.replace(f"\n{key} = {old}\n", f"\n{key} = {value}\n"), encoding="utf-8")
        assert main(["steady", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        from_file = capsys.readouterr().err
        code = main(["steady", "--config", fast_config, "--out", str(tmp_path / "o"), f"--{key}", value])
        assert code == 2
        assert capsys.readouterr().err == from_file
        assert from_file.startswith(f"configuration error: {'modulation index m' if key == 'm' else 'h'} {value} ")

    @pytest.mark.parametrize("scenario", ["steady", "smallsig"])
    def test_zero_order_with_modulation(self, fast_config, tmp_path, capsys, scenario):
        code = main([scenario, "--config", fast_config, "--out", str(tmp_path / "o"), "--h", "0"])
        assert code == 2
        assert "h 0 cannot hold the fundamental of modulation index m 0.5" in capsys.readouterr().err

    def test_zero_order_without_modulation(self, fast_config, tmp_path):
        argv = ["steady", "--config", fast_config, "--out", str(tmp_path / "o"), "--h", "0", "--m", "0"]
        assert main(argv) == 0

    def test_unbalanced_model_is_a_numerical_failure(self, fast_config, tmp_path, capsys, monkeypatch):
        _unbalance_smallsignal_models(monkeypatch)
        assert main(["smallsig", "--config", fast_config, "--out", str(tmp_path / "o")]) == 3
        assert "PhaseImbalanceError" in capsys.readouterr().err

    def test_negative_order_override(self, fast_config, tmp_path, capsys):
        code = main(["steady", "--config", fast_config, "--out", str(tmp_path / "o"), "--h", "-1"])
        assert code == 2
        assert "h -1 is not a harmonic order" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("steps_per_period = 400", "dt = 5.1e-5"),
            ("total_periods = 10", "t_end = 0.2"),
            ("[controller]", "[step]\ntime = 0.1\nphase = a\namplitude = 15.0\n\n[controller]"),
        ],
        ids=["sim-dt", "sim-t_end", "step-time"],
    )
    def test_seconds_keys_are_config_errors(self, tmp_path, capsys, old, new):
        # Time is given on the grid only, so a key in seconds is unknown,
        # also a dt that does not divide the fundamental period (0.02001 s).
        path = tmp_path / "seconds.ini"
        path.write_text(FAST.replace(old, new), encoding="utf-8")
        assert main(["verify-steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        key = new.split(" = ")[0].split("\n")[-1]
        assert f"] {key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("total_periods = 10", "total_periods = 8"),
            ("steps_per_period = 400", "steps_per_period = 3"),
            ("[controller]", "[step]\nperiod = 0\nphase = a\namplitude = 15.0\n\n[controller]"),
        ],
        ids=["total-not-above-settle", "too-few-steps", "step-period-0"],
    )
    def test_grid_rules_checked_at_parse(self, tmp_path, old, new):
        # steady runs no simulation, so exit code 2 comes from the parse.
        path = tmp_path / "grid.ini"
        path.write_text(FAST.replace(old, new), encoding="utf-8")
        assert main(["steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_success(self, fast_config, tmp_path):
        assert main(["steady", "--config", fast_config, "--out", str(tmp_path / "o")]) == 0


class TestSteadyScenario:
    def test_emits_spectra_and_report(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["steady", "--config", fast_config, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert "report.txt" in files
        spectra = [f for f in files if f.startswith("spectrum_hss_")]
        assert len(spectra) == 12
        assert "spectrum_hss_i_c_a.csv" in spectra

    def test_spectrum_schema(self, fast_config, tmp_path):
        out = tmp_path / "out"
        main(["steady", "--config", fast_config, "--out", str(out), "--no-timestamp"])
        lines = (out / "spectrum_hss_v_cu_a.csv").read_text().splitlines()
        assert lines[0] == "k,real,imag,magnitude,phase_deg"
        assert len(lines) == 1 + 7
        assert lines[1].startswith("-3,")

    def test_timestamp_header_toggle(self, fast_config, tmp_path):
        out1 = tmp_path / "o1"
        main(["steady", "--config", fast_config, "--out", str(out1)])
        with_ts = (out1 / "spectrum_hss_i_c_a.csv").read_text().splitlines()
        assert with_ts[0].startswith("# generated ")

    def test_determinism_without_timestamp(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["steady", "--config", fast_config, "--out", str(out1), "--no-timestamp"])
        main(["steady", "--config", fast_config, "--out", str(out2), "--no-timestamp"])
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_order_override(self, fast_config, tmp_path):
        out = tmp_path / "out"
        main(["steady", "--config", fast_config, "--out", str(out), "--no-timestamp", "--h", "2"])
        lines = (out / "spectrum_hss_i_c_a.csv").read_text().splitlines()
        assert len(lines) == 1 + 5

    def test_report_checks_energy_balance(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["steady", "--config", fast_config, "--out", str(out), "--no-timestamp"]) == 0
        report = (out / "report.txt").read_text().splitlines()
        assert report[1].startswith("[PASS] condition: ")
        assert report[2].startswith("[PASS] energy balance: ")
        assert report[3] == "result: PASS"

    def test_sign_error_in_lift_fails_energy_balance(self, fast_config, tmp_path, monkeypatch):
        from hssmmc import steady

        def flipped(params, n_u, n_l):
            # Wrong sign of the upper-capacitor voltage in the phase-current rows.
            model = plant_coefficients(params, n_u, n_l)
            model.A0[9:12, 3:6] *= -1.0
            return model

        monkeypatch.setattr(steady, "plant_coefficients", flipped)
        out = tmp_path / "out"
        assert main(["steady", "--config", fast_config, "--out", str(out), "--no-timestamp"]) == 1
        assert "[FAIL] energy balance: " in (out / "report.txt").read_text()


class TestSimulateScenarios:
    def test_open_loop_trajectory_schema(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate-open", "--config", fast_config, "--out", str(out), "--no-timestamp"]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == (
            "time,i_ca,i_cb,i_cc,v_cua,v_cub,v_cuc,v_cla,v_clb,v_clc,i_ga,i_gb,i_gc"
        )
        assert len([f for f in out.iterdir() if f.name.startswith("spectrum_sim_")]) == 12

    def test_closed_loop_trajectory_includes_controller(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate-closed", "--config", fast_config, "--out", str(out), "--no-timestamp"]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.endswith("pr_a1,pr_a2,pr_b1,pr_b2,pr_c1,pr_c2")

    def test_closed_loop_step_shares_the_smallsig_grid(self, tmp_path, monkeypatch):
        # simulate-closed exports the transient from the cold start, while
        # verify-smallsig starts its baseline and stepped runs on the periodic
        # orbit at the step, so their states differ. Both lie on one grid and
        # time axis from the step row on, and the baseline repeats the orbit.
        import numpy as np

        from hssmmc import pipelines
        from hssmmc.config import load_config
        from hssmmc.simulate import SETTLE_RTOL, settling_profile

        cfgp = fast_config_with_step(tmp_path, 4, "b")
        exported = []
        monkeypatch.setattr(pipelines, "write_trajectory_csv", lambda path, traj, *a: exported.append(traj))
        assert main(["simulate-closed", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0
        (traj,) = exported

        cfg = load_config(cfgp)
        ctx = pipelines.SmallsigContext(cfg)
        baseline, stepped = ctx.window(cfg.step.amplitude)

        n_step = 4 * 400  # t_end = t_step + window
        assert traj.t.size == n_step + stepped.t.size
        assert traj.steps_per_period == stepped.steps_per_period == baseline.steps_per_period == 400
        assert np.array_equal(traj.t, np.arange(traj.t.size) * (cfg.params.period / 400))
        assert np.array_equal(traj.t[n_step:], stepped.t)
        assert np.array_equal(baseline.t, stepped.t)
        assert np.array_equal(baseline.states[0], ctx.orbit.trajectory.states[0])
        assert np.max(settling_profile(baseline, n_periods=5)) <= SETTLE_RTOL

    def test_closed_loop_step_at_or_after_the_end_leaves_the_run_unstepped(self, fast_config, tmp_path):
        def trajectory(config, name):
            out = tmp_path / name
            assert main(["simulate-closed", "--config", config, "--out", str(out), "--no-timestamp"]) == 0
            return (out / "trajectory.csv").read_text()

        plain = trajectory(fast_config, "plain")
        for period in (10, 12):  # total_periods = 10
            assert trajectory(fast_config_with_step(tmp_path, period), f"step{period}") == plain

    @pytest.mark.parametrize("scenario", ["simulate-closed", "verify-smallsig"])
    def test_step_at_start_is_a_config_error(self, tmp_path, scenario):
        cfgp = fast_config_with_step(tmp_path, 0)
        assert main([scenario, "--config", cfgp, "--out", str(tmp_path / "o")]) == 2


class TestSweepScenario:
    def test_steady_sweep_schema(self, fast_config, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", fast_config, "--out", str(out), "--no-timestamp",
            "--sweep-key", "h", "--sweep-values", "1,2,3",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,i_ca_k0,i_ca_k2,v_cua_k1,v_cua_k2,v_cua_k3,i_ga_k1,error"
        assert len(lines) == 4

    def test_empty_values_header_only(self, fast_config, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", fast_config, "--out", str(out), "--no-timestamp",
            "--sweep-key", "m", "--sweep-values", "",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines == ["value,i_ca_k0,i_ca_k2,v_cua_k1,v_cua_k2,v_cua_k3,i_ga_k1,error"]

    def test_unsweepable_override_key_is_a_config_error(self, fast_config, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", fast_config, "--out", str(out), "--no-timestamp",
            "--sweep-key", "foo", "--sweep-values", "1,2",
        ])
        assert code == 2
        assert not (out / "sweep.csv").exists()

    def test_per_value_errors_recorded(self, fast_config, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", fast_config, "--out", str(out), "--no-timestamp",
            "--sweep-key", "m", "--sweep-values", "0.5,2.0",
        ])
        assert code == 1
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].endswith(",")            # first value succeeded
        assert "outside" in lines[2]             # second value recorded its error

    def test_unbalanced_model_gives_an_error_row(self, fast_config, tmp_path, monkeypatch):
        _unbalance_smallsignal_models(monkeypatch)
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(_with_sweep(fast_config, tmp_path)), "--out", str(out),
            "--no-timestamp",
        ])
        assert code == 1
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows and all("not balanced over the phases" in row for row in rows)

    def test_programming_errors_propagate(self, fast_config, tmp_path, monkeypatch):
        def broken(cfg):
            raise TypeError("broken sweep point")

        monkeypatch.setattr("hssmmc.pipelines.steady_sweep_row", broken)
        with pytest.raises(TypeError, match="broken sweep point"):
            main([
                "sweep", "--config", fast_config, "--out", str(tmp_path / "out"),
                "--no-timestamp", "--sweep-key", "m", "--sweep-values", "0.5",
            ])

    def test_second_harmonic_grows_with_modulation(self, fast_config, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", fast_config, "--out", str(out), "--no-timestamp",
            "--sweep-key", "m", "--sweep-values", "0,0.4,0.8",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        k2 = [float(line.split(",")[2]) for line in lines[1:]]
        assert k2[0] < k2[1] < k2[2]

    def test_smallsig_sweep_metric(self, fast_config, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(_with_sweep(fast_config, tmp_path)), "--out", str(out),
            "--no-timestamp",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,max_eig_real,error"
        assert float(lines[1].split(",")[1]) < 0.0


def test_smallsig_sweep_over_omega1_has_no_error_rows(fast_config, tmp_path):
    # The controller resonates at the plant's omega1, so sweeping it moves both.
    from pathlib import Path

    text = Path(fast_config).read_text() + "\n[sweep]\nkey = omega1\nvalues = 314.0, 300.0\nscenario = smallsig\n"
    cfgp = tmp_path / "omega1.ini"
    cfgp.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out), "--no-timestamp"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [314.0, 300.0]
    assert all(row.endswith(",") for row in rows)


def _with_sweep(fast_config, tmp_path):
    from pathlib import Path

    text = Path(fast_config).read_text() + "\n[sweep]\nkey = K_p\nvalues = 0.6\nscenario = smallsig\n"
    path = tmp_path / "sweep.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestVerifyScenarios:
    def test_smallsig_pipeline_end_to_end(self, fast_config, tmp_path):
        from pathlib import Path

        text = Path(fast_config).read_text() + (
            "\n[step]\nperiod = 12\nphase = a\namplitude = 15.0\nwindow_periods = 6\n"
        )
        cfgp = tmp_path / "smallsig.ini"
        cfgp.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["verify-smallsig", "--config", str(cfgp), "--out", str(out), "--no-timestamp"])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            "eigenvalues.csv",
            "envelope_i_c_a.csv",
            "perturbation_i_c_a.csv",
            "perturbation_i_g_a.csv",
            "report.txt",
        ]
        header = (out / "perturbation_i_c_a.csv").read_text().splitlines()[0]
        assert header == "t,value_hss,value_sim,abs_error"
        report = (out / "report.txt").read_text()
        assert "perturbation NRMSE i_c a" in report
        assert "result: PASS" in report

    def test_smallsig_amplitudes_share_one_window_pass(self, tmp_path):
        from hssmmc.config import load_config
        from hssmmc.pipelines import SmallsigContext

        ctx = SmallsigContext(load_config(fast_config_with_step(tmp_path, 4)))
        many = ctx.compare_many([15.0, -7.5])
        for amplitude, comp in zip((15.0, -7.5), many):
            alone = ctx.compare(amplitude)
            assert comp.nrmse == alone.nrmse
            assert comp.peak_error == alone.peak_error
            assert comp.post_step_peak == alone.post_step_peak

    def test_steady_at_small_modulation_is_no_numerical_failure(self, tmp_path, capsys):
        # At m = 1e-6 the circulating-current spectrum is at the rounding
        # floor of the solution; its synthesis measures the imaginary
        # residual against that floor, not against its own peak (exit 3).
        out = tmp_path / "out"
        argv = ["verify-steady", "--config", "sec3-simulation", "--m", "1e-6"]
        code = main(argv + ["--out", str(out), "--no-timestamp"])
        assert code in (0, 1), capsys.readouterr().err
        assert (out / "waveform_i_c_a.csv").exists()

    def test_smallsig_requires_step_section(self, fast_config, tmp_path):
        out = tmp_path / "out"
        code = main(["verify-smallsig", "--config", fast_config, "--out", str(out)])
        assert code == 2

    def test_steady_requires_no_controller(self, tmp_path):
        bare = FAST.split("[controller]")[0] + "\n[sim]\nsteps_per_period = 400\nsettle_periods = 8\ntotal_periods = 10\n"
        cfgp = tmp_path / "bare.ini"
        cfgp.write_text(bare, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["verify-steady", "--config", str(cfgp), "--out", str(out), "--no-timestamp"]) == 0
        assert (out / "waveform_i_g_a.csv").exists()


class TestOutputDirResolution:
    def test_env_var_default(self, fast_config, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("HSSMMC_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["steady", "--config", fast_config]) == 0
        assert (target / "report.txt").exists()

    def test_flag_beats_env(self, fast_config, tmp_path, monkeypatch):
        monkeypatch.setenv("HSSMMC_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "flag_out"
        assert main(["steady", "--config", fast_config, "--out", str(out)]) == 0
        assert (out / "report.txt").exists()
        assert not (tmp_path / "ignored").exists()


def _scipy_modules_after(argvs):
    """Exit codes of ``main`` on each argv, run in turn in one fresh
    interpreter, and the scipy modules that interpreter loaded."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import hssmmc

    src = str(Path(hssmmc.__file__).resolve().parents[1])
    script = (
        "import json, sys\n"
        "from hssmmc.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestScipyImports:
    """scipy is loaded only where a model is decomposed or exponentiated:
    the eigen screening and the envelope propagation of the small-signal
    model. The steady solve, the simulator and steady sweeps run on numpy."""

    def test_steady_and_simulator_scenarios_run_without_scipy(self, fast_config, tmp_path):
        argvs = [
            [scenario, "--config", fast_config, "--out", str(tmp_path / scenario), "--no-timestamp"]
            for scenario in ("steady", "verify-steady", "simulate-open", "simulate-closed")
        ]
        argvs.append([
            "sweep", "--config", fast_config, "--out", str(tmp_path / "sweep"), "--no-timestamp",
            "--sweep-key", "m", "--sweep-values", "0.3,0.6",
        ])
        codes, loaded = _scipy_modules_after(argvs)
        assert codes == [0] * len(argvs)
        assert loaded == []

    def test_smallsig_loads_scipy(self, fast_config, tmp_path):
        argv = ["smallsig", "--config", fast_config, "--out", str(tmp_path / "o"), "--no-timestamp"]
        codes, loaded = _scipy_modules_after([argv])
        assert codes == [0]
        assert "scipy.linalg" in loaded
