"""Command-line interface: exit codes, file emission, schema stability."""

import pytest

from hssmmc.cli import main
from hssmmc.plant import plant_phase_equations

from conftest import half_wave_broken, unbalanced, with_nan

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


def _perturb_smallsignal_models(monkeypatch, perturb):
    """Pass every small-signal model the pipelines build through ``perturb``."""
    import hssmmc.pipelines as pipelines

    assemble = pipelines.assemble_smallsignal
    monkeypatch.setattr(
        pipelines, "assemble_smallsignal", lambda *args: perturb(assemble(*args))
    )


def _perturb_closed_loop_samples(monkeypatch, perturb):
    """Pass the per-phase Jacobian samples of every small-signal model the
    pipelines build through ``perturb`` before the lift."""
    import hssmmc.smallsignal as smallsignal

    samples = smallsignal._closed_loop_samples
    monkeypatch.setattr(
        smallsignal, "_closed_loop_samples", lambda *args: perturb(samples(*args))
    )


def _unbalance_smallsignal_models(monkeypatch):
    """Make every small-signal model the pipelines build unbalanced over
    the phases (``conftest.unbalanced``: phase b's i_c row perturbed)."""
    _perturb_closed_loop_samples(monkeypatch, unbalanced)


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

    @pytest.mark.parametrize("scenario", ["steady", "smallsig"])
    def test_zero_order_without_modulation(self, fast_config, tmp_path, scenario):
        argv = [scenario, "--config", fast_config, "--out", str(tmp_path / "o"), "--h", "0", "--m", "0"]
        assert main(argv) == 0

    @pytest.mark.parametrize("scenario", ["simulate-closed", "verify-smallsig"])
    def test_zero_order_has_no_reference_phasors(self, tmp_path, capsys, scenario):
        # The references are the operating point's fundamental, which h = 0
        # does not hold, even at m = 0.
        config = fast_config_with_step(tmp_path, 5)
        argv = [scenario, "--config", config, "--out", str(tmp_path / "o"), "--h", "0", "--m", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error: h 0 cannot hold the fundamental")

    def test_unbalanced_model_is_a_numerical_failure(self, fast_config, tmp_path, capsys, monkeypatch):
        _unbalance_smallsignal_models(monkeypatch)
        assert main(["smallsig", "--config", fast_config, "--out", str(tmp_path / "o")]) == 3
        assert "PhaseImbalanceError" in capsys.readouterr().err

    @pytest.mark.parametrize("perturb, error", [
        (half_wave_broken, "HalfWaveAsymmetryError"),
        (with_nan, "PhaseImbalanceError"),
    ])
    def test_asymmetric_or_non_finite_model_is_a_numerical_failure(
        self, fast_config, tmp_path, capsys, monkeypatch, perturb, error
    ):
        # half_wave_broken acts on phase a's model, with_nan on phase b's
        # samples before the lift.
        if perturb is half_wave_broken:
            _perturb_smallsignal_models(monkeypatch, perturb)
        else:
            _perturb_closed_loop_samples(monkeypatch, perturb)
        assert main(["smallsig", "--config", fast_config, "--out", str(tmp_path / "o")]) == 3
        assert error in capsys.readouterr().err

    def test_every_toolkit_error_is_a_numerical_failure(self, tmp_path, capsys):
        # 80 steps per period cannot resolve the 10 harmonics verify-steady
        # compares: InsufficientSamplesError, reported without a traceback.
        from importlib import resources

        preset = resources.files("hssmmc") / "presets" / "sec3-simulation.ini"
        path = tmp_path / "coarse.ini"
        path.write_text(
            preset.read_text(encoding="utf-8").replace(
                "steps_per_period = 2000", "steps_per_period = 80"
            ),
            encoding="utf-8",
        )
        assert main(["verify-steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: InsufficientSamplesError" in err
        assert "Traceback" not in err

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
            ("steps_per_period = 400", "steps_per_period = 401"),
            ("[controller]", "[step]\nperiod = 0\nphase = a\namplitude = 15.0\n\n[controller]"),
        ],
        ids=["total-not-above-settle", "too-few-steps", "odd-steps", "step-period-0"],
    )
    def test_grid_rules_checked_at_parse(self, tmp_path, old, new):
        # steady runs no simulation, so exit code 2 comes from the parse.
        path = tmp_path / "grid.ini"
        path.write_text(FAST.replace(old, new), encoding="utf-8")
        assert main(["steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("scenario", ["simulate-closed", "smallsig", "verify-smallsig"])
    def test_closed_loop_without_dc_bus_is_a_config_error(self, tmp_path, capsys, scenario):
        # The closed-loop insertion indices divide by V_dc.
        path = tmp_path / "unenergized.ini"
        text = open(fast_config_with_step(tmp_path, 4), encoding="utf-8").read()
        path.write_text(text.replace("V_dc = 1000.0", "V_dc = 0.0"), encoding="utf-8")
        assert main([scenario, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "configuration error: [params] V_dc: must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["steady", "simulate-open"])
    def test_open_loop_without_dc_bus_runs(self, fast_config, tmp_path, scenario):
        # An unenergized bus is a valid open-loop case: everything stays at rest.
        path = tmp_path / "unenergized.ini"
        text = open(fast_config, encoding="utf-8").read()
        path.write_text(text.replace("V_dc = 1000.0", "V_dc = 0.0"), encoding="utf-8")
        assert main([scenario, "--config", str(path), "--out", str(tmp_path / "o")]) == 0

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

        def flipped(params):
            # Wrong sign of the inserted upper-arm voltage in the phase-current
            # equation: +n_u v_cu where the plant has -n_u v_cu.
            equations = plant_phase_equations(params)
            inv_L_g = 1.0 / (params.L + 2.0 * params.L_load)

            def derivatives(i_c, v_cu, v_cl, i_g, n_u, n_l, v_dc):
                *rest, di_g = equations(i_c, v_cu, v_cl, i_g, n_u, n_l, v_dc)
                return (*rest, di_g + 2.0 * n_u * v_cu * inv_L_g)

            return derivatives

        monkeypatch.setattr(steady, "plant_phase_equations", flipped)
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

    def test_trajectory_csv_writes_each_value_as_format_12g(self, tmp_path):
        import numpy as np

        from hssmmc.reports import write_trajectory_csv
        from hssmmc.simulate import Trajectory

        values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                  1.0 / 3.0, -123456789012.5, 1e22, 6.02214076e-23, 1e-5]
        states = np.array(values * 2).reshape(2, -1)
        traj = Trajectory(1.0 / 3.0, 4, 5, states)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, traj, [f"x{i}" for i in range(len(values))], False)
        rows = [
            ",".join(format(float(v), ".12g") for v in (t, *x)) for t, x in zip(traj.t, states)
        ]
        header = ",".join(["time"] + [f"x{i}" for i in range(len(values))])
        assert path.read_bytes() == ("\n".join([header, *rows]) + "\n").encode()

    def test_closed_loop_step_shares_the_smallsig_grid(self, tmp_path, monkeypatch):
        # simulate-closed exports the transient from the cold start, while
        # verify-smallsig starts its stepped run on the periodic orbit at the
        # step, so their states differ. Both lie on one grid and time axis
        # from the step row on.
        import numpy as np

        from hssmmc import pipelines
        from hssmmc.config import load_config
        from hssmmc.simulate import simulate_closed_loop

        cfgp = fast_config_with_step(tmp_path, 4, "b")
        exported = []
        monkeypatch.setattr(pipelines, "write_trajectory_csv", lambda path, traj, *a: exported.append(traj))
        assert main(["simulate-closed", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0
        (traj,) = exported

        cfg = load_config(cfgp)
        ctx = pipelines.SmallsigContext(cfg)
        stepped = simulate_closed_loop(
            cfg.params, cfg.ctrl, pipelines.stepped_references(ctx.refs, cfg.step, cfg.step.amplitude),
            ctx.spp, ctx.window_steps, x0=ctx.orbit.trajectory.states[0], n0=ctx.n_step,
        )

        n_step = 4 * 400  # t_end = t_step + window
        assert traj.t.size == n_step + stepped.t.size
        assert traj.steps_per_period == stepped.steps_per_period == 400
        assert np.array_equal(traj.t, np.arange(traj.t.size) * (cfg.params.period / 400))
        assert np.array_equal(traj.t[n_step:], stepped.t)
        assert np.array_equal(ctx.orbit.trajectory.t, stepped.t[: 400 + 1])

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

    def test_half_wave_asymmetric_model_gives_an_error_row(self, fast_config, tmp_path, monkeypatch):
        _perturb_smallsignal_models(monkeypatch, half_wave_broken)
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(_with_sweep(fast_config, tmp_path)), "--out", str(out),
            "--no-timestamp",
        ])
        assert code == 1
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows and all("not half-wave symmetric" in row for row in rows)

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


def test_smallsig_sweep_without_dc_bus_gives_an_error_row(fast_config, tmp_path):
    from pathlib import Path

    text = Path(fast_config).read_text() + "\n[sweep]\nkey = V_dc\nvalues = 0, 1000\nscenario = smallsig\n"
    cfgp = tmp_path / "v_dc.ini"
    cfgp.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgp), "--out", str(out), "--no-timestamp"]) == 1
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert rows[0][0] == "0" and rows[0][2].startswith("[params] V_dc: must be > 0")
    assert rows[1][0] == "1000" and rows[1][2] == ""


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
    """No scenario loads scipy: the steady solve, the eigen screening, the
    envelope exponential, the simulator and sweeps run on numpy."""

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

    def test_smallsig_and_smallsig_sweep_run_without_scipy(self, fast_config, tmp_path):
        argvs = [
            ["smallsig", "--config", fast_config, "--out", str(tmp_path / "o"), "--no-timestamp"],
            [
                "sweep", "--config", str(_with_sweep(fast_config, tmp_path)), "--out",
                str(tmp_path / "sweep"), "--no-timestamp", "--sweep-key", "h", "--sweep-values", "3,7",
            ],
        ]
        codes, loaded = _scipy_modules_after(argvs)
        assert codes == [0, 0]
        assert loaded == []

    def test_verify_smallsig_runs_without_scipy(self, tmp_path):
        config = fast_config_with_step(tmp_path, 12)
        argv = ["verify-smallsig", "--config", config, "--out", str(tmp_path / "o"), "--no-timestamp"]
        codes, loaded = _scipy_modules_after([argv])
        assert codes == [0]
        assert loaded == []
