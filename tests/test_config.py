"""Configuration parsing, presets, and sweep-value application."""

import dataclasses

import pytest

from hssmmc import ControllerParams, SchemaViolationError, SimulationConfig
from hssmmc.config import StepConfig, apply_sweep_value, load_config, parse_config, preset_names

GOOD = """
[params]
R = 1.0
L = 0.36
C_sm = 140e-6
N = 20
V_dc = 320e3
omega1 = 314.0
R_load = 551.12

[run]
m = 0.5
h = 3
"""


class TestParse:
    def test_minimal_document(self):
        cfg = parse_config(GOOD)
        assert cfg.params.L == 0.36
        assert cfg.params.C_arm == pytest.approx(7e-6)
        assert cfg.m == 0.5
        assert cfg.h == 3
        assert cfg.ctrl is None
        assert cfg.step is None

    def test_unknown_key(self):
        with pytest.raises(SchemaViolationError, match="unknown key"):
            parse_config(GOOD + "\n[sim]\nfoo = 1\nsteps_per_period = 1000\ntotal_periods = 20\n")
        # The CLI positional names the scenario; [run] has no key for it.
        with pytest.raises(SchemaViolationError, match=r"\[run\] scenario: unknown key"):
            parse_config(GOOD + "scenario = steady\n")

    def test_unknown_section(self):
        with pytest.raises(SchemaViolationError, match=r"unknown section"):
            parse_config(GOOD + "\n[extzzz]\nx = 1\n")

    def test_missing_required_key(self):
        broken = GOOD.replace("V_dc = 320e3\n", "")
        with pytest.raises(SchemaViolationError, match="V_dc"):
            parse_config(broken)

    def test_missing_required_section(self):
        with pytest.raises(SchemaViolationError, match=r"\[run\]"):
            parse_config(GOOD.split("[run]")[0])

    def test_modulation_bound(self):
        with pytest.raises(SchemaViolationError, match="modulation"):
            parse_config(GOOD.replace("m = 0.5", "m = 1.5"))

    def test_degenerate_inductance_rejected_at_parse(self):
        with pytest.raises(SchemaViolationError, match="inductance"):
            parse_config(GOOD.replace("L = 0.36", "L = 0.0"))

    def test_malformed_number(self):
        with pytest.raises(SchemaViolationError, match="not a number"):
            parse_config(GOOD.replace("R = 1.0", "R = one"))

    def test_sim_exclusivity(self):
        # The grid is the one time format: both grid keys are required, and
        # the seconds keys are unknown.
        with pytest.raises(SchemaViolationError, match=r"\[sim\] total_periods: required key missing"):
            parse_config(GOOD + "\n[sim]\nsteps_per_period = 2000\n")
        with pytest.raises(SchemaViolationError, match=r"\[sim\] steps_per_period: required key missing"):
            parse_config(GOOD + "\n[sim]\ntotal_periods = 50\n")
        for key in ("dt = 1e-5", "t_end = 1.0"):
            with pytest.raises(SchemaViolationError, match=rf"\[sim\] {key.split()[0]}: unknown key"):
                parse_config(GOOD + f"\n[sim]\nsteps_per_period = 2000\ntotal_periods = 50\n{key}\n")

    def test_sim_sugar_keys(self):
        cfg = parse_config(GOOD + "\n[sim]\nsteps_per_period = 1000\ntotal_periods = 20\nsettle_periods = 10\n")
        assert cfg.sim == SimulationConfig(steps_per_period=1000, total_periods=20, settle_periods=10)
        assert cfg.sim.n_steps() == 20_000
        cfg = parse_config(GOOD + "\n[sim]\nsteps_per_period = 1000\ntotal_periods = 50\n")
        assert cfg.sim.settle_periods == 40
        assert parse_config(GOOD).sim == SimulationConfig(2000, 42, 40)

    def test_sim_grid_rules(self):
        for body, key in (
            ("steps_per_period = 3\ntotal_periods = 50", "steps_per_period"),
            ("steps_per_period = 401\ntotal_periods = 50", "steps_per_period must be even"),
            ("steps_per_period = 400\ntotal_periods = 10\nsettle_periods = 1", "settle_periods"),
            ("steps_per_period = 400\ntotal_periods = 10\nsettle_periods = 10", "total_periods"),
            ("steps_per_period = 400.5\ntotal_periods = 10", "steps_per_period"),
        ):
            with pytest.raises(SchemaViolationError, match=key):
                parse_config(GOOD + f"\n[sim]\n{body}\n")

    def test_step_section(self):
        cfg = parse_config(GOOD + "\n[step]\nperiod = 10\nphase = b\namplitude = 5e3\n")
        assert cfg.step == StepConfig(period=10, phase="b", amplitude=5e3, window_periods=10)

    def test_step_exclusivity_and_phase(self):
        with pytest.raises(SchemaViolationError, match=r"\[step\] period: required key missing"):
            parse_config(GOOD + "\n[step]\nphase = a\namplitude = 1\n")
        with pytest.raises(SchemaViolationError, match=r"\[step\] time: unknown key"):
            parse_config(GOOD + "\n[step]\ntime = 1.0\nperiod = 10\nphase = a\namplitude = 1\n")
        with pytest.raises(SchemaViolationError, match=r"\[step\] period: must be >= 1"):
            parse_config(GOOD + "\n[step]\nperiod = 0\nphase = a\namplitude = 1\n")
        with pytest.raises(SchemaViolationError, match="phase"):
            parse_config(GOOD + "\n[step]\nperiod = 10\nphase = q\namplitude = 1\n")

    def test_sweep_section(self):
        cfg = parse_config(GOOD + "\n[sweep]\nkey = h\nvalues = 1, 2, 3, 5, 7\n")
        assert cfg.sweep.key == "h"
        assert cfg.sweep.values == (1.0, 2.0, 3.0, 5.0, 7.0)
        assert cfg.sweep.scenario == "steady"

    def test_sweep_bad_key(self):
        with pytest.raises(SchemaViolationError, match="key"):
            parse_config(GOOD + "\n[sweep]\nkey = zz\nvalues = 1\n")

    def test_controller_section(self):
        cfg = parse_config(GOOD + "\n[controller]\nK_p = 0.5\nK_r = 100\nk_f = 1\n")
        assert cfg.ctrl == ControllerParams(K_p=0.5, K_r=100.0, k_f=1.0)


class TestPresets:
    def test_names(self):
        assert set(preset_names()) == {"sec3-simulation", "table1-prototype"}

    def test_transmission_preset_values(self):
        cfg = load_config("sec3-simulation")
        p = cfg.params
        assert (p.L, p.R, p.C_sm, p.N) == (0.36, 1.0, 140e-6, 20)
        assert (p.V_dc, p.omega1) == (320e3, 314.0)
        assert cfg.h == 3
        assert cfg.ctrl is not None and cfg.step is not None

    def test_prototype_preset_values(self):
        cfg = load_config("table1-prototype")
        p = cfg.params
        assert (p.N, p.C_sm, p.L, p.R_load, p.V_dc) == (12, 6.6e-3, 5e-3, 10.0, 450.0)

    def test_file_path_loading(self, tmp_path):
        path = tmp_path / "case.ini"
        path.write_text(GOOD, encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.params.N == 20

    def test_unknown_source(self):
        with pytest.raises(SchemaViolationError, match="preset"):
            load_config("does-not-exist")


class TestSweepValues:
    def test_modulation(self):
        cfg = parse_config(GOOD)
        assert apply_sweep_value(cfg, "m", 0.25).m == 0.25
        with pytest.raises(SchemaViolationError):
            apply_sweep_value(cfg, "m", 1.5)

    def test_order(self):
        cfg = parse_config(GOOD)
        assert apply_sweep_value(cfg, "h", 5).h == 5
        with pytest.raises(SchemaViolationError):
            apply_sweep_value(cfg, "h", 2.5)

    def test_parameter(self):
        cfg = parse_config(GOOD)
        assert apply_sweep_value(cfg, "R", 2.0).params.R == 2.0
        with pytest.raises(SchemaViolationError):
            apply_sweep_value(cfg, "L", 0.0)

    def test_submodule_count(self):
        cfg = parse_config(GOOD)
        assert apply_sweep_value(cfg, "N", 10).params.N == 10
        with pytest.raises(SchemaViolationError):
            apply_sweep_value(cfg, "N", 10.5)

    def test_controller_gain_requires_section(self):
        cfg = parse_config(GOOD)
        with pytest.raises(SchemaViolationError):
            apply_sweep_value(cfg, "K_p", 1.0)
        with_ctrl = parse_config(GOOD + "\n[controller]\nK_p = 0.5\nK_r = 100\nk_f = 1\n")
        assert apply_sweep_value(with_ctrl, "K_p", 1.0).ctrl.K_p == 1.0

    def test_immutability_of_source(self):
        cfg = parse_config(GOOD)
        apply_sweep_value(cfg, "m", 0.1)
        assert cfg.m == 0.5
        assert dataclasses.is_dataclass(cfg)


def test_readme_configuration_block_parses():
    """The README's documented configuration is a valid document, and its
    [sim] and [step] values arrive in ``cfg.sim`` and ``cfg.step``."""
    import configparser
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    text = "\n".join(line.split("#", 1)[0].rstrip() for line in block.splitlines())
    cfg = parse_config(text)

    documented = configparser.ConfigParser()
    documented.optionxform = str
    documented.read_string(text)
    for section, parsed in (("sim", cfg.sim), ("step", cfg.step)):
        for key, raw in documented[section].items():
            value = getattr(parsed, key)
            expected = raw if isinstance(value, str) else type(value)(float(raw))
            assert value == expected, (section, key)
