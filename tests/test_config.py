"""Configuration parsing, presets, and sweep-value application."""

import dataclasses
import re
from importlib import resources

import pytest

from hssmmc import ControllerParams, MmcParameters, SchemaViolationError, SimulationConfig
from hssmmc.cli import main
from hssmmc.config import (
    SWEEPABLE_KEYS,
    StepConfig,
    SweepConfig,
    apply_sweep_value,
    load_config,
    parse_config,
    preset_names,
)

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
        with pytest.raises(SchemaViolationError, match=r"^\[params\] L: must be > 0$"):
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
            ("steps_per_period = 401\ntotal_periods = 50", "steps_per_period: must be even"),
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


# Every key of every section, each value away from the field's default, and
# the object each section builds from them.
ALL_KEYS = {
    "params": {
        "R": "1.0", "L": "0.36", "C_sm": "140e-6", "N": "20", "V_dc": "320e3",
        "omega1": "314.0", "R_load": "551.12", "L_load": "0.01",
    },
    "run": {"m": "0.5", "h": "3", "output_dir": "out"},
    "controller": {"K_p": "0.5", "K_r": "100", "k_f": "1"},
    "sim": {"steps_per_period": "1000", "total_periods": "50", "settle_periods": "20"},
    "step": {"period": "10", "phase": "b", "amplitude": "5e3", "window_periods": "4"},
    "sweep": {"key": "m", "values": "0.1, 0.2", "scenario": "smallsig"},
}
SECTION_CLASSES = {
    "params": ("params", MmcParameters(1.0, 0.36, 140e-6, 20, 320e3, 314.0, 551.12, 0.01)),
    "controller": ("ctrl", ControllerParams(K_p=0.5, K_r=100.0, k_f=1.0)),
    "sim": ("sim", SimulationConfig(steps_per_period=1000, total_periods=50, settle_periods=20)),
    "step": ("step", StepConfig(period=10, phase="b", amplitude=5e3, window_periods=4)),
    "sweep": ("sweep", SweepConfig(key="m", values=(0.1, 0.2), scenario="smallsig")),
}


def _document(sections: dict[str, dict[str, str]]) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {raw}\n" for key, raw in keys.items())
        for name, keys in sections.items()
    )


class TestSectionSchema:
    """Each section's keys, required keys and defaults are its dataclass's fields."""

    @pytest.mark.parametrize("section", sorted(SECTION_CLASSES))
    def test_keys_are_the_dataclass_fields(self, section):
        attr, built = SECTION_CLASSES[section]
        names = [f.name for f in dataclasses.fields(built)]
        assert list(ALL_KEYS[section]) == names
        assert getattr(parse_config(_document(ALL_KEYS)), attr) == built

        for f in dataclasses.fields(built):
            keys = {name: dict(items) for name, items in ALL_KEYS.items()}
            del keys[section][f.name]
            if f.default is dataclasses.MISSING:
                message = rf"^\[{section}\] {f.name}: required key missing$"
                with pytest.raises(SchemaViolationError, match=message):
                    parse_config(_document(keys))
            else:
                parsed = getattr(parse_config(_document(keys)), attr)
                assert parsed == dataclasses.replace(built, **{f.name: f.default})

    def test_step_built_in_code_is_held_to_the_file_rule(self):
        for kwargs, message in (
            ({"period": 0}, r"^\[step\] period: must be >= 1$"),
            ({"phase": "q"}, r"^\[step\] phase: phase must be one of"),
            ({"window_periods": 0}, r"^\[step\] window_periods: must be >= 1$"),
        ):
            with pytest.raises(SchemaViolationError, match=message):
                StepConfig(**{"period": 1, "phase": "a", "amplitude": 1.0, **kwargs})
        with pytest.raises(SchemaViolationError, match=r"^\[sweep\] scenario: "):
            SweepConfig(key="h", values=(), scenario="verify-steady")

    def test_sweepable_keys(self):
        fields = {f.name for cls in (MmcParameters, ControllerParams) for f in dataclasses.fields(cls)}
        assert SWEEPABLE_KEYS == {"m", "h"} | fields
        assert SWEEPABLE_KEYS == {
            "m", "h", "R", "L", "C_sm", "N", "V_dc", "omega1", "R_load", "L_load", "K_p", "K_r", "k_f",
        }

    def test_error_order(self):
        # Key checks of every section, then missing sections, then values
        # section by section: params, run, controller, sim, step, sweep.
        text = GOOD.split("[run]")[0].replace("R = 1.0", "R = one")
        with pytest.raises(SchemaViolationError, match=r"^required section \[run\] missing$"):
            parse_config(text)
        text = GOOD + "[sweep]\nkey = h\nvalues = x\n[controller]\nK_p = y\nK_r = 1\nk_f = 1\n"
        with pytest.raises(SchemaViolationError, match=r"^\[controller\] K_p: not a number: 'y'$"):
            parse_config(text)
        with pytest.raises(SchemaViolationError, match=r"^\[step\] window: unknown key$"):
            parse_config(text + "[step]\nwindow = 1\n")

    def test_infinite_integer_is_not_an_integer(self):
        with pytest.raises(SchemaViolationError, match=r"^\[params\] N: not an integer: 'inf'$"):
            parse_config(GOOD.replace("N = 20", "N = inf"))
        with pytest.raises(SchemaViolationError, match="^swept N inf is not an integer$"):
            apply_sweep_value(parse_config(GOOD), "N", float("inf"))


class TestNonFiniteValues:
    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("R", "nan", "[params] R: must be finite"),
            ("K_p", "inf", "[controller] K_p: must be finite"),
            ("k_f", "nan", "[controller] k_f: must be finite"),
            ("amplitude", "-inf", "[step] amplitude: must be finite"),
        ],
    )
    def test_file_value_is_a_configuration_error(self, tmp_path, capsys, key, raw, message):
        # nan and inf compare false with every bound, so each needs its own check.
        assert _steady_with(tmp_path, key, raw) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_sweep_value_is_a_recorded_row(self, tmp_path):
        assert _smallsig_sweep_rows(tmp_path, "K_p", "0.6, inf")[1] == "inf,,K_p must be finite"


class TestRangeErrors:
    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("L", "-1", "[params] L: must be > 0"),
            ("N", "0", "[params] N: must be >= 1"),
            ("R_load", "-1", "[params] R_load: must be >= 0"),
            ("K_p", "-0.1", "[controller] K_p: must be >= 0"),
            ("K_r", "-1", "[controller] K_r: must be >= 0"),
            ("steps_per_period", "2", "[sim] steps_per_period: must be >= 4"),
            ("total_periods", "120", "[sim] total_periods: must exceed settle_periods"),
        ],
    )
    def test_file_value_names_its_key(self, tmp_path, capsys, key, raw, message):
        assert _steady_with(tmp_path, key, raw) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_sweep_value_is_a_recorded_row(self, tmp_path):
        assert _smallsig_sweep_rows(tmp_path, "K_r", "300, -1")[1] == "-1,,K_r must be >= 0"


def _steady_with(tmp_path, key, raw):
    """Exit code of ``steady`` on sec3-simulation with ``key`` set to ``raw``."""
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {raw}", _preset_text(), flags=re.M)
    assert count == 1
    path = tmp_path / "sec3.ini"
    path.write_text(text, encoding="utf-8")
    return main(["steady", "--config", str(path), "--out", str(tmp_path / "out"), "--no-timestamp"])


def _smallsig_sweep_rows(tmp_path, key, values):
    """The two data rows of a small-signal sweep of sec3-simulation over
    ``key``, whose first value is valid and second is not."""
    path = tmp_path / "sweep.ini"
    sweep = f"\n[sweep]\nkey = {key}\nvalues = {values}\nscenario = smallsig\n"
    path.write_text(_preset_text() + sweep, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--no-timestamp"]) == 1
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].endswith(",")
    return rows


def _preset_text(name="sec3-simulation"):
    return resources.files("hssmmc").joinpath("presets", f"{name}.ini").read_text(encoding="utf-8")


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
