"""Run configuration: INI-style ``key = value`` sections, strictly validated.

Sections and keys
-----------------
[params]      R, L, C_sm, N, V_dc, omega1, R_load, L_load (optional, default 0)
[run]         m, h, scenario (optional), output_dir (optional)
[controller]  K_p, K_r, k_f           (required for closed-loop scenarios)
[sim]         steps_per_period, total_periods,
              settle_periods          (optional, default 40)
[step]        period, phase, amplitude, window_periods (optional, default 10)
[sweep]       key, values, scenario   (scenario: steady or smallsig)

Time is given on the fundamental-period grid only: ``steps_per_period``
RK4 steps per period, an even number so that half a period is a grid point,
and run lengths, the step instant and the comparison window in whole
periods. Without [sim] a run lasts 42 periods of 2000
steps.

Unknown sections or keys are rejected. Two presets ship with the package:
``sec3-simulation`` (50 MW / 320 kV transmission-scale case) and
``table1-prototype`` (30 kW laboratory-scale case).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .errors import SchemaViolationError
from .plant import PHASES, MmcParameters
from .simulate import SimulationConfig
from .smallsignal import ControllerParams

SCENARIOS = (
    "steady",
    "smallsig",
    "simulate-open",
    "simulate-closed",
    "verify-steady",
    "verify-smallsig",
    "sweep",
)

_SCHEMA = {
    "params": {"R", "L", "C_sm", "N", "V_dc", "omega1", "R_load", "L_load"},
    "run": {"m", "h", "scenario", "output_dir"},
    "controller": {"K_p", "K_r", "k_f"},
    "sim": {"steps_per_period", "total_periods", "settle_periods"},
    "step": {"period", "phase", "amplitude", "window_periods"},
    "sweep": {"key", "values", "scenario"},
}

_REQUIRED = {
    "params": {"R", "L", "C_sm", "N", "V_dc", "omega1", "R_load"},
    "run": {"m", "h"},
    "controller": {"K_p", "K_r", "k_f"},
    "sim": {"steps_per_period", "total_periods"},
    "step": {"period", "phase", "amplitude"},
    "sweep": {"key", "values"},
}


@dataclass(frozen=True)
class StepConfig:
    """One fundamental-amplitude reference step for closed-loop scenarios,
    applied at the start of fundamental period ``period`` of the run."""

    period: int                 # whole fundamental periods after t = 0, >= 1
    phase: str
    amplitude: float            # volts added along the existing reference phasor
    window_periods: int = 10


SWEEPABLE_KEYS = {
    "m", "h",
    "R", "L", "C_sm", "N", "V_dc", "omega1", "R_load", "L_load",
    "K_p", "K_r", "k_f",
}


@dataclass(frozen=True)
class SweepConfig:
    """Swept key and values; the key is checked here, so a configuration
    file and a command-line override are held to the same rule."""

    key: str
    values: tuple[float, ...]
    scenario: str = "steady"

    def __post_init__(self):
        if self.key not in SWEEPABLE_KEYS:
            raise _fail("sweep", "key", f"key must be one of {sorted(SWEEPABLE_KEYS)}")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs for one scenario run."""

    params: MmcParameters
    m: float
    h: int
    sim: SimulationConfig
    ctrl: ControllerParams | None = None
    step: StepConfig | None = None
    sweep: SweepConfig | None = None
    scenario: str | None = None
    output_dir: str | None = None


def _fail(section: str, key: str | None, message: str) -> SchemaViolationError:
    where = f"[{section}]" + (f" {key}" if key else "")
    return SchemaViolationError(f"{where}: {message}")


class _Section:
    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items

    def get_float(self, key: str) -> float:
        try:
            return float(self.items[key])
        except ValueError:
            raise _fail(self.name, key, f"not a number: {self.items[key]!r}") from None

    def get_int(self, key: str) -> int:
        raw = self.items[key]
        try:
            value = float(raw)
        except ValueError:
            raise _fail(self.name, key, f"not an integer: {raw!r}") from None
        if value != int(value):
            raise _fail(self.name, key, f"not an integer: {raw!r}")
        return int(value)

    def get_str(self, key: str) -> str:
        return self.items[key].strip()

    def __contains__(self, key: str) -> bool:
        return key in self.items


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises SchemaViolationError with section/key diagnostics for unknown
    keys, missing required keys, malformed values, or invariant failures.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise SchemaViolationError(f"malformed configuration: {exc}") from None

    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise SchemaViolationError(f"unknown section [{name}]")
        items = dict(parser.items(name))
        unknown = set(items) - _SCHEMA[name]
        if unknown:
            raise _fail(name, sorted(unknown)[0], "unknown key")
        missing = _REQUIRED.get(name, set()) - set(items)
        if missing:
            raise _fail(name, sorted(missing)[0], "required key missing")
        sections[name] = _Section(name, items)

    for required_section in ("params", "run"):
        if required_section not in sections:
            raise SchemaViolationError(f"required section [{required_section}] missing")

    p = sections["params"]
    try:
        params = MmcParameters(
            R=p.get_float("R"),
            L=p.get_float("L"),
            C_sm=p.get_float("C_sm"),
            N=p.get_int("N"),
            V_dc=p.get_float("V_dc"),
            omega1=p.get_float("omega1"),
            R_load=p.get_float("R_load"),
            L_load=p.get_float("L_load") if "L_load" in p else 0.0,
        )
    except ValueError as exc:
        raise SchemaViolationError(f"[params]: {exc}") from None

    r = sections["run"]
    m = _modulation_index(r.get_float("m"))
    h = _harmonic_order(r.get_int("h"))

    scenario = None
    if "scenario" in r:
        scenario = r.get_str("scenario")
        if scenario not in SCENARIOS:
            raise _fail("run", "scenario", f"unknown scenario {scenario!r}")
    output_dir = r.get_str("output_dir") if "output_dir" in r else None

    ctrl = None
    if "controller" in sections:
        c = sections["controller"]
        try:
            ctrl = ControllerParams(
                K_p=c.get_float("K_p"),
                K_r=c.get_float("K_r"),
                k_f=c.get_float("k_f"),
            )
        except ValueError as exc:
            raise SchemaViolationError(f"[controller]: {exc}") from None

    sim = _parse_sim(sections.get("sim"))
    step = _parse_step(sections.get("step"))
    sweep = _parse_sweep(sections.get("sweep"))

    return RunConfig(
        params=params,
        m=m,
        h=h,
        sim=sim,
        ctrl=ctrl,
        step=step,
        sweep=sweep,
        scenario=scenario,
        output_dir=output_dir,
    )


def _parse_sim(s: _Section | None) -> SimulationConfig:
    if s is None:
        return SimulationConfig(steps_per_period=2000, total_periods=42, settle_periods=40)
    try:
        return SimulationConfig(
            steps_per_period=s.get_int("steps_per_period"),
            total_periods=s.get_int("total_periods"),
            settle_periods=s.get_int("settle_periods") if "settle_periods" in s else 40,
        )
    except ValueError as exc:
        raise SchemaViolationError(f"[sim]: {exc}") from None


def _parse_step(s: _Section | None) -> StepConfig | None:
    if s is None:
        return None
    period = s.get_int("period")
    if period < 1:
        raise _fail("step", "period", "must be >= 1")
    phase = s.get_str("phase")
    if phase not in PHASES:
        raise _fail("step", "phase", f"phase must be one of {PHASES}")
    window = s.get_int("window_periods") if "window_periods" in s else 10
    if window < 1:
        raise _fail("step", "window_periods", "must be >= 1")
    return StepConfig(
        period=period, phase=phase, amplitude=s.get_float("amplitude"), window_periods=window
    )


def _parse_sweep(s: _Section | None) -> SweepConfig | None:
    if s is None:
        return None
    key = s.get_str("key")
    raw = s.get_str("values")
    values = []
    if raw:
        for tok in raw.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                values.append(float(tok))
            except ValueError:
                raise _fail("sweep", "values", f"not a number: {tok!r}") from None
    scenario = s.get_str("scenario") if "scenario" in s else "steady"
    if scenario not in ("steady", "smallsig"):
        raise _fail("sweep", "scenario", "sweep scenario must be steady or smallsig")
    return SweepConfig(key=key, values=tuple(values), scenario=scenario)


def _modulation_index(value: float) -> float:
    """The one rule for m, from the file, a sweep or --m."""
    if not 0.0 <= value <= 1.0:
        raise SchemaViolationError(f"modulation index m {value} outside [0, 1]")
    return float(value)


def _harmonic_order(value: float) -> int:
    """The one rule for h, from the file, a sweep or --h."""
    if not (float(value).is_integer() and value >= 0):
        raise SchemaViolationError(f"h {value} is not a harmonic order (an integer >= 0)")
    return int(value)


def apply_sweep_value(cfg: RunConfig, key: str, value: float) -> RunConfig:
    """New RunConfig with one numeric field replaced: a sweep value or a
    command-line override, held to the same rules as the file."""
    if key == "m":
        return replace(cfg, m=_modulation_index(value))
    if key == "h":
        return replace(cfg, h=_harmonic_order(value))
    if key in ("R", "L", "C_sm", "N", "V_dc", "omega1", "R_load", "L_load"):
        if key == "N":
            if value != int(value):
                raise SchemaViolationError(f"swept N {value} is not an integer")
            kwargs = {key: int(value)}
        else:
            kwargs = {key: float(value)}
        try:
            return replace(cfg, params=replace(cfg.params, **kwargs))
        except ValueError as exc:
            raise SchemaViolationError(str(exc)) from None
    if key in ("K_p", "K_r", "k_f"):
        if cfg.ctrl is None:
            raise SchemaViolationError("cannot sweep controller gains without [controller]")
        try:
            return replace(cfg, ctrl=replace(cfg.ctrl, **{key: float(value)}))
        except ValueError as exc:
            raise SchemaViolationError(str(exc)) from None
    raise SchemaViolationError(f"unsweepable key {key!r}")


def preset_names() -> tuple[str, ...]:
    files = resources.files("hssmmc").joinpath("presets")
    return tuple(sorted(p.name[: -len(".ini")] for p in files.iterdir() if p.name.endswith(".ini")))


def load_config(source: str) -> RunConfig:
    """Load a configuration from a file path or a bundled preset name."""
    path = Path(source)
    if path.is_file():
        return parse_config(path.read_text(encoding="utf-8"))
    candidate = resources.files("hssmmc").joinpath("presets").joinpath(f"{source}.ini")
    if candidate.is_file():
        return parse_config(candidate.read_text(encoding="utf-8"))
    raise SchemaViolationError(
        f"configuration {source!r} is neither a file nor a bundled preset "
        f"(presets: {', '.join(preset_names())})"
    )
