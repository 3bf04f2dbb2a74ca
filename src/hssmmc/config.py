"""Run configuration: INI-style ``key = value`` sections, strictly validated.

Each section but [run] is the dataclass it builds: [params] is
``MmcParameters``, [controller] ``ControllerParams`` (required for
closed-loop scenarios), [sim] ``SimulationConfig``, [step] ``StepConfig``
and [sweep] ``SweepConfig``. A section's keys are its dataclass's fields, a
field with a default is an optional key, and the field's type picks the
parser: ``float``, ``int``, ``str`` or a comma-separated
``tuple[float, ...]``. [run] holds ``m``, ``h`` and an optional ``output_dir``.

Time is given on the fundamental-period grid only: ``steps_per_period``
RK4 steps per period, an even number so that half a period is a grid point,
and run lengths, the step instant and the comparison window in whole
periods. Without [sim] a run lasts 42 periods of 2000 steps.
``settle_periods`` changes no computation: it only bounds
``total_periods`` from below and is printed in the report's settled line.
It stays a key because existing configurations set it, those that
``perfbench/workloads.py`` writes among them.

Unknown sections or keys are rejected. Two presets ship with the package:
``sec3-simulation`` (50 MW / 320 kV transmission-scale case) and
``table1-prototype`` (30 kW laboratory-scale case).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import get_type_hints

from .errors import FieldValueError, SchemaViolationError
from .plant import PHASES, MmcParameters
from .simulate import SimulationConfig
from .smallsignal import ControllerParams


@dataclass(frozen=True)
class StepConfig:
    """One fundamental-amplitude reference step for closed-loop scenarios,
    applied at the start of fundamental period ``period`` of the run."""

    period: int                 # whole fundamental periods after t = 0, >= 1
    phase: str
    amplitude: float            # volts added along the existing reference phasor
    window_periods: int = 10

    def __post_init__(self):
        if self.period < 1:
            raise _fail("step", "period", "must be >= 1")
        if self.phase not in PHASES:
            raise _fail("step", "phase", f"phase must be one of {PHASES}")
        if not math.isfinite(self.amplitude):
            raise _fail("step", "amplitude", "must be finite")
        if self.window_periods < 1:
            raise _fail("step", "window_periods", "must be >= 1")


SWEEPABLE_KEYS = {"m", "h"} | {
    f.name for cls in (MmcParameters, ControllerParams) for f in fields(cls)
}


@dataclass(frozen=True)
class SweepConfig:
    """Swept key and values; checked here, so a configuration file and a
    command-line override are held to the same rule."""

    key: str
    values: tuple[float, ...]
    scenario: str = "steady"

    def __post_init__(self):
        if self.scenario not in ("steady", "smallsig"):
            raise _fail("sweep", "scenario", "sweep scenario must be steady or smallsig")
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
    output_dir: str | None = None


_SECTIONS = {
    "params": MmcParameters,
    "controller": ControllerParams,
    "sim": SimulationConfig,
    "step": StepConfig,
    "sweep": SweepConfig,
}

# [run] builds no dataclass of its own: key -> (type, required).
_RUN_KEYS = {"m": (float, True), "h": (int, True), "output_dir": (str, False)}


def _fail(section: str, key: str, message: str) -> SchemaViolationError:
    return SchemaViolationError(f"[{section}] {key}: {message}")


def _keys(section: str) -> dict[str, tuple[type, bool]]:
    """Each key of ``section`` with its type and whether it is required."""
    if section == "run":
        return _RUN_KEYS
    cls = _SECTIONS[section]
    types = get_type_hints(cls)
    return {f.name: (types[f.name], f.default is MISSING) for f in fields(cls)}


def _integer(raw: str) -> int:
    """``raw`` as an int: ``20`` and ``2e1`` are integers, ``inf`` is not."""
    value = float(raw)
    if not value.is_integer():
        raise ValueError(raw)
    return int(value)


_PARSERS = {float: (float, "a number"), int: (_integer, "an integer"), str: (str.strip, None)}


def _parse(section: str, key: str, kind, raw: str):
    """``raw`` as a value of the field type ``kind``."""
    if kind == tuple[float, ...]:
        tokens = (tok.strip() for tok in raw.split(","))
        return tuple(_parse(section, key, float, tok) for tok in tokens if tok)
    parse, noun = _PARSERS[kind]
    try:
        return parse(raw)
    except ValueError:
        raise _fail(section, key, f"not {noun}: {raw!r}") from None


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

    sections: dict[str, dict[str, tuple[type, str]]] = {}  # key -> (type, raw value)
    for name in parser.sections():
        if name != "run" and name not in _SECTIONS:
            raise SchemaViolationError(f"unknown section [{name}]")
        keys = _keys(name)
        items = dict(parser.items(name))
        unknown = set(items) - set(keys)
        if unknown:
            raise _fail(name, sorted(unknown)[0], "unknown key")
        missing = {key for key, (_, required) in keys.items() if required} - set(items)
        if missing:
            raise _fail(name, sorted(missing)[0], "required key missing")
        sections[name] = {key: (kind, items[key]) for key, (kind, _) in keys.items() if key in items}

    for required_section in ("params", "run"):
        if required_section not in sections:
            raise SchemaViolationError(f"required section [{required_section}] missing")

    def values(name: str) -> dict:
        return {key: _parse(name, key, kind, raw) for key, (kind, raw) in sections[name].items()}

    def build(name: str):
        if name not in sections:
            return None
        try:
            return _SECTIONS[name](**values(name))
        except FieldValueError as exc:
            raise _fail(name, exc.key, exc.message) from None

    # Values are checked a section at a time, in the order written here
    # (keyword arguments are evaluated left to right).
    params = build("params")
    run = values("run")
    m = _modulation_index(run["m"])
    h = _harmonic_order(run["h"])
    return RunConfig(
        params=params,
        m=m,
        h=h,
        ctrl=build("controller"),
        sim=build("sim") or SimulationConfig(steps_per_period=2000, total_periods=42),
        step=build("step"),
        sweep=build("sweep"),
        output_dir=run.get("output_dir"),
    )


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
    for attr, cls in (("params", MmcParameters), ("ctrl", ControllerParams)):
        kind = get_type_hints(cls).get(key)
        if kind is None:
            continue
        section = getattr(cfg, attr)
        if section is None:
            raise SchemaViolationError("cannot sweep controller gains without [controller]")
        if kind is int and not float(value).is_integer():
            raise SchemaViolationError(f"swept {key} {value} is not an integer")
        try:
            return replace(cfg, **{attr: replace(section, **{key: kind(value)})})
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
