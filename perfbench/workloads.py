"""Workload definitions: the CLI invocations of one round, and their inputs.

Every workload is a fixed list of ``hssmmc`` CLI invocations (a round) that
the benchmark repeats. Inputs are INI files written here; the program sees
nothing else. The two verification workloads derive their files from the
bundled presets. The other two draw their inputs from the workload seed.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass, field
from pathlib import Path

PRESETS = ("sec3-simulation", "table1-prototype")

# The verification workloads run the bundled presets at 400 RK4 steps per
# period instead of 2000, and verify-smallsig steps at period 15 with a
# 5-period window, so that a round takes seconds instead of the 35 s and 75 s
# the presets take on a 2-vCPU Xeon VM. 400 is close to the fewest steps per
# period whose envelope integration stays inside its RK4 stability limit on
# table1-prototype. Circuit, m, h, controller, settle periods and step
# amplitude stay as shipped, and every check keeps the verdict it has at
# preset length (expected.json).
VERIFY_OVERRIDES = {
    "verify-steady": {"sim": {"steps_per_period": "400"}},
    "verify-smallsig": {
        "sim": {"steps_per_period": "400"},
        "step": {"period": "15", "window_periods": "5"},
    },
}

SWEEP_ORDERS = (3, 7, 15, 30)
SWEEP_M_POINTS = 6
# Open-loop and closed-loop periods per round, split between the two presets
# by the seed; a fixed total keeps the work per round the same for every seed.
TRANSIENT_PERIODS = 10
TRANSIENT_SETTLE = 2


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a round."""

    key: str                    # unique within the workload; names its output directory
    scenario: str
    config: Path
    rk4_steps: int = 0          # plant RK4 steps the scenario integrates
    sweep_values: tuple[float, ...] = ()
    sweep_scenario: str = ""
    drawn: dict = field(default_factory=dict, compare=False)  # seeded values, for the record

    def argv(self, out: Path) -> list[str]:
        return [self.scenario, "--config", str(self.config), "--out", str(out), "--no-timestamp"]


def _read_preset(root: Path, preset: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    text = (root / "src" / "hssmmc" / "presets" / f"{preset}.ini").read_text(encoding="utf-8")
    cp.read_string(text)
    return cp


def _write(cp: configparser.ConfigParser, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        cp.write(f)
    return path


def _fmt(values) -> str:
    return ", ".join(repr(v) for v in values)


def _verify(root: Path, scenario: str, inputs: Path) -> list[Invocation]:
    out = []
    for preset in PRESETS:
        cp = _read_preset(root, preset)
        for section, items in VERIFY_OVERRIDES[scenario].items():
            cp[section].update(items)
        out.append(Invocation(preset, scenario, _write(cp, inputs / f"{preset}.ini")))
    return out


def _lifted_sweep(root: Path, rng: random.Random, inputs: Path) -> list[Invocation]:
    """Per preset: a small-signal sweep over h, and steady sweeps over seeded
    m values with a resistive and with a seeded inductive load."""
    out = []
    for preset in PRESETS:
        cp = _read_preset(root, preset)
        cp.remove_section("step")
        r_load = float(cp["params"]["R_load"])
        omega1 = float(cp["params"]["omega1"])
        m = round(rng.uniform(0.3, 0.9), 4)
        cp["run"]["m"] = repr(m)
        cp["sweep"] = {"key": "h", "values": _fmt(SWEEP_ORDERS), "scenario": "smallsig"}
        out.append(Invocation(
            f"{preset}-smallsig-h", "sweep", _write(cp, inputs / f"{preset}-smallsig-h.ini"),
            sweep_values=tuple(float(h) for h in SWEEP_ORDERS), sweep_scenario="smallsig",
            drawn={"m": m},
        ))

        for load in ("resistive", "inductive"):
            cp = _read_preset(root, preset)
            cp.remove_section("step")
            x_over_r = round(rng.uniform(0.05, 0.5), 4) if load == "inductive" else 0.0
            cp["params"]["L_load"] = repr(x_over_r * r_load / omega1)
            ms = tuple(sorted(round(rng.uniform(0.1, 0.95), 4) for _ in range(SWEEP_M_POINTS)))
            cp["sweep"] = {"key": "m", "values": _fmt(ms), "scenario": "steady"}
            key = f"{preset}-steady-m-{load}"
            out.append(Invocation(
                key, "sweep", _write(cp, inputs / f"{key}.ini"),
                sweep_values=ms, sweep_scenario="steady",
                drawn={"L_load": float(cp["params"]["L_load"]), "m_values": list(ms)},
            ))
    return out


def _transient_export(root: Path, rng: random.Random, inputs: Path) -> list[Invocation]:
    """Per preset: an open-loop and a closed-loop run with a reference step,
    at seeded m, run lengths, step time, phase and amplitude."""
    lengths = {}
    for kind in ("simulate-open", "simulate-closed"):
        first = rng.randint(TRANSIENT_SETTLE + 1, TRANSIENT_PERIODS - TRANSIENT_SETTLE - 1)
        lengths[kind] = dict(zip(PRESETS, (first, TRANSIENT_PERIODS - first)))

    out = []
    for preset in PRESETS:
        m = round(rng.uniform(0.4, 0.9), 4)
        for kind in ("simulate-open", "simulate-closed"):
            cp = _read_preset(root, preset)
            periods = lengths[kind][preset]
            spp = int(cp["sim"]["steps_per_period"])
            cp["run"]["m"] = repr(m)
            cp["sim"]["total_periods"] = str(periods)
            cp["sim"]["settle_periods"] = str(TRANSIENT_SETTLE)
            drawn = {"m": m, "total_periods": periods}
            if kind == "simulate-closed":
                v_dc = float(cp["params"]["V_dc"])
                amplitude = round(rng.uniform(0.02, 0.08) * m * v_dc / 2.0, 4)
                cp["step"] = {
                    "period": str(rng.randint(1, periods - 1)),
                    "phase": rng.choice("abc"),
                    "amplitude": repr(amplitude),
                }
                drawn["step"] = dict(cp["step"])
            else:
                cp.remove_section("step")
            key = f"{preset}-{kind}"
            out.append(Invocation(
                key, kind, _write(cp, inputs / f"{key}.ini"),
                rk4_steps=periods * spp, drawn=drawn,
            ))
    return out


WORKLOADS = {
    "verify-steady-presets": lambda root, rng, inputs: _verify(root, "verify-steady", inputs),
    "verify-smallsig-presets": lambda root, rng, inputs: _verify(root, "verify-smallsig", inputs),
    "lifted-sweep": _lifted_sweep,
    "transient-export": _transient_export,
}


def generate(workload: str, seed: int, root: Path, inputs: Path) -> list[Invocation]:
    """The invocations of one round of ``workload``, with inputs written to ``inputs``."""
    return WORKLOADS[workload](root, random.Random(seed), inputs)
