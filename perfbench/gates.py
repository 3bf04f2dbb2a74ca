"""Correctness gates for one CLI invocation.

An invocation passes when its exit code and its ordered list of report
checks match the expected outcome, and its output files pass the checks for
its scenario. Expected outcomes of the verification workloads are recorded
in expected.json; generated inputs have structural expectations.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import re
from pathlib import Path

from workloads import Invocation

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))

_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*?): (.*)$")
_PERCENT = {
    "dominant": re.compile(r"max rel err ([-+0-9.eE]+)%"),
    "waveform": re.compile(r"NRMSE ([-+0-9.eE]+)%"),
    "perturbation NRMSE": re.compile(r"^([-+0-9.eE]+)%"),
}

# Share of the dc input power the steady sweep rows may leave unexplained:
# the harmonics a row omits carry less than 0.1 % at m <= 0.95.
POWER_BALANCE_RTOL = 0.01

TRAJECTORY_COLUMNS = {"simulate-open": 13, "simulate-closed": 19}
SPECTRUM_FILES = 12


def report_checks(out: Path) -> list[tuple[str, str, str]]:
    """(name, PASS|FAIL, detail) of every check line in report.txt."""
    path = out / "report.txt"
    if not path.is_file():
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    return [m.group(2, 1, 3) for m in map(_CHECK_LINE.match, lines) if m]


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every file the invocation wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def accuracy(checks) -> dict[str, float]:
    """Largest percentage figure per check family, as a fraction."""
    worst = {}
    for name, _, detail in checks:
        for family, pattern in _PERCENT.items():
            m = pattern.search(detail)
            if name.startswith(family) and m:
                worst[family] = max(worst.get(family, 0.0), float(m.group(1)) / 100.0)
    return worst


def _read_config(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(path, encoding="utf-8")
    return cp


def _data_rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _expected_outcome(workload: str, inv: Invocation, checks) -> tuple[int, list[tuple[str, str]]]:
    if inv.scenario in ("verify-steady", "verify-smallsig"):
        rec = EXPECTED[workload][inv.key]
        return rec["exit"], [tuple(c) for c in rec["checks"]]
    if inv.scenario == "sweep":
        return 0, [("sweep points", "PASS")]
    if inv.scenario == "simulate-open":
        # The settled verdict depends on the run; its files are checked below.
        verdict = checks[0][1] if checks else "PASS"
        return 0, [("settled", verdict)]
    return 0, [("completed", "PASS")]


def _sweep_problems(inv: Invocation, out: Path) -> list[str]:
    rows = _data_rows(out / "sweep.csv")
    problems = []
    values = tuple(float(r["value"]) for r in rows)
    if values != inv.sweep_values:
        problems.append(f"sweep values {values} != requested {inv.sweep_values}")
    params = _read_config(inv.config)["params"]
    v_dc, r_arm, r_load = (float(params[k]) for k in ("V_dc", "R", "R_load"))
    for row in rows:
        if row["error"]:
            problems.append(f"sweep row {row['value']} failed: {row['error']}")
            continue
        metrics = {k: float(v) for k, v in row.items() if k not in ("value", "error")}
        if not all(map(math.isfinite, metrics.values())):
            problems.append(f"sweep row {row['value']} is not finite: {metrics}")
        elif inv.sweep_scenario == "steady":
            # dc input power against load and arm dissipation, all three phases.
            ic0, ic2, ig1 = metrics["i_ca_k0"], metrics["i_ca_k2"], metrics["i_ga_k1"]
            p_dc = 3.0 * v_dc * ic0
            p_out = 6.0 * r_load * ig1**2 + 3.0 * r_arm * (2.0 * (ic0**2 + 2.0 * ic2**2) + ig1**2)
            if abs(p_dc - p_out) > POWER_BALANCE_RTOL * abs(p_dc):
                problems.append(f"sweep row {row['value']}: power balance {p_dc:.6g} W in, {p_out:.6g} W out")
    return problems


def _trajectory_problems(inv: Invocation, out: Path, checks) -> list[str]:
    cfg = _read_config(inv.config)
    dt = 2.0 * math.pi / float(cfg["params"]["omega1"]) / int(cfg["sim"]["steps_per_period"])
    problems = []
    with (out / "trajectory.csv").open(encoding="utf-8", newline="") as f:
        reader = csv.reader(line for line in f if not line.startswith("#"))
        header = next(reader)
        n = 0
        for n, row in enumerate(reader):
            values = [float(v) for v in row]
            if len(values) != len(header) or not all(map(math.isfinite, values)):
                problems.append(f"trajectory row {n} malformed or not finite")
                break
            if abs(values[0] - n * dt) > 1e-9 * max(1.0, n) * dt:
                problems.append(f"trajectory row {n} at t={values[0]!r}, grid gives {n * dt!r}")
                break
    if len(header) != TRAJECTORY_COLUMNS[inv.scenario]:
        problems.append(f"trajectory has {len(header)} columns")
    if n != inv.rk4_steps:
        problems.append(f"trajectory has {n + 1} rows for {inv.rk4_steps} steps")
    if inv.scenario == "simulate-open":
        spectra = len(list(out.glob("spectrum_sim_*.csv")))
        settled = bool(checks) and checks[0][1] == "PASS"
        if spectra != (SPECTRUM_FILES if settled else 0):
            problems.append(f"{spectra} spectrum files for settled={settled}")
    return problems


def check(workload: str, inv: Invocation, code: int, out: Path) -> list[str]:
    """Problems found in one invocation's outcome; empty when it is correct."""
    checks = report_checks(out)
    exp_code, exp_checks = _expected_outcome(workload, inv, checks)
    got = [(name, verdict) for name, verdict, _ in checks]
    problems = []
    if code != exp_code:
        problems.append(f"exit code {code}, expected {exp_code}")
    if got != exp_checks:
        problems.append(f"report checks {got} differ from expected {exp_checks}")
    if problems:
        return problems
    try:
        if inv.scenario == "sweep":
            return _sweep_problems(inv, out)
        if inv.scenario in TRAJECTORY_COLUMNS:
            return _trajectory_problems(inv, out, checks)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"output files missing or malformed: {exc!r}"]
    return []
