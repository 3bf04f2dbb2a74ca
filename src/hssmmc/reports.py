"""CSV and report emission.

All files are UTF-8 with LF line endings and '.' decimal separators.
Column sets and their ordering are fixed; when enabled, a single comment
line with the generation timestamp precedes the header.
"""

from __future__ import annotations

import datetime
from pathlib import Path

import numpy as np

from .simulate import Trajectory

SPECTRUM_COLUMNS = ("k", "real", "imag", "magnitude", "phase_deg")
WAVEFORM_COLUMNS = ("t", "value_hss", "value_sim", "abs_error")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def write_csv(path: Path, columns, rows, timestamp: bool) -> None:
    """Write the header and then each row as it is formatted, so no more
    than one line of the file is held in memory."""
    _write_lines(path, columns, (",".join(_fmt(v) for v in row) + "\n" for row in rows), timestamp)


def _write_lines(path: Path, columns, lines, timestamp: bool) -> None:
    """Write the optional timestamp line, the header and then ``lines``,
    each already ending in a newline, as they come."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        if timestamp:
            now = datetime.datetime.now(datetime.timezone.utc).isoformat()
            f.write(f"# generated {now}\n")
        f.write(",".join(columns) + "\n")
        f.writelines(lines)


def write_spectrum_csv(path: Path, coeffs: np.ndarray, timestamp: bool) -> None:
    """One line per harmonic k = -h..h of the coefficient row ``coeffs``."""
    h = coeffs.size // 2
    rows = (
        (k, c.real, c.imag, abs(c), float(np.degrees(np.angle(c))))
        for k, c in zip(range(-h, h + 1), coeffs.tolist())
    )
    write_csv(path, SPECTRUM_COLUMNS, rows, timestamp)


def write_waveform_csv(path: Path, t, value_hss, value_sim, timestamp: bool) -> None:
    """One line per sample of two real series on the times ``t``, with
    their absolute difference."""
    t, hss, sim = (np.asarray(a, dtype=float) for a in (t, value_hss, value_sim))
    # One %-format per row, as in write_trajectory_csv.
    columns = (t.tolist(), hss.tolist(), sim.tolist(), np.abs(hss - sim).tolist())
    lines = ("%.12g,%.12g,%.12g,%.12g\n" % row for row in zip(*columns))
    _write_lines(path, WAVEFORM_COLUMNS, lines, timestamp)


def write_trajectory_csv(path: Path, traj: Trajectory, labels, timestamp: bool) -> None:
    """``labels`` names the state columns, in ``traj.states`` order."""
    # One %-format per row, as format(v, ".12g") writes each value. Rows
    # read time and states in place; stacking them would copy the run.
    line = ",".join(["%.12g"] * (1 + traj.states.shape[1])) + "\n"
    lines = (line % (float(t), *x.tolist()) for t, x in zip(traj.t, traj.states))
    _write_lines(path, ("time", *labels), lines, timestamp)


def write_eigenvalue_csv(path: Path, eig: np.ndarray, timestamp: bool) -> None:
    rows = ((i, lam.real, lam.imag) for i, lam in enumerate(eig))
    write_csv(path, ("index", "real", "imag"), rows, timestamp)


def write_report(path: Path, title: str, checks, timestamp: bool) -> bool:
    """Write the pass/fail report; returns True when every check passed.

    ``checks`` is a sequence of (name, passed, detail) triples.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if timestamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines.append(f"# generated {now}")
    lines.append(title)
    all_pass = True
    for name, passed, detail in checks:
        all_pass &= bool(passed)
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    lines.append(f"result: {'PASS' if all_pass else 'FAIL'}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return all_pass
