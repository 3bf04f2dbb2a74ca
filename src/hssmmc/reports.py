"""CSV and report emission.

All files are UTF-8 with LF line endings and '.' decimal separators.
Column sets and their ordering are fixed; when enabled, a single comment
line with the generation timestamp precedes the header.
"""

from __future__ import annotations

import datetime
import shutil
from pathlib import Path

import numpy as np

from . import workers
from .simulate import Trajectory

SPECTRUM_COLUMNS = ("k", "real", "imag", "magnitude", "phase_deg")
WAVEFORM_COLUMNS = ("t", "value_hss", "value_sim", "abs_error")

# trajectory.csv is formatted in at most this many row ranges at once. Two
# were timed, on 2 vCPUs; whether more pay for their forks is unmeasured.
TRAJECTORY_ROW_RANGES = 2


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
    """``labels`` names the state columns, in ``traj.states`` order.

    The rows are formatted in ``TRAJECTORY_ROW_RANGES`` contiguous ranges
    where more than one CPU is usable (``workers.usable_cpus``), each after
    the first by a forked worker (``workers.fork_map``) into a part file
    beside ``path``, and in one range elsewhere. The parts are
    appended in order and removed, also on failure, so the file is the same
    bytes however many ranges it was written in. Workers run on Linux with
    more than one usable CPU in a single-threaded process, for example one
    whose BLAS runs with OPENBLAS_NUM_THREADS=1.
    """
    # One %-format per row, as format(v, ".12g") writes each value. Rows
    # read time and states in place; stacking them would copy the run.
    line = ",".join(["%.12g"] * (1 + traj.states.shape[1])) + "\n"
    n, ranges = traj.t.size, min(workers.usable_cpus(), TRAJECTORY_ROW_RANGES)
    bounds = [n * i // ranges for i in range(ranges + 1)]
    parts = [path.with_name(f"{path.name}.part{i}") for i in range(1, ranges)]

    def write_range(i: int):
        rows = slice(bounds[i], bounds[i + 1])
        lines = (line % (float(t), *x.tolist()) for t, x in zip(traj.t[rows], traj.states[rows]))
        if i == 0:
            _write_lines(path, ("time", *labels), lines, timestamp)
        else:
            with parts[i - 1].open("w", encoding="utf-8", newline="\n") as f:
                f.writelines(lines)

    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        workers.fork_map(write_range, range(ranges))
        with path.open("ab") as f:
            for part in parts:
                with part.open("rb") as src:
                    shutil.copyfileobj(src, f)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


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
