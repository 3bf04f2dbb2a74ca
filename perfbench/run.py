"""hssmmc benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and needs nothing installed. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` every scenario runs as its own ``hssmmc`` CLI process and
the metrics are the end-to-end ones. With ``--trace 1`` the scenarios run
inside this process with the layer functions wrapped (tracer.py), and the
metrics are the per-layer ones. The full record (seed, generated inputs,
environment, workload-specific figures, spans) is written under
``.perfbench_out/``. The exit code is 1 when any output failed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import gates
import workloads
from tracer import Tracer, layer_metrics

# One BLAS thread: the lifted matrices are too small to gain from a second
# one, and a thread pool started per process costs 0.75 s on its first
# eigenvalue call and adds run-to-run noise on a small shared machine.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Two rounds at least, so that every input runs twice and its outputs can be
# compared byte for byte.
MIN_ROUNDS = 2
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


_UNIT_SUFFIXES = (("_s", "s"), ("_us_per_step", "us"), ("_frac", "fraction"),
                  ("_flops_computed", "flop"), (".bytes", "B"))


def per_layer_unit(name: str) -> str:
    stem = re.sub(r"\.h\d+$", "", name)
    return next((unit for suffix, unit in _UNIT_SUFFIXES if stem.endswith(suffix)), "count")


class Run:
    """Gates every invocation and keeps the outcome of the whole run."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failures: list[dict] = []
        self._digests: dict[str, dict[str, str]] = {}

    def gate(self, inv: workloads.Invocation, code: int, out: Path) -> list[tuple[str, str, str]]:
        self.attempted += 1
        problems = gates.check(self.workload, inv, code, out)
        digest = gates.digest(out) if out.is_dir() else {}
        first = self._digests.setdefault(inv.key, digest)
        if digest != first:
            changed = sorted(n for n in first.keys() | digest.keys() if first.get(n) != digest.get(n))
            problems.append(f"outputs differ from an earlier run on the same input: {changed}")
        if problems:
            self.failures.append({"invocation": inv.key, "problems": problems})
        return gates.report_checks(out)


def run_process(root: Path, env: dict, inv: workloads.Invocation, out: Path) -> tuple[int, float, float]:
    """Run one CLI invocation as a fresh process: (exit code, wall s, peak RSS MB)."""
    shutil.rmtree(out, ignore_errors=True)
    with open(f"{out}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "hssmmc.cli", *inv.argv(out)],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_in_process(cli, inv: workloads.Invocation, out: Path) -> tuple[int, float, None]:
    """Run one CLI invocation through ``hssmmc.cli.main``: (exit code, wall s, no RSS)."""
    shutil.rmtree(out, ignore_errors=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(inv.argv(out))
    except Exception:  # the run goes on; the gate counts this invocation as failed
        sink.write(traceback.format_exc())
        code = -1
    wall = time.perf_counter() - start
    Path(f"{out}.log").write_text(sink.getvalue(), encoding="utf-8")
    return code, wall, None


def time_setup(root: Path, env: dict, config: Path) -> float:
    """Wall time of a fresh process that imports hssmmc and loads one config."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys, hssmmc; hssmmc.load_config(sys.argv[1])", str(config)],
        cwd=root, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def round_record(invs, results, checks_per_inv) -> dict:
    wall = sum(r[1] for r in results)
    checks = [c for cs in checks_per_inv for c in cs]
    return {
        "wall_s": wall,
        "invocation_s": [r[1] for r in results],
        "peak_rss_mb": max((r[2] for r in results if r[2] is not None), default=None),
        "checks": len(checks),
        "failed_checks": sum(verdict == "FAIL" for _, verdict, _ in checks),
        "accuracy": gates.accuracy(checks),
        "sweep_points": sum(len(i.sweep_values) for i in invs),
        "rk4_steps": sum(i.rk4_steps for i in invs),
    }


def measure_rounds(seconds: float, min_rounds: int, one_round) -> list:
    """Repeat ``one_round`` while another round still fits in ``seconds``."""
    rounds = []
    start = time.perf_counter()
    last = 0.0
    while len(rounds) < min_rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        rounds.append(one_round())
        last = time.perf_counter() - t0
    return rounds


def untraced(run: Run, root: Path, invs, seconds: float) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    outs = run.work / "out"
    outs.mkdir()

    # Warm-up: fills the page cache and the bytecode cache; its outputs are
    # the reference for the determinism check, its time is discarded.
    code, _, _ = run_process(root, env, invs[0], outs / invs[0].key)
    run.gate(invs[0], code, outs / invs[0].key)

    # Set-up samples are spread over the whole run, one before each
    # invocation, so that their median sees the same machine as the rounds.
    setup = []

    def one_round():
        results, checks = [], []
        for inv in invs:
            setup.append(time_setup(root, env, inv.config))
            out = outs / inv.key
            results.append(run_process(root, env, inv, out))
            checks.append(run.gate(inv, results[-1][0], out))
        return round_record(invs, results, checks)

    rounds = measure_rounds(seconds, MIN_ROUNDS, one_round)
    per_input = zip(*(r["invocation_s"] for r in rounds))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(statistics.median(times) for times in per_input),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    detail = workload_figures(rounds, len(invs))
    detail["setup_s_samples"] = setup
    detail["rounds"] = rounds
    return metrics, detail


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    ordered = sorted(samples)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100, "samples": n,
                "note": "fewer than 11 samples, so this is the maximum"}
    pct = math.floor(100 * (n - 10) / n)
    return {"value": ordered[math.ceil(pct / 100 * n) - 1], "percentile": pct, "samples": n}


def workload_figures(rounds: list[dict], n_invs: int) -> dict:
    """End-to-end figures that only some workloads have, from the untraced rounds."""
    last = rounds[-1]
    figures = {
        "wall_s_tail": tail([r["wall_s"] / n_invs for r in rounds]),
        "checks_failed_frac": last["failed_checks"] / last["checks"] if last["checks"] else 0.0,
    }
    names = {"dominant": "steady_agreement_err", "waveform": "steady_waveform_nrmse",
             "perturbation NRMSE": "smallsig_nrmse"}
    for family, value in last["accuracy"].items():
        figures[names[family]] = value
    if last["sweep_points"]:
        figures["sweep_points_per_s"] = statistics.median(r["sweep_points"] / r["wall_s"] for r in rounds)
    if last["rk4_steps"]:
        figures["sim_steps_per_s"] = statistics.median(r["rk4_steps"] / r["wall_s"] for r in rounds)
    return figures


def traced(run: Run, root: Path, invs, seconds: float) -> tuple[dict, dict]:
    sys.path.insert(0, str(root / "src"))
    import hssmmc.cli as cli

    outs = run.work / "out"
    outs.mkdir()
    # Warm-up in this process: imports, first BLAS and LAPACK calls.
    code, _, _ = run_in_process(cli, invs[0], outs / invs[0].key)
    run.gate(invs[0], code, outs / invs[0].key)

    spans = []

    def one_round(tracer=None):
        results, checks = [], []
        if tracer is not None:
            tracer.install()
        try:
            for inv in invs:
                out = outs / inv.key
                if tracer is None:
                    results.append(run_in_process(cli, inv, out))
                else:
                    with tracer.span(f"invocation.{inv.key}"):
                        results.append(run_in_process(cli, inv, out))
                checks.append(run.gate(inv, results[-1][0], out))
        finally:
            if tracer is not None:
                tracer.uninstall()
        record = round_record(invs, results, checks)
        if tracer is not None:
            record["layers"] = layer_metrics(tracer.spans, tracer.eig_calls, len(invs))
            spans.append(tracer.spans)
        return record

    # Untraced and traced rounds alternate, so the overhead compares like with like.
    pairs = measure_rounds(seconds, 1, lambda: (one_round(), one_round(Tracer())))
    plain = statistics.median(p[0]["wall_s"] for p in pairs)
    with_trace = statistics.median(p[1]["wall_s"] for p in pairs)
    layers = [p[1]["layers"] for p in pairs]
    metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    metrics["trace.overhead_frac"] = with_trace / plain - 1.0
    (run.work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return metrics, {"rounds": [r for p in pairs for r in p]}


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(root),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hssmmc" / "cli.py").is_file():
        print(f"error: {root} holds no hssmmc source tree (src/hssmmc)", file=sys.stderr)
        return 2
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS

    work = root / OUT_DIR / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    invs = workloads.generate(args.workload, args.seed, root, work / "inputs")
    run = Run(args.workload, work)
    measure = traced if args.trace else untraced
    metrics, detail = measure(run, root, invs, args.seconds)

    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in metrics}
    failed = len(run.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": [
            {"key": i.key, "scenario": i.scenario, "config": str(i.config.relative_to(root)),
             "text": i.config.read_text(encoding="utf-8"), "drawn": i.drawn}
            for i in invs
        ],
        "environment": environment(root),
        "attempted": run.attempted,
        "failed": failed,
        "ops_failed_frac": failed / run.attempted,
        "failures": run.failures,
        "metrics": metrics,
        **detail,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in run.failures:
        print(f"FAILED {problem['invocation']}: {'; '.join(problem['problems'])}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"ops_failed_frac = {record['ops_failed_frac']:.6g} ({failed}/{run.attempted})")
    for name, value in detail.items():
        if name not in ("rounds", "setup_s_samples"):
            print(f"{name} = {json.dumps(value)}")
    drawn = {i.key: i.drawn for i in invs if i.drawn}
    print(f"seed = {args.seed}; drawn inputs = {json.dumps(drawn)}")
    print(f"record: {(work / 'result.json').relative_to(root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
