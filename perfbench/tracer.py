"""In-process span tracer for the traced run.

The tracer replaces, for the duration of one traced round, every function
that ``hssmmc.pipelines`` imports from another hssmmc layer with a wrapper
that records a span (name, start, end, parent). The scenario runners in
``SCENARIO_RUNNERS`` and the CLI's ``load_config`` are wrapped the same way,
and ``scipy.linalg.eigvals`` calls are counted. The program's own code is
not changed; calls a layer makes inside itself are not split out.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time
from pathlib import Path

from workloads import SWEEP_ORDERS


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _steps_of_trajectory(fn, args, kwargs, result):
    return {"steps": result.t.size - 1}


def _envelope(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps = int(round((a["t_end"] - a["t_start"]) / a["dt"]))
    return {"steps": steps, **_model_size(fn, args, kwargs, result)}


def _model_size(fn, args, kwargs, result):
    model = _bound(fn, args, kwargs)["model"]
    return {"h": model.h, "dim": model.A.shape[0]}


def _assembly(fn, args, kwargs, result):
    return {"h": _bound(fn, args, kwargs)["h"], "dim": result.A.shape[0]}


def _file_size(fn, args, kwargs, result):
    return {"bytes": Path(_bound(fn, args, kwargs)["path"]).stat().st_size}


_ATTRIBUTES = {
    "simulate.simulate_open_loop": _steps_of_trajectory,
    "simulate.simulate_closed_loop": _steps_of_trajectory,
    "smallsignal.envelope_response": _envelope,
    "smallsignal.eigenvalues": _model_size,
    "smallsignal.assemble_smallsignal": _assembly,
    "steady.assemble_steady": _assembly,
    "steady.solve_steady_state": _model_size,
}


class Tracer:
    """Spans kept in memory; ``install`` and ``uninstall`` bracket a traced round."""

    def __init__(self):
        self.spans: list[dict] = []
        self.eig_calls = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        attributes = _ATTRIBUTES.get(name)
        if attributes is None and name.startswith("reports."):
            attributes = _file_size

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attributes is not None:
                record.update(attributes(fn, args, kwargs, result))
            return result

        return traced

    def _count_eig(self, fn):
        def counted(*args, **kwargs):
            self.eig_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import scipy.linalg

        import hssmmc.cli as cli
        import hssmmc.pipelines as pipelines

        for attr, fn in list(vars(pipelines).items()):
            module = getattr(fn, "__module__", "")
            if inspect.isfunction(fn) and module.startswith("hssmmc.") and module != pipelines.__name__:
                self._patch(pipelines, attr, self._wrap(f"{module.split('.')[-1]}.{attr}", fn))
        runners = pipelines.SCENARIO_RUNNERS
        originals = dict(runners)
        runners.update({k: self._wrap(f"pipelines.{fn.__name__}", fn) for k, fn in originals.items()})
        self._restore.append((runners, None, originals))
        self._patch(cli, "load_config", self._wrap("config.load_config", cli.load_config))
        self._patch(scipy.linalg, "eigvals", self._count_eig(scipy.linalg.eigvals))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if attr is None:
                owner.update(original)
            else:
                setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another in a single thread, so the
    part they cover is the sum of their durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], eig_calls: int, invocations: int) -> dict[str, float]:
    """Per-layer figures of one traced round, per invocation unless per call."""
    def named(*names):
        return [s for s in spans if s["name"] in names]

    def seconds(*names):
        return sum(s["end"] - s["start"] for s in named(*names)) / invocations

    def per_inv(items, key):
        return sum(s.get(key, 0) for s in items) / invocations

    m = {}
    for kind in ("open", "closed"):
        runs = named(f"simulate.simulate_{kind}_loop")
        busy = sum(s["end"] - s["start"] for s in runs)
        steps = sum(s.get("steps", 0) for s in runs)
        m[f"simulate.{kind}_loop_s"] = busy / invocations
        m[f"simulate.{kind}_loop_steps"] = steps / invocations
        m[f"simulate.{kind}_loop_us_per_step"] = 1e6 * busy / steps if steps else 0.0
    m["simulate.spectral_s"] = seconds(
        "simulate.settled_spectrum", "simulate.compare_spectra", "simulate.power_balance"
    )
    envelopes = named("smallsignal.envelope_response")
    m["smallsignal.envelope_s"] = seconds("smallsignal.envelope_response")
    m["smallsignal.envelope_calls"] = len(envelopes) / invocations
    m["smallsignal.envelope_steps"] = per_inv(envelopes, "steps")
    m["lifted.eig_decomps"] = eig_calls / invocations
    m["smallsignal.eigenvalues_s"] = seconds("smallsignal.eigenvalues")

    per_h = {
        "smallsignal.eigenvalues_s": "smallsignal.eigenvalues",
        "smallsignal.assemble_s": "smallsignal.assemble_smallsignal",
        "steady.assemble_s": "steady.assemble_steady",
        "steady.solve_s": "steady.solve_steady_state",
    }
    for metric, name in per_h.items():
        for h in SWEEP_ORDERS:
            calls = [s["end"] - s["start"] for s in named(name) if s.get("h") == h]
            m[f"{metric}.h{h}"] = statistics.median(calls) if calls else 0.0
    for h in SWEEP_ORDERS:
        dims = [s["dim"] for s in named("smallsignal.assemble_smallsignal") if s.get("h") == h]
        m[f"lifted.dim.h{h}"] = float(dims[0]) if dims else 0.0
    # Textbook operation counts from the matrix dimension, not measured:
    # complex LU is (8/3) n^3 real flops; eigenvalues alone about 10 n^3
    # complex operations (Golub and Van Loan), counted as 4 real flops each.
    solves = named("steady.solve_steady_state")
    eigs = named("smallsignal.eigenvalues", "smallsignal.envelope_response")
    m["lifted.solve_flops_computed"] = sum(8.0 / 3.0 * s.get("dim", 0) ** 3 for s in solves) / invocations
    m["lifted.eig_flops_computed"] = sum(40.0 * s.get("dim", 0) ** 3 for s in eigs) / invocations

    m["smallsignal.reconstruct_s"] = seconds("smallsignal.reconstruct_perturbation")
    writes = [s for s in spans if s["name"].startswith("reports.")]
    m["reports.write_s"] = sum(s["end"] - s["start"] for s in writes) / invocations
    m["reports.bytes"] = per_inv(writes, "bytes")
    m["reports.files"] = len(writes) / invocations
    m["config.load_s"] = seconds("config.load_config")
    m["harmonic.synthesize_s"] = seconds("harmonic.synthesize")
    m["plant.indices_s"] = seconds("plant.open_loop_insertion_indices")

    own = self_times(spans)
    m["pipelines.self_s"] = sum(
        own[s["id"]] for s in spans if s["name"].startswith("pipelines.")
    ) / invocations
    m["trace.invocation_s"] = sum(
        s["end"] - s["start"] for s in spans if s["name"].startswith("invocation.")
    ) / invocations
    return m
