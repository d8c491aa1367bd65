"""Spans around somcat's public functions, recorded from outside the package.

``Tracer.install()`` replaces each target function with a timing wrapper in
every ``somcat`` namespace that holds it (modules import by name, so
``somcat.som.train`` and ``somcat.analyses.train`` are two lookups of one
function); ``uninstall()`` puts every original back.  Each call records wall
time (``perf_counter``) and main-thread CPU time (``thread_time``).  A span's
self time is its duration minus its direct children's, so per command the
self times of all spans, the command's own root span included, sum to the
command's wall time.

Per-step calls (``train_step``, ``bmu``, sampler draws) are aggregated into
count, sum and max per command; every other call is also kept as a span
(id, parent, command, name, layer, start, end, cpu) for the run's trace file.
A per-step wrapper's own cost lands in its caller's time (``bmu``'s in
``train_step``'s); ``Tracer.calibrate()`` measures it, so that per-call
figures can be reported without it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from statistics import median
from types import SimpleNamespace

LAYERS = (
    "dataset", "tables", "som", "analyses", "macrocluster",
    "render", "crossing", "jsonio", "cli",
)

# (module, attribute, layer, aggregated per step); "Class.method" attributes
# are patched on the class.
TARGETS = (
    ("somcat.dataset", "ingest_csv", "dataset", False),
    ("somcat.marriages", "marriage_dataset", "dataset", False),
    ("somcat.dataset", "CategoricalDataset.from_json", "dataset", False),
    ("somcat.dataset", "CategoricalDataset.to_json", "dataset", False),
    ("somcat.dataset", "CategoricalDataset.sha256", "dataset", False),
    ("somcat.dataset", "to_disjunctive", "dataset", False),
    ("somcat.tables", "burt", "tables", False),
    ("somcat.tables", "corrected_burt", "tables", False),
    ("somcat.tables", "corrected_disjunctive", "tables", False),
    ("somcat.som", "init_model", "som", False),
    ("somcat.som", "train", "som", False),
    ("somcat.som", "train_step", "som", True),
    ("somcat.som", "bmu", "som", True),
    ("somcat.som", "quantization_error", "som", False),
    ("somcat.som", "assign", "som", False),
    ("somcat.som", "SomModel.to_json", "som", False),
    ("somcat.som", "SomModel.from_json", "som", False),
    ("somcat.som", "UniformRowSampler.draw", "analyses", True),
    ("somcat.analyses", "KdisjSampler.draw", "analyses", True),
    ("somcat.analyses", "kdisj_associate", "analyses", True),
    ("somcat.analyses", "run_analysis", "analyses", False),
    ("somcat.analyses", "kmca", "analyses", False),
    ("somcat.analyses", "kmca_ind", "analyses", False),
    ("somcat.analyses", "kdisj", "analyses", False),
    ("somcat.analyses", "modality_mean_vectors", "analyses", False),
    ("somcat.analyses", "deviations", "analyses", False),
    ("somcat.analyses", "AnalysisResult.to_json", "analyses", False),
    ("somcat.analyses", "AnalysisResult.from_json", "analyses", False),
    ("somcat.analyses", "DeviationTable.to_json", "analyses", False),
    ("somcat.macrocluster", "unit_weights", "macrocluster", False),
    ("somcat.macrocluster", "ward_cluster", "macrocluster", False),
    ("somcat.macrocluster", "ward_linkage", "macrocluster", False),
    ("somcat.macrocluster", "cut", "macrocluster", False),
    ("somcat.macrocluster", "Dendrogram.to_json", "macrocluster", False),
    ("somcat.macrocluster", "MacroClassing.to_json", "macrocluster", False),
    ("somcat.macrocluster", "MacroClassing.from_json", "macrocluster", False),
    ("somcat.render", "render_map", "render", False),
    ("somcat.render", "render_text", "render", False),
    ("somcat.render", "render_pies", "render", False),
    ("somcat.crossing", "cross", "crossing", False),
    ("somcat.crossing", "external_from_dataset", "crossing", False),
    ("somcat.crossing", "external_from_csv", "crossing", False),
    ("somcat.jsonio", "dumps", "jsonio", False),
    ("somcat.jsonio", "write_atomic", "jsonio", False),
    ("somcat.jsonio", "load", "jsonio", False),
    ("somcat.jsonio", "sha256_of", "jsonio", False),
    ("somcat.cli", "stability_report", "cli", False),
)


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _distances(acc, args, kwargs, result):
    """Distance evaluations (rows x units x width) from argument shapes."""
    model, mask = args[0], _arg(args, kwargs, 2, "mask")
    width = model.dim if mask is None else mask.width
    _count_distances(acc, len(_arg(args, kwargs, 1, "rows")), model.topology.n_units,
                     width)


def _count_distances(acc, rows, units, width, calls=1):
    acc.counters["distance_evals"] += calls * rows * units * width
    temp = min(rows, 1024) * units * width * 8
    if temp > acc.counters["distance_temp_bytes"]:
        acc.counters["distance_temp_bytes"] = temp


def _bmu_shape(args, kwargs):
    """(units, width) of one ``bmu`` call; counted per call, turned into
    distance evaluations once per command."""
    model, mask = args[0], _arg(args, kwargs, 2, "mask")
    return model.topology.n_units, model.dim if mask is None else mask.width


def _bytes_written(acc, args, kwargs, result):
    acc.counters["bytes_written"] += os.path.getsize(result)


def _bytes_read(acc, args, kwargs, result):
    acc.counters["bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# Per-command calls: run after the call, with its result.
HOOKS = {
    "quantization_error": _distances,
    "assign": _distances,
    "write_atomic": _bytes_written,
    "load": _bytes_read,
}
# Per-step calls: a key of the call's shape, counted per key.
SHAPE_KEYS = {"bmu": _bmu_shape}


class CommandAccumulator:
    """Per-command totals: calls by name, self time by layer, counters."""

    def __init__(self):
        self.calls = defaultdict(lambda: [0, 0.0, 0.0, 0.0])  # n, wall, cpu, max
        self.self_wall = dict.fromkeys(LAYERS, 0.0)
        self.self_cpu = dict.fromkeys(LAYERS, 0.0)
        self.counters = defaultdict(int)
        self.shapes: dict[tuple, int] = {}                 # bmu (units, width) -> calls
        self.first: dict[str, tuple[float, float]] = {}   # wall, cpu

    def summary(self, wall: float, cpu: float) -> dict:
        for (units, width), calls in self.shapes.items():
            _count_distances(self, 1, units, width, calls)
        return {
            "wall": wall,
            "cpu": cpu,
            "calls": {k: list(v) for k, v in self.calls.items()},
            "self_wall": dict(self.self_wall),
            "self_cpu": dict(self.self_cpu),
            "counters": dict(self.counters),
            "first": dict(self.first),
        }


def _empty(*args, **kwargs):
    return None


class Tracer:
    """Installs the wrappers and keeps spans and per-command totals."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.step_calls: list[tuple] = []   # (command, name, count, sum, max)
        self._aggregated: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []      # frames: [child wall, child cpu, span id]
        self._acc: CommandAccumulator | None = None
        self._command = -1
        self._root = (0.0, 0.0)

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "somcat" or n.startswith("somcat."))
        ]
        for modname, attr, layer, aggregate in TARGETS:
            if aggregate:
                self._aggregated.add(attr)
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(attr, layer, raw.__func__, aggregate))
                else:
                    patched = self._wrap(attr, layer, raw, aggregate)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(attr, layer, original, aggregate)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _wrap(self, name, layer, fn, aggregate):
        if aggregate:
            return self._wrap_step(name, layer, fn, SHAPE_KEYS.get(name))
        tracer = self
        hook = HOOKS.get(name)
        perf, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            c0 = cpu_clock()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu_clock()
                stack.pop()
                wall, cpu = t1 - t0, c1 - c0
                parent[0] += wall
                parent[1] += cpu
                acc = tracer._acc
                acc.self_wall[layer] += wall - frame[0]
                acc.self_cpu[layer] += cpu - frame[1]
                rec = acc.calls[name]
                rec[0] += 1
                rec[1] += wall
                rec[2] += cpu
                if wall > rec[3]:
                    rec[3] = wall
                if name not in acc.first:
                    acc.first[name] = (wall, cpu)
                tracer.spans[span_id] = (
                    span_id, parent[2], tracer._command, name, layer, t0, t1, cpu,
                )
            if hook is not None:
                hook(acc, args, kwargs, result)
            return result

        return wrapper

    def _wrap_step(self, name, layer, fn, shape_key):
        """The wrapper of a per-step function: totals only, no span, and at
        most one dict update for its shape.  What it costs its caller is
        measured by ``calibrate``."""
        tracer = self
        perf, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, 0.0, parent[2]]
            stack.append(frame)
            c0 = cpu_clock()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu_clock()
                stack.pop()
                wall, cpu = t1 - t0, c1 - c0
                parent[0] += wall
                parent[1] += cpu
                acc = tracer._acc
                acc.self_wall[layer] += wall - frame[0]
                acc.self_cpu[layer] += cpu - frame[1]
                rec = acc.calls[name]
                rec[0] += 1
                rec[1] += wall
                rec[2] += cpu
                if wall > rec[3]:
                    rec[3] = wall
            if shape_key is not None:
                key = shape_key(args, kwargs)
                acc.shapes[key] = acc.shapes.get(key, 0) + 1
            return result

        return wrapper

    def calibrate(self, calls: int = 2000, reps: int = 5) -> dict:
        """Cost of a per-step wrapper, in seconds per call, from wrapping an
        empty function: ``inner`` is what the call's own clock records
        beyond a bare call, ``outer`` the rest of what the wrapper adds to
        its caller's time.  ``plain`` is the wrapper without a shape key,
        ``bmu`` the one with ``bmu``'s."""
        if self._stack:
            raise RuntimeError("cannot calibrate inside a command")
        # Stand-in arguments with the attributes ``_bmu_shape`` reads.
        model = SimpleNamespace(dim=12, topology=SimpleNamespace(n_units=16))
        args = (model, None, SimpleNamespace(width=12))
        out = {}
        perf = time.perf_counter
        for kind, shape_key in (("plain", None), ("bmu", _bmu_shape)):
            wrapped = self._wrap_step("calibration", "cli", _empty, shape_key)
            inner, outer = [], []
            for _ in range(reps):
                self._acc = CommandAccumulator()
                self._stack = [[0.0, 0.0, None]]
                t0 = perf()
                for _ in range(calls):
                    _empty(*args)
                raw = perf() - t0
                t0 = perf()
                for _ in range(calls):
                    wrapped(*args)
                total = perf() - t0
                recorded = self._acc.calls["calibration"][1]
                inner.append((recorded - raw) / calls)
                outer.append((total - recorded) / calls)
            self._acc, self._stack = None, []
            out[kind] = {"inner": median(inner), "outer": median(outer)}
        return out

    # ------------------------------------------------------------ commands

    def begin_command(self) -> None:
        """Open the root span of one CLI command (layer ``cli``)."""
        if self._stack:
            raise RuntimeError("a command is already open")
        self._command += 1
        self._acc = CommandAccumulator()
        self._stack.append([0.0, 0.0, len(self.spans)])
        self.spans.append(None)
        self._root = (time.thread_time(), time.perf_counter())

    def end_command(self) -> dict:
        t1 = time.perf_counter()
        c1 = time.thread_time()
        c0, t0 = self._root
        frame = self._stack.pop()
        wall, cpu = t1 - t0, c1 - c0
        acc = self._acc
        acc.self_wall["cli"] += wall - frame[0]
        acc.self_cpu["cli"] += cpu - frame[1]
        self.spans[frame[2]] = (
            frame[2], None, self._command, "command", "cli", t0, t1, cpu
        )
        for name in sorted(self._aggregated & acc.calls.keys()):
            n, total, _, longest = acc.calls[name]
            self.step_calls.append((self._command, name, n, total, longest))
        self._acc = None
        return acc.summary(wall, cpu)

    def write_spans(self, path) -> None:
        """One JSON line per span, in start order, then one per command and
        per-step function with its call count, total and longest wall time."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                sid, parent, cmd, name, layer, t0, t1, cpu = span
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "command": cmd, "name": name,
                    "layer": layer, "start": t0, "end": t1, "cpu": cpu,
                }) + "\n")
            for cmd, name, n, total, longest in self.step_calls:
                fh.write(json.dumps({
                    "command": cmd, "name": name, "calls": n, "sum": total,
                    "max": longest,
                }) + "\n")
