"""Outside-in tracer for the benchmark's traced run.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces the
public functions of each pkwbench module, and a few model methods, with
wrappers that record a span per call; every module namespace that imported
one of those functions under its own name (``cli`` imports most of them, and
so does the benchmark's own ``workload.py``) is patched too, so a call is
caught whichever name it goes through.
``uninstall`` puts the originals back.

A span is ``(id, name, start, end, parent id, run id, thread id, error)``.
Spans are kept in memory and written out once, at the end of the run.
Generator functions are not wrapped: their span would end before their work.  A span
opened on a worker thread with nothing open on that thread takes the
innermost span open on the main thread as its parent, so the per-design
mesh and cloud jobs of ``--jobs 2`` hang under their CLI stage and show as
overlapping spans on two thread ids.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import heapq
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# Layer name -> module path.  The layer name is the span-name prefix.
LAYERS = {
    "cli": "pkwbench.cli",
    "sampling": "pkwbench.sampling",
    "geometry": "pkwbench.geometry",
    "hydraulics": "pkwbench.hydraulics",
    "dataset": "pkwbench.dataset",
    "mesh": "pkwbench.mesh",
    "stlio": "pkwbench.stlio",
    "pointcloud": "pkwbench.pointcloud",
    "trees": "pkwbench.surrogates.trees",
    "serialize": "pkwbench.surrogates.serialize",
    "pointnet": "pkwbench.surrogates.pointnet",
}

# The CLI's stage commands are private names; the stage is the span name.
CLI_STAGES = ("sample", "mesh", "cloud", "label", "split", "train", "eval", "bench")

# (layer, class name, method, span name).  The three tree-model predicts share
# one span name; metrics count only the outermost one of a nested stack.
METHODS = (
    ("trees", "RegressionTree", "predict", "trees.predict"),
    ("trees", "ForestModel", "predict", "trees.predict"),
    ("trees", "BoostedModel", "predict", "trees.predict"),
    ("pointnet", "PointNetMini", "loss_and_gradients", "pointnet.step"),
    ("pointnet", "PointNetMini", "predict", "pointnet.predict"),
)

# Functions whose span name differs from ``<layer>.<function>``.
RENAMED = {"pointnet.fit_pointnet_mini": "pointnet.fit"}


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _rows(args, kwargs, result):
    return int(result.shape[0])


def _one(args, kwargs, result):
    return 1


def _n_points(args, kwargs, result):
    return int(result.n_points)


def _triangles(args, kwargs, result):
    return int(result.n_triangles)


def _accepted(args, kwargs, result):
    return len(result.samples)


def _drawn(args, kwargs, result):
    return len(result.samples) + int(result.rejected_count)


def _tree_nodes(args, kwargs, result):
    trees = getattr(result, "trees", (result,))
    return sum(int(t.n_nodes) for t in trees)


def _epochs(args, kwargs, result):
    return len(result.history.get("train_mse", ()))


# span name -> [(counter name, function of (args, kwargs, result))].  Counters
# are added when a call returns, only for a call with no span of the same name
# open below it on its thread; a call that raises adds none.
COUNTERS = {
    "dataset.write_manifest": [("dataset.csv_write.bytes", _file_bytes)],
    "dataset.write_labels_csv": [("dataset.csv_write.bytes", _file_bytes)],
    "dataset.write_split_csv": [("dataset.csv_write.bytes", _file_bytes)],
    "stlio.write_stl": [("stlio.write_stl.bytes", _file_bytes)],
    "stlio.read_stl": [("stlio.read_stl.bytes", _file_bytes)],
    "pointcloud.write_cloud": [("pointcloud.write_cloud.bytes", _file_bytes)],
    "pointcloud.read_cloud": [("pointcloud.read_cloud.bytes", _file_bytes)],
    "pointcloud.sample_surface": [("pointcloud.points_sampled", _n_points)],
    "serialize.save_model": [("serialize.save_model.bytes", _file_bytes)],
    "mesh.solid_mesh": [("mesh.triangles", _triangles)],
    "sampling.generate_batch": [
        ("sampling.accepted", _accepted),
        ("sampling.drawn", _drawn),
    ],
    # fit_gbm builds its stages through fit_tree, so nodes count there
    "trees.fit_forest": [("trees.nodes_built", _tree_nodes)],
    "trees.fit_tree": [("trees.nodes_built", _tree_nodes)],
    "trees.predict": [("trees.predict.calls", _one), ("trees.predict.rows", _rows)],
    "pointnet.fit": [("pointnet.epochs", _epochs)],
}


def _span_name(layer, attr):
    """Span name for a module function, or None when it is not traced."""
    if layer == "cli":
        stage = attr.removeprefix("_cmd_")
        if attr == "main" or (attr.startswith("_cmd_") and stage in CLI_STAGES):
            return f"cli.{stage}"
        return None
    if attr.startswith("_"):
        return None
    name = f"{layer}.{attr}"
    return RENAMED.get(name, name)


def _targets():
    """(span name, original function) for every traced module function."""
    out = []
    for layer, modname in LAYERS.items():
        for attr, value in vars(importlib.import_module(modname)).items():
            if (inspect.isfunction(value) and value.__module__ == modname
                    and not inspect.isgeneratorfunction(value)):
                name = _span_name(layer, attr)
                if name is not None:
                    out.append((name, value))
    return out


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._stacks: dict[int, list[tuple[int, str]]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # recording

    def _open(self, name):
        """Push a new span on this thread's stack; return (id, parent, tid)."""
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1][0]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1][0] if main else -1
        span_id = next(self._ids)
        stack.append((span_id, name))
        return span_id, parent, tid

    def _close(self, span_id, name, start, parent, tid, error):
        end = time.perf_counter()
        self._stacks[tid].pop()
        self.spans.append((span_id, name, start, end, parent, self.run_id, tid, error))

    def _call(self, name, fn, args, kwargs):
        outermost = all(open_name != name for _, open_name in
                        self._stacks.get(threading.get_ident(), ()))
        span_id, parent, tid = self._open(name)
        error = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            error = False
        finally:
            self._close(span_id, name, start, parent, tid, error)
        if outermost and name in COUNTERS:
            with self._lock:
                for counter, measure in COUNTERS[name]:
                    self.counts[counter] += measure(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around one of the benchmark's own steps."""
        span_id, parent, tid = self._open(name)
        error = True
        start = time.perf_counter()
        try:
            yield
            error = False
        finally:
            self._close(span_id, name, start, parent, tid, error)

    # installation

    def install(self, *namespaces):
        """Wrap every traced function in the pkwbench modules and in
        ``namespaces`` (modules that imported library functions by name)."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "pkwbench" or n.startswith("pkwbench.")]
        modules += namespaces
        for name, fn in _targets():
            wrapper = self.wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(LAYERS[layer]), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # output

    def write(self, path):
        """Write every span as one gzip CSV row, sorted by start time."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "run_id",
                          "thread_id", "error"))
            for span in sorted(self.spans, key=lambda s: s[2]):
                out.writerow(span)


def self_times(spans):
    """Self time of every span, keyed by span id.

    A span's self time is the part of its interval that none of its child
    spans covers.  Where spans on different threads run at the same time
    (the ``--jobs`` workers), each instant is split evenly among the spans
    that are innermost at that instant, so the self times of all spans add
    up to the wall time their roots cover.
    """
    events = []
    for span_id, _name, start, end, parent, *_ in spans:
        events.append((start, 1, span_id, parent))
        events.append((end, 0, span_id, parent))
    heapq.heapify(events)
    result = defaultdict(float)
    active: dict[int, int] = {}  # span id -> parent id
    child_count: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    last = None
    while events:
        t, kind, span_id, parent = heapq.heappop(events)
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                result[leaf] += share
        last = t
        if kind == 1:
            active[span_id] = parent
            leaves.add(span_id)
            if parent in active:
                child_count[parent] += 1
                leaves.discard(parent)
        else:
            active.pop(span_id, None)
            leaves.discard(span_id)
            if parent in active:
                child_count[parent] -= 1
                if child_count[parent] == 0:
                    leaves.add(parent)
    return result


def _sum(values, names):
    return sum(values.get(n, 0.0) for n in names)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of a traced run, as ``{name: {"value", "unit"}}``.

    ``<name>.s`` sums the durations of a function's spans, leaving out spans
    nested in another span of the same name; ``<name>.self_s`` and
    ``<layer>.self_s`` sum self times (see :func:`self_times`).
    """
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    total = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    self_s = defaultdict(float)
    for span_id, name, start, end, parent, _run, _tid, error in spans:
        calls[name] += 1
        errors[name] += bool(error)
        self_s[name] += own[span_id]
        while parent in by_id and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent not in by_id:
            total[name] += end - start
    counts = tracer.counts
    fit_s = total["trees.fit_forest"] + total["trees.fit_tree"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for stage in CLI_STAGES:
        put(f"cli.{stage}.s", total[f"cli.{stage}"], "s")
        put(f"cli.{stage}.self_s", self_s[f"cli.{stage}"], "s")
    put("sampling.generate_batch.s", total["sampling.generate_batch"], "s")
    drawn = counts["sampling.drawn"]
    put("sampling.accept_ratio", counts["sampling.accepted"] / drawn if drawn else 0.0, "1")
    put("geometry.feature_vector.calls", calls["geometry.feature_vector"], "count")
    put("geometry.feature_vector.s", total["geometry.feature_vector"], "s")
    put("dataset.synthesize_labels.s", total["dataset.synthesize_labels"], "s")
    put("dataset.split.s", _sum(total, ("dataset.split_id", "dataset.split_ood_geom",
                                        "dataset.split_ood_head", "dataset.subset_fraction")), "s")
    put("dataset.csv_read.s", _sum(total, ("dataset.read_manifest", "dataset.read_labels_csv",
                                           "dataset.read_split_csv")), "s")
    put("dataset.csv_write.s", _sum(total, ("dataset.write_manifest", "dataset.write_labels_csv",
                                            "dataset.write_split_csv")), "s")
    put("dataset.csv_write.bytes", counts["dataset.csv_write.bytes"], "B")
    for fn in ("solid_mesh", "validate_mesh"):
        put(f"mesh.{fn}.calls", calls[f"mesh.{fn}"], "count")
        put(f"mesh.{fn}.s", total[f"mesh.{fn}"], "s")
    put("mesh.crest_trace_length.s", total["mesh.crest_trace_length"], "s")
    put("mesh.triangles", counts["mesh.triangles"], "count")
    put("mesh.failed", errors["mesh.solid_mesh"], "count")
    for fn in ("write_stl", "read_stl"):
        put(f"stlio.{fn}.s", total[f"stlio.{fn}"], "s")
        put(f"stlio.{fn}.bytes", counts[f"stlio.{fn}.bytes"], "B")
    put("pointcloud.sample_surface.s", total["pointcloud.sample_surface"], "s")
    put("pointcloud.points_sampled", counts["pointcloud.points_sampled"], "count")
    put("pointcloud.write_cloud.s", total["pointcloud.write_cloud"], "s")
    put("pointcloud.write_cloud.bytes", counts["pointcloud.write_cloud.bytes"], "B")
    put("pointcloud.read_cloud.calls", calls["pointcloud.read_cloud"], "count")
    put("pointcloud.read_cloud.s", total["pointcloud.read_cloud"], "s")
    put("pointcloud.read_cloud.bytes", counts["pointcloud.read_cloud.bytes"], "B")
    put("trees.fit_forest.s", total["trees.fit_forest"], "s")
    put("trees.fit_gbm.s", total["trees.fit_gbm"], "s")
    put("trees.fit_tree.calls", calls["trees.fit_tree"], "count")
    put("trees.nodes_built", counts["trees.nodes_built"], "count")
    put("trees.nodes_per_s", counts["trees.nodes_built"] / fit_s if fit_s else 0.0, "1/s")
    put("trees.predict.calls", counts["trees.predict.calls"], "count")
    put("trees.predict.rows", counts["trees.predict.rows"], "count")
    put("trees.predict.s", total["trees.predict"], "s")
    put("serialize.save_model.s", total["serialize.save_model"], "s")
    put("serialize.save_model.bytes", counts["serialize.save_model.bytes"], "B")
    put("serialize.load_model.s", total["serialize.load_model"], "s")
    put("pointnet.fit.s", total["pointnet.fit"], "s")
    put("pointnet.fit.self_s", self_s["pointnet.fit"], "s")
    put("pointnet.step.calls", calls["pointnet.step"], "count")
    put("pointnet.step.s", total["pointnet.step"], "s")
    put("pointnet.epochs", counts["pointnet.epochs"], "count")
    put("pointnet.input_bytes", counts["pointnet.input_bytes"], "B")
    put("pointnet.flops", counts["pointnet.flops"], "flop")
    fit_net = total["pointnet.fit"]
    put("pointnet.gflops_per_s", counts["pointnet.flops"] / fit_net / 1e9 if fit_net else 0.0,
        "GFLOP/s")
    for layer in (*LAYERS, "harness"):
        put(f"{layer}.self_s", sum(v for n, v in self_s.items()
                                   if n.startswith(layer + ".")), "s")
    put("trace.wall_s", wall_s, "s")
    put("trace.self_sum_s", sum(own.values()), "s")
    put("trace.spans", len(spans), "count")
    return out
