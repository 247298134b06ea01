"""Run one benchmark workload in this process and write its run record.

``run.py`` starts this script in a fresh interpreter per run, pinned to the
first CPU of ``--cpus`` and with the BLAS thread count already pinned in the
environment, so ``peak_rss_mb`` covers exactly one run.  All stages go
through ``pkwbench.cli.main`` and the public library functions it uses; the
program sees only inputs generated from ``--seed``.

    python3 perfbench/workload.py --workload forest-matrix --seed 11 \
        --cpus 0,1 --workspace .bench_work/ws --record rec.json --start T

``--setup-only`` stops after set-up.  The record keeps each timed interval
(``time.monotonic`` start, end, and the CPUs it ran on) so that ``run.py``
can turn it into reference seconds with the CPU-speed probes' samples.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import pkwbench.cli as cli  # noqa: E402
from pkwbench.dataset import read_labels_csv, read_manifest, read_split_csv  # noqa: E402
from pkwbench.geometry import feature_vector  # noqa: E402
from pkwbench.pointcloud import read_cloud, subsample  # noqa: E402
from pkwbench.surrogates import (  # noqa: E402
    PointNetConfig,
    attach_discharge,
    compute_metrics,
    fit_pointnet_mini,
    load_model,
    save_model,
)
from pkwbench.surrogates.pointnet import _LAYER_DIMS, _POOL_AFTER  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

# A p99 needs at least ten samples beyond it.
LATENCY_CALLS = 1100
# Single-row and batch predictions may differ by reassociation, not more.
PREDICT_TOL = 1e-12
MATRIX_ROWS = 13
# One ~1.5 s fit is too short to read steadily in reference seconds, and the
# id forest's node count moves by up to 10% with its seed alone.  Three fits,
# with seeds S+2, S+1 and S, are timed and summed.
TRAIN_REPEATS = 3
GEOMETRY_DESIGNS = 40
CLOUD_POINTS = 20_000
NET_POINTS = 512
NET_EPOCHS = 3
BASELINE = Path(__file__).resolve().parent / "baseline.json"


class Run:
    """State of one workload run: workspace, accounting, checks, metrics."""

    def __init__(self, args, tracer):
        self.ws = Path(args.workspace)
        self.seed = args.seed
        self.cpus = args.cpus
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failed_ids: dict[str, list[str]] = {}
        self.checks: dict[str, bool] = {}
        self.metrics: dict[str, dict] = {}
        self.intervals: dict[str, list] = defaultdict(list)
        self.start = time.perf_counter()

    def step(self, name):
        """Harness span in the traced run, nothing otherwise."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"harness.{name}")

    @contextlib.contextmanager
    def timed(self, name, parallel=False):
        """Add the block's wall interval to ``name``'s intervals.

        The process stays on the first CPU of ``--cpus``; a ``parallel``
        block may use all of them (threads started in it inherit that).
        """
        cpus = self.cpus if parallel else self.cpus[:1]
        if parallel:
            os.sched_setaffinity(0, cpus)
        start = time.monotonic()
        try:
            yield
        finally:
            self.intervals[name].append((start, time.monotonic(), cpus))
            if parallel:
                os.sched_setaffinity(0, self.cpus[:1])

    def seconds(self, name) -> float:
        return sum(end - start for start, end, _ in self.intervals[name])

    def cli(self, *argv):
        """Run one pkwbench command and count it."""
        argv = [str(a) for a in argv]
        argv[1:1] = ["--workspace", str(self.ws)]
        if cli.main(argv) != 0:
            self.failed += 1
        self.attempted += 1

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def count(self, name, value, unit):
        """A computed count: a metric, and a counter of the traced run."""
        self.metric(name, int(value), unit)
        if self.tracer is not None:
            self.tracer.counts[name] += int(value)

    def check(self, name, ok):
        self.checks[name] = bool(ok)

    def latency_loop(self, predict_one, inputs, expected):
        """Closed loop, one caller: LATENCY_CALLS single-row predictions.

        Every output is checked against the batch prediction after its
        timing is taken.
        """
        laps = []
        worst = 0.0
        n = len(inputs)
        for k in range(LATENCY_CALLS):
            x = inputs[k % n]
            t0 = time.perf_counter()
            y = predict_one(x)
            laps.append(time.perf_counter() - t0)
            worst = max(worst, abs(float(y[0]) - expected[k % n]))
        self.attempted += LATENCY_CALLS
        p50, p99 = np.percentile(np.asarray(laps) * 1e3, [50, 99])
        self.metric("predict_p50_ms", float(p50), "ms")
        self.metric("predict_p99_ms", float(p99), "ms")
        self.check("single_matches_batch", worst <= PREDICT_TOL)


# matrix workloads


def _tabular_rows(ws: Path, split_name: str, partition: str):
    """Feature rows and targets of one split partition, as ``eval`` builds them."""
    labels = read_labels_csv(ws / "labels" / "labels.csv")
    manifest, _ = read_manifest(ws / "params" / cli.MANIFEST_NAME, labels=labels)
    split = read_split_csv(ws / "splits" / f"{split_name}.csv")
    target = {(lab.geometry_id, lab.Q): lab.c_D for lab in labels}
    pairs = sorted(getattr(split, partition))
    X = np.asarray([feature_vector(manifest.geometries[g].derived, q) for g, q in pairs])
    y = np.asarray([target[p] for p in pairs])
    return X, y


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_rows(path: Path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def matrix(run: Run, model: str):
    trees = ["--trees", 10] if model == "forest" else []
    seed = run.seed
    with run.step("bench"), run.timed("bench"):
        run.cli("bench", "--n", 200, "--sigma", 0.005, "--seed", seed, "--model", model, *trees)
    # The last fit uses the workload seed, so its model is the one `bench` scored.
    for k in reversed(range(TRAIN_REPEATS)):
        with run.step("train"), run.timed("train"):
            run.cli("train", "--model", model, "--split", "id", "--seed", seed + k, *trees,
                    *(["--force"] if k < TRAIN_REPEATS - 1 else []))
    with run.step("eval"):
        run.cli("eval", "--model", model, "--split", "id", "--partition", "test")

    with run.step("check"):
        rows = _read_rows(run.ws / "reports" / "bench.csv")
        fields = ("mse", "r2", "mae", "max_ae")
        run.check("bench_rows", len(rows) == MATRIX_ROWS and all(
            _finite(r[f]) for r in rows for f in fields))
        id_row = next(r for r in rows if r["split"] == "id")
        eval_row = _read_rows(run.ws / "reports" / f"eval-id-{model}-test.csv")[0]
        run.check("eval_reproduces_id_row", all(
            eval_row[f] == id_row[f] for f in fields + ("n_train", "n_eval")))
        run.metric("id_r2", float(id_row["r2"]), "1")
        X, y = _tabular_rows(run.ws, "id", "test")
        fitted = load_model(run.ws / "models" / f"id-{model}.wnsm")
        batch = fitted.predict(X)
        run.check("loaded_model_scores_id_row",
                  f"{compute_metrics(y, batch).mse:.9g}" == id_row["mse"])
    with run.step("latency"):
        run.latency_loop(fitted.predict, [X[i : i + 1] for i in range(len(X))],
                         batch.tolist())


# geometry-pointnet


def _net_flops(n_clouds: int, n_points: int) -> int:
    """Multiply-add FLOPs of one forward pass, from the layer shapes."""
    per_point = sum(2 * i * o for i, o in _LAYER_DIMS[: _POOL_AFTER + 1])
    per_cloud = sum(2 * i * o for i, o in _LAYER_DIMS[_POOL_AFTER + 1 :])
    return n_clouds * (n_points * per_point + per_cloud)


def geometry_pointnet(run: Run):
    seed = run.seed
    ws = run.ws
    jobs = len(run.cpus)
    with run.step("stages"):
        with run.timed("bench"):
            run.cli("sample", "--n", GEOMETRY_DESIGNS, "--seed", seed)
        with run.timed("bench", parallel=True):
            run.cli("mesh", "--jobs", jobs)
            run.cli("cloud", "--n", CLOUD_POINTS, "--seed", seed + 1, "--jobs", jobs)
        with run.timed("bench"):
            run.cli("label", "--sigma", 0.005, "--seed", seed + 2)
        geometry_s = run.seconds("bench")
        with run.timed("bench"):
            run.cli("split", "--policy", "id", "--seed", seed + 3)

    with run.step("check"):
        manifest, _ = read_manifest(ws / "params" / cli.MANIFEST_NAME)
        gids = sorted(manifest.geometries)
        stl = {g for g in gids if (ws / "meshes" / f"{g}.stl").exists()}
        run.failed_ids = {
            "mesh": [g for g in gids if (ws / "meshes" / f"{g}.stl.failed").exists()],
            "cloud": [g for g in gids if (ws / "clouds" / f"{g}.wnpc.failed").exists()],
        }
        run.attempted += len(gids) * len(run.failed_ids)
        run.failed += sum(len(failed) for failed in run.failed_ids.values())
        clouds = [g for g in gids if (ws / "clouds" / f"{g}.wnpc").exists()]
        reports = {r["geometry_id"]: r for r in _read_rows(ws / "meshes" / "mesh_reports.csv")}
        run.check("stl_watertight", set(reports) == stl and all(
            reports[g]["watertight"] == "1" for g in stl))
        run.check("every_design_accounted", all(
            (g in stl) != (g in run.failed_ids["mesh"]) for g in gids))
        run.metric("geoms_per_s", len(clouds) / geometry_s, "1/s")

    # The network phase uses the library, not `train --model pointnet`: that
    # command aborts with MissingArtifact when any design failed to mesh.
    with run.step("arrays"):
        labels = read_labels_csv(ws / "labels" / "labels.csv")
        target = {(lab.geometry_id, lab.Q): lab.c_D for lab in labels}
        split = read_split_csv(ws / "splits" / "id.csv")
        rank = {g: i for i, g in enumerate(gids)}
        points = {}
        counts_ok = True
        for g in clouds:
            cloud = read_cloud(ws / "clouds" / f"{g}.wnpc", geometry_id=g)
            counts_ok &= cloud.n_points == CLOUD_POINTS
            sub_seed = int(np.random.SeedSequence([seed, rank[g]]).generate_state(1)[0])
            points[g] = subsample(cloud, NET_POINTS, seed=sub_seed).points
        run.check("cloud_point_counts", counts_ok)

        def arrays(pairs):
            pairs = sorted(p for p in pairs if p[0] in points)
            X = attach_discharge(np.stack([points[g] for g, _ in pairs]),
                                 np.asarray([q for _, q in pairs]))
            return X, np.asarray([target[p] for p in pairs])

        X, y = arrays(split.train)
        Xv, yv = arrays(split.val)
        Xt, yt = arrays(split.test)

    with run.timed("train"):
        model = fit_pointnet_mini(X, y, Xv, yv,
                                  config=PointNetConfig(max_epochs=NET_EPOCHS, seed=seed))
    fit_s = run.seconds("train")
    epochs = len(model.history["train_mse"])
    run.metric("pointnet_clouds_per_s", len(X) * epochs / fit_s, "1/s")
    run.metric("pointnet_val_mse", float(model.history["best_val_mse"]), "1")
    # computed from array shapes, not measured: each epoch is one forward and
    # backward pass (about three forward passes) plus full-set evaluation of
    # the training and validation clouds
    flops = epochs * (4 * _net_flops(len(X), NET_POINTS) + _net_flops(len(Xv), NET_POINTS))
    run.count("pointnet.input_bytes", X.nbytes + Xv.nbytes, "B")
    run.count("pointnet.flops", flops, "flop")

    with run.step("check"):
        path = ws / "models" / "id-pointnet.wnsm"
        save_model(path, model)
        loaded = load_model(path)
        batch = loaded.predict(Xt)
        run.check("loaded_model_identical", np.array_equal(batch, model.predict(Xt)))
        run.check("val_mse_finite", math.isfinite(model.history["best_val_mse"]))
        run.check("test_mse_finite", math.isfinite(compute_metrics(yt, batch).mse))


WORKLOADS = {
    "forest-matrix": lambda run: matrix(run, "forest"),
    "gbm-matrix": lambda run: matrix(run, "gbm"),
    "geometry-pointnet": geometry_pointnet,
}


# run record


def _outputs_digest(ws: Path):
    """sha256 over every workspace file's relative path and content hash."""
    outer = hashlib.sha256()
    files = sorted(p for p in ws.rglob("*") if p.is_file())
    for path in files:
        inner = hashlib.sha256(path.read_bytes()).hexdigest()
        outer.update(f"{path.relative_to(ws).as_posix()}\0{inner}\n".encode())
    return outer.hexdigest(), len(files)


def _reference_digest(workload: str, seed: int):
    if not BASELINE.exists():
        return None
    refs = json.loads(BASELINE.read_text()).get("outputs_sha256", {})
    return refs.get(workload, {}).get(str(seed))


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        sha, _, name = line.partition(" ")
        if name == ref[5:]:
            return sha
    return None


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cpus", required=True,
                   help="comma-separated CPUs; the --jobs stages use all of them")
    p.add_argument("--workspace", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--start", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="gzip CSV file for the traced run's spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    args.cpus = [int(c) for c in args.cpus.split(",")]

    ws = Path(args.workspace)
    ws.mkdir(parents=True, exist_ok=False)
    now = time.monotonic()
    record = {"workload": args.workload, "seed": args.seed, "setup_s": now - args.start,
              "intervals": {"setup": [(args.start, now, args.cpus[:1])]}}
    if args.setup_only:
        Path(args.record).write_text(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-{args.seed}")
        tracer.install(sys.modules[__name__])
    run = Run(args, tracer)
    with run.step("run"):
        WORKLOADS[args.workload](run)
    wall_s = time.perf_counter() - run.start
    if tracer is not None:
        tracer.uninstall()

    digest, n_files = _outputs_digest(ws)
    reference = _reference_digest(args.workload, args.seed)
    run.metric("setup_s", record["setup_s"], "s")
    run.metric("bench_s", run.seconds("bench"), "s")
    run.metric("peak_rss_mb", _peak_rss_mb(), "MB")
    run.metric("fail_ratio", run.failed / run.attempted, "1")
    record.update({
        "trace": args.trace,
        "wall_s": wall_s,
        "env": {
            "nproc": os.cpu_count(),
            "cpus": args.cpus,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_sha": _git_sha(),
        },
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ids": run.failed_ids,
        "checks": run.checks,
        "correct": all(run.checks.values()),
        "outputs": {
            "sha256": digest,
            "files": n_files,
            "outputs_identical": None if reference is None else digest == reference,
        },
        "metrics": run.metrics,
    })
    record["intervals"].update(run.intervals)
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, wall_s)
        if args.spans:
            tracer.write(args.spans)
    Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
