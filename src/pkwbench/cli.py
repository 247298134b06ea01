"""Command-line pipeline driver.

One binary, eight subcommands, one workspace.  Each stage reads the
artifacts of the previous one from the conventional subdirectory and
refuses to overwrite its own outputs unless ``--force`` is given.  Every
stage records the producing seed and a hash of its effective configuration
next to (or inside) the artifact.  A per-design failure replaces the
artifact by a ``.failed`` marker, which a later success removes, and
prints a machine-readable error record on stderr.

Unit conventions at this boundary: discharges are l/s and design-space
lengths are mm, matching how such tables are usually printed; everything
is converted to SI before it reaches the library modules.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import _atomic_write
from .dataset import (
    DATA_FRACTIONS,
    DatasetManifest,
    GeometryRecord,
    OOD_GEOM_BINS,
    OOD_HEAD_BINS,
    read_labels_csv,
    read_manifest,
    read_split_csv,
    require_id_split,
    split_id,
    split_ood_geom,
    split_ood_head,
    subset_fraction,
    synthesize_labels,
    write_labels_csv,
    write_manifest,
    write_split_csv,
)
from .errors import ArtifactExists, MalformedModel, MissingArtifact, PkwError
from .geometry import FEATURE_NAMES, derive, feature_vector, write_params
from .hydraulics import OracleConfig, ingest_labels, paper_schedule
from .mesh import analytic_volume, build_regions, crest_trace_length, tessellate
from .pointcloud import normalize_unit_cube, read_cloud, sample_surface, write_cloud
from .sampling import paper_default_space, screening_space, generate_batch, VARIABLE_NAMES
from .stlio import read_stl, write_stl
from .surrogates import (
    PairClouds,
    PointNetConfig,
    PointNetMini,
    compute_metrics,
    fit_forest,
    fit_gbm,
    fit_gbm_sets,
    fit_pointnet_mini,
    fit_tree,
    load_model,
    normalize_discharge,
    save_model,
)

SUBDIRS = ("params", "meshes", "clouds", "labels", "splits", "models", "reports")
MANIFEST_NAME = "design_manifest.jsonl"
MODEL_CHOICES = ("tree", "forest", "gbm", "pointnet")
_RATIO_VARIABLES = {"R_B_i"}  # dimensionless axes take plain values, not mm
# jobs a pool holds per worker, counting the one whose result is being written
_JOBS_PER_WORKER = 2

_REPORT_COLUMNS = ("split", "policy", "model", "partition", "n_train", "n_eval",
                   "mse", "r2", "mae", "max_ae")
_SCALED_COLUMNS = ("mse_1e5", "r2_100", "mae_1e3", "max_ae_10")
_MESH_COLUMNS = ("geometry_id", "n_vertices", "n_triangles", "watertight",
                 "signed_volume", "analytic_volume", "crest_trace", "crest_parametric")


# workspace plumbing


def _workspace(args) -> Path:
    ws = Path(args.workspace)
    for sub in SUBDIRS:
        (ws / sub).mkdir(parents=True, exist_ok=True)
    return ws


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()[:12]


def _claim(path: Path, force: bool) -> Path:
    if path.exists() and not force:
        raise ArtifactExists(f"{path} already exists; pass --force to replace it")
    return path


def _write_meta(artifact: Path, command: str, seed, payload: dict) -> None:
    meta = {
        "command": command,
        "seed": seed,
        "config_hash": _config_hash(payload),
        "tool_version": __version__,
    }
    with _atomic_write(artifact.with_name(artifact.name + ".meta.json")) as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")


def _load_manifest(ws: Path, with_labels: bool = False):
    manifest_path = ws / "params" / MANIFEST_NAME
    if not manifest_path.exists():
        raise MissingArtifact(f"no design manifest at {manifest_path}; run sample first")
    labels = None
    if with_labels:
        labels_path = ws / "labels" / "labels.csv"
        if not labels_path.exists():
            raise MissingArtifact(f"no labels at {labels_path}; run label first")
        labels = read_labels_csv(labels_path)
    try:
        return read_manifest(manifest_path, labels=labels)
    except ValueError as exc:  # labels that name designs the manifest lacks
        raise MissingArtifact(
            f"{labels_path} does not match the design manifest ({exc}); "
            "rerun label --force"
        ) from None


def _stage_seed(master: int, rank: int) -> int:
    return int(np.random.SeedSequence([master, rank]).generate_state(1)[0])


def _require_seed(args) -> int:
    if args.seed is None:
        raise PkwError(f"{args.command} is stochastic; pass --seed")
    return args.seed


# design space handling (CLI units: mm for lengths, plain for ratios)


def _parse_overrides(pairs, what):
    out = {}
    for item in pairs or ():
        name, _, text = item.partition("=")
        if name not in VARIABLE_NAMES:
            raise PkwError(f"unknown design variable {name!r} in --{what}")
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise PkwError(f"bad value for {name!r} in --{what}: {text!r}")
        out[name] = value
    return out


def _from_cli_units(name: str, value: float) -> float:
    return value if name in _RATIO_VARIABLES else value * 1e-3


def _build_space(args):
    """The ``--space`` design space with the ``--step-mm``, ``--lo-mm`` and
    ``--hi-mm`` overrides applied.  Overrides that leave a variable a step
    of zero or less, or a lower bound at or above its upper bound, are a
    ``PkwError`` that names them and the variable; the base spaces are
    valid, so only an override can."""
    space = screening_space() if args.space == "screening" else paper_default_space()
    edits, flags = {}, collections.defaultdict(list)
    for what, field in (("step-mm", "step"), ("lo-mm", "lower"), ("hi-mm", "upper")):
        overrides = _parse_overrides(getattr(args, what.replace("-", "_")), what)
        if overrides:
            values = list(getattr(space, field))
            for name, value in overrides.items():
                values[VARIABLE_NAMES.index(name)] = _from_cli_units(name, value)
                flags[name].append(f"--{what} {name}={value:g}")
            edits[field] = tuple(values)
    lower, upper, step = (edits.get(field, getattr(space, field))
                          for field in ("lower", "upper", "step"))
    for j, name in enumerate(VARIABLE_NAMES):
        if not (lower[j] < upper[j] and step[j] > 0):
            raise PkwError(f"{', '.join(flags[name])}: design variable {name} needs a "
                           "lower bound below its upper bound and a step above zero")
    return dataclasses.replace(space, **edits) if edits else space


# shared model-data assembly


# the labeled pairs in sorted(pairs) order: geometry id, discharge (m^3/s),
# feature row and target c_D, one array each
_PairTable = collections.namedtuple("_PairTable", "gid Q X y")
# a split as ascending row-index arrays over the pair table
_SplitRows = collections.namedtuple("_SplitRows", "name policy train val test")


def _pair_table(manifest: DatasetManifest):
    """The pair table of ``manifest``'s labels, and the function that turns a
    split into its ``_SplitRows``.  Only that function holds the pair -> row
    map, so dropping it frees the map."""
    labels = sorted(manifest.labels, key=lambda lab: (lab.geometry_id, lab.Q))
    gid = np.array([lab.geometry_id for lab in labels])
    Q = np.array([lab.Q for lab in labels])
    # feature_vector is [Q, *descriptors]: each geometry's row is built once
    # and every pair of it takes that row with its own Q
    names, geometry = np.unique(gid, return_inverse=True)
    descriptors = np.array([feature_vector(manifest.geometries[name].derived, 0.0)
                            for name in names.tolist()])
    X = descriptors.reshape(names.size, len(FEATURE_NAMES))[geometry]
    X[:, 0] = Q
    table = _PairTable(gid=gid, Q=Q, X=X, y=np.array([lab.c_D for lab in labels]))
    row_of = {(lab.geometry_id, lab.Q): k for k, lab in enumerate(labels)}

    def rows(pairs) -> np.ndarray:
        try:
            return np.sort(np.fromiter((row_of[p] for p in pairs), np.int32, len(pairs)))
        except KeyError:
            gid, q = min(p for p in pairs if p not in row_of)
            raise MissingArtifact(
                f"split references unlabeled pair ({gid}, Q={q * 1000.0:g} l/s)"
            ) from None

    def index(split) -> _SplitRows:
        return _SplitRows(split.name, split.policy,
                          rows(split.train), rows(split.val), rows(split.test))

    return table, index


# the sorted ids of some geometries, and each one's cloud cut to its first
# points, in one (geometries, points, 3) float32 array
_Clouds = collections.namedtuple("_Clouds", "names points")


def _load_clouds(ws: Path, gids, n_points: int) -> _Clouds:
    """The first ``n_points`` points of each of ``gids``'s clouds, read once
    per geometry.  ``sample_surface`` draws points i.i.d. by area, so the
    prefix is itself an area-weighted sample of the surface.  Clouds are
    float32 on disk, so the float32 copy holds their values exactly."""
    names = np.unique(gids)
    points = np.empty((names.size, n_points, 3), dtype=np.float32)
    for k, gid in enumerate(names.tolist()):
        path = ws / "clouds" / f"{gid}.wnpc"
        if not path.exists():
            raise MissingArtifact(f"no point cloud for {gid}; run cloud first")
        cloud = read_cloud(path, geometry_id=gid, n_points=n_points)
        if cloud.n_points < n_points:
            raise MissingArtifact(
                f"cloud for {gid} has {cloud.n_points} points, need {n_points}"
            )
        points[k] = cloud.points
    return _Clouds(names, points)


def _cloud_pairs(table: _PairTable, clouds: _Clouds, rows):
    """The network input of ``rows`` over ``clouds``, and the targets."""
    index = np.searchsorted(clouds.names, table.gid[rows])
    return (PairClouds(clouds.points, index, normalize_discharge(table.Q[rows])),
            table.y[rows])


def _metric_row(split, model_name, partition, n_train, report, paper_scale):
    row = {
        "split": split.name,
        "policy": split.policy,
        "model": model_name,
        "partition": partition,
        "n_train": n_train,
        "n_eval": report.n_samples,
        "mse": f"{report.mse:.9g}",
        "r2": "" if report.r2 is None else f"{report.r2:.9g}",
        "mae": f"{report.mae:.9g}",
        "max_ae": f"{report.max_ae:.9g}",
    }
    if paper_scale:
        for column, value in report.scaled().items():
            row[column] = "" if value is None else f"{value:.9g}"
    return row


def _write_csv(path: Path, columns, rows) -> None:
    with _atomic_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


def _write_report(path: Path, rows, paper_scale: bool) -> None:
    _write_csv(path, _REPORT_COLUMNS + (_SCALED_COLUMNS if paper_scale else ()), rows)


# subcommands


def _cmd_sample(args) -> int:
    ws = _workspace(args)
    seed = _require_seed(args)
    space = _build_space(args)
    manifest_path = _claim(ws / "params" / MANIFEST_NAME, args.force)
    table_path = _claim(ws / "params" / "designs.csv", args.force)
    batch = generate_batch(space, args.n, seed=seed)
    geometries = {}
    records = []
    for k, sample in enumerate(batch.samples):
        gid = f"g{k:06d}"
        derived = derive(space.fixed, sample)
        geometries[gid] = GeometryRecord(geometry_id=gid, sample=sample, derived=derived)
        records.append((gid, space.fixed, sample, derived))
    config = {
        "n": args.n,
        "space": args.space,
        "step": space.step,
        "lower": space.lower,
        "upper": space.upper,
    }
    manifest = DatasetManifest(
        geometries=geometries,
        labels=[],
        provenance={
            "command": "sample",
            "master_seed": seed,
            "config_hash": _config_hash(config),
            "n_requested": args.n,
            "n_rejected": batch.rejected_count,
            "space": args.space,
        },
    )
    write_manifest(manifest_path, manifest, space.fixed)
    write_params(table_path, records)
    _write_meta(table_path, "sample", seed, config)
    print(f"wrote {len(geometries)} designs to {manifest_path}")
    return 0


def _pool_size(jobs: int, n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` jobs: ``--jobs``, capped at the task
    count and at the CPUs this process may run on, and at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, n_tasks, cpus))


def _run_jobs(fn, tasks, jobs: int):
    """Yield ``fn(*task)`` for every task, in task order, as results arrive.

    One worker runs the jobs here in this process; more run them in a
    process pool, since the per-design work is pure Python that threads
    cannot overlap.  The pool holds at most ``_JOBS_PER_WORKER`` jobs per
    worker, so a slow job cannot make the results after it pile up here.
    ``fn`` must be a module-level function and the tasks plain picklable data.
    The pool takes the platform's default start method (fork on Linux
    before Python 3.14): the CLI starts no threads of its own, and a
    spawned worker would first spend about 0.3 s re-importing numpy and
    pkwbench, as long as a small stage takes.
    """
    workers = _pool_size(jobs, len(tasks))
    if workers == 1:
        for task in tasks:
            yield fn(*task)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        for task in tasks:
            pending.append(pool.submit(fn, *task))
            if len(pending) == _JOBS_PER_WORKER * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _design_job(job, gid, *args):
    """``(gid, job(gid, *args), None)``, or ``(gid, None, error)`` for a
    ``PkwError``; any other error propagates and stops the stage."""
    try:
        return gid, job(gid, *args), None
    except PkwError as exc:
        return gid, None, exc


def _run_stage(job, tasks, targets: dict, write, jobs: int) -> list:
    """Run ``job`` on the tasks, each led by its design's id, and return the
    ids that failed.  A result goes to ``write(path, result)`` at the design's
    path in ``targets``; a failure replaces that artifact by its marker."""
    failures = []
    for gid, result, err in _run_jobs(_design_job, [(job, *task) for task in tasks], jobs):
        path = targets[gid]
        marker = path.with_name(path.name + ".failed")
        if err is None:
            write(path, result)
            marker.unlink(missing_ok=True)
            continue
        path.unlink(missing_ok=True)
        record = {"error": type(err).__name__, "message": str(err)}
        with _atomic_write(marker) as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        failures.append(gid)
    return failures


def _stage_status(error: str, what: str, failures: list) -> int:
    """Exit status of a per-design stage.  With failures it also prints the
    stage's JSON record to stderr; its message is their count, then ``what``."""
    if not failures:
        return 0
    record = {
        "error": error,
        "message": f"{len(failures)} {what}",
        "geometry_ids": failures,
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 1


def _mesh_job(gid, derived, fixed, x_segments):
    """Mesh one design: ``(mesh, row)``, with its ``mesh_reports.csv`` row."""
    mesh, report = tessellate(build_regions(derived, fixed), x_segments)
    row = {
        "geometry_id": gid,
        "n_vertices": len(mesh.vertices),
        "n_triangles": len(mesh.triangles),
        "watertight": int(report.watertight),
        "signed_volume": f"{report.signed_volume:.9g}",
        "analytic_volume": f"{analytic_volume(derived, fixed):.9g}",
        "crest_trace": f"{crest_trace_length(mesh):.9g}",
        "crest_parametric": f"{derived.L:.9g}",
    }
    return mesh, row


def _cloud_job(gid, stl_path, n, seed):
    """Sample one design's cloud from its STL."""
    if not stl_path.exists():
        raise MissingArtifact(f"no mesh for {gid}; run mesh first")
    cloud = sample_surface(read_stl(stl_path), n, seed=seed, geometry_id=gid)
    return normalize_unit_cube(cloud)


def _cmd_mesh(args) -> int:
    ws = _workspace(args)
    manifest, fixed = _load_manifest(ws)
    report_path = _claim(ws / "meshes" / "mesh_reports.csv", args.force)
    gids = sorted(manifest.geometries)
    if args.ids:
        missing = sorted(set(args.ids) - set(gids))
        if missing:
            raise MissingArtifact(f"unknown geometry ids: {', '.join(missing)}")
        # an id given twice is meshed once
        gids = sorted(set(args.ids))
    targets = {gid: _claim(ws / "meshes" / f"{gid}.stl", args.force) for gid in gids}

    tasks = [(gid, manifest.geometries[gid].derived, fixed, args.x_segments)
             for gid in gids]
    # the ids as meshed, so their order on the command line does not matter
    config = {"x_segments": args.x_segments, "ids": gids if args.ids else []}
    rows = []

    def write(path, result):
        mesh, row = result
        write_stl(path, mesh, geometry_id=row["geometry_id"])
        rows.append(row)

    failures = _run_stage(_mesh_job, tasks, targets, write, args.jobs)
    _write_csv(report_path, _MESH_COLUMNS, rows)
    _write_meta(report_path, "mesh", None, config)
    print(f"meshed {len(rows)} of {len(gids)} designs")
    return _stage_status("MeshStageFailures", "designs failed to mesh", failures)


def _cmd_cloud(args) -> int:
    ws = _workspace(args)
    seed = _require_seed(args)
    manifest, _ = _load_manifest(ws)
    gids = sorted(manifest.geometries)
    targets = {gid: _claim(ws / "clouds" / f"{gid}.wnpc", args.force) for gid in gids}

    n = args.cloud_points
    # each cloud's seed comes from the master seed and the geometry's rank
    tasks = [(gid, ws / "meshes" / f"{gid}.stl", n, _stage_seed(seed, rank))
             for rank, gid in enumerate(gids)]
    failures = _run_stage(_cloud_job, tasks, targets, write_cloud, args.jobs)
    _write_meta(ws / "clouds" / "clouds", "cloud", seed, {"n": n})
    print(f"sampled {len(gids) - len(failures)} clouds of {n} points")
    return _stage_status("CloudStageFailures", "clouds could not be sampled", failures)


def _cmd_label(args) -> int:
    ws = _workspace(args)
    manifest, fixed = _load_manifest(ws)
    out_path = _claim(ws / "labels" / "labels.csv", args.force)
    if args.oracle == "synthetic":
        seed = _require_seed(args)
        labels = synthesize_labels(
            manifest.geometries,
            paper_schedule(),
            config=OracleConfig(sigma=args.sigma, fixed=fixed),
            seed=seed,
        )
        config = {"oracle": "synthetic", "sigma": args.sigma}
    elif args.oracle.startswith("csv="):
        src = args.oracle[4:]
        if not os.path.isfile(src):
            raise MissingArtifact(f"no measured-label file at {src}")
        seed = args.seed
        crest = {gid: rec.derived.L for gid, rec in manifest.geometries.items()}
        labels = ingest_labels(src, crest, fixed)
        config = {"oracle": "csv", "source": os.path.basename(src)}
    else:
        raise PkwError(
            f"--oracle must be 'synthetic' or 'csv=<path>', got {args.oracle!r}")
    # attaching the labels re-runs the manifest consistency gates
    DatasetManifest(geometries=manifest.geometries, labels=labels)
    write_labels_csv(out_path, labels)
    _write_meta(out_path, "label", seed, config)
    print(f"wrote {len(labels)} labels to {out_path}")
    return 0


_OOD_POLICIES = {
    "ood-geom": ("geometry", OOD_GEOM_BINS, split_ood_geom),
    "ood-head": ("discharge", OOD_HEAD_BINS, split_ood_head),
}


def _make_split(manifest, policy: str, seed: int):
    """The split that ``--policy`` names."""
    kind, colon, arg = policy.partition(":")
    if policy == "id":
        return split_id(manifest, seed=seed)
    if colon and kind in _OOD_POLICIES:
        what, bins, make = _OOD_POLICIES[kind]
        if arg not in bins:
            raise PkwError(
                f"unknown {what} bin {arg!r}; choose from {', '.join(sorted(bins))}"
            )
        return make(manifest, arg, seed=seed)
    if colon and kind == "fraction":
        try:
            fraction = float(arg)
        except ValueError:
            fraction = math.nan
        if not 0.0 < fraction <= 1.0:
            raise PkwError(f"bad fraction in --policy {policy!r}; it must lie in (0, 1]")
        return subset_fraction(split_id(manifest, seed=seed), fraction, seed=seed)
    raise PkwError(
        "--policy must be id, ood-geom:<bin>, ood-head:<bin>, or fraction:<f>, "
        f"got {policy!r}"
    )


def _cmd_split(args) -> int:
    ws = _workspace(args)
    seed = _require_seed(args)
    manifest, _ = _load_manifest(ws, with_labels=True)
    split = _make_split(manifest, args.policy, seed)
    out_path = _claim(ws / "splits" / f"{split.name}.csv", args.force)
    write_split_csv(out_path, split)
    _write_meta(out_path, "split", seed, {"policy": args.policy})
    print(
        f"wrote split {split.name}: {len(split.train)} train, "
        f"{len(split.val)} val, {len(split.test)} test pairs"
    )
    return 0


def _load_split(ws: Path, name: str):
    """The pair table of the workspace's labels, and split ``name`` as rows of it."""
    manifest, _ = _load_manifest(ws, with_labels=True)
    path = ws / "splits" / f"{name}.csv"
    if not path.exists():
        raise MissingArtifact(f"no split file at {path}; run split first")
    table, index = _pair_table(manifest)
    return table, index(read_split_csv(path))


def _ensemble_size(args, model_name: str) -> int:
    if args.trees is not None:
        return args.trees
    return 300 if model_name == "gbm" else 100


def _fit_model(model_name, args, ws, table, split, seed, clouds=None):
    if model_name in ("tree", "forest", "gbm"):
        X, y = table.X[split.train], table.y[split.train]
        if model_name == "tree":
            return fit_tree(X, y)
        if model_name == "forest":
            return fit_forest(X, y, n_trees=_ensemble_size(args, "forest"), seed=seed)
        return fit_gbm(X, y, n_trees=_ensemble_size(args, "gbm"))
    if clouds is None:
        clouds = _load_clouds(ws, table.gid[np.concatenate([split.train, split.val])],
                              args.points)
    X, y = _cloud_pairs(table, clouds, split.train)
    # no validation pairs: the training set doubles as the validation set
    Xv = yv = None
    if len(split.val):
        Xv, yv = _cloud_pairs(table, clouds, split.val)
    config = PointNetConfig(max_epochs=args.epochs, seed=seed)
    return fit_pointnet_mini(X, y, Xv, yv, config=config)


def _bench_models(model_name, args, ws, table, splits, seed, clouds):
    """Each split's model, fitted on its training rows, in split order, one
    at a time as they are asked for.  Boosting fits the splits in lockstep
    groups (``fit_gbm_sets``), each model the one ``train`` fits.  The
    network reads its points from ``clouds``."""
    if model_name == "gbm":
        yield from fit_gbm_sets(table.X, table.y, [split.train for split in splits],
                                n_trees=_ensemble_size(args, "gbm"))
        return
    for split in splits:
        yield _fit_model(model_name, args, ws, table, split, seed, clouds)


def _cmd_train(args) -> int:
    ws = _workspace(args)
    seed = _require_seed(args)
    table, split = _load_split(ws, args.split)
    out_path = _claim(ws / "models" / f"{split.name}-{args.model}.wnsm", args.force)
    model = _fit_model(args.model, args, ws, table, split, seed)
    save_model(out_path, model)
    config = {
        "model": args.model,
        "split": split.name,
        "trees": args.trees,
        "points": args.points,
        "epochs": args.epochs,
    }
    _write_meta(out_path, "train", seed, config)
    print(f"trained {args.model} on {len(split.train)} pairs -> {out_path}")
    return 0


def _eval_model(ws, table, model, rows, clouds=None):
    if isinstance(model, PointNetMini):
        # the network reads as many points per cloud as it was trained on
        if "points" not in model.history:
            raise MalformedModel("the network records no point count per cloud; "
                                 "rerun `pkwbench train --force` to refit it")
        if clouds is None:
            clouds = _load_clouds(ws, table.gid[rows], model.history["points"])
        X, y = _cloud_pairs(table, clouds, rows)
    else:
        X, y = table.X[rows], table.y[rows]
    return compute_metrics(y, model.predict(X))


def _cmd_eval(args) -> int:
    ws = _workspace(args)
    table, split = _load_split(ws, args.split)
    out_path = _claim(
        ws / "reports" / f"eval-{split.name}-{args.model}-{args.partition}.csv",
        args.force,
    )
    model_path = ws / "models" / f"{split.name}-{args.model}.wnsm"
    if not model_path.exists():
        raise MissingArtifact(f"no model at {model_path}; run train first")
    model = load_model(model_path)
    rows = getattr(split, args.partition)
    if not len(rows):
        raise MissingArtifact(
            f"split {split.name} has no {args.partition} pairs to evaluate"
        )
    report = _eval_model(ws, table, model, rows)
    row = _metric_row(
        split, args.model, args.partition, len(split.train), report, args.paper_scale
    )
    _write_report(out_path, [row], args.paper_scale)
    config = {
        "split": split.name, "model": args.model, "partition": args.partition,
        "paper_scale": args.paper_scale,
    }
    _write_meta(out_path, "eval", args.seed, config)
    r2_text = "undefined" if report.r2 is None else f"{report.r2:.4f}"
    print(
        f"{split.name}/{args.model}/{args.partition}: "
        f"mse {report.mse:.3e}, r2 {r2_text} -> {out_path}"
    )
    return 0


def _bench_splits(ws: Path, seed: int, force: bool):
    """Write the benchmark matrix's split files: ID, three geometry bins,
    three discharge bins, and the nested fraction ladder (1 + 3 + 3 + 6 rows
    per model).  Return the pair table and each split as rows of it.

    A split file holds Q to 9 significant digits of l/s, which gives back the
    float parsed from ``labels.csv``, so the rows are those ``train`` reads
    from the file.  ``id-f100`` keeps every pair of ``id`` in the same
    partition, so its rows equal ``id``'s and ``bench`` scores one fit for both.
    """
    manifest, _ = _load_manifest(ws, with_labels=True)
    table, index = _pair_table(manifest)
    splits = [split_id(manifest, seed=seed)]
    splits += [split_ood_geom(manifest, b, seed=seed) for b in OOD_GEOM_BINS]
    splits += [split_ood_head(manifest, b, seed=seed) for b in OOD_HEAD_BINS]
    splits += [subset_fraction(splits[0], f, seed=seed) for f in DATA_FRACTIONS]
    indexed = []
    for split in splits:
        write_split_csv(_claim(ws / "splits" / f"{split.name}.csv", force), split)
        indexed.append(index(split))
    return table, indexed


# every bench option that changes its output; --jobs does not
_BENCH_OPTIONS = ("n", "space", "step_mm", "lo_mm", "hi_mm", "sigma", "trees",
                  "points", "cloud_points", "epochs", "x_segments", "paper_scale")


def _cmd_bench(args) -> int:
    # sample writes exactly --n designs, and every split starts from the id
    # split, so a count it cannot divide fails before any stage writes
    require_id_split(args.n)
    # a model named twice is fitted and reported once, in first-seen order
    models = list(dict.fromkeys(args.model or ["forest"]))
    # the network reads --points of each cloud, so clouds of fewer points
    # fail before any stage spends time or disk on them
    if "pointnet" in models and args.points > args.cloud_points:
        raise MissingArtifact(
            f"--points {args.points} exceeds --cloud-points {args.cloud_points}: the "
            "network reads --points points of each cloud, so give it at most --cloud-points")
    ws = _workspace(args)
    seed = _require_seed(args)
    report_path = _claim(ws / "reports" / "bench.csv", args.force)

    # the stage commands read their options from bench's own arguments
    _cmd_sample(args)
    _cmd_label(args)
    if "pointnet" in models:
        status = _cmd_mesh(args) or _cmd_cloud(args)  # cloud only after a clean mesh
        if status != 0:
            return status

    table, splits = _bench_splits(ws, seed, args.force)
    # a fit depends only on its split's rows, so equal rows share one fit,
    # made for the first split that holds them
    keys = [(s.train.tobytes(), s.val.tobytes(), s.test.tobytes()) for s in splits]
    distinct = {}
    for key, split in zip(keys, splits):
        distinct.setdefault(key, split)
    # every network fit and eval reads its points from one copy of the clouds
    clouds = _load_clouds(ws, table.gid, args.points) if "pointnet" in models else None
    rows = []
    for model_name in models:
        fits = _bench_models(model_name, args, ws, table, list(distinct.values()), seed,
                             clouds)
        # each model is scored and dropped before the next one is handed over
        reports = {key: _eval_model(ws, table, next(fits), split.test, clouds)
                   for key, split in distinct.items()}
        rows += [_metric_row(split, model_name, "test", len(split.train), reports[key],
                             args.paper_scale)
                 for key, split in zip(keys, splits)]
    _write_report(report_path, rows, args.paper_scale)
    config = {name: getattr(args, name) for name in _BENCH_OPTIONS}
    _write_meta(report_path, "bench", seed, {**config, "models": models})
    print(f"wrote {len(rows)} benchmark rows to {report_path}")
    return 0


# parser


def _count(env: str | None = None):
    """The argparse type of a count: a whole number >= 1.

    A bad count is a usage error before any work starts.  ``env`` names the
    environment variable a string default was read from, for the message.
    """
    where = f" (here or in {env})" if env else ""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"must be a whole number >= 1{where}, got {text!r}")
        return value

    return parse


def _sigma(text: str) -> float:
    """The argparse type of a noise level: a finite number >= 0.

    The synthetic oracle adds noise only for a positive level, so a negative
    or NaN one would label without noise and record the bad value.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _add_common(sub, seed_help="master seed for this stage"):
    sub.add_argument("--workspace", default=os.environ.get("PKWBENCH_WORKSPACE", "workspace"),
                     help="workspace directory (env PKWBENCH_WORKSPACE)")
    sub.add_argument("--seed", type=int, default=None, help=seed_help)
    sub.add_argument("--force", action="store_true",
                     help="allow overwriting existing artifacts")
    # a string default goes through the type, so a bad PKWBENCH_JOBS is a
    # usage error of the command, not a traceback while building the parser
    sub.add_argument("--jobs", type=_count("PKWBENCH_JOBS"),
                     default=os.environ.get("PKWBENCH_JOBS", "1"),
                     help="worker processes for per-geometry stages, at most one "
                     "per available CPU (env PKWBENCH_JOBS)")


def _add_space(sub):
    sub.add_argument("--space", choices=("paper", "screening"), default="paper")
    for flag, what in (("--step-mm", "step size"), ("--lo-mm", "lower bound"),
                       ("--hi-mm", "upper bound")):
        sub.add_argument(flag, action="append", metavar="VAR=VALUE",
                         help=f"override one {what} (mm; ratios are unitless)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkwbench",
        description="Sample, mesh, label, split, train, and benchmark "
        "piano-key-weir surrogate datasets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="draw feasible designs onto the step grid")
    p.add_argument("--n", type=_count(), required=True, help="number of designs")
    _add_space(p)
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("mesh", help="tessellate sampled designs into STL solids")
    p.add_argument("--x-segments", type=_count(), default=8,
                   help="extra streamwise subdivisions per region")
    p.add_argument("--ids", nargs="*", default=None, help="subset of geometry ids")
    _add_common(p)
    p.set_defaults(func=_cmd_mesh)

    p = subs.add_parser("cloud", help="sample surface point clouds from meshes")
    p.add_argument("--n", type=_count(), default=100_000, dest="cloud_points",
                   help="points per cloud")
    _add_common(p)
    p.set_defaults(func=_cmd_cloud)

    p = subs.add_parser("label", help="attach discharge-coefficient labels")
    p.add_argument("--oracle", default="synthetic",
                   help="'synthetic' or 'csv=<path>' with measured labels")
    p.add_argument("--sigma", type=_sigma, default=0.0,
                   help="noise level of the synthetic oracle")
    _add_common(p)
    p.set_defaults(func=_cmd_label)

    p = subs.add_parser("split", help="write one train/val/test split")
    p.add_argument("--policy", required=True,
                   help="id | ood-geom:<bin> | ood-head:<bin> | fraction:<f>")
    _add_common(p)
    p.set_defaults(func=_cmd_split)

    p = subs.add_parser("train", help="fit one surrogate on one split")
    p.add_argument("--model", choices=MODEL_CHOICES, required=True)
    p.add_argument("--split", required=True, help="split name, e.g. id")
    p.add_argument("--trees", type=_count(), default=None,
                   help="ensemble size (forest defaults to 100, gbm to 300)")
    p.add_argument("--points", type=_count(), default=5000,
                   help="points per cloud fed to the network")
    p.add_argument("--epochs", type=_count(), default=500,
                   help="training epoch cap for the network")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("eval", help="score a trained model on a split partition")
    p.add_argument("--model", choices=MODEL_CHOICES, required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--partition", choices=("train", "val", "test"), default="test")
    p.add_argument("--paper-scale", action="store_true",
                   help="append display-scaled metric columns")
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("bench", help="run the full split-matrix benchmark")
    p.add_argument("--n", type=_count(), default=200, help="number of designs")
    _add_space(p)
    p.add_argument("--sigma", type=_sigma, default=0.005)
    p.add_argument("--model", action="append", choices=MODEL_CHOICES,
                   default=None, help="repeatable; default forest")
    p.add_argument("--trees", type=_count(), default=None)
    p.add_argument("--points", type=_count(), default=5000)
    p.add_argument("--cloud-points", type=_count(), default=100_000)
    p.add_argument("--epochs", type=_count(), default=500)
    p.add_argument("--x-segments", type=_count(), default=8)
    p.add_argument("--paper-scale", action="store_true")
    _add_common(p)
    # bench runs the stage commands on its own arguments: it meshes every
    # design and labels with the synthetic oracle
    p.set_defaults(func=_cmd_bench, oracle="synthetic", ids=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PkwError as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
