"""Command-line pipeline driver.

One binary, eight subcommands, one workspace.  Each stage reads the
artifacts of the previous one from the conventional subdirectory and
refuses to overwrite its own outputs unless ``--force`` is given.  Every
stage records the producing seed and a hash of its effective configuration
next to (or inside) the artifact, and failures leave a ``.failed`` marker
plus a machine-readable error record on stderr.

Unit conventions at this boundary: discharges are l/s and design-space
lengths are mm, matching how such tables are usually printed; everything
is converted to SI before it reaches the library modules.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    DATA_FRACTIONS,
    DatasetManifest,
    GeometryRecord,
    OOD_GEOM_BINS,
    OOD_HEAD_BINS,
    read_labels_csv,
    read_manifest,
    read_split_csv,
    split_id,
    split_ood_geom,
    split_ood_head,
    subset_fraction,
    synthesize_labels,
    write_labels_csv,
    write_manifest,
    write_split_csv,
)
from .errors import ArtifactExists, MissingArtifact, PkwError
from .geometry import derive, feature_vector, write_params
from .hydraulics import OracleConfig, ingest_labels, paper_schedule
from .mesh import analytic_volume, crest_trace_length, solid_mesh, validate_mesh
from .pointcloud import normalize_unit_cube, read_cloud, sample_surface, subsample, write_cloud
from .sampling import paper_default_space, screening_space, generate_batch, VARIABLE_NAMES
from .stlio import read_stl, write_stl
from .surrogates import (
    PointNetConfig,
    PointNetMini,
    attach_discharge,
    compute_metrics,
    fit_forest,
    fit_gbm,
    fit_pointnet_mini,
    fit_tree,
    load_model,
    save_model,
)

SUBDIRS = ("params", "meshes", "clouds", "labels", "splits", "models", "reports")
MANIFEST_NAME = "design_manifest.jsonl"
MODEL_CHOICES = ("tree", "forest", "gbm", "pointnet")
_RATIO_VARIABLES = {"R_B_i"}  # dimensionless axes take plain values, not mm

_REPORT_COLUMNS = ("split", "policy", "model", "partition", "n_train", "n_eval",
                   "mse", "r2", "mae", "max_ae")
_SCALED_COLUMNS = ("mse_1e5", "r2_100", "mae_1e3", "max_ae_10")


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
    artifact.with_name(artifact.name + ".meta.json").write_text(
        json.dumps(meta, sort_keys=True) + "\n"
    )


def _mark_failed(path: Path, exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    path.with_name(path.name + ".failed").write_text(
        json.dumps(record, sort_keys=True) + "\n"
    )


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
    return read_manifest(manifest_path, labels=labels)


def _geometry_rank(manifest: DatasetManifest) -> dict[str, int]:
    return {gid: i for i, gid in enumerate(sorted(manifest.geometries))}


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
        name, _, value = item.partition("=")
        if name not in VARIABLE_NAMES:
            raise PkwError(f"unknown design variable {name!r} in --{what}")
        try:
            out[name] = float(value)
        except ValueError:
            raise PkwError(f"bad value for {name!r} in --{what}: {value!r}") from None
    return out


def _from_cli_units(name: str, value: float) -> float:
    return value if name in _RATIO_VARIABLES else value * 1e-3


def _build_space(args):
    space = screening_space() if args.space == "screening" else paper_default_space()
    edits = {}
    for what, field in (("step-mm", "step"), ("lo-mm", "lower"), ("hi-mm", "upper")):
        overrides = _parse_overrides(getattr(args, what.replace("-", "_")), what)
        if overrides:
            values = list(getattr(space, field))
            for name, value in overrides.items():
                values[VARIABLE_NAMES.index(name)] = _from_cli_units(name, value)
            edits[field] = tuple(values)
    return dataclasses.replace(space, **edits) if edits else space


# shared model-data assembly


def _label_map(manifest: DatasetManifest) -> dict:
    return {(lab.geometry_id, lab.Q): lab.c_D for lab in manifest.labels}


def _tabular_arrays(manifest: DatasetManifest, pairs):
    labels = _label_map(manifest)
    rows = []
    targets = []
    for gid, q in sorted(pairs):
        try:
            target = labels[(gid, q)]
        except KeyError:
            raise MissingArtifact(
                f"split references unlabeled pair ({gid}, Q={q * 1000.0:g} l/s)"
            ) from None
        rows.append(feature_vector(manifest.geometries[gid].derived, q))
        targets.append(target)
    return np.asarray(rows), np.asarray(targets)


def _cloud_arrays(ws: Path, manifest: DatasetManifest, pairs, n_points: int, seed: int):
    labels = _label_map(manifest)
    rank = _geometry_rank(manifest)
    cache: dict[str, np.ndarray] = {}
    clouds = []
    discharges = []
    targets = []
    for gid, q in sorted(pairs):
        if gid not in cache:
            path = ws / "clouds" / f"{gid}.wnpc"
            if not path.exists():
                raise MissingArtifact(f"no point cloud for {gid}; run cloud first")
            cloud = read_cloud(path, geometry_id=gid)
            if cloud.n_points > n_points:
                cloud = subsample(cloud, n_points, seed=_stage_seed(seed, rank[gid]))
            elif cloud.n_points < n_points:
                raise MissingArtifact(
                    f"cloud for {gid} has {cloud.n_points} points, need {n_points}"
                )
            cache[gid] = cloud.points
        clouds.append(cache[gid])
        discharges.append(q)
        targets.append(labels[(gid, q)])
    return (
        attach_discharge(np.stack(clouds), np.asarray(discharges)),
        np.asarray(targets),
    )


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
        scaled = report.scaled()
        row["mse_1e5"] = f"{scaled['mse_1e5']:.9g}"
        row["r2_100"] = "" if scaled["r2_100"] is None else f"{scaled['r2_100']:.9g}"
        row["mae_1e3"] = f"{scaled['mae_1e3']:.9g}"
        row["max_ae_10"] = f"{scaled['max_ae_10']:.9g}"
    return row


def _write_report(path: Path, rows, paper_scale: bool) -> None:
    columns = _REPORT_COLUMNS + (_SCALED_COLUMNS if paper_scale else ())
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


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


def _mesh_one(gid, derived, fixed, x_segments):
    mesh = solid_mesh(derived, fixed, x_segments=x_segments)
    report = validate_mesh(mesh)
    crest = crest_trace_length(mesh)
    return mesh, report, crest


def _cmd_mesh(args) -> int:
    ws = _workspace(args)
    manifest, fixed = _load_manifest(ws)
    report_path = _claim(ws / "meshes" / "mesh_reports.csv", args.force)
    gids = sorted(manifest.geometries)
    if args.ids:
        missing = sorted(set(args.ids) - set(gids))
        if missing:
            raise MissingArtifact(f"unknown geometry ids: {', '.join(missing)}")
        gids = sorted(args.ids)
    for gid in gids:
        _claim(ws / "meshes" / f"{gid}.stl", args.force)

    def job(gid):
        try:
            return gid, _mesh_one(
                gid, manifest.geometries[gid].derived, fixed, args.x_segments
            ), None
        except PkwError as exc:
            return gid, None, exc

    results = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for gid, ok, err in pool.map(job, gids):
            results[gid] = (ok, err)

    config = {"x_segments": args.x_segments, "ids": list(args.ids or [])}
    failures = []
    rows = []
    for gid in gids:
        ok, err = results[gid]
        stl_path = ws / "meshes" / f"{gid}.stl"
        if err is not None:
            _mark_failed(stl_path, err)
            failures.append((gid, err))
            continue
        mesh, report, crest = ok
        write_stl(stl_path, mesh, geometry_id=gid)
        if not report.watertight:
            _mark_failed(stl_path, PkwError("mesh is not watertight"))
            failures.append((gid, PkwError(f"{gid}: mesh is not watertight")))
        derived = manifest.geometries[gid].derived
        volume = analytic_volume(derived, fixed)
        rows.append({
            "geometry_id": gid,
            "n_vertices": len(mesh.vertices),
            "n_triangles": len(mesh.triangles),
            "watertight": int(report.watertight),
            "signed_volume": f"{report.signed_volume:.9g}",
            "analytic_volume": f"{volume:.9g}",
            "crest_trace": f"{crest:.9g}",
            "crest_parametric": f"{derived.L:.9g}",
        })
    with report_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "geometry_id", "n_vertices", "n_triangles", "watertight",
            "signed_volume", "analytic_volume", "crest_trace", "crest_parametric",
        ])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    _write_meta(report_path, "mesh", None, config)
    print(f"meshed {len(rows)} of {len(gids)} designs")
    if failures:
        record = {
            "error": "MeshStageFailures",
            "message": f"{len(failures)} designs failed to mesh",
            "geometry_ids": [gid for gid, _ in failures],
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def _cmd_cloud(args) -> int:
    ws = _workspace(args)
    seed = _require_seed(args)
    manifest, _ = _load_manifest(ws)
    rank = _geometry_rank(manifest)
    gids = sorted(manifest.geometries)
    targets = {gid: _claim(ws / "clouds" / f"{gid}.wnpc", args.force) for gid in gids}

    def job(gid):
        stl_path = ws / "meshes" / f"{gid}.stl"
        try:
            if not stl_path.exists():
                raise MissingArtifact(f"no mesh for {gid}; run mesh first")
            mesh = read_stl(stl_path)
            cloud = sample_surface(
                mesh, args.n, seed=_stage_seed(seed, rank[gid]), geometry_id=gid
            )
            return gid, normalize_unit_cube(cloud), None
        except PkwError as exc:
            return gid, None, exc

    results = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for gid, cloud, err in pool.map(job, gids):
            results[gid] = (cloud, err)

    failures = []
    written = 0
    for gid in gids:
        cloud, err = results[gid]
        if err is not None:
            _mark_failed(targets[gid], err)
            failures.append(gid)
            continue
        write_cloud(targets[gid], cloud)
        written += 1
    config = {"n": args.n}
    _write_meta(ws / "clouds" / "clouds", "cloud", seed, config)
    print(f"sampled {written} clouds of {args.n} points")
    if failures:
        record = {
            "error": "CloudStageFailures",
            "message": f"{len(failures)} clouds could not be sampled",
            "geometry_ids": failures,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def _parse_oracle(value: str):
    if value == "synthetic":
        return "synthetic", None
    if value.startswith("csv="):
        return "csv", value[4:]
    raise PkwError(f"--oracle must be 'synthetic' or 'csv=<path>', got {value!r}")


def _cmd_label(args) -> int:
    ws = _workspace(args)
    manifest, fixed = _load_manifest(ws)
    out_path = _claim(ws / "labels" / "labels.csv", args.force)
    kind, src = _parse_oracle(args.oracle)
    if kind == "synthetic":
        seed = _require_seed(args)
        labels = synthesize_labels(
            manifest.geometries,
            paper_schedule(),
            config=OracleConfig(sigma=args.sigma),
            seed=seed,
        )
        config = {"oracle": "synthetic", "sigma": args.sigma}
    else:
        seed = args.seed
        crest = {gid: rec.derived.L for gid, rec in manifest.geometries.items()}
        labels = ingest_labels(src, crest)
        config = {"oracle": "csv", "source": os.path.basename(src)}
    # attaching the labels re-runs the manifest consistency gates
    DatasetManifest(geometries=manifest.geometries, labels=labels)
    write_labels_csv(out_path, labels)
    _write_meta(out_path, "label", seed, config)
    print(f"wrote {len(labels)} labels to {out_path}")
    return 0


def _parse_policy(value: str):
    if value == "id":
        return ("id",)
    for prefix in ("ood-geom", "ood-head"):
        if value.startswith(prefix + ":"):
            return (prefix, value[len(prefix) + 1 :])
    if value.startswith("fraction:"):
        try:
            fraction = float(value.split(":", 1)[1])
        except ValueError:
            raise PkwError(f"bad fraction in --policy {value!r}") from None
        return ("fraction", fraction)
    raise PkwError(
        "--policy must be id, ood-geom:<bin>, ood-head:<bin>, or fraction:<f>, "
        f"got {value!r}"
    )


def _make_split(manifest, policy, seed):
    if policy[0] == "id":
        return split_id(manifest, seed=seed)
    if policy[0] == "ood-geom":
        if policy[1] not in OOD_GEOM_BINS:
            raise PkwError(
                f"unknown geometry bin {policy[1]!r}; "
                f"choose from {', '.join(sorted(OOD_GEOM_BINS))}"
            )
        return split_ood_geom(manifest, policy[1], seed=seed)
    if policy[0] == "ood-head":
        if policy[1] not in OOD_HEAD_BINS:
            raise PkwError(
                f"unknown discharge bin {policy[1]!r}; "
                f"choose from {', '.join(sorted(OOD_HEAD_BINS))}"
            )
        return split_ood_head(manifest, policy[1], seed=seed)
    return subset_fraction(split_id(manifest, seed=seed), policy[1], seed=seed)


def _cmd_split(args) -> int:
    ws = _workspace(args)
    seed = _require_seed(args)
    manifest, _ = _load_manifest(ws, with_labels=True)
    split = _make_split(manifest, _parse_policy(args.policy), seed)
    out_path = _claim(ws / "splits" / f"{split.name}.csv", args.force)
    write_split_csv(out_path, split)
    _write_meta(out_path, "split", seed, {"policy": args.policy})
    print(
        f"wrote split {split.name}: {len(split.train)} train, "
        f"{len(split.val)} val, {len(split.test)} test pairs"
    )
    return 0


def _load_split(ws: Path, name: str):
    path = ws / "splits" / f"{name}.csv"
    if not path.exists():
        raise MissingArtifact(f"no split file at {path}; run split first")
    return read_split_csv(path)


def _ensemble_size(args, model_name: str) -> int:
    if args.trees is not None:
        return args.trees
    return 300 if model_name == "gbm" else 100


def _fit_model(args, ws, manifest, split, seed):
    if args.model in ("tree", "forest", "gbm"):
        X, y = _tabular_arrays(manifest, split.train)
        if args.model == "tree":
            return fit_tree(X, y)
        if args.model == "forest":
            return fit_forest(X, y, n_trees=_ensemble_size(args, "forest"), seed=seed)
        return fit_gbm(X, y, n_trees=_ensemble_size(args, "gbm"))
    X, y = _cloud_arrays(ws, manifest, split.train, args.points, seed)
    Xv, yv = _cloud_arrays(ws, manifest, split.val, args.points, seed)
    config = PointNetConfig(max_epochs=args.epochs, seed=seed)
    return fit_pointnet_mini(X, y, Xv, yv, config=config)


def _cmd_train(args) -> int:
    ws = _workspace(args)
    seed = _require_seed(args)
    manifest, _ = _load_manifest(ws, with_labels=True)
    split = _load_split(ws, args.split)
    out_path = _claim(ws / "models" / f"{split.name}-{args.model}.wnsm", args.force)
    model = _fit_model(args, ws, manifest, split, seed)
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


def _eval_model(ws, manifest, model, pairs, args):
    if isinstance(model, PointNetMini):
        X, y = _cloud_arrays(ws, manifest, pairs, args.points, args.seed or 0)
    else:
        X, y = _tabular_arrays(manifest, pairs)
    return compute_metrics(y, model.predict(X))


def _cmd_eval(args) -> int:
    ws = _workspace(args)
    manifest, _ = _load_manifest(ws, with_labels=True)
    split = _load_split(ws, args.split)
    model_path = ws / "models" / f"{split.name}-{args.model}.wnsm"
    if not model_path.exists():
        raise MissingArtifact(f"no model at {model_path}; run train first")
    model = load_model(model_path)
    pairs = getattr(split, args.partition)
    if not pairs:
        raise MissingArtifact(
            f"split {split.name} has no {args.partition} pairs to evaluate"
        )
    report = _eval_model(ws, manifest, model, pairs, args)
    out_path = _claim(
        ws / "reports" / f"eval-{split.name}-{args.model}-{args.partition}.csv",
        args.force,
    )
    row = _metric_row(
        split, args.model, args.partition, len(split.train), report, args.paper_scale
    )
    _write_report(out_path, [row], args.paper_scale)
    _write_meta(out_path, "eval", args.seed, {
        "split": split.name, "model": args.model, "partition": args.partition,
        "paper_scale": args.paper_scale,
    })
    r2_text = "undefined" if report.r2 is None else f"{report.r2:.4f}"
    print(
        f"{split.name}/{args.model}/{args.partition}: "
        f"mse {report.mse:.3e}, r2 {r2_text} -> {out_path}"
    )
    return 0


def _bench_splits(manifest, seed):
    """The benchmark matrix: ID, three geometry bins, three discharge bins,
    and the nested fraction ladder (1 + 3 + 3 + 6 rows per model).

    ``id-f100`` keeps every training pair of ``id`` and the same validation
    and test pairs, so ``bench`` reuses the ``id`` fit's report for it.
    """
    splits = [split_id(manifest, seed=seed)]
    splits += [split_ood_geom(manifest, b, seed=seed) for b in OOD_GEOM_BINS]
    splits += [split_ood_head(manifest, b, seed=seed) for b in OOD_HEAD_BINS]
    base = splits[0]
    splits += [subset_fraction(base, f, seed=seed) for f in DATA_FRACTIONS]
    return splits


def _cmd_bench(args) -> int:
    ws = _workspace(args)
    seed = _require_seed(args)
    if not args.model:
        args.model = ["forest"]
    kind, _ = _parse_oracle(args.oracle)
    if kind != "synthetic":
        raise PkwError("bench only supports --oracle synthetic")
    report_path = _claim(ws / "reports" / "bench.csv", args.force)

    sample_args = argparse.Namespace(**vars(args))
    sample_args.command = "sample"
    _cmd_sample(sample_args)
    label_args = argparse.Namespace(**vars(args))
    label_args.command = "label"
    _cmd_label(label_args)
    if "pointnet" in args.model:
        mesh_args = argparse.Namespace(**vars(args))
        mesh_args.command, mesh_args.ids = "mesh", None
        status = _cmd_mesh(mesh_args)
        if status != 0:
            return status
        cloud_args = argparse.Namespace(**vars(args))
        cloud_args.command, cloud_args.n = "cloud", args.cloud_points
        status = _cmd_cloud(cloud_args)
        if status != 0:
            return status

    # round-trip through the written artifacts so bench rows match what the
    # individual commands would produce from the same workspace
    manifest, _ = _load_manifest(ws, with_labels=True)
    splits = _bench_splits(manifest, seed)
    for split in splits:
        write_split_csv(
            _claim(ws / "splits" / f"{split.name}.csv", args.force), split
        )
    splits = [_load_split(ws, s.name) for s in splits]

    rows = []
    for model_name in args.model:
        fit_args = argparse.Namespace(**vars(args))
        fit_args.model = model_name
        # a fit depends only on the pairs, so equal pairs share one report;
        # reports, not models, are kept, which holds peak memory down
        reports = {}
        for split in splits:
            pairs = (split.train, split.val, split.test)
            if pairs not in reports:
                model = _fit_model(fit_args, ws, manifest, split, seed)
                reports[pairs] = _eval_model(ws, manifest, model, split.test, fit_args)
            report = reports[pairs]
            rows.append(_metric_row(
                split, model_name, "test", len(split.train), report,
                args.paper_scale,
            ))
    _write_report(report_path, rows, args.paper_scale)
    _write_meta(report_path, "bench", seed, {
        "n": args.n, "sigma": args.sigma, "models": list(args.model),
        "trees": args.trees, "paper_scale": args.paper_scale,
    })
    print(f"wrote {len(rows)} benchmark rows to {report_path}")
    return 0


# parser


def _add_common(sub, seed_help="master seed for this stage"):
    sub.add_argument("--workspace", default=os.environ.get("PKWBENCH_WORKSPACE", "workspace"),
                     help="workspace directory (env PKWBENCH_WORKSPACE)")
    sub.add_argument("--seed", type=int, default=None, help=seed_help)
    sub.add_argument("--force", action="store_true",
                     help="allow overwriting existing artifacts")
    sub.add_argument("--jobs", type=int,
                     default=int(os.environ.get("PKWBENCH_JOBS", "1")),
                     help="worker threads for per-geometry stages (env PKWBENCH_JOBS)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkwbench",
        description="Sample, mesh, label, split, train, and benchmark "
        "piano-key-weir surrogate datasets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="draw feasible designs onto the step grid")
    p.add_argument("--n", type=int, required=True, help="number of designs")
    p.add_argument("--space", choices=("paper", "screening"), default="paper")
    p.add_argument("--step-mm", action="append", metavar="VAR=VALUE",
                   help="override one step size (mm; ratios are unitless)")
    p.add_argument("--lo-mm", action="append", metavar="VAR=VALUE",
                   help="override one lower bound (mm; ratios are unitless)")
    p.add_argument("--hi-mm", action="append", metavar="VAR=VALUE",
                   help="override one upper bound (mm; ratios are unitless)")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("mesh", help="tessellate sampled designs into STL solids")
    p.add_argument("--x-segments", type=int, default=8,
                   help="extra streamwise subdivisions per region")
    p.add_argument("--ids", nargs="*", default=None, help="subset of geometry ids")
    _add_common(p)
    p.set_defaults(func=_cmd_mesh)

    p = subs.add_parser("cloud", help="sample surface point clouds from meshes")
    p.add_argument("--n", type=int, default=100_000, help="points per cloud")
    _add_common(p)
    p.set_defaults(func=_cmd_cloud)

    p = subs.add_parser("label", help="attach discharge-coefficient labels")
    p.add_argument("--oracle", default="synthetic",
                   help="'synthetic' or 'csv=<path>' with measured labels")
    p.add_argument("--sigma", type=float, default=0.0,
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
    p.add_argument("--trees", type=int, default=None,
                   help="ensemble size (forest defaults to 100, gbm to 300)")
    p.add_argument("--points", type=int, default=5000,
                   help="points per cloud fed to the network")
    p.add_argument("--epochs", type=int, default=500,
                   help="training epoch cap for the network")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("eval", help="score a trained model on a split partition")
    p.add_argument("--model", choices=MODEL_CHOICES, required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--partition", choices=("train", "val", "test"), default="test")
    p.add_argument("--paper-scale", action="store_true",
                   help="append display-scaled metric columns")
    p.add_argument("--points", type=int, default=5000)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("bench", help="run the full split-matrix benchmark")
    p.add_argument("--n", type=int, default=200, help="number of designs")
    p.add_argument("--space", choices=("paper", "screening"), default="paper")
    p.add_argument("--step-mm", action="append", metavar="VAR=VALUE")
    p.add_argument("--lo-mm", action="append", metavar="VAR=VALUE")
    p.add_argument("--hi-mm", action="append", metavar="VAR=VALUE")
    p.add_argument("--oracle", default="synthetic")
    p.add_argument("--sigma", type=float, default=0.005)
    p.add_argument("--model", action="append", choices=MODEL_CHOICES,
                   default=None, help="repeatable; default forest")
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--points", type=int, default=5000)
    p.add_argument("--cloud-points", type=int, default=100_000)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--x-segments", type=int, default=8)
    p.add_argument("--paper-scale", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_bench)

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
