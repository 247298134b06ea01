"""End-to-end checks for the command line pipeline.

Each command runs through ``main`` exactly as a shell invocation would,
against throwaway workspaces. A module-scoped workspace carries one full
sample -> mesh -> cloud -> label -> split -> train -> eval chain so the
cheap assertions do not redo the expensive stages.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

import pkwbench
from pkwbench.cli import (
    MANIFEST_NAME,
    SUBDIRS,
    _REPORT_COLUMNS,
    _SCALED_COLUMNS,
    build_parser,
    main,
)
from pkwbench.dataset import (
    DatasetManifest,
    GeometryRecord,
    read_labels_csv,
    read_split_csv,
    write_manifest,
)
from pkwbench.geometry import PkwFixed, PkwSample, derive
from pkwbench.hydraulics import paper_schedule
from pkwbench.pointcloud import read_cloud
from pkwbench.surrogates import load_model

N_DESIGNS = 12
MASTER_SEED = 7
CLOUD_POINTS = 400


def run(argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def stderr_record(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert err, "expected a JSON error record on stderr"
    return json.loads(err[-1])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small workspace taken through the whole command chain."""
    ws = tmp_path_factory.mktemp("pipeline")
    steps = [
        ["sample", "--workspace", ws, "--n", N_DESIGNS, "--seed", MASTER_SEED],
        ["mesh", "--workspace", ws],
        ["cloud", "--workspace", ws, "--n", CLOUD_POINTS, "--seed", 11],
        ["label", "--workspace", ws, "--sigma", "0.0", "--seed", 13],
        ["split", "--workspace", ws, "--policy", "id", "--seed", 17],
        ["train", "--workspace", ws, "--model", "tree", "--split", "id",
         "--seed", 19],
        ["eval", "--workspace", ws, "--model", "tree", "--split", "id",
         "--partition", "test"],
    ]
    for argv in steps:
        assert run(argv) == 0, f"pipeline step failed: {argv[0]}"
    return ws


# workspace layout and provenance


def test_workspace_subdirectories_created(pipeline):
    for sub in SUBDIRS:
        assert (pipeline / sub).is_dir()


def test_sample_artifacts_and_meta(pipeline):
    assert (pipeline / "params" / MANIFEST_NAME).exists()
    table = pipeline / "params" / "designs.csv"
    assert len(read_rows(table)) == N_DESIGNS
    meta = json.loads((table.parent / "designs.csv.meta.json").read_text())
    assert set(meta) == {"command", "seed", "config_hash", "tool_version"}
    assert meta["command"] == "sample"
    assert meta["seed"] == MASTER_SEED
    assert meta["tool_version"] == pkwbench.__version__
    head = json.loads(
        (pipeline / "params" / MANIFEST_NAME).read_text().splitlines()[0]
    )
    assert head["kind"] == "provenance"
    assert head["master_seed"] == MASTER_SEED
    assert head["n_requested"] == N_DESIGNS


def test_sample_is_deterministic_across_workspaces(tmp_path):
    ws_a, ws_b = tmp_path / "a", tmp_path / "b"
    for ws in (ws_a, ws_b):
        assert run(["sample", "--workspace", ws, "--n", 50, "--seed", 7]) == 0
    for name in (MANIFEST_NAME, "designs.csv"):
        left = (ws_a / "params" / name).read_bytes()
        right = (ws_b / "params" / name).read_bytes()
        assert left == right, f"{name} differs between identical runs"


def test_sample_seed_changes_designs(tmp_path):
    ws_a, ws_b = tmp_path / "a", tmp_path / "b"
    assert run(["sample", "--workspace", ws_a, "--n", 20, "--seed", 1]) == 0
    assert run(["sample", "--workspace", ws_b, "--n", 20, "--seed", 2]) == 0
    a = (ws_a / "params" / "designs.csv").read_bytes()
    b = (ws_b / "params" / "designs.csv").read_bytes()
    assert a != b


def test_stochastic_commands_demand_a_seed(tmp_path, capsys):
    assert run(["sample", "--workspace", tmp_path, "--n", 5]) == 1
    record = stderr_record(capsys)
    assert record["error"] == "PkwError"
    assert record["command"] == "sample"
    assert "--seed" in record["message"]


def test_write_once_unless_forced(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert run(["sample", "--workspace", ws, "--n", 5, "--seed", 3]) == 0
    assert run(["sample", "--workspace", ws, "--n", 5, "--seed", 3]) == 1
    record = stderr_record(capsys)
    assert record["error"] == "ArtifactExists"
    assert "--force" in record["message"]
    argv = ["sample", "--workspace", ws, "--n", 5, "--seed", 3, "--force"]
    assert run(argv) == 0


def test_space_overrides_use_mm_except_ratios(tmp_path):
    ws = tmp_path / "ws"
    argv = [
        "sample", "--workspace", ws, "--n", 25, "--seed", 5,
        "--lo-mm", "T_s=20", "--hi-mm", "T_s=30", "--lo-mm", "R_B_i=0.8",
    ]
    assert run(argv) == 0
    rows = read_rows(ws / "params" / "designs.csv")
    ts = np.array([float(r["T_s"]) for r in rows])
    rb = np.array([float(r["R_B_i"]) for r in rows])
    assert np.all((ts >= 0.02 - 1e-12) & (ts <= 0.03 + 1e-12))
    assert np.all(rb >= 0.8 - 1e-12)


def test_unknown_design_variable_is_rejected(tmp_path, capsys):
    argv = ["sample", "--workspace", tmp_path, "--n", 5, "--seed", 1,
            "--lo-mm", "Bogus=3"]
    assert run(argv) == 1
    assert "unknown design variable" in stderr_record(capsys)["message"]


def test_workspace_env_variable_is_honoured(tmp_path, monkeypatch):
    ws = tmp_path / "from_env"
    monkeypatch.setenv("PKWBENCH_WORKSPACE", str(ws))
    monkeypatch.chdir(tmp_path)
    assert run(["sample", "--n", 5, "--seed", 3]) == 0
    assert (ws / "params" / MANIFEST_NAME).exists()


def test_jobs_env_variable_sets_parser_default(monkeypatch):
    monkeypatch.setenv("PKWBENCH_JOBS", "3")
    args = build_parser().parse_args(["mesh"])
    assert args.jobs == 3


def test_version_flag_reports_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert pkwbench.__version__ in capsys.readouterr().out


# mesh and cloud stages


def test_mesh_reports_agree_with_parametric_values(pipeline):
    rows = read_rows(pipeline / "meshes" / "mesh_reports.csv")
    assert len(rows) == N_DESIGNS
    for row in rows:
        assert row["watertight"] == "1"
        vol = float(row["signed_volume"])
        ref = float(row["analytic_volume"])
        assert vol == pytest.approx(ref, rel=1e-9)
        crest = float(row["crest_trace"])
        assert crest == pytest.approx(float(row["crest_parametric"]), rel=1e-9)
        assert (pipeline / "meshes" / f"{row['geometry_id']}.stl").exists()


def test_parallel_mesh_matches_serial(tmp_path):
    ws_a, ws_b = tmp_path / "serial", tmp_path / "parallel"
    for ws, jobs in ((ws_a, 1), (ws_b, 2)):
        assert run(["sample", "--workspace", ws, "--n", 6, "--seed", 9]) == 0
        assert run(["mesh", "--workspace", ws, "--jobs", jobs]) == 0
    reports_a = (ws_a / "meshes" / "mesh_reports.csv").read_bytes()
    reports_b = (ws_b / "meshes" / "mesh_reports.csv").read_bytes()
    assert reports_a == reports_b
    stl_a = (ws_a / "meshes" / "g000000.stl").read_bytes()
    stl_b = (ws_b / "meshes" / "g000000.stl").read_bytes()
    assert stl_a == stl_b


def test_mesh_failures_leave_markers_and_fail_the_stage(tmp_path, capsys):
    ws = tmp_path / "ws"
    (ws / "params").mkdir(parents=True)
    fixed = PkwFixed()
    good = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)
    # feasible box point whose downstream crest wall pinches to nothing
    pinch = PkwSample(B_b=0.2, R_B_i=0.75, T_s=0.0594, W_i_u=0.2, W_i_d=0.0099)
    geoms = {
        "g000000": GeometryRecord("g000000", good, derive(fixed, good)),
        "g000001": GeometryRecord("g000001", pinch, derive(fixed, pinch)),
    }
    write_manifest(ws / "params" / MANIFEST_NAME,
                   DatasetManifest(geometries=geoms, labels=[]), fixed)

    assert run(["mesh", "--workspace", ws]) == 1
    record = stderr_record(capsys)
    assert record["error"] == "MeshStageFailures"
    assert record["geometry_ids"] == ["g000001"]
    assert (ws / "meshes" / "g000000.stl").exists()
    marker = json.loads((ws / "meshes" / "g000001.stl.failed").read_text())
    assert marker["error"] == "DegenerateRegion"
    rows = read_rows(ws / "meshes" / "mesh_reports.csv")
    assert [r["geometry_id"] for r in rows] == ["g000000"]


def test_cloud_without_meshes_fails_per_geometry(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert run(["sample", "--workspace", ws, "--n", 3, "--seed", 2]) == 0
    assert run(["cloud", "--workspace", ws, "--n", 50, "--seed", 4]) == 1
    record = stderr_record(capsys)
    assert record["error"] == "CloudStageFailures"
    assert len(record["geometry_ids"]) == 3
    marker = json.loads((ws / "clouds" / "g000000.wnpc.failed").read_text())
    assert marker["error"] == "MissingArtifact"


def test_clouds_are_normalized_and_sized(pipeline):
    cloud = read_cloud(pipeline / "clouds" / "g000000.wnpc",
                       geometry_id="g000000")
    assert cloud.n_points == CLOUD_POINTS
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    assert np.all(lo >= -1e-12)
    assert np.all(hi <= 1.0 + 1e-12)
    # the longest axis spans the whole unit interval after normalization
    assert np.max(hi - lo) == pytest.approx(1.0, rel=1e-9)


# labels and splits


def test_labels_cover_the_discharge_schedule(pipeline):
    labels = read_labels_csv(pipeline / "labels" / "labels.csv")
    assert len(labels) == N_DESIGNS * len(paper_schedule())
    schedule = set(paper_schedule().as_m3s())
    assert {lab.Q for lab in labels} == schedule
    cds = np.array([lab.c_D for lab in labels])
    assert np.all(np.isfinite(cds)) and np.all(cds > 0)


def test_label_rerun_with_force_is_identical(pipeline):
    path = pipeline / "labels" / "labels.csv"
    before = path.read_bytes()
    argv = ["label", "--workspace", pipeline, "--sigma", "0.0", "--seed", 13,
            "--force"]
    assert run(argv) == 0
    assert path.read_bytes() == before


def test_label_csv_oracle_round_trips(tmp_path):
    ws = tmp_path / "ws"
    assert run(["sample", "--workspace", ws, "--n", 4, "--seed", 6]) == 0
    source = tmp_path / "measured.csv"
    rows = [("g000000", 50.0, 0.41), ("g000001", 130.0, 0.387),
            ("g000002", 250.0, 0.52)]
    with source.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["geometry_id", "Q_lps", "c_D"])
        writer.writerows(rows)
    assert run(["label", "--workspace", ws, "--oracle", f"csv={source}"]) == 0
    labels = read_labels_csv(ws / "labels" / "labels.csv")
    got = sorted((lab.geometry_id, lab.Q * 1000.0, lab.c_D) for lab in labels)
    assert got == [(g, q, pytest.approx(c, rel=1e-6)) for g, q, c in rows]


def test_split_id_partitions_geometries(pipeline):
    split = read_split_csv(pipeline / "splits" / "id.csv")
    n_q = len(paper_schedule())
    assert (len(split.train), len(split.val), len(split.test)) == (
        10 * n_q, 1 * n_q, 1 * n_q)
    geoms = lambda part: {gid for gid, _ in part}
    assert not geoms(split.train) & geoms(split.val)
    assert not geoms(split.train) & geoms(split.test)
    assert not geoms(split.val) & geoms(split.test)


def test_fraction_split_keeps_val_and_test(pipeline):
    argv = ["split", "--workspace", pipeline, "--policy", "fraction:0.4",
            "--seed", 17]
    assert run(argv) == 0
    base = read_split_csv(pipeline / "splits" / "id.csv")
    sub = read_split_csv(pipeline / "splits" / "id-f40.csv")
    assert sub.val == base.val
    assert sub.test == base.test
    assert sub.train < base.train
    n_q = len(paper_schedule())
    assert len(sub.train) == 4 * n_q


def test_unknown_bin_lists_the_choices(pipeline, capsys):
    argv = ["split", "--workspace", pipeline, "--policy", "ood-geom:nosuch",
            "--seed", 1]
    assert run(argv) == 1
    message = stderr_record(capsys)["message"]
    assert "alpha_le2" in message and "alpha_ge6" in message


# training and evaluation


def test_trained_model_round_trips_from_workspace(pipeline):
    model_path = pipeline / "models" / "id-tree.wnsm"
    assert model_path.exists()
    model = load_model(model_path)
    assert model.n_features == 9
    meta = json.loads(
        (pipeline / "models" / "id-tree.wnsm.meta.json").read_text()
    )
    assert meta["command"] == "train"


def test_eval_report_columns_and_counts(pipeline):
    rows = read_rows(pipeline / "reports" / "eval-id-tree-test.csv")
    assert len(rows) == 1
    row = rows[0]
    assert tuple(row) == _REPORT_COLUMNS
    n_q = len(paper_schedule())
    assert int(row["n_train"]) == 10 * n_q
    assert int(row["n_eval"]) == 1 * n_q
    assert row["policy"] == "id-by-geometry"
    assert float(row["r2"]) <= 1.0
    assert float(row["max_ae"]) >= float(row["mae"]) >= 0.0


def test_paper_scale_appends_scaled_columns(pipeline):
    argv = ["eval", "--workspace", pipeline, "--model", "tree", "--split",
            "id", "--partition", "val", "--paper-scale"]
    assert run(argv) == 0
    row = read_rows(pipeline / "reports" / "eval-id-tree-val.csv")[0]
    assert tuple(row) == _REPORT_COLUMNS + _SCALED_COLUMNS
    assert float(row["mse_1e5"]) == pytest.approx(
        float(row["mse"]) * 1e5, rel=1e-6)
    assert float(row["mae_1e3"]) == pytest.approx(
        float(row["mae"]) * 1e3, rel=1e-6)
    assert float(row["max_ae_10"]) == pytest.approx(
        float(row["max_ae"]) * 10, rel=1e-6)
    assert float(row["r2_100"]) == pytest.approx(
        float(row["r2"]) * 100, rel=1e-6)


def test_train_in_empty_workspace_points_at_sample(tmp_path, capsys):
    argv = ["train", "--workspace", tmp_path, "--model", "tree", "--split",
            "id", "--seed", 1]
    assert run(argv) == 1
    record = stderr_record(capsys)
    assert record["error"] == "MissingArtifact"
    assert "run sample first" in record["message"]


def test_eval_without_trained_model_fails(pipeline, capsys):
    argv = ["eval", "--workspace", pipeline, "--model", "gbm", "--split",
            "id", "--partition", "test"]
    assert run(argv) == 1
    record = stderr_record(capsys)
    assert record["error"] == "MissingArtifact"
    assert "run train first" in record["message"]


def test_pointnet_cli_chain(pipeline):
    train = ["train", "--workspace", pipeline, "--model", "pointnet",
             "--split", "id", "--seed", 5, "--points", 64, "--epochs", 2]
    assert run(train) == 0
    assert (pipeline / "models" / "id-pointnet.wnsm").exists()
    evaluate = ["eval", "--workspace", pipeline, "--model", "pointnet",
                "--split", "id", "--partition", "test", "--points", 64,
                "--seed", 5]
    assert run(evaluate) == 0
    row = read_rows(pipeline / "reports" / "eval-id-pointnet-test.csv")[0]
    assert row["model"] == "pointnet"
    assert float(row["mse"]) >= 0.0


# benchmark matrix


def bench_args(ws):
    return ["bench", "--workspace", ws, "--n", 40, "--seed", 3,
            "--trees", 5, "--sigma", "0.005"]


def test_bench_produces_the_full_split_matrix(tmp_path):
    ws = tmp_path / "ws"
    assert run(bench_args(ws)) == 0
    rows = read_rows(ws / "reports" / "bench.csv")
    assert len(rows) == 13
    assert {r["model"] for r in rows} == {"forest"}
    names = [r["split"] for r in rows]
    assert names == [
        "id",
        "ood-geom-alpha_le2", "ood-geom-alpha_3_5", "ood-geom-alpha_ge6",
        "ood-head-q_le90", "ood-head-q_100_160", "ood-head-q_ge170",
        "id-f10", "id-f20", "id-f40", "id-f60", "id-f80", "id-f100",
    ]
    # bench reuses the artifacts the standalone commands would write
    assert (ws / "params" / MANIFEST_NAME).exists()
    assert (ws / "labels" / "labels.csv").exists()
    for name in names:
        assert (ws / "splits" / f"{name}.csv").exists()
    # fraction rows shrink the training set without touching the test set
    by_name = {r["split"]: r for r in rows}
    assert int(by_name["id-f10"]["n_train"]) < int(by_name["id"]["n_train"])
    assert int(by_name["id-f100"]["n_train"]) == int(by_name["id"]["n_train"])
    assert int(by_name["id-f10"]["n_eval"]) == int(by_name["id"]["n_eval"])


def test_bench_is_reproducible(tmp_path):
    ws_a, ws_b = tmp_path / "a", tmp_path / "b"
    for ws in (ws_a, ws_b):
        assert run(bench_args(ws)) == 0
    left = (ws_a / "reports" / "bench.csv").read_bytes()
    right = (ws_b / "reports" / "bench.csv").read_bytes()
    assert left == right


def test_bench_fits_each_distinct_training_set_once(tmp_path, monkeypatch):
    fitted = []
    fit = pkwbench.cli._fit_model

    def counting_fit(args, ws, manifest, split, seed):
        fitted.append(split.name)
        return fit(args, ws, manifest, split, seed)

    monkeypatch.setattr(pkwbench.cli, "_fit_model", counting_fit)
    ws = tmp_path / "ws"
    assert run(bench_args(ws)) == 0
    # id-f100 holds exactly the id split's pairs, so it reuses that fit
    assert len(fitted) == 12
    assert "id-f100" not in fitted
    by_name = {r["split"]: r for r in read_rows(ws / "reports" / "bench.csv")}
    full, ladder_top = by_name["id"], by_name["id-f100"]
    for column in ("model", "partition", "n_train", "n_eval", "mse", "r2",
                   "mae", "max_ae"):
        assert ladder_top[column] == full[column]


def test_bench_rejects_external_oracles(tmp_path, capsys):
    argv = ["bench", "--workspace", tmp_path, "--n", 40, "--seed", 3,
            "--oracle", "csv=whatever.csv"]
    assert run(argv) == 1
    assert "synthetic" in stderr_record(capsys)["message"]


# truncated artifacts


def _cut_last_line(path):
    """Cut a file in the middle of its last line, as an interrupted write."""
    text = path.read_text()
    start = text.rstrip("\n").rindex("\n") + 1
    path.write_text(text[: start + (len(text) - start) // 2])


@pytest.mark.parametrize("artifact", ["labels/labels.csv", "splits/id.csv"])
def test_truncated_csv_artifacts_fail_with_a_parse_error(tmp_path, capsys, artifact):
    ws = tmp_path / "ws"
    steps = [
        ["sample", "--workspace", ws, "--n", N_DESIGNS, "--seed", MASTER_SEED],
        ["label", "--workspace", ws, "--sigma", "0.0", "--seed", 13],
        ["split", "--workspace", ws, "--policy", "id", "--seed", 17],
    ]
    for argv in steps:
        assert run(argv) == 0
    _cut_last_line(ws / artifact)
    capsys.readouterr()
    train = ["train", "--workspace", ws, "--model", "tree", "--split", "id",
             "--seed", 19]
    assert run(train) == 1
    record = stderr_record(capsys)
    assert record["error"] == "ParseError"
    assert record["command"] == "train"
    last_row = len((ws / artifact).read_text().splitlines())
    assert f"{artifact.split('/')[-1]} row {last_row}:" in record["message"]
