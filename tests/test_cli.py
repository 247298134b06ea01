"""End-to-end checks for the command line pipeline.

Each command runs through ``main`` exactly as a shell invocation would,
against throwaway workspaces. A module-scoped workspace carries one full
sample -> mesh -> cloud -> label -> split -> train -> eval chain so the
cheap assertions do not redo the expensive stages.
"""

import concurrent.futures
import csv
import functools
import json
import os
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import pkwbench
import pkwbench.cli as cli
import pkwbench.mesh
from pkwbench.cli import (
    MANIFEST_NAME,
    SUBDIRS,
    _REPORT_COLUMNS,
    _SCALED_COLUMNS,
    _config_hash,
    _pool_size,
    _run_jobs,
    build_parser,
    main,
)
from pkwbench.dataset import (
    DATA_FRACTIONS,
    OOD_GEOM_BINS,
    OOD_HEAD_BINS,
    DatasetManifest,
    GeometryRecord,
    read_labels_csv,
    read_manifest,
    read_split_csv,
    split_id,
    split_ood_head,
    synthesize_labels,
    write_labels_csv,
    write_manifest,
)
from pkwbench.geometry import PkwFixed, PkwSample, derive, feature_vector
from pkwbench.hydraulics import OracleConfig, paper_schedule, total_head
from pkwbench.pointcloud import read_cloud
from pkwbench.surrogates import attach_discharge, compute_metrics, load_model, save_model, trees
from test_surrogates import _boost_groups

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


@pytest.mark.parametrize("command", ["label", "bench"])
@pytest.mark.parametrize("value", ["-1", "nan"])
def test_bad_sigma_is_a_usage_error_before_any_work(tmp_path, capsys, command, value):
    ws = tmp_path / "ws"
    if command == "label":
        assert run(["sample", "--workspace", ws, "--n", 3, "--seed", 1]) == 0
        capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([command, "--workspace", ws, "--seed", 3, "--sigma", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(
        f"pkwbench {command}: error: argument --sigma: must be a finite number >= 0")
    assert not (ws / "labels" / "labels.csv").exists()


def test_jobs_env_variable_sets_parser_default(monkeypatch):
    monkeypatch.setenv("PKWBENCH_JOBS", "3")
    args = build_parser().parse_args(["mesh"])
    assert args.jobs == 3


@pytest.mark.parametrize("value", ["0", "-2", "x", "1.5", ""])
def test_bad_jobs_is_a_usage_error(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        run(["mesh", "--workspace", tmp_path, "--jobs", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("pkwbench mesh: error: argument --jobs:")


@pytest.mark.parametrize("value", ["0", "x"])
def test_bad_jobs_env_variable_is_a_usage_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("PKWBENCH_JOBS", value)
    build_parser()  # a bad default fails the command, not the parser build
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--workspace", tmp_path, "--n", 3, "--seed", 1])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "PKWBENCH_JOBS" in err.splitlines()[-1]
    # an explicit --jobs overrides the bad default
    assert run(["sample", "--workspace", tmp_path, "--n", 3, "--seed", 1, "--jobs", 1]) == 0


@pytest.mark.parametrize("argv", [
    ["mesh", "--x-segments", "0"],
    ["sample", "--n", "0"],
    ["cloud", "--n", "-3"],
    ["train", "--model", "forest", "--split", "id", "--trees", "0"],
    ["train", "--model", "pointnet", "--split", "id", "--epochs", "0"],
    ["train", "--model", "pointnet", "--split", "id", "--points", "x"],
    ["train", "--model", "pointnet", "--split", "id", "--points", "0"],
    ["bench", "--n", "0"],
    ["bench", "--trees", "0"],
    ["bench", "--model", "gbm", "--trees", "1.5"],
    ["bench", "--model", "pointnet", "--epochs", "0"],
    ["bench", "--model", "pointnet", "--points", "0"],
    ["bench", "--model", "pointnet", "--cloud-points", "0"],
    ["bench", "--model", "pointnet", "--x-segments", "0"],
])
def test_bad_count_is_a_usage_error_before_any_work(tmp_path, capsys, argv):
    ws = tmp_path / "ws"
    with pytest.raises(SystemExit) as exc:
        run([argv[0], "--workspace", ws, "--seed", 1, *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(
        f"pkwbench {argv[0]}: error: argument {argv[-2]}: must be a whole number >= 1")
    assert not ws.exists()


def test_pool_size_is_capped_by_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _pool_size(2, 40) == 2
    assert _pool_size(64, 40) == 3
    assert _pool_size(64, 2) == 2
    assert _pool_size(4, 0) == 1
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
    assert _pool_size(64, 40) == 5
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert _pool_size(64, 40) == 1


def test_one_worker_runs_jobs_without_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single worker must not start a process pool")

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert list(_run_jobs(divmod, [(7, 2), (9, 4)], jobs=8)) == [(3, 1), (2, 1)]


def _straggler(k):
    time.sleep(0.3 if k == 0 else 0.01)
    return k


def test_pool_holds_at_most_two_jobs_per_worker(monkeypatch):
    submitted = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    taken = []
    for k in _run_jobs(_straggler, [(k,) for k in range(24)], jobs=2):
        # while result k is written, no job past k + 3 has been submitted:
        # two per worker, even behind a slow first job
        assert len(submitted) <= k + 2 * 2, (k, len(submitted))
        taken.append(k)
    assert taken == list(range(24))
    assert submitted == [(k,) for k in range(24)]


_STAGE_JOBS = {"_mesh_job": cli._mesh_job, "_cloud_job": cli._cloud_job}


def _fault_in_g000001(name, gid, *args):
    """``cli.<name>``, except that design g000001 raises a non-PkwError."""
    if gid == "g000001":
        raise RuntimeError("a fault that is not a PkwError")
    return _STAGE_JOBS[name](gid, *args)


@pytest.mark.parametrize("jobs", [1, 2])
def test_only_a_pkw_error_becomes_a_marker(tmp_path, monkeypatch, jobs):
    ws = tmp_path / "ws"
    assert run(["sample", "--workspace", ws, "--n", 3, "--seed", 9]) == 0
    assert run(["mesh", "--workspace", ws]) == 0
    for sub, name, argv in (("meshes", "_mesh_job", ["mesh", "--force"]),
                            ("clouds", "_cloud_job", ["cloud", "--n", 50, "--seed", 4])):
        # the pool forks after the patch, so its workers run the faulty job
        monkeypatch.setattr(cli, name, functools.partial(_fault_in_g000001, name))
        with pytest.raises(RuntimeError, match="not a PkwError"):
            run([*argv, "--workspace", ws, "--jobs", jobs])
        assert list((ws / sub).glob("*.failed")) == []
    # designs before the fault were written
    assert (ws / "clouds" / "g000000.wnpc").exists()


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


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_parallel_cloud_matches_serial(tmp_path):
    ws = tmp_path / "meshed"
    assert run(["sample", "--workspace", ws, "--n", 6, "--seed", 9]) == 0
    assert run(["mesh", "--workspace", ws]) == 0
    for jobs in (1, 2):
        shutil.copytree(ws, tmp_path / f"jobs{jobs}")
        argv = ["cloud", "--workspace", tmp_path / f"jobs{jobs}", "--n", 300,
                "--seed", 4, "--jobs", jobs]
        assert run(argv) == 0
    clouds_a = _tree_bytes(tmp_path / "jobs1" / "clouds")
    clouds_b = _tree_bytes(tmp_path / "jobs2" / "clouds")
    assert len(clouds_a) == 7  # six clouds and the stage sidecar
    assert clouds_a == clouds_b


_SRC = Path(pkwbench.__file__).resolve().parents[1]
_PEAK_RSS = """
import resource, sys
from pkwbench.cli import main
status = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(status)
"""


def _cloud_peak_rss_mb(ws, n_designs):
    """Peak RSS of a ``cloud --jobs 2`` command, at its default 100k points,
    run in a child process on a fresh workspace of ``n_designs`` designs."""
    assert run(["sample", "--workspace", ws, "--n", n_designs, "--seed", 11]) == 0
    assert run(["mesh", "--workspace", ws, "--jobs", 2]) == 0
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "cloud", "--workspace", str(ws),
         "--seed", "12", "--jobs", "2"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith(f"sampled {n_designs} clouds of 100000 points")
    return int(child.stdout.split()[-1]) / 1024.0  # ru_maxrss is in KiB


def test_cloud_memory_does_not_grow_with_the_designs(tmp_path):
    # each cloud is written as its job returns; holding every cloud until the
    # last job would add 2.4 MB per design, 144 MB between these two runs
    small = _cloud_peak_rss_mb(tmp_path / "small", 20)
    large = _cloud_peak_rss_mb(tmp_path / "large", 80)
    assert abs(large - small) < 20.0, (small, large)


def _write_pinch_manifest(ws, n_good=1):
    """A manifest whose g000001 the feasibility gate rejects and whose
    downstream crest wall pinches to nothing in build_regions; the gate
    never samples such a design, so it is written by hand."""
    (ws / "params").mkdir(parents=True, exist_ok=True)
    fixed = PkwFixed()
    good = [PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14),
            PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.17, W_i_d=0.17)]
    pinch = PkwSample(B_b=0.2, R_B_i=0.75, T_s=0.0594, W_i_u=0.2, W_i_d=0.0099)
    samples = [good[0], pinch] + good[1 : n_good]
    geoms = {f"g{k:06d}": GeometryRecord(f"g{k:06d}", s, derive(fixed, s))
             for k, s in enumerate(samples)}
    write_manifest(ws / "params" / MANIFEST_NAME,
                   DatasetManifest(geometries=geoms, labels=[]), fixed)


def test_parallel_failures_match_serial(tmp_path, capsys):
    ws = tmp_path / "sampled"
    _write_pinch_manifest(ws, n_good=2)
    errors = []
    for jobs in (1, 2):
        copy = tmp_path / f"jobs{jobs}"
        shutil.copytree(ws, copy)
        assert run(["mesh", "--workspace", copy, "--ids", "g000000", "g000001",
                    "g000002", "--jobs", jobs]) == 1
        assert run(["cloud", "--workspace", copy, "--n", 100, "--seed", 3,
                    "--jobs", jobs]) == 1
        errors.append(capsys.readouterr().err)
    marker = json.loads((tmp_path / "jobs2" / "meshes" / "g000001.stl.failed").read_text())
    assert marker["error"] == "DegenerateRegion"
    assert errors[0] == errors[1]
    assert json.loads(errors[1].splitlines()[0])["geometry_ids"] == ["g000001"]
    assert _tree_bytes(tmp_path / "jobs1") == _tree_bytes(tmp_path / "jobs2")


def test_mesh_validates_each_design_once(tmp_path, monkeypatch):
    calls = []
    validate = pkwbench.mesh.validate_mesh

    def counting(mesh):
        calls.append(mesh.n_triangles)
        return validate(mesh)

    monkeypatch.setattr(pkwbench.mesh, "validate_mesh", counting)
    # catch a call through a name the CLI imported, as well
    monkeypatch.setattr(cli, "validate_mesh", counting, raising=False)
    assert run(["sample", "--workspace", tmp_path, "--n", 4, "--seed", 9]) == 0
    assert run(["mesh", "--workspace", tmp_path, "--jobs", 1]) == 0
    rows = read_rows(tmp_path / "meshes" / "mesh_reports.csv")
    assert calls == [int(r["n_triangles"]) for r in rows]


def test_mesh_ids_given_twice_or_out_of_order_mesh_once(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert run(["sample", "--workspace", ws, "--n", 4, "--seed", 9]) == 0
    assert run(["mesh", "--workspace", ws, "--ids", "g000001", "g000001"]) == 0
    assert "meshed 1 of 1 designs" in capsys.readouterr().out
    rows = read_rows(ws / "meshes" / "mesh_reports.csv")
    assert [r["geometry_id"] for r in rows] == ["g000001"]
    # the sidecar hashes the ids as meshed: sorted, each once
    meta = ws / "meshes" / "mesh_reports.csv.meta.json"
    want = _config_hash({"x_segments": 8, "ids": ["g000000", "g000002"]})
    for ids in (["g000002", "g000000"], ["g000000", "g000002", "g000000"]):
        assert run(["mesh", "--workspace", ws, "--force", "--ids", *ids]) == 0
        assert json.loads(meta.read_text())["config_hash"] == want
        rows = read_rows(ws / "meshes" / "mesh_reports.csv")
        assert [r["geometry_id"] for r in rows] == ["g000000", "g000002"]


def test_mesh_failures_leave_markers_and_fail_the_stage(tmp_path, capsys):
    ws = tmp_path / "ws"
    _write_pinch_manifest(ws)
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


def _markers(directory):
    return sorted(p.name for p in directory.glob("*.failed"))


def test_cloud_success_clears_markers_and_failure_drops_the_cloud(tmp_path):
    ws = tmp_path / "ws"
    clouds = ws / "clouds"
    assert run(["sample", "--workspace", ws, "--n", 3, "--seed", 1]) == 0
    assert run(["cloud", "--workspace", ws, "--n", 100, "--seed", 2]) == 1
    assert len(_markers(clouds)) == 3
    assert run(["mesh", "--workspace", ws]) == 0
    assert run(["cloud", "--workspace", ws, "--n", 100, "--seed", 2, "--force"]) == 0
    assert _markers(clouds) == []
    assert len(list(clouds.glob("*.wnpc"))) == 3

    (ws / "meshes" / "g000001.stl").unlink()
    assert run(["cloud", "--workspace", ws, "--n", 100, "--seed", 2, "--force"]) == 1
    assert _markers(clouds) == ["g000001.wnpc.failed"]
    assert sorted(p.name for p in clouds.glob("*.wnpc")) == ["g000000.wnpc", "g000002.wnpc"]


def test_mesh_success_clears_markers_and_failure_drops_the_stl(tmp_path):
    ws = tmp_path / "ws"
    meshes = ws / "meshes"
    _write_pinch_manifest(ws)
    assert run(["mesh", "--workspace", ws]) == 1
    assert _markers(meshes) == ["g000001.stl.failed"]

    fixed = PkwFixed()
    good = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)
    geoms = {gid: GeometryRecord(gid, good, derive(fixed, good)) for gid in ("g000000", "g000001")}
    write_manifest(ws / "params" / MANIFEST_NAME,
                   DatasetManifest(geometries=geoms, labels=[]), fixed)
    assert run(["mesh", "--workspace", ws, "--force"]) == 0
    assert _markers(meshes) == []
    assert (meshes / "g000001.stl").exists()

    _write_pinch_manifest(ws)
    assert run(["mesh", "--workspace", ws, "--force"]) == 1
    assert _markers(meshes) == ["g000001.stl.failed"]
    assert sorted(p.name for p in meshes.glob("*.stl")) == ["g000000.stl"]


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


def test_label_from_a_missing_csv_is_one_error_record(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert run(["sample", "--workspace", ws, "--n", 4, "--seed", 6]) == 0
    capsys.readouterr()
    source = tmp_path / "measured.csv"
    assert run(["label", "--workspace", ws, "--oracle", f"csv={source}"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "MissingArtifact"
    assert str(source) in record["message"]
    assert not (ws / "labels" / "labels.csv").exists()


def test_label_uses_the_manifests_installation(tmp_path):
    fixed = PkwFixed(W=1.5, P=0.4)
    sample = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)
    geoms = {"g000000": GeometryRecord("g000000", sample, derive(fixed, sample))}
    ws = tmp_path / "ws"
    (ws / "params").mkdir(parents=True)
    write_manifest(ws / "params" / MANIFEST_NAME,
                   DatasetManifest(geometries=geoms, labels=[]), fixed)
    labels_path = ws / "labels" / "labels.csv"

    # the synthetic oracle normalises with this installation's design box
    assert run(["label", "--workspace", ws, "--sigma", "0.01", "--seed", 13]) == 0
    for config, same in ((OracleConfig(sigma=0.01, fixed=fixed), True),
                         (OracleConfig(sigma=0.01), False)):
        write_labels_csv(tmp_path / "want.csv",
                         synthesize_labels(geoms, paper_schedule(), config, seed=13))
        assert ((tmp_path / "want.csv").read_bytes() == labels_path.read_bytes()) == same

    # a measured flow depth converts to total head in this flume
    source = tmp_path / "measured.csv"
    source.write_text("geometry_id,Q_lps,h_t_m\ng000000,100,0.05\n")
    assert run(["label", "--workspace", ws, "--oracle", f"csv={source}", "--force"]) == 0
    [label] = read_labels_csv(labels_path)
    assert label.H_t == pytest.approx(total_head(0.1, 0.05, fixed).H_t, rel=1e-8)
    assert label.H_t != pytest.approx(total_head(0.1, 0.05, PkwFixed()).H_t, rel=1e-4)


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


@pytest.mark.parametrize("policy", ["fraction:1.5", "fraction:0", "fraction:nan",
                                    "fraction:-0.2", "fraction:half"])
def test_bad_fraction_is_one_error_record(pipeline, capsys, policy):
    argv = ["split", "--workspace", pipeline, "--policy", policy, "--seed", 17]
    assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "PkwError"
    assert policy in record["message"] and "(0, 1]" in record["message"]


def test_unknown_bin_lists_the_choices(pipeline, capsys):
    argv = ["split", "--workspace", pipeline, "--policy", "ood-geom:nosuch",
            "--seed", 1]
    assert run(argv) == 1
    message = stderr_record(capsys)["message"]
    assert "alpha_le2" in message and "alpha_ge6" in message


# training and evaluation


def test_pair_table_matches_per_pair_lookup(pipeline):
    # the labels come in an order that is not sorted(pairs)
    labels = read_labels_csv(pipeline / "labels" / "labels.csv")
    labels = [labels[k] for k in np.random.default_rng(3).permutation(len(labels))]
    assert labels != sorted(labels, key=lambda lab: (lab.geometry_id, lab.Q))
    manifest, _ = read_manifest(pipeline / "params" / MANIFEST_NAME, labels=labels)
    table, index = cli._pair_table(manifest)
    pairs = sorted(manifest.pairs())
    assert list(zip(table.gid.tolist(), table.Q.tolist())) == pairs
    label = {(lab.geometry_id, lab.Q): lab.c_D for lab in labels}
    for split in (split_id(manifest, seed=2), split_ood_head(manifest, "q_le90", seed=2)):
        rows = index(split)
        assert (rows.name, rows.policy) == (split.name, split.policy)
        for part in ("train", "val", "test"):
            r, want = getattr(rows, part), sorted(getattr(split, part))
            assert [pairs[k] for k in r] == want
            X = [feature_vector(manifest.geometries[g].derived, q) for g, q in want]
            assert np.array_equal(table.X[r], np.asarray(X))
            assert np.array_equal(table.y[r], np.asarray([label[p] for p in want]))


@pytest.mark.parametrize("name", ["mine", "idle"])
def test_train_on_a_split_of_unknown_name_is_one_error_record(pipeline, tmp_path, capsys,
                                                              name):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline, ws, ignore=shutil.ignore_patterns("models", "reports"))
    shutil.copy(ws / "splits" / "id.csv", ws / "splits" / f"{name}.csv")
    argv = ["train", "--workspace", ws, "--model", "tree", "--split", name,
            "--seed", 19]
    assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "ParseError"
    assert f"splits/{name}.csv" in record["message"]
    assert f"'{name}'" in record["message"] and "ood-geom-" in record["message"]
    assert not (ws / "models" / f"{name}-tree.wnsm").exists()


def _overlap_a_pair(rows):
    """Repeat the first train pair as a test pair."""
    pair = next(row for row in rows if row["partition"] == "train")
    return rows + [{**pair, "partition": "test"}]


def _move_one_pair(rows):
    """Move one pair of a train geometry to test."""
    k = next(k for k, row in enumerate(rows) if row["partition"] == "train")
    return rows[:k] + [{**rows[k], "partition": "test"}] + rows[k + 1:]


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit, detail", [
    (_overlap_a_pair, "has overlapping partitions"),
    (_move_one_pair, "straddles partitions"),
], ids=["overlap", "straddle"])
def test_split_file_with_mixed_partitions_is_one_parse_error(pipeline, tmp_path, capsys,
                                                             edit, detail, command):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline, ws, ignore=shutil.ignore_patterns("models", "reports"))
    split_path = ws / "splits" / "id.csv"
    rows = read_rows(split_path)
    with open(split_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(edit(rows))
    argv = {"train": ["train", "--workspace", ws, "--model", "tree", "--split", "id",
                      "--seed", 19],
            "eval": ["eval", "--workspace", ws, "--model", "tree", "--split", "id"]}
    capsys.readouterr()
    assert run(argv[command]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "ParseError"
    assert record["command"] == command
    assert "splits/id.csv" in record["message"]
    assert detail in record["message"]


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


@pytest.mark.parametrize("command", [
    ["split", "--policy", "id", "--seed", 17],
    ["train", "--model", "tree", "--split", "id", "--seed", 19],
])
def test_stale_labels_point_at_label_force(pipeline, tmp_path, capsys, command):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline, ws)
    # fewer designs than the labels name
    assert run(["sample", "--workspace", ws, "--n", 5, "--seed", 3, "--force"]) == 0
    capsys.readouterr()
    assert run([command[0], "--workspace", ws, *command[1:]]) == 1
    record = stderr_record(capsys)
    assert record["error"] == "MissingArtifact"
    assert "labels/labels.csv" in record["message"]
    assert "label --force" in record["message"]


@pytest.mark.parametrize("model", ["tree", "pointnet"])
def test_training_on_an_unlabeled_pair_fails_cleanly(pipeline, tmp_path, capsys, model):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline, ws, ignore=shutil.ignore_patterns("models", "reports"))
    fit = ["--model", model, "--split", "id", "--seed", 5, "--points", 64, "--epochs", 1]
    assert run(["train", "--workspace", ws, *fit]) == 0
    split = read_split_csv(ws / "splits" / "id.csv")
    labels = read_labels_csv(ws / "labels" / "labels.csv")
    # train, then eval, each with one pair of the partition it reads unlabeled
    for argv, part in ((["train", *fit, "--force"], split.train),
                       (["eval", "--model", model, "--split", "id"], split.test)):
        gid, q = min(part)
        write_labels_csv(ws / "labels" / "labels.csv",
                         [lab for lab in labels if (lab.geometry_id, lab.Q) != (gid, q)])
        capsys.readouterr()
        assert run([argv[0], "--workspace", ws, *argv[1:]]) == 1
        record = stderr_record(capsys)
        assert record["error"] == "MissingArtifact"
        assert f"unlabeled pair ({gid}," in record["message"]


def test_eval_without_trained_model_fails(pipeline, capsys):
    argv = ["eval", "--workspace", pipeline, "--model", "gbm", "--split",
            "id", "--partition", "test"]
    assert run(argv) == 1
    record = stderr_record(capsys)
    assert record["error"] == "MissingArtifact"
    assert "run train first" in record["message"]


def test_eval_refuses_an_existing_report_before_loading_the_model(
        pipeline, tmp_path, capsys):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline, ws)
    (ws / "models" / "id-tree.wnsm").write_bytes(b"WNSM corrupt")
    argv = ["eval", "--workspace", ws, "--model", "tree", "--split", "id",
            "--partition", "test"]
    assert run(argv) == 1
    assert stderr_record(capsys)["error"] == "ArtifactExists"
    assert run([*argv, "--force"]) == 1
    assert stderr_record(capsys)["error"] == "MalformedModel"


def test_pointnet_cli_chain(pipeline):
    train = ["train", "--workspace", pipeline, "--model", "pointnet",
             "--split", "id", "--seed", 5, "--points", 64, "--epochs", 2]
    assert run(train) == 0
    assert (pipeline / "models" / "id-pointnet.wnsm").exists()
    evaluate = ["eval", "--workspace", pipeline, "--model", "pointnet",
                "--split", "id", "--partition", "test"]
    assert run(evaluate) == 0
    row = read_rows(pipeline / "reports" / "eval-id-pointnet-test.csv")[0]
    assert row["model"] == "pointnet"
    assert float(row["mse"]) >= 0.0


def _prefix_arrays(ws, pairs, n_points):
    """Network input and targets built by hand from each cloud's first
    ``n_points`` points."""
    pairs = sorted(pairs)
    labels = {(lab.geometry_id, lab.Q): lab.c_D
              for lab in read_labels_csv(ws / "labels" / "labels.csv")}
    clouds = [read_cloud(ws / "clouds" / f"{gid}.wnpc").points[:n_points]
              for gid, _ in pairs]
    X = attach_discharge(np.stack(clouds), np.asarray([q for _, q in pairs]))
    return X, np.asarray([labels[pair] for pair in pairs])


def test_pointnet_eval_reads_the_clouds_first_points(pipeline, tmp_path):
    # the model, not eval, knows its point count, and no seed picks the points
    ws = tmp_path / "ws"
    shutil.copytree(pipeline, ws, ignore=shutil.ignore_patterns("models", "reports"))
    train = ["train", "--workspace", ws, "--model", "pointnet", "--split", "id",
             "--seed", 5, "--points", 64, "--epochs", 1]
    assert run(train) == 0
    model = load_model(ws / "models" / "id-pointnet.wnsm")
    assert model.history["points"] == 64
    evaluate = ["eval", "--workspace", ws, "--model", "pointnet", "--split", "id",
                "--partition", "test", "--force"]
    rows = []
    for seed_args in (["--seed", 5], ["--seed", 6], []):
        assert run(evaluate + seed_args) == 0
        rows.append(read_rows(ws / "reports" / "eval-id-pointnet-test.csv"))
    assert rows[0] == rows[1] == rows[2]
    X, y = _prefix_arrays(ws, read_split_csv(ws / "splits" / "id.csv").test, 64)
    assert rows[0][0]["mse"] == f"{compute_metrics(y, model.predict(X)).mse:.9g}"


def test_eval_has_no_points_option(pipeline, capsys):
    argv = ["eval", "--workspace", pipeline, "--model", "pointnet", "--split", "id",
            "--points", 64]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --points" in capsys.readouterr().err


def test_pointnet_eval_sidecar_records_the_eval_seed(pipeline, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline, ws, ignore=shutil.ignore_patterns("models", "reports"))
    train = ["train", "--workspace", ws, "--model", "pointnet", "--split", "id",
             "--seed", 5, "--points", 32, "--epochs", 1]
    assert run(train) == 0
    sidecar = ws / "reports" / "eval-id-pointnet-test.csv.meta.json"
    for seed_args, seed in ((["--seed", 9], 9), ([], None)):
        evaluate = ["eval", "--workspace", ws, "--model", "pointnet", "--split", "id",
                    "--force", *seed_args]
        assert run(evaluate) == 0
        meta = json.loads(sidecar.read_text())
        assert meta["seed"] == seed
        # the same configuration a tree model's eval records
        assert meta["config_hash"] == _config_hash({
            "split": "id", "model": "pointnet", "partition": "test",
            "paper_scale": False,
        })


def test_pointnet_without_a_point_count_asks_for_a_refit(pipeline, tmp_path, capsys):
    # a network saved before the fit recorded its point count
    ws = tmp_path / "ws"
    shutil.copytree(pipeline, ws, ignore=shutil.ignore_patterns("models", "reports"))
    train = ["train", "--workspace", ws, "--model", "pointnet", "--split", "id",
             "--seed", 5, "--points", 32, "--epochs", 1]
    assert run(train) == 0
    path = ws / "models" / "id-pointnet.wnsm"
    model = load_model(path)
    del model.history["points"]
    save_model(path, model)
    capsys.readouterr()
    evaluate = ["eval", "--workspace", ws, "--model", "pointnet", "--split", "id"]
    assert run(evaluate) == 1
    record = stderr_record(capsys)
    assert record["error"] == "MalformedModel"
    assert record["command"] == "eval"
    assert "train --force" in record["message"]
    assert not (ws / "reports" / "eval-id-pointnet-test.csv").exists()


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


def test_bench_with_too_few_designs_fails_before_writing(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert run(["bench", "--workspace", ws, "--n", 5, "--seed", 1]) == 1
    record = stderr_record(capsys)
    assert record["error"] == "TooFewGeometries"
    assert record["command"] == "bench"
    # no params/ or labels/ artifact, so a rerun needs no --force
    assert not [p for p in ws.rglob("*") if p.is_file()]


def test_bench_network_wanting_more_points_than_the_clouds_fails_before_writing(
        tmp_path, capsys):
    ws = tmp_path / "ws"
    argv = ["bench", "--workspace", ws, "--n", 10, "--seed", 3, "--model", "pointnet",
            "--points", 64, "--cloud-points", 32]
    assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "MissingArtifact"
    assert record["command"] == "bench"
    assert "--points 64" in record["message"]
    assert "--cloud-points 32" in record["message"]
    # no stage ran, and not even the workspace was made
    assert not ws.exists()


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

    def counting_fit(model_name, args, ws, manifest, split, seed, *clouds):
        fitted.append(split.name)
        return fit(model_name, args, ws, manifest, split, seed, *clouds)

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


def test_bench_holds_one_model_at_a_time(tmp_path, monkeypatch):
    bench_models = cli._bench_models
    models = []

    def tracking_models(*args):
        for model in bench_models(*args):
            # the model bench was handed before this one is already freed
            assert all(ref() is None for ref in models)
            models.append(weakref.ref(model))
            yield model
            del model

    monkeypatch.setattr(cli, "_bench_models", tracking_models)
    argv = ["bench", "--workspace", tmp_path, "--n", 40, "--seed", 3,
            "--model", "tree", "--model", "gbm", "--trees", 5]
    assert run(argv) == 0
    assert len(models) == 24


def test_bench_split_files_match_the_split_command(tmp_path):
    bench, chain = tmp_path / "bench", tmp_path / "chain"
    assert run(["bench", "--workspace", bench, "--n", 40, "--seed", 3,
                "--model", "tree"]) == 0
    for sub in ("params", "labels"):
        shutil.copytree(bench / sub, chain / sub)
    policies = ["id", *(f"ood-geom:{b}" for b in OOD_GEOM_BINS),
                *(f"ood-head:{b}" for b in OOD_HEAD_BINS),
                *(f"fraction:{f}" for f in DATA_FRACTIONS)]
    for policy in policies:
        assert run(["split", "--workspace", chain, "--policy", policy, "--seed", 3]) == 0
    written = {p.name: p.read_bytes() for p in (bench / "splits").glob("*.csv")}
    assert len(written) == 13
    assert written == {p.name: p.read_bytes() for p in (chain / "splits").glob("*.csv")}

    # bench scores each fit as train and eval on its split file would
    rows = {r["split"]: r for r in read_rows(bench / "reports" / "bench.csv")}
    for name in ("id", "ood-head-q_ge170", "id-f40"):
        assert run(["train", "--workspace", bench, "--model", "tree", "--split", name,
                    "--seed", 3]) == 0
        assert run(["eval", "--workspace", bench, "--model", "tree", "--split", name]) == 0
        eval_row = read_rows(bench / "reports" / f"eval-{name}-tree-test.csv")[0]
        for column in _REPORT_COLUMNS:
            assert eval_row[column] == rows[name][column], (name, column)


def test_bench_gbm_rows_match_train_and_eval(tmp_path):
    # boosting fits its splits in one lockstep group; each row still scores
    # the model train fits on that split's file.  Groups of at most 7,168
    # rows cut these splits into [id, alpha_le2], [alpha_3_5, alpha_ge6],
    # [the ood-head splits, id-f10] and [id-f20 .. id-f80]; one split of
    # each is checked
    ws = tmp_path / "ws"
    assert run(["bench", "--workspace", ws, "--n", 200, "--seed", 3, "--model", "gbm",
                "--trees", 20]) == 0
    rows = {r["split"]: r for r in read_rows(ws / "reports" / "bench.csv")}
    for name in ("ood-geom-alpha_le2", "ood-geom-alpha_3_5", "ood-head-q_ge170", "id-f10",
                 "id-f40"):
        assert run(["train", "--workspace", ws, "--model", "gbm", "--split", name,
                    "--trees", 20, "--seed", 3]) == 0
        assert run(["eval", "--workspace", ws, "--model", "gbm", "--split", name]) == 0
        eval_row = read_rows(ws / "reports" / f"eval-{name}-gbm-test.csv")[0]
        for column in _REPORT_COLUMNS:
            assert eval_row[column] == rows[name][column], (name, column)


def test_bench_boosts_its_distinct_gbm_fits_in_one_group(tmp_path, monkeypatch):
    # at n=200 the 12 distinct fits (id-f100 reuses id's) hold 23,123 to
    # 23,142 rows, inside the default lockstep budget
    groups = _boost_groups(monkeypatch)
    ws = tmp_path / "ws"
    assert run(["bench", "--workspace", ws, "--n", 200, "--seed", 11, "--model", "gbm",
                "--trees", 2]) == 0
    rows = read_rows(ws / "reports" / "bench.csv")
    n_train = [int(r["n_train"]) for r in rows if r["split"] != "id-f100"]
    assert groups == [n_train]
    assert len(n_train) == 12 and sum(n_train) <= trees._BOOST_ROWS


def test_bench_pointnet_runs_with_an_empty_validation_partition(tmp_path):
    # at this seed two ood-geom splits hold no validation pairs; their fits
    # fall back to validating on the training set
    ws = tmp_path / "ws"
    argv = ["bench", "--workspace", ws, "--n", N_DESIGNS, "--seed", MASTER_SEED,
            "--model", "pointnet", "--cloud-points", 300, "--points", 64,
            "--epochs", 1]
    assert run(argv) == 0
    rows = read_rows(ws / "reports" / "bench.csv")
    assert len(rows) == 13
    assert {r["model"] for r in rows} == {"pointnet"}
    assert not read_split_csv(ws / "splits" / "ood-geom-alpha_le2.csv").val


def test_bench_reads_each_cloud_prefix_once(tmp_path, monkeypatch):
    # every network fit and eval of bench shares one copy of the clouds
    reads = []

    def counting(path, geometry_id="", n_points=None):
        reads.append((geometry_id, n_points))
        return read_cloud(path, geometry_id, n_points)

    monkeypatch.setattr(cli, "read_cloud", counting)
    argv = ["bench", "--workspace", tmp_path / "ws", "--n", N_DESIGNS, "--seed", 5,
            "--model", "pointnet", "--cloud-points", 200, "--points", 32,
            "--epochs", 1]
    assert run(argv) == 0
    assert len(reads) == N_DESIGNS
    assert len({gid for gid, _ in reads}) == N_DESIGNS
    assert {n for _, n in reads} == {32}


def test_bench_stages_match_the_standalone_commands(tmp_path):
    bench, chain = tmp_path / "bench", tmp_path / "chain"
    seed, sigma = 5, "0.005"
    argv = ["bench", "--workspace", bench, "--n", N_DESIGNS, "--seed", seed,
            "--sigma", sigma, "--model", "pointnet", "--cloud-points", 200,
            "--points", 32, "--epochs", 1]
    assert run(argv) == 0
    for argv in (
        ["sample", "--n", N_DESIGNS, "--seed", seed],
        ["label", "--sigma", sigma, "--seed", seed],
        ["mesh"],
        ["cloud", "--n", 200, "--seed", seed],
    ):
        assert run([argv[0], "--workspace", chain, *argv[1:]]) == 0
    for sub in ("params", "labels", "meshes", "clouds"):
        got = _tree_bytes(bench / sub)
        assert got, sub
        assert got == _tree_bytes(chain / sub), sub


def test_bench_pointnet_id_row_matches_train_and_eval(tmp_path):
    # bench scores each fit as a plain eval of the trained model would
    ws, seed = tmp_path / "ws", 5
    net = ["--points", 32, "--epochs", 1]
    argv = ["bench", "--workspace", ws, "--n", N_DESIGNS, "--seed", seed,
            "--model", "pointnet", "--cloud-points", 200, *net]
    assert run(argv) == 0
    assert run(["train", "--workspace", ws, "--model", "pointnet", "--split", "id",
                "--seed", seed, *net]) == 0
    assert run(["eval", "--workspace", ws, "--model", "pointnet", "--split", "id"]) == 0
    id_row = next(r for r in read_rows(ws / "reports" / "bench.csv") if r["split"] == "id")
    eval_row = read_rows(ws / "reports" / "eval-id-pointnet-test.csv")[0]
    for column in ("n_train", "n_eval", "mse", "r2", "mae", "max_ae"):
        assert eval_row[column] == id_row[column], column


def _bench_config_hash(ws, *extra):
    argv = ["bench", "--workspace", ws, "--n", 40, "--seed", 3, "--model", "tree"]
    assert run([*argv, *extra]) == 0
    meta = json.loads((ws / "reports" / "bench.csv.meta.json").read_text())
    return meta["config_hash"]


@pytest.fixture(scope="module")
def bench_default_hash(tmp_path_factory):
    return _bench_config_hash(tmp_path_factory.mktemp("bench-default"))


@pytest.mark.parametrize("option", [
    ["--points", 64], ["--epochs", 7], ["--cloud-points", 500],
    ["--x-segments", 4], ["--space", "screening"], ["--step-mm", "T_s=10"],
    ["--lo-mm", "T_s=20"], ["--hi-mm", "T_s=30"],
])
def test_bench_config_hash_covers_every_option(tmp_path, bench_default_hash, option):
    assert _bench_config_hash(tmp_path, *option) != bench_default_hash


def test_bench_config_hash_ignores_jobs(tmp_path, bench_default_hash):
    assert _bench_config_hash(tmp_path, "--jobs", 2) == bench_default_hash


def test_bench_fits_a_model_named_twice_once(tmp_path, bench_default_hash):
    # the sidecar records the model list without the repeat
    assert _bench_config_hash(tmp_path, "--model", "tree") == bench_default_hash
    rows = read_rows(tmp_path / "reports" / "bench.csv")
    assert len(rows) == 13
    assert len({r["split"] for r in rows}) == 13
    assert {r["model"] for r in rows} == {"tree"}


def test_bench_rejects_external_oracles(tmp_path, capsys):
    # bench always labels with the synthetic oracle and has no --oracle
    argv = ["bench", "--workspace", tmp_path, "--n", 40, "--seed", 3,
            "--oracle", "csv=whatever.csv"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --oracle" in capsys.readouterr().err


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


def test_labels_that_are_not_utf8_fail_with_one_error_record(tmp_path, capsys):
    ws = tmp_path / "ws"
    steps = [
        ["sample", "--workspace", ws, "--n", N_DESIGNS, "--seed", MASTER_SEED],
        ["label", "--workspace", ws, "--sigma", "0.0", "--seed", 13],
    ]
    for argv in steps:
        assert run(argv) == 0
    labels = ws / "labels" / "labels.csv"
    labels.write_bytes(labels.read_bytes() + b"\xff\n")
    capsys.readouterr()
    assert run(["split", "--workspace", ws, "--policy", "id", "--seed", 17]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "ParseError"
    assert record["command"] == "split"
    assert "labels.csv: not UTF-8 text" in record["message"]


def test_truncated_manifest_fails_with_a_parse_error(tmp_path, capsys):
    ws = tmp_path / "ws"
    steps = [
        ["sample", "--workspace", ws, "--n", N_DESIGNS, "--seed", MASTER_SEED],
        ["label", "--workspace", ws, "--sigma", "0.0", "--seed", 13],
    ]
    for argv in steps:
        assert run(argv) == 0
    manifest = ws / "params" / MANIFEST_NAME
    manifest.write_bytes(manifest.read_bytes()[:-40])
    capsys.readouterr()
    split = ["split", "--workspace", ws, "--policy", "id", "--seed", 17]
    assert run(split) == 1
    record = stderr_record(capsys)
    assert record["error"] == "ParseError"
    assert record["command"] == "split"
    last_line = len(manifest.read_text().splitlines())
    assert f"{MANIFEST_NAME} line {last_line}:" in record["message"]
