"""Point-cloud sampling, normalization and persistence tests."""

import struct

import numpy as np
import pytest
from scipy import stats

from pkwbench.errors import DegenerateExtent, EmptyMesh, MalformedCloud
from pkwbench.geometry import PkwFixed, PkwSample, derive, feasible_bounds, validate
from pkwbench.mesh import TriangleMesh, build_regions, solid_mesh
from pkwbench.errors import DegenerateRegion
from pkwbench.pointcloud import (
    FRAME_UNIT,
    FRAME_WORLD,
    PointCloud,
    denormalize,
    normalize_unit_cube,
    read_cloud,
    sample_surface,
    subsample,
    triangle_areas,
    write_cloud,
)

FIXED = PkwFixed()


def _single_triangle():
    v = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    t = np.array([[0, 1, 2]], dtype=np.int64)
    return TriangleMesh(vertices=v, triangles=t)


def _weir_meshes(seed, count):
    bounds = feasible_bounds(FIXED)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        cand = PkwSample(**{k: rng.uniform(*bounds[k]) for k in bounds})
        if not validate(FIXED, cand).feasible:
            continue
        d = derive(FIXED, cand)
        try:
            build_regions(d, FIXED)
        except DegenerateRegion:
            continue
        out.append(solid_mesh(d, FIXED, x_segments=1))
    return out


def test_sample_single_triangle_on_plane():
    mesh = _single_triangle()
    cloud, idx = sample_surface(mesh, 500, seed=0, return_indices=True)
    assert np.all(idx == 0)
    a, b, c = mesh.vertices
    normal = np.cross(b - a, c - a)
    normal /= np.linalg.norm(normal)
    dist = np.abs((cloud.points - a) @ normal)
    assert dist.max() <= 1e-12
    assert cloud.frame == FRAME_WORLD
    assert cloud.seed == 0


def test_sample_area_proportions_two_triangles():
    # areas 1 and 3: the second triangle is 3 m wide instead of 1
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
        [5.0, 0.0, 0.0], [8.0, 0.0, 0.0], [5.0, 2.0, 0.0],
    ])
    t = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int64)
    mesh = TriangleMesh(vertices=v, triangles=t)
    np.testing.assert_allclose(triangle_areas(mesh), [1.0, 3.0])
    n = 40_000
    _, idx = sample_surface(mesh, n, seed=11, return_indices=True)
    count0 = int(np.sum(idx == 0))
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert abs(count0 - 10_000) <= 3 * sigma


def test_sample_determinism():
    mesh = _weir_meshes(seed=1, count=1)[0]
    a = sample_surface(mesh, 2000, seed=5)
    b = sample_surface(mesh, 2000, seed=5)
    c = sample_surface(mesh, 2000, seed=6)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_sample_points_lie_on_generating_triangles():
    mesh = _weir_meshes(seed=2, count=1)[0]
    cloud, idx = sample_surface(mesh, 5000, seed=3, return_indices=True)
    a = mesh.vertices[mesh.triangles[idx, 0]]
    b = mesh.vertices[mesh.triangles[idx, 1]]
    c = mesh.vertices[mesh.triangles[idx, 2]]
    normals = np.cross(b - a, c - a)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    dist = np.abs(np.einsum("ij,ij->i", cloud.points - a, normals))
    assert dist.max() < 1e-9


def test_sample_chi_square_against_areas():
    for mesh in _weir_meshes(seed=42, count=10):
        n = 100_000
        _, idx = sample_surface(mesh, n, seed=7, return_indices=True)
        counts = np.bincount(idx, minlength=mesh.n_triangles).astype(float)
        areas = triangle_areas(mesh)
        expected = n * areas / areas.sum()
        # pool triangles until every bin expects at least five hits
        order = np.argsort(expected)
        bins_obs, bins_exp = [], []
        acc_o = acc_e = 0.0
        for k in order:
            acc_o += counts[k]
            acc_e += expected[k]
            if acc_e >= 5.0:
                bins_obs.append(acc_o)
                bins_exp.append(acc_e)
                acc_o = acc_e = 0.0
        bins_obs[-1] += acc_o
        bins_exp[-1] += acc_e
        stat, p = stats.chisquare(bins_obs, f_exp=bins_exp)
        assert p > 1e-4


def test_sample_rejects_empty_mesh():
    empty = TriangleMesh(vertices=np.zeros((0, 3)),
                         triangles=np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(EmptyMesh):
        sample_surface(empty, 10, seed=0)
    with pytest.raises(ValueError):
        sample_surface(_single_triangle(), 0, seed=0)


def _box_cloud(ex, ey, ez, n=400, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3)) * np.array([ex, ey, ez])
    # pin the corners so the extents are exact
    pts[0] = (0.0, 0.0, 0.0)
    pts[1] = (ex, ey, ez)
    return PointCloud(points=pts, frame=FRAME_WORLD, scale=1.0,
                      offset=np.zeros(3))


def test_normalize_box_extents():
    cloud = normalize_unit_cube(_box_cloud(2.0, 1.0, 0.5))
    assert cloud.frame == FRAME_UNIT
    assert cloud.scale == 2.0
    np.testing.assert_allclose(cloud.offset, 0.0, atol=1e-12)
    extents = cloud.points.max(axis=0) - cloud.points.min(axis=0)
    np.testing.assert_allclose(extents, [1.0, 0.5, 0.25], atol=1e-12)
    assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0


def test_normalize_identity_case():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25], [0.5, 0.2, 0.1]])
    cloud = PointCloud(points=pts, frame=FRAME_WORLD, scale=1.0,
                       offset=np.zeros(3))
    norm = normalize_unit_cube(cloud)
    assert norm.scale == 1.0
    np.testing.assert_array_equal(norm.offset, np.zeros(3))
    np.testing.assert_array_equal(norm.points, pts)


def test_normalize_round_trip_and_ratios():
    cloud = _box_cloud(0.9, 0.33, 0.4, n=300, seed=8)
    norm = normalize_unit_cube(cloud)
    back = denormalize(norm)
    assert back.frame == FRAME_WORLD
    np.testing.assert_allclose(back.points, cloud.points, atol=1e-12)

    take = cloud.points[:40]
    ref = np.linalg.norm(take[:, None] - take[None, :], axis=-1)
    now = np.linalg.norm(norm.points[:40][:, None] - norm.points[:40][None, :], axis=-1)
    mask = ref > 0
    ratios = now[mask] / ref[mask]
    assert np.ptp(ratios) / ratios.mean() < 1e-12


def test_normalize_guards():
    flat = PointCloud(points=np.zeros((5, 3)), frame=FRAME_WORLD, scale=1.0,
                      offset=np.zeros(3))
    with pytest.raises(DegenerateExtent):
        normalize_unit_cube(flat)
    unit = normalize_unit_cube(_box_cloud(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        normalize_unit_cube(unit)
    with pytest.raises(ValueError):
        denormalize(_box_cloud(1.0, 1.0, 1.0))


def test_unit_cube_invariant_enforced():
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[0.0, 0.0, 1.5]]), frame=FRAME_UNIT,
                   scale=1.0, offset=np.zeros(3))


def test_subsample():
    cloud = _box_cloud(1.0, 1.0, 1.0, n=1000, seed=3)
    small = subsample(cloud, 50, seed=9)
    again = subsample(cloud, 50, seed=9)
    assert np.array_equal(small.points, again.points)
    assert small.n_points == 50
    pool = {tuple(p) for p in cloud.points}
    rows = [tuple(p) for p in small.points]
    assert len(set(rows)) == 50
    assert all(r in pool for r in rows)
    with pytest.raises(ValueError):
        subsample(cloud, 1001, seed=0)


def test_binary_round_trip(tmp_path):
    cloud = _box_cloud(0.7, 0.5, 0.2, n=1000, seed=12)
    path = tmp_path / "c.wnpc"
    write_cloud(path, cloud)
    back = read_cloud(path, geometry_id="g7")
    assert back.frame == cloud.frame
    assert back.scale == cloud.scale
    assert back.source_geometry_id == "g7"
    ulp = np.spacing(np.float32(1.0))
    assert np.abs(back.points - cloud.points).max() <= ulp
    assert path.stat().st_size == 47 + 12 * 1000


def test_binary_empty_cloud(tmp_path):
    cloud = PointCloud(points=np.zeros((0, 3)), frame=FRAME_UNIT, scale=2.0,
                       offset=np.array([0.1, 0.2, 0.3]))
    path = tmp_path / "empty.wnpc"
    write_cloud(path, cloud)
    back = read_cloud(path)
    assert back.n_points == 0
    assert back.frame == FRAME_UNIT
    assert back.scale == 2.0
    np.testing.assert_allclose(back.offset, [0.1, 0.2, 0.3])


def test_prefix_read_is_the_first_rows_of_a_full_read(tmp_path):
    cloud = _box_cloud(0.7, 0.5, 0.2, n=1000, seed=13)
    path = tmp_path / "c.wnpc"
    write_cloud(path, cloud)
    full = read_cloud(path, geometry_id="g3")
    for n in (1, 7, 999, 1000):
        prefix = read_cloud(path, geometry_id="g3", n_points=n)
        assert prefix.points.tobytes() == full.points[:n].tobytes()
        assert prefix.frame == full.frame and prefix.scale == full.scale
        assert np.array_equal(prefix.offset, full.offset)
        assert prefix.source_geometry_id == "g3"
    # a cloud with fewer points than asked for is read whole
    assert read_cloud(path, n_points=5000).points.tobytes() == full.points.tobytes()


def test_prefix_read_of_a_file_cut_past_the_prefix_raises(tmp_path):
    cloud = _box_cloud(1.0, 1.0, 1.0, n=100, seed=14)
    path = tmp_path / "c.wnpc"
    write_cloud(path, cloud)
    blob = path.read_bytes()
    cut = tmp_path / "cut.wnpc"
    for size in (len(blob) - 1, len(blob) - 12 * 50, 47 + 12 * 10):
        cut.write_bytes(blob[:size])
        with pytest.raises(MalformedCloud, match="100 points need"):
            read_cloud(cut, n_points=10)
    cut.write_bytes(blob + b"\0" * 12)
    with pytest.raises(MalformedCloud):
        read_cloud(cut, n_points=10)


def test_binary_rejects_garbage(tmp_path):
    cloud = _box_cloud(1.0, 1.0, 1.0, n=10)
    path = tmp_path / "c.wnpc"
    write_cloud(path, cloud)
    blob = path.read_bytes()

    (tmp_path / "trunc.wnpc").write_bytes(blob[:-5])
    with pytest.raises(MalformedCloud):
        read_cloud(tmp_path / "trunc.wnpc")

    (tmp_path / "tiny.wnpc").write_bytes(blob[:20])
    with pytest.raises(MalformedCloud):
        read_cloud(tmp_path / "tiny.wnpc")

    bad = bytearray(blob)
    bad[:4] = b"XXXX"
    (tmp_path / "magic.wnpc").write_bytes(bytes(bad))
    with pytest.raises(MalformedCloud):
        read_cloud(tmp_path / "magic.wnpc")

    bad = bytearray(blob)
    bad[6:14] = struct.pack("<Q", 99)
    (tmp_path / "count.wnpc").write_bytes(bytes(bad))
    with pytest.raises(MalformedCloud):
        read_cloud(tmp_path / "count.wnpc")
