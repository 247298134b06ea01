"""Binary STL writer/reader checks."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkwbench.cli import _cloud_job
from pkwbench.errors import EmptyMesh, MalformedStl
from pkwbench.geometry import PkwFixed, PkwSample, derive
from pkwbench.mesh import TriangleMesh, _weld, solid_mesh, validate_mesh
from pkwbench.pointcloud import normalize_unit_cube, sample_surface
from pkwbench.sampling import generate_batch, paper_default_space
from pkwbench.stlio import _RECORD, read_stl, write_stl


def _tetrahedron():
    v = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    t = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]], dtype=np.int64)
    return TriangleMesh(vertices=v, triangles=t)


def _read_welded(path):
    """The read corners welded by exact float equality with the mesher's
    ``_weld``: vertices in sorted order, 0.0 and -0.0 one vertex."""
    raw = read_stl(path)
    first, group = _weld(raw.vertices)
    return TriangleMesh(vertices=raw.vertices[first], triangles=group[raw.triangles])


def test_file_layout(tmp_path):
    path = tmp_path / "tet.stl"
    write_stl(path, _tetrahedron(), "tet-0001")
    blob = path.read_bytes()
    # 80-byte header, uint32 count, then 50 bytes per facet
    assert len(blob) == 84 + 4 * 50
    assert struct.unpack("<I", blob[80:84])[0] == 4
    assert blob[:80].startswith(b"pkwbench-solid tet-0001")
    assert blob[79:80] == b"\x00"


def test_roundtrip_tetrahedron(tmp_path):
    path = tmp_path / "tet.stl"
    mesh = _tetrahedron()
    write_stl(path, mesh, "tet")
    back = _read_welded(path)
    assert back.n_triangles == 4
    rep = validate_mesh(back)
    assert rep.watertight
    assert rep.signed_volume == pytest.approx(8.0 / 3.0, rel=1e-6)


def test_roundtrip_weir_mesh(tmp_path):
    fixed = PkwFixed()
    sample = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)
    mesh = solid_mesh(derive(fixed, sample), fixed, x_segments=2)
    path = tmp_path / "weir.stl"
    write_stl(path, mesh, "g000042")
    back = _read_welded(path)
    assert back.n_triangles == mesh.n_triangles
    rep = validate_mesh(back)
    assert rep.watertight
    # float32 quantization moves the volume, but only at single precision
    v = validate_mesh(mesh).signed_volume
    assert abs(rep.signed_volume - v) / v < 1e-6


def test_write_rejects_empty_mesh(tmp_path):
    empty = TriangleMesh(
        vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(EmptyMesh):
        write_stl(tmp_path / "e.stl", empty, "e")
    assert not (tmp_path / "e.stl").exists()


def test_read_rejects_truncated_file(tmp_path):
    path = tmp_path / "tet.stl"
    write_stl(path, _tetrahedron(), "tet")
    blob = path.read_bytes()
    (tmp_path / "cut.stl").write_bytes(blob[:-10])
    with pytest.raises(MalformedStl):
        read_stl(tmp_path / "cut.stl")
    (tmp_path / "tiny.stl").write_bytes(blob[:60])
    with pytest.raises(MalformedStl):
        read_stl(tmp_path / "tiny.stl")


def test_read_rejects_count_mismatch(tmp_path):
    path = tmp_path / "tet.stl"
    write_stl(path, _tetrahedron(), "tet")
    blob = bytearray(path.read_bytes())
    blob[80:84] = struct.pack("<I", 10)
    (tmp_path / "bad.stl").write_bytes(bytes(blob))
    with pytest.raises(MalformedStl):
        read_stl(tmp_path / "bad.stl")


def test_read_rejects_zero_facets(tmp_path):
    path = tmp_path / "none.stl"
    path.write_bytes(b"\x00" * 80 + struct.pack("<I", 0))
    with pytest.raises(EmptyMesh):
        read_stl(path)


# the sort-based weld of read corners against a row-wise np.unique weld


def reference_weld(path):
    """Row-wise ``np.unique`` on the corners."""
    raw = path.read_bytes()
    (count,) = struct.unpack_from("<I", raw, 80)
    records = np.frombuffer(raw, dtype=_RECORD, count=count, offset=84)
    corners = np.stack([records["v0"], records["v1"], records["v2"]], axis=1)
    flat = corners.reshape(-1, 3)
    unique, inverse = np.unique(flat, axis=0, return_inverse=True)
    return unique.astype(np.float64), inverse.reshape(-1, 3).astype(np.int64)


def _write_corners(path, corners):
    """Binary STL with exactly these float32 corners, shape (m, 3, 3)."""
    records = np.zeros(len(corners), dtype=_RECORD)
    records["v0"], records["v1"], records["v2"] = corners[:, 0], corners[:, 1], corners[:, 2]
    path.write_bytes(b"\0" * 80 + struct.pack("<I", len(corners)) + records.tobytes())


def _assert_same_weld(path):
    mesh = _read_welded(path)
    ref_vertices, ref_triangles = reference_weld(path)
    assert mesh.vertices.dtype == np.float64 and mesh.triangles.dtype == np.int64
    # == on purpose: the reference's unstable sort keeps either sign of a
    # welded +-0.0, so only the values, not the sign bits, must agree
    assert mesh.vertices.shape == ref_vertices.shape
    assert np.all(mesh.vertices == ref_vertices)
    assert np.array_equal(mesh.triangles, ref_triangles)


_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(width=32, allow_nan=False),
)


@st.composite
def _corner_sets(draw):
    """Triangles over a small pool of points, so corners repeat, triangles
    share corners and edges, and some triangles repeat a corner."""
    pool = draw(st.lists(st.tuples(_coordinates, _coordinates, _coordinates),
                         min_size=1, max_size=10))
    index = st.integers(0, len(pool) - 1)
    triangles = draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=30))
    return np.asarray(pool, dtype=np.float32)[np.asarray(triangles)]


@settings(max_examples=300, deadline=None)
@given(_corner_sets())
def test_weld_matches_row_unique(tmp_path_factory, corners):
    path = tmp_path_factory.mktemp("weld") / "drawn.stl"
    _write_corners(path, corners)
    _assert_same_weld(path)


def test_weld_joins_signed_zeros(tmp_path):
    corners = np.array([[[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [0.0, -0.0, 2.0]]],
                       dtype=np.float32)
    _write_corners(tmp_path / "zeros.stl", corners)
    mesh = _read_welded(tmp_path / "zeros.stl")
    assert mesh.n_vertices == 2
    assert mesh.triangles.tolist() == [[1, 1, 0]]


def test_weld_matches_row_unique_on_a_weir(tmp_path):
    fixed = PkwFixed()
    sample = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)
    write_stl(tmp_path / "weir.stl", solid_mesh(derive(fixed, sample), fixed), "weir")
    _assert_same_weld(tmp_path / "weir.stl")


# clouds from raw corners against clouds from the welded mesh


def test_read_keeps_corners_in_file_order(tmp_path):
    path = tmp_path / "tet.stl"
    mesh = _tetrahedron()
    write_stl(path, mesh, "tet")
    raw = read_stl(path)
    assert raw.vertices.dtype == np.float64 and raw.triangles.dtype == np.int64
    assert raw.triangles.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    want = mesh.vertices[mesh.triangles].astype(np.float32).reshape(-1, 3)
    assert raw.vertices.tobytes() == want.astype(np.float64).tobytes()


def test_cloud_job_samples_the_welded_meshs_cloud(tmp_path):
    space = paper_default_space()
    for k, design in enumerate(generate_batch(space, 4, seed=5).samples):
        path = tmp_path / f"g{k}.stl"
        write_stl(path, solid_mesh(derive(space.fixed, design), space.fixed), f"g{k}")
        # the weld joins 0.0 and -0.0, so the two meshes could differ in
        # the sign of a zero coordinate; the mesher writes no -0.0
        corners = read_stl(path).vertices
        assert not np.any(np.signbit(corners) & (corners == 0.0))
        welded = _read_welded(path)
        for seed in (0, 1, 2**31 + 7):
            cloud = _cloud_job(f"g{k}", path, 2000, seed)
            want = normalize_unit_cube(
                sample_surface(welded, 2000, seed=seed, geometry_id=f"g{k}")
            )
            assert cloud.points.tobytes() == want.points.tobytes()
            assert cloud.offset.tobytes() == want.offset.tobytes()
            assert cloud.scale == want.scale
