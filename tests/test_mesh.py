"""Solid model and tessellation checks.

The Monte Carlo containment oracle below is written straight from the raw
design parameters and shares no code with the region builder, so volume
agreement really does cross-check two independent descriptions of the solid.
"""

import math

import numpy as np
import pytest

from pkwbench.errors import DegenerateRegion, EmptyMesh
from pkwbench.geometry import PkwFixed, PkwSample, derive, validate, feasible_bounds
from pkwbench.mesh import (
    REGION_KINDS,
    MeshReport,
    TriangleMesh,
    _problem_edges,
    analytic_volume,
    build_regions,
    crest_trace_length,
    mesh_volume,
    solid_mesh,
    tessellate,
    validate_mesh,
)

FIXED = PkwFixed()
HAND = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.20, W_i_d=0.14)
RECT = PkwSample(B_b=0.40, R_B_i=0.5, T_s=0.02, W_i_u=0.17, W_i_d=0.17)

# Hand integration of the region stack, piece by piece on paper.
RECT_VOLUME = 0.08898030769230769
# Simpson integration oracle for the trapezoidal hand design, frozen.
HAND_VOLUME = 0.08843298757376226


def point_in_solid(fixed, sample, pts):
    """Containment test from raw parameters only (no region machinery)."""
    d = derive(fixed, sample)
    P, W_u, B, T_s = fixed.P, fixed.W_u, d.B, sample.T_s
    tan_a = math.tan(d.alpha)
    span = B - T_s
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    t = np.mod(y, W_u)
    s = np.minimum(t, W_u - t)            # distance from unit boundary
    dc = np.abs(t - 0.5 * W_u)            # distance from unit centerline
    h_i = 0.5 * sample.W_i_u - x * tan_a
    h_o = 0.5 * d.W_o_u + (x - T_s) * tan_a
    ri = np.clip(P * x / span, 0.0, P)
    ro = np.clip(P * (B - x) / span, 0.0, P)
    under_i = np.clip(P * x / span - T_s, 0.0, P - T_s)
    under_o = np.clip(P * (B - x) / span - T_s, 0.0, P - T_s)
    wall_lo = np.where(x < d.B_o, under_o, np.where(x > B - d.B_i, under_i, 0.0))
    inlet_lo = np.where(x > B - d.B_i, under_i, 0.0)
    outlet_lo = np.where(x < d.B_o, under_o, 0.0)

    in_inlet = dc < h_i
    in_outlet = ~in_inlet & (s < h_o)
    inside = np.empty(len(pts), dtype=bool)
    m = in_inlet & (x < B - T_s)
    inside[m] = (z[m] >= inlet_lo[m]) & (z[m] <= ri[m])
    m = in_inlet & (x >= B - T_s)
    inside[m] = (z[m] >= wall_lo[m]) & (z[m] <= P)
    m = in_outlet & (x > T_s)
    inside[m] = (z[m] >= outlet_lo[m]) & (z[m] <= ro[m])
    m = in_outlet & (x <= T_s)
    inside[m] = (z[m] >= wall_lo[m]) & (z[m] <= P)
    m = ~in_inlet & ~in_outlet
    inside[m] = (z[m] >= wall_lo[m]) & (z[m] <= P)
    return inside


def sample_feasible(rng, n):
    bounds = feasible_bounds(FIXED)
    out = []
    while len(out) < n:
        cand = PkwSample(
            B_b=rng.uniform(*bounds["B_b"]),
            R_B_i=rng.uniform(*bounds["R_B_i"]),
            T_s=rng.uniform(*bounds["T_s"]),
            W_i_u=rng.uniform(*bounds["W_i_u"]),
            W_i_d=rng.uniform(*bounds["W_i_d"]),
        )
        if not validate(FIXED, cand).feasible:
            continue
        try:
            build_regions(derive(FIXED, cand), FIXED)
        except DegenerateRegion:
            continue
        out.append(cand)
    return out


def test_region_decomposition_shape():
    regions = build_regions(derive(FIXED, HAND), FIXED)
    assert len(regions) == 8 * FIXED.N_u
    kinds = {r.kind for r in regions}
    assert kinds == set(REGION_KINDS)
    for r in regions:
        assert r.x1 > r.x0
        assert min(r.width(r.x0), r.width(r.x1)) > 0


def test_sidewall_band_width_is_constant():
    d = derive(FIXED, HAND)
    regions = [r for r in build_regions(d, FIXED) if r.kind == "sidewall"]
    assert len(regions) == 2 * FIXED.N_u
    for r in regions:
        for x in np.linspace(r.x0, r.x1, 13):
            assert r.width(x) == pytest.approx(d.T_s2, rel=1e-12)


def test_hand_design_mesh_against_all_oracles():
    d = derive(FIXED, HAND)
    mesh = solid_mesh(d, FIXED, x_segments=4)
    rep = validate_mesh(mesh)
    assert rep.watertight
    assert rep.n_boundary_edges == 0 and rep.n_nonmanifold_edges == 0
    assert rep.signed_volume > 0

    va = analytic_volume(d, FIXED)
    assert va == pytest.approx(HAND_VOLUME, rel=1e-12)
    assert rep.signed_volume == pytest.approx(va, rel=1e-9)

    np.testing.assert_allclose(rep.bbox_min, (0.0, 0.0, 0.0), atol=1e-12)
    np.testing.assert_allclose(rep.bbox_max, (d.B, FIXED.W, FIXED.P), atol=1e-12)

    # 1e6-point Monte Carlo containment, one-off agreement within 0.5%
    rng = np.random.default_rng(42)
    pts = rng.random((1_000_000, 3)) * np.array([d.B, FIXED.W, FIXED.P])
    mc = point_in_solid(FIXED, HAND, pts).mean() * d.B * FIXED.W * FIXED.P
    assert abs(mc - va) / va < 0.005


def test_rectangular_volume_hand_integral():
    d = derive(FIXED, RECT)
    assert analytic_volume(d, FIXED) == pytest.approx(RECT_VOLUME, rel=1e-12)
    mesh = solid_mesh(d, FIXED, x_segments=2)
    assert mesh_volume(mesh) == pytest.approx(RECT_VOLUME, rel=1e-12)


def test_refinement_invariance():
    d = derive(FIXED, RECT)
    v1 = mesh_volume(solid_mesh(d, FIXED, x_segments=1))
    v16 = mesh_volume(solid_mesh(d, FIXED, x_segments=16))
    assert v16 == pytest.approx(v1, rel=1e-12)
    d2 = derive(FIXED, HAND)
    v1 = mesh_volume(solid_mesh(d2, FIXED, x_segments=1))
    v16 = mesh_volume(solid_mesh(d2, FIXED, x_segments=16))
    assert v16 == pytest.approx(v1, rel=1e-12)


def test_crest_trace_matches_parametric_length():
    rng = np.random.default_rng(303)
    designs = [HAND, RECT] + sample_feasible(rng, 20)
    for s in designs:
        d = derive(FIXED, s)
        mesh = solid_mesh(d, FIXED, x_segments=2)
        trace = crest_trace_length(mesh)
        assert trace == pytest.approx(d.L, rel=1e-9), s


def test_random_designs_watertight_with_volume_oracle():
    rng = np.random.default_rng(2024)
    for s in sample_feasible(rng, 25):
        d = derive(FIXED, s)
        mesh = solid_mesh(d, FIXED, x_segments=2)
        rep = validate_mesh(mesh)
        assert rep.watertight, s
        va = analytic_volume(d, FIXED)
        assert rep.signed_volume == pytest.approx(va, rel=1e-9), s
        np.testing.assert_allclose(rep.bbox_max, (d.B, FIXED.W, FIXED.P), atol=1e-12)


def test_monte_carlo_oracle_on_random_designs():
    rng = np.random.default_rng(7)
    for s in sample_feasible(rng, 4):
        d = derive(FIXED, s)
        va = analytic_volume(d, FIXED)
        pts = rng.random((250_000, 3)) * np.array([d.B, FIXED.W, FIXED.P])
        mc = point_in_solid(FIXED, s, pts).mean() * d.B * FIXED.W * FIXED.P
        assert abs(mc - va) / va < 0.01, s


def test_mirror_symmetry():
    rng = np.random.default_rng(11)
    for s in sample_feasible(rng, 3):
        d = derive(FIXED, s)
        pts = rng.random((50_000, 3)) * np.array([d.B, FIXED.W, FIXED.P])
        mirrored = pts.copy()
        mirrored[:, 1] = FIXED.W - mirrored[:, 1]
        a = point_in_solid(FIXED, s, pts)
        b = point_in_solid(FIXED, s, mirrored)
        assert np.array_equal(a, b)


def test_degenerate_pinch_raises():
    # analytically feasible, but the inlet sidewalls cross in plan before
    # reaching the downstream face, so the crest band footprint vanishes
    pinch = PkwSample(B_b=0.2, R_B_i=0.75, T_s=0.0594, W_i_u=0.2, W_i_d=0.0099)
    assert validate(FIXED, pinch).feasible
    with pytest.raises(DegenerateRegion):
        build_regions(derive(FIXED, pinch), FIXED)


def _tetrahedron():
    v = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    t = np.array([
        [0, 1, 2],
        [0, 3, 1],
        [0, 2, 3],
        [1, 3, 2],
    ], dtype=np.int64)
    return TriangleMesh(vertices=v, triangles=t)


def test_validate_mesh_tetrahedron():
    mesh = _tetrahedron()
    rep = validate_mesh(mesh)
    assert rep.watertight
    # edge length 2*sqrt(2), volume a^3 / (6 sqrt 2) = 8/3
    assert rep.signed_volume == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_validate_mesh_missing_triangle():
    mesh = _tetrahedron()
    broken = TriangleMesh(vertices=mesh.vertices, triangles=mesh.triangles[:3])
    rep = validate_mesh(broken)
    assert not rep.watertight
    assert rep.n_boundary_edges == 3


def test_validate_mesh_flipped_triangle():
    mesh = _tetrahedron()
    tris = mesh.triangles.copy()
    tris[3] = tris[3][::-1]
    rep = validate_mesh(TriangleMesh(vertices=mesh.vertices, triangles=tris))
    assert not rep.watertight
    assert rep.n_nonmanifold_edges > 0


def test_tessellate_rejects_bad_segment_count():
    regions = build_regions(derive(FIXED, HAND), FIXED)
    with pytest.raises(ValueError):
        tessellate(regions, x_segments=0)


def test_crest_trace_needs_a_mesh():
    with pytest.raises(EmptyMesh):
        crest_trace_length(TriangleMesh(
            vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=np.int64)))


def _axis0_report(mesh):
    """validate_mesh as it counted edges before: row-wise unique on pairs."""
    t = mesh.triangles
    directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    undirected = np.sort(directed, axis=1)
    _, counts = np.unique(undirected, axis=0, return_counts=True)
    _, dir_counts = np.unique(directed, axis=0, return_counts=True)
    n_boundary = int(np.sum(counts == 1))
    n_nonmanifold = int(np.sum(counts > 2)) + int(np.sum(dir_counts > 1))
    v = mesh.vertices
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    return MeshReport(
        watertight=(n_boundary == 0 and n_nonmanifold == 0),
        n_boundary_edges=n_boundary,
        n_nonmanifold_edges=n_nonmanifold,
        signed_volume=float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0),
        bbox_min=tuple(v.min(axis=0)),
        bbox_max=tuple(v.max(axis=0)),
    ), directed, undirected


def _axis0_problem_edges(directed, undirected, limit=32):
    und_keys, counts = np.unique(undirected, axis=0, return_counts=True)
    dir_keys, dir_counts = np.unique(directed, axis=0, return_counts=True)
    out = [tuple(e) for e in und_keys[counts != 2][:limit]]
    out += [tuple(e) for e in dir_keys[dir_counts > 1][: max(0, limit - len(out))]]
    return out


@pytest.mark.parametrize("defect", ["none", "dropped", "flipped", "duplicated"])
def test_edge_keys_count_as_row_wise_unique(defect):
    mesh = solid_mesh(derive(FIXED, HAND), FIXED)
    tris = mesh.triangles.copy()
    if defect == "dropped":
        tris = np.delete(tris, 17, axis=0)
    elif defect == "flipped":
        tris[17] = tris[17][::-1]
    elif defect == "duplicated":
        tris = np.concatenate([tris, tris[17:18]])
    mesh = TriangleMesh(vertices=mesh.vertices, triangles=tris)
    want, directed, undirected = _axis0_report(mesh)
    assert validate_mesh(mesh) == want
    assert want.watertight == (defect == "none")
    assert _problem_edges(mesh) == _axis0_problem_edges(directed, undirected)
