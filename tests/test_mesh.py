"""Solid model and tessellation checks.

The Monte Carlo containment oracle below is written straight from the raw
design parameters and shares no code with the region builder, so volume
agreement really does cross-check two independent descriptions of the solid.
"""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import mesh_reference
from pkwbench.errors import DegenerateRegion, EmptyMesh, PkwError
from pkwbench.geometry import PkwFixed, PkwSample, derive, validate, feasible_bounds
from pkwbench.mesh import (
    LATTICE,
    REGION_KINDS,
    MeshReport,
    TriangleMesh,
    _Builder,
    _VerticalFaces,
    _edge_groups,
    _Profiles,
    _crossing_stations,
    _mandatory_stations,
    _problem_edges,
    _stations,
    analytic_volume,
    build_regions,
    crest_trace_length,
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
    assert validate_mesh(mesh).signed_volume == pytest.approx(RECT_VOLUME, rel=1e-12)


def test_refinement_invariance():
    d = derive(FIXED, RECT)
    v1 = validate_mesh(solid_mesh(d, FIXED, x_segments=1)).signed_volume
    v16 = validate_mesh(solid_mesh(d, FIXED, x_segments=16)).signed_volume
    assert v16 == pytest.approx(v1, rel=1e-12)
    d2 = derive(FIXED, HAND)
    v1 = validate_mesh(solid_mesh(d2, FIXED, x_segments=1)).signed_volume
    v16 = validate_mesh(solid_mesh(d2, FIXED, x_segments=16)).signed_volume
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


_CREST_WALLS = {"W_i_d - 2 delta_T_s > 1e-9 m", "W_o_u / 2 - delta_T_s > 1e-9 m"}


def test_degenerate_pinch_raises():
    # inside the feasible box, but the inlet sidewalls cross in plan before
    # reaching the downstream face, so the crest band footprint vanishes:
    # the gate names the crest wall and the mesher still refuses it
    pinch = PkwSample(B_b=0.2, R_B_i=0.75, T_s=0.0594, W_i_u=0.2, W_i_d=0.0099)
    report = validate(FIXED, pinch)
    assert [v.constraint for v in report.violations] == ["W_i_d - 2 delta_T_s > 1e-9 m"]
    with pytest.raises(DegenerateRegion):
        build_regions(derive(FIXED, pinch), FIXED)


@settings(max_examples=400, deadline=None)
@given(st.fixed_dictionaries({
    name: st.floats(lo, hi) for name, (lo, hi) in feasible_bounds(FIXED).items()
}))
def test_feasible_designs_mesh(params):
    # the gate and the mesher agree, so every feasible design meshes: the
    # gate names a crest wall exactly when build_regions refuses the design
    sample = PkwSample(**params)
    try:
        derived = derive(FIXED, sample)
    except (ValueError, PkwError):  # a widening inlet key, or no outlet key
        reject()
    report = validate(FIXED, sample)
    try:
        build_regions(derived, FIXED)
        meshes = True
    except DegenerateRegion:
        meshes = False
    assert meshes == (not _CREST_WALLS & {v.constraint for v in report.violations})


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


def test_crest_trace_keeps_a_line_whose_intercepts_straddle_a_half_step():
    # a flat crest strip between two parallel sloped walls; the lower wall's
    # intercept lies on a half lattice step, and float error puts the last
    # edge's intercept just below it, so rounded keys would split the wall
    c, s, w = 0.3623046875, 0.008552631578947369, 0.25
    xs = [0.0, 0.015625, 0.0702829071969697, 0.5, 1.0, 1.4297170928030303, 1.484375]
    lower = [(x, c + s * x, 1.0) for x in xs]
    upper = [(x, c + w + s * x, 1.0) for x in xs]
    intercepts = [y0 - (y1 - y0) / (x1 - x0) * x0
                  for (x0, y0, _), (x1, y1, _) in zip(lower[:-1], lower[1:])]
    assert len({round(i / 1e-9) for i in intercepts}) == 2
    n = len(xs)
    mesh = TriangleMesh(
        vertices=np.array(lower + upper + [(0.0, 0.0, 0.0), (0.0, 2.0, 0.0)]),
        triangles=np.array([t for i in range(n - 1)
                            for t in ((i, i + 1, n + i + 1), (i, n + i + 1, n + i))]))
    trace = crest_trace_length(mesh)
    assert trace == pytest.approx(xs[-1] * math.hypot(1.0, s) + w, rel=1e-12)
    assert trace == mesh_reference.crest_trace_length(mesh)


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


@st.composite
def _meshable_designs(draw):
    """A design drawn anywhere in the feasible box, with its own upstream
    overhang ratio R_B_o, that meshes.

    ``feasible_bounds`` has no R_B_o, and a design without one takes
    R_B_o = R_B_i; drawn alone, it lets the two overhangs differ, which is
    where profiles on the two sides of a plan edge cross.
    """
    sample = PkwSample(
        **{name: draw(st.floats(lo, hi)) for name, (lo, hi) in feasible_bounds(FIXED).items()},
        R_B_o=draw(st.floats(0.02, 1.0)),
    )
    if not validate(FIXED, sample).feasible:
        reject()
    derived = derive(FIXED, sample)
    try:
        build_regions(derived, FIXED)
    except DegenerateRegion:
        reject()
    return derived


# inlet overhang near its maximum, outlet overhang near nothing: downstream
# of the base footprint the falling outlet ramp crosses the underside of the
# sidewall's overhang slab
CROSSING = PkwSample(B_b=0.35363884422582204, R_B_i=0.944473125567503,
                     R_B_o=0.022015706203327445, T_s=0.013925803392127595,
                     W_i_u=0.21886141581138518, W_i_d=0.12439529353310376)


def _assert_same_mesh(got, want):
    for name in ("vertices", "triangles"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def _assert_matches_the_scalar_reference(derived, x_segments):
    """Stations, crossings, volume, mesh and crest trace of one design are
    the reference's, bit for bit."""
    regions = build_regions(derived, FIXED)
    edge_groups, profiles = _edge_groups(regions), _Profiles(regions)
    mandatory = _mandatory_stations(regions)
    crossings = _crossing_stations(edge_groups, mandatory, profiles)
    want_crossings = mesh_reference._crossing_stations(regions, mandatory)
    assert sorted(crossings) == sorted(want_crossings)
    assert (_stations(regions, edge_groups, profiles, x_segments)
            == mesh_reference._stations(regions, x_segments))
    assert analytic_volume(derived, FIXED) == mesh_reference.analytic_volume(derived, FIXED)
    got, _ = tessellate(regions, x_segments)
    want = mesh_reference.tessellate(regions, x_segments)
    _assert_same_mesh(got, want)
    assert crest_trace_length(got) == mesh_reference.crest_trace_length(want)
    return crossings


@settings(max_examples=80, deadline=None)
@given(_meshable_designs(), st.integers(1, 8))
def test_tessellation_matches_the_per_corner_reference(derived, x_segments):
    _assert_matches_the_scalar_reference(derived, x_segments)


@pytest.mark.parametrize("x_segments", [1, 3])
def test_crossing_stations_match_the_scalar_reference(x_segments):
    d = derive(FIXED, CROSSING)
    assert validate(FIXED, CROSSING).feasible
    crossings = _assert_matches_the_scalar_reference(d, x_segments)
    assert len(crossings) > 0
    mesh = solid_mesh(d, FIXED, x_segments)
    assert validate_mesh(mesh).signed_volume == pytest.approx(analytic_volume(d, FIXED), rel=1e-9)


def _finish_both(triangles):
    """Finish the same (pa, pb, pc, direction) triangles on the array
    builder and on the reference one."""
    builder = _Builder()
    builder.add(np.array([t[:3] for t in triangles], dtype=np.float64),
                np.array([t[3] for t in triangles], dtype=np.float64))
    reference = mesh_reference._Builder()
    for pa, pb, pc, direction in triangles:
        reference.add_tri(pa, pb, pc, direction)
    got, want = builder.finish(), reference.finish()
    _assert_same_mesh(got, want)
    return got


UP = (0.0, 0.0, 1.0)


def test_weld_joins_signed_zeros_keeping_the_first_corner():
    mesh = _finish_both([
        ((-0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), UP),
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), UP),
    ])
    assert mesh.n_vertices == 4
    assert np.signbit(mesh.vertices[0, 0])
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]


def _on_lattice(t):
    """A float x with x * LATTICE == t exactly."""
    x = t / LATTICE
    for _ in range(16):
        if x * LATTICE == t:
            return x
        x = math.nextafter(x, math.inf if x * LATTICE < t else -math.inf)
    raise AssertionError(f"no float lands on {t} lattice steps")


def test_weld_rounds_half_a_lattice_step_to_even():
    # 0.5 and 1.5 steps round to keys 0 and 2, as does 2.5: half to even
    # welds each pair below; half away from zero would weld neither
    half, one_half, two_half = (_on_lattice(t) for t in (0.5, 1.5, 2.5))
    mesh = _finish_both([
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), UP),
        ((half, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), UP),
        ((one_half, 2.0, 0.0), (1.0, 2.0, 0.0), (0.0, 3.0, 0.0), UP),
        ((two_half, 2.0, 0.0), (0.0, 3.0, 0.0), (-1.0, 2.0, 0.0), UP),
    ])
    assert mesh.n_vertices == 8
    assert mesh.vertices[0, 0] == 0.0 and mesh.vertices[4, 0] == one_half
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]]


def test_weld_numbers_vertices_by_first_occurrence():
    # the second triangle repeats two corners, one of them 0.1 lattice
    # steps off; the vertex keeps the coordinates of its first corner
    off = 0.1 / LATTICE
    mesh = _finish_both([
        ((2.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 0.0), UP),
        ((0.0, off, 0.0), (3.0, 0.0, 0.0), (2.0, 0.0, 0.0), UP),
    ])
    assert mesh.vertices.tolist() == [
        [2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [3.0, 0.0, 0.0]]
    assert mesh.triangles.tolist() == [[0, 2, 1], [1, 0, 3]]


def test_dropped_triangles_still_number_their_corners():
    off = 0.2 / LATTICE
    mesh = _finish_both([
        # two corners weld: a repeated vertex
        ((5.0, 0.0, 0.0), (6.0, 0.0, 0.0), (6.0, off, 0.0), UP),
        # distinct vertices, but the normal is square to the direction
        ((7.0, 0.0, 0.0), (8.0, 0.0, 0.0), (7.0, 1.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), UP),
    ])
    assert mesh.vertices[:, 0].tolist() == [5.0, 6.0, 7.0, 8.0, 7.0, 0.0, 1.0, 0.0]
    assert mesh.triangles.tolist() == [[5, 6, 7]]


def test_wall_level_with_two_floats_takes_the_one_a_set_yields_last():
    # z and its successor share a lattice key on the line (0, 0).  The
    # reference builds the line's set while noting and keys a dict on it,
    # so the later float in the set's iteration order wins.  Note the two
    # in the order that makes the winner the second one noted.
    z = 0.3
    z_next = math.nextafter(z, 1.0)
    assert round(z * LATTICE) == round(z_next * LATTICE)
    for noted in ([z, z_next], [z_next, z]):
        line = set()
        for value in noted + [0.0, 1.0]:
            line.add(value)
        if [v for v in line if v in noted][-1] == noted[1]:
            break
    else:
        pytest.fail("no noting order lets the set pick the later float")

    walls = _VerticalFaces()
    walls.note(np.array([[0.0, 0.0, noted[0]], [0.0, 0.0, noted[1]], [1.0, 0.0, z]]))
    one, zero = np.ones(1), np.zeros(1)
    walls.add(zero, zero, zero, one, one, zero, zero, one, np.array([[0.0, 1.0, 0.0]]))
    builder = _Builder()
    walls.emit(builder)

    reference_walls = mesh_reference._VerticalFaces()
    for x, zv in ((0.0, noted[0]), (0.0, noted[1]), (1.0, z)):
        reference_walls.note_corner(x, 0.0, zv)
    reference_walls.add(0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, (0.0, 1.0, 0.0))
    reference = mesh_reference._Builder()
    reference_walls.emit(reference)
    mesh = builder.finish()
    _assert_same_mesh(mesh, reference.finish())
    assert noted[1] in mesh.vertices[:, 2]
