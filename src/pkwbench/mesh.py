"""Watertight solid model of a piano key weir.

The solid is described as a set of plan regions. Each region is a trapezoid
in plan (x-aligned parallel sides, straight slanted edges) filled between two
height profiles z_lo(x) and z_hi(x) that depend on x only. Region footprints
partition the plan of one unit into five kinds:

* ``inlet_channel``: fill under the rising inlet ramp,
* ``outlet_channel``: fill under the falling outlet ramp (two halves, one at
  each unit boundary),
* ``sidewall``: full-height band between the key faces,
* ``upstream_crest_wall``: crest band closing the outlet key upstream,
* ``downstream_crest_wall``: crest band closing the inlet key downstream.

Under the overhangs the fill thins to a slab of thickness T_s; inside the
base footprint it is monolithic down to the bed.

Tessellation emits top and bottom skins per region plus the exposed parts of
every vertical interface, welding vertices on an integer lattice at 1e-9 m so
shared corners coincide exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateRegion, EmptyMesh, StitchFailure
from .geometry import Line, PkwDerived, PkwFixed, plan_halfwidths

REGION_KINDS = (
    "inlet_channel", "outlet_channel", "sidewall",
    "upstream_crest_wall", "downstream_crest_wall",
)

LATTICE = 1e9          # vertex weld lattice: 1e-9 m resolution
_MIN_WIDTH = 1e-9      # plan footprints narrower than this are degenerate


class Const:
    """Constant height profile."""

    __slots__ = ("c",)

    def __init__(self, c: float):
        self.c = c

    def value(self, x: float, at: float) -> float:
        return self.c

    def breaks(self) -> list[float]:
        return []


class Clamped:
    """Profile clamp(a + b*x, lo, hi)."""

    __slots__ = ("a", "b", "lo", "hi")

    def __init__(self, a: float, b: float, lo: float, hi: float):
        self.a = a
        self.b = b
        self.lo = lo
        self.hi = hi

    def value(self, x: float, at: float) -> float:
        v = self.a + self.b * x
        if v < self.lo:
            return self.lo
        if v > self.hi:
            return self.hi
        return v

    def breaks(self) -> list[float]:
        if self.b == 0.0:
            return []
        return [(self.lo - self.a) / self.b, (self.hi - self.a) / self.b]


class Piecewise:
    """Profile assembled from parts on consecutive x-intervals.

    Evaluation picks the part by the selector ``at`` (an interval midpoint),
    which keeps one-sided limits well defined at jump stations.
    """

    __slots__ = ("cuts", "parts")

    def __init__(self, cuts: list[float], parts: list):
        if len(parts) != len(cuts) + 1:
            raise ValueError("need exactly one more part than cuts")
        self.cuts = list(cuts)
        self.parts = list(parts)

    def value(self, x: float, at: float) -> float:
        return self.parts[bisect_right(self.cuts, at)].value(x, at)

    def breaks(self) -> list[float]:
        out = list(self.cuts)
        for p in self.parts:
            out.extend(p.breaks())
        return out


@dataclass(frozen=True)
class PlanRegion:
    """One plan trapezoid filled between two height profiles."""

    kind: str
    unit_index: int
    x0: float
    x1: float
    y_lo: Line
    y_hi: Line
    z_lo: object
    z_hi: object

    def width(self, x: float) -> float:
        return self.y_hi.value(x) - self.y_lo.value(x)


@dataclass(frozen=True)
class TriangleMesh:
    vertices: np.ndarray   # (n, 3) float64
    triangles: np.ndarray  # (m, 3) int64, outward-oriented

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


@dataclass(frozen=True)
class MeshReport:
    watertight: bool
    n_boundary_edges: int
    n_nonmanifold_edges: int
    signed_volume: float
    bbox_min: tuple[float, float, float]
    bbox_max: tuple[float, float, float]


def build_regions(derived: PkwDerived, fixed: PkwFixed) -> list[PlanRegion]:
    """Construct the plan regions of the full weir.

    Raises DegenerateRegion if any footprint pinches below the weld lattice,
    which happens for extreme sidewall angles where the crest bands vanish.
    """
    P = fixed.P
    B = derived.B
    T_s = derived.T_s2 * math.cos(derived.alpha)
    W_u = fixed.W_u
    span = B - T_s
    x_base_lo = derived.B_o          # upstream edge of the base footprint
    x_base_hi = B - derived.B_i      # downstream edge of the base footprint

    h_i, h_o = plan_halfwidths(derived, fixed)

    ri = Clamped(0.0, P / span, 0.0, P)
    ro = Clamped(P * B / span, -P / span, 0.0, P)
    under_i = Clamped(-T_s, P / span, 0.0, P - T_s)
    under_o = Clamped(P * B / span - T_s, -P / span, 0.0, P - T_s)
    zero = Const(0.0)
    top = Const(P)
    wall_lo = Piecewise([x_base_lo, x_base_hi], [under_o, zero, under_i])
    inlet_lo = Piecewise([x_base_hi], [zero, under_i])
    outlet_lo = Piecewise([x_base_lo], [under_o, zero])

    boundaries = [Line(u * W_u, 0.0) for u in range(fixed.N_u + 1)]
    regions: list[PlanRegion] = []
    for u in range(fixed.N_u):
        y_off = u * W_u
        f_ol = Line(y_off + h_o.a, h_o.b)
        f_il = Line(y_off + 0.5 * W_u - h_i.a, -h_i.b)
        f_iu = Line(y_off + 0.5 * W_u + h_i.a, h_i.b)
        f_ou = Line(y_off + W_u - h_o.a, -h_o.b)
        lo_edge = boundaries[u]
        hi_edge = boundaries[u + 1]
        regions += [
            PlanRegion("upstream_crest_wall", u, 0.0, T_s, lo_edge, f_ol, wall_lo, top),
            PlanRegion("outlet_channel", u, T_s, B, lo_edge, f_ol, outlet_lo, ro),
            PlanRegion("sidewall", u, 0.0, B, f_ol, f_il, wall_lo, top),
            PlanRegion("inlet_channel", u, 0.0, B - T_s, f_il, f_iu, inlet_lo, ri),
            PlanRegion("downstream_crest_wall", u, B - T_s, B, f_il, f_iu, wall_lo, top),
            PlanRegion("sidewall", u, 0.0, B, f_iu, f_ou, wall_lo, top),
            PlanRegion("upstream_crest_wall", u, 0.0, T_s, f_ou, hi_edge, wall_lo, top),
            PlanRegion("outlet_channel", u, T_s, B, f_ou, hi_edge, outlet_lo, ro),
        ]

    for region in regions:
        w = min(region.width(region.x0), region.width(region.x1))
        if w <= _MIN_WIDTH:
            raise DegenerateRegion(
                f"{region.kind} footprint of unit {region.unit_index} pinches to {w:.3g} m"
            )
    return regions


def _merge_stations(base: list[float], extra, tol: float) -> list[float]:
    """Insert extra stations unless one of base already sits within tol.

    Keeping the base value when the two nearly coincide matters: region
    boundaries must survive verbatim so that interval midpoints fall into
    the right piece and profile clamps evaluate bitwise-identically on both
    sides of the boundary.
    """
    out = sorted(base)
    for x in sorted(extra):
        lo, hi = 0, len(out)
        while lo < hi:
            m = (lo + hi) // 2
            if out[m] < x:
                lo = m + 1
            else:
                hi = m
        near_prev = lo > 0 and x - out[lo - 1] <= tol
        near_next = lo < len(out) and out[lo] - x <= tol
        if not near_prev and not near_next:
            out.insert(lo, x)
    return out


def _mandatory_stations(regions: list[PlanRegion]) -> list[float]:
    x0 = min(r.x0 for r in regions)
    x1 = max(r.x1 for r in regions)
    bounds = {x0, x1}
    for r in regions:
        bounds.add(r.x0)
        bounds.add(r.x1)
    breaks = set()
    for r in regions:
        for prof in (r.z_lo, r.z_hi):
            for b in prof.breaks():
                if x0 < b < x1:
                    breaks.add(b)
    tol = 1e-12 * max(1.0, x1 - x0)
    return _merge_stations(sorted(bounds), breaks, tol)


def _edge_groups(regions):
    """Map each plan edge line to the regions on its two sides.

    Adjacency is by Line object identity: build_regions hands the same Line
    to both neighbours, which also guarantees bitwise-equal evaluations.
    """
    edges: dict[int, tuple[Line, list[PlanRegion], list[PlanRegion]]] = {}
    for r in regions:
        for line, side in ((r.y_hi, 0), (r.y_lo, 1)):
            entry = edges.get(id(line))
            if entry is None:
                entry = (line, [], [])
                edges[id(line)] = entry
            entry[1 + side].append(r)
    for _, below, above in edges.values():
        below.sort(key=lambda r: r.x0)
        above.sort(key=lambda r: r.x0)
    return list(edges.values())


def _chain_groups(regions):
    """Group regions that share both y-edges into streamwise chains."""
    chains: dict[tuple[int, int], list[PlanRegion]] = {}
    for r in regions:
        chains.setdefault((id(r.y_lo), id(r.y_hi)), []).append(r)
    for chain in chains.values():
        chain.sort(key=lambda r: r.x0)
    return list(chains.values())


def _piece_at(pieces: list[PlanRegion], x: float) -> Optional[PlanRegion]:
    for p in pieces:
        if p.x0 <= x <= p.x1:
            return p
    return None


def _crossing_stations(regions, mandatory):
    """x positions where interval boundaries of adjacent regions cross."""
    out = []
    for line, below, above in _edge_groups(regions):
        for k in range(len(mandatory) - 1):
            xa, xb = mandatory[k], mandatory[k + 1]
            mid = 0.5 * (xa + xb)
            left = _piece_at(below, mid)
            right = _piece_at(above, mid)
            if left is None or right is None:
                continue
            funcs = [left.z_lo, left.z_hi, right.z_lo, right.z_hi]
            va = [f.value(xa, mid) for f in funcs]
            vb = [f.value(xb, mid) for f in funcs]
            for i in range(4):
                for j in range(i + 1, 4):
                    da = va[i] - va[j]
                    db = vb[i] - vb[j]
                    if da * db < 0.0:
                        t = da / (da - db)
                        out.append(xa + t * (xb - xa))
    return out


def _stations(regions: list[PlanRegion], x_segments: int) -> list[float]:
    mandatory = _mandatory_stations(regions)
    tol = 1e-12 * max(1.0, mandatory[-1] - mandatory[0])
    keep = _merge_stations(mandatory, _crossing_stations(regions, mandatory), tol)
    out = []
    for k in range(len(keep) - 1):
        xa, xb = keep[k], keep[k + 1]
        for s in range(x_segments):
            out.append(xa + (xb - xa) * s / x_segments)
    out.append(keep[-1])
    return out


class _Builder:
    """Accumulates triangles with lattice-welded vertices."""

    def __init__(self):
        self.key_to_index: dict[tuple[int, int, int], int] = {}
        self.vertices: list[tuple[float, float, float]] = []
        self.triangles: list[tuple[int, int, int]] = []

    def _index(self, p) -> int:
        key = (round(p[0] * LATTICE), round(p[1] * LATTICE), round(p[2] * LATTICE))
        idx = self.key_to_index.get(key)
        if idx is None:
            idx = len(self.vertices)
            self.key_to_index[key] = idx
            self.vertices.append(p)
        return idx

    def add_tri(self, pa, pb, pc, direction):
        ia, ib, ic = self._index(pa), self._index(pb), self._index(pc)
        if len({ia, ib, ic}) < 3:
            return
        ux, uy, uz = pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]
        vx, vy, vz = pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2]
        nx = uy * vz - uz * vy
        ny = uz * vx - ux * vz
        nz = ux * vy - uy * vx
        s = nx * direction[0] + ny * direction[1] + nz * direction[2]
        if s == 0.0:
            return
        if s > 0.0:
            self.triangles.append((ia, ib, ic))
        else:
            self.triangles.append((ia, ic, ib))

    def add_quad(self, p00, p01, p11, p10, direction):
        self.add_tri(p00, p01, p11, direction)
        self.add_tri(p00, p11, p10, direction)

    def finish(self) -> TriangleMesh:
        return TriangleMesh(
            vertices=np.asarray(self.vertices, dtype=np.float64),
            triangles=np.asarray(self.triangles, dtype=np.int64),
        )


class _VerticalFaces:
    """Collects vertical wall faces and the z-nodes on every vertical line.

    Faces meeting along a vertical line (x, y) must subdivide it identically,
    otherwise hairline T-junctions open up at profile jumps. Emission is
    therefore deferred: first every face corner registers its z on its line,
    then each face is triangulated against the union of nodes on its two
    lines with a zipper walk.
    """

    def __init__(self):
        self.faces = []
        self.nodes: dict[tuple[int, int], set[float]] = {}

    def _note(self, x, y, z):
        key = (round(x * LATTICE), round(y * LATTICE))
        self.nodes.setdefault(key, set()).add(z)

    def add(self, xa, ya, za0, za1, xb, yb, zb0, zb1, direction):
        if za0 > za1:
            za0, za1 = za1, za0
        if zb0 > zb1:
            zb0, zb1 = zb1, zb0
        for z in (za0, za1):
            self._note(xa, ya, z)
        for z in (zb0, zb1):
            self._note(xb, yb, z)
        self.faces.append((xa, ya, za0, za1, xb, yb, zb0, zb1, direction))

    def note_corner(self, x, y, z):
        self._note(x, y, z)

    def _chain(self, x, y, z0, z1):
        k0 = round(z0 * LATTICE)
        k1 = round(z1 * LATTICE)
        pts = [(x, y, z0)]
        if k1 > k0:
            line = self.nodes.get((round(x * LATTICE), round(y * LATTICE)), ())
            inner = {round(z * LATTICE): z for z in line if k0 < round(z * LATTICE) < k1}
            pts.extend((x, y, inner[k]) for k in sorted(inner))
            pts.append((x, y, z1))
        return pts

    def emit(self, builder: _Builder):
        for xa, ya, za0, za1, xb, yb, zb0, zb1, direction in self.faces:
            left = self._chain(xa, ya, za0, za1)
            right = self._chain(xb, yb, zb0, zb1)
            i = j = 0
            while i < len(left) - 1 or j < len(right) - 1:
                z_next_l = left[i + 1][2] if i < len(left) - 1 else math.inf
                z_next_r = right[j + 1][2] if j < len(right) - 1 else math.inf
                if z_next_l <= z_next_r:
                    builder.add_tri(left[i], right[j], left[i + 1], direction)
                    i += 1
                else:
                    builder.add_tri(left[i], right[j], right[j + 1], direction)
                    j += 1


def _interval_bands(walls, xa, xb, y_line, left, right, mid):
    """Exposed wall faces along one plan edge over [xa, xb].

    left/right are the regions below/above the edge in y, either of which may
    be None (void). A band is emitted where exactly one side is solid.
    """
    funcs = []
    if left is not None:
        funcs += [left.z_lo, left.z_hi]
    if right is not None:
        funcs += [right.z_lo, right.z_hi]
    if not funcs:
        return
    mids = [f.value(mid, mid) for f in funcs]
    order = sorted(range(len(funcs)), key=mids.__getitem__)
    ya, yb = y_line.value(xa), y_line.value(xb)
    for k in range(len(order) - 1):
        f_lo, f_hi = funcs[order[k]], funcs[order[k + 1]]
        band_mid = 0.5 * (mids[order[k]] + mids[order[k + 1]])
        in_left = left is not None and left.z_lo.value(mid, mid) <= band_mid <= left.z_hi.value(mid, mid)
        in_right = right is not None and right.z_lo.value(mid, mid) <= band_mid <= right.z_hi.value(mid, mid)
        if in_left == in_right:
            continue
        direction = (0.0, 1.0, 0.0) if in_left else (0.0, -1.0, 0.0)
        walls.add(xa, ya, f_lo.value(xa, mid), f_hi.value(xa, mid),
                  xb, yb, f_lo.value(xb, mid), f_hi.value(xb, mid), direction)


def _station_bands(walls, x_s, y_lo, y_hi, left, right, mid_l, mid_r):
    """Exposed wall faces at one station of a streamwise chain."""
    lz0 = lz1 = rz0 = rz1 = None
    vals = []
    if left is not None:
        lz0, lz1 = left.z_lo.value(x_s, mid_l), left.z_hi.value(x_s, mid_l)
        vals += [lz0, lz1]
    if right is not None:
        rz0, rz1 = right.z_lo.value(x_s, mid_r), right.z_hi.value(x_s, mid_r)
        vals += [rz0, rz1]
    if not vals:
        return
    vals = sorted(set(vals))
    ya, yb = y_lo.value(x_s), y_hi.value(x_s)
    for k in range(len(vals) - 1):
        z0, z1 = vals[k], vals[k + 1]
        zm = 0.5 * (z0 + z1)
        in_left = left is not None and lz0 <= zm <= lz1
        in_right = right is not None and rz0 <= zm <= rz1
        if in_left == in_right:
            continue
        direction = (1.0, 0.0, 0.0) if in_left else (-1.0, 0.0, 0.0)
        walls.add(x_s, ya, z0, z1, x_s, yb, z0, z1, direction)


def tessellate(regions: list[PlanRegion], x_segments: int = 8) -> TriangleMesh:
    """Triangulate the solid bounded by the plan regions.

    The result is watertight and outward-oriented; a failed stitch raises
    StitchFailure with the offending edges attached.
    """
    return _tessellate(regions, x_segments)[0]


def _tessellate(regions: list[PlanRegion], x_segments: int):
    """``tessellate``, returning ``(mesh, report)`` from its one validation."""
    if x_segments < 1:
        raise ValueError("x_segments must be >= 1")
    stations = _stations(regions, x_segments)
    chains = _chain_groups(regions)
    builder = _Builder()
    walls = _VerticalFaces()
    skins = []

    # Top and bottom skins. Each station interval of a chain is covered by
    # exactly one piece, picked by the interval midpoint, so near-coincident
    # stations can never double-cover a strip. The skins are registered
    # first so their corners participate in the vertical-line subdivision,
    # then emitted as plain quads.
    for chain in chains:
        for k in range(len(stations) - 1):
            xa, xb = stations[k], stations[k + 1]
            mid = 0.5 * (xa + xb)
            r = _piece_at(chain, mid)
            if r is None:
                continue
            ya0, ya1 = r.y_lo.value(xa), r.y_hi.value(xa)
            yb0, yb1 = r.y_lo.value(xb), r.y_hi.value(xb)
            for prof, direction in ((r.z_hi, (0.0, 0.0, 1.0)), (r.z_lo, (0.0, 0.0, -1.0))):
                z_a, z_b = prof.value(xa, mid), prof.value(xb, mid)
                skins.append(((xa, ya0, z_a), (xa, ya1, z_a), (xb, yb1, z_b), (xb, yb0, z_b), direction))
                for p in skins[-1][:4]:
                    walls.note_corner(*p)

    # Wall faces along plan edges (slanted key faces, outer walls).
    for line, below, above in _edge_groups(regions):
        for k in range(len(stations) - 1):
            xa, xb = stations[k], stations[k + 1]
            mid = 0.5 * (xa + xb)
            _interval_bands(walls, xa, xb, line, _piece_at(below, mid), _piece_at(above, mid), mid)

    # Wall faces at stations where profiles jump or a chain starts or ends.
    for chain in chains:
        y_lo, y_hi = chain[0].y_lo, chain[0].y_hi
        for k in range(len(stations)):
            x_s = stations[k]
            mid_l = 0.5 * (stations[k - 1] + x_s) if k > 0 else None
            mid_r = 0.5 * (x_s + stations[k + 1]) if k + 1 < len(stations) else None
            left = _piece_at(chain, mid_l) if mid_l is not None else None
            right = _piece_at(chain, mid_r) if mid_r is not None else None
            if left is None and right is None:
                continue
            if left is not None and right is not None:
                lz = (left.z_lo.value(x_s, mid_l), left.z_hi.value(x_s, mid_l))
                rz = (right.z_lo.value(x_s, mid_r), right.z_hi.value(x_s, mid_r))
                if lz == rz:
                    continue
            _station_bands(walls, x_s, y_lo, y_hi, left, right, mid_l, mid_r)

    for p00, p01, p11, p10, direction in skins:
        builder.add_quad(p00, p01, p11, p10, direction)
    walls.emit(builder)

    mesh = builder.finish()
    report = validate_mesh(mesh)
    if not report.watertight:
        bad = _problem_edges(mesh)
        raise StitchFailure(
            f"tessellation left {report.n_boundary_edges} boundary and "
            f"{report.n_nonmanifold_edges} non-manifold edges", edges=bad,
        )
    return mesh, report


def _edge_keys(mesh: TriangleMesh):
    """One int64 key per triangle edge, as (directed, undirected) arrays.

    The directed edge a -> b has key ``a * n_vertices + b``, and its
    undirected form ``min(a, b) * n_vertices + max(a, b)``.  Counting keys
    with a 1-D ``np.unique`` counts edges as row-wise unique on the (a, b)
    pairs does, and sorted keys list the pairs in the same order.
    """
    t = mesh.triangles.astype(np.int64, copy=False)
    a = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    b = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    n = mesh.n_vertices
    return a * n + b, np.minimum(a, b) * n + np.maximum(a, b)


def _problem_edges(mesh: TriangleMesh, limit: int = 32):
    directed, undirected = _edge_keys(mesh)
    und_keys, counts = np.unique(undirected, return_counts=True)
    dir_keys, dir_counts = np.unique(directed, return_counts=True)
    bad = np.concatenate([und_keys[counts != 2], dir_keys[dir_counts > 1]])
    return [divmod(key, mesh.n_vertices) for key in bad[:limit]]


def validate_mesh(mesh: TriangleMesh) -> MeshReport:
    """Check closedness, orientation consistency, and signed volume."""
    if mesh.n_triangles == 0:
        raise EmptyMesh("mesh has no triangles")
    directed, undirected = _edge_keys(mesh)
    _, counts = np.unique(undirected, return_counts=True)
    n_boundary = int(np.sum(counts == 1))
    n_nonmanifold = int(np.sum(counts > 2))
    # An undirected edge used twice must be traversed once in each direction;
    # two equal directed edges mean a flipped triangle.
    _, dir_counts = np.unique(directed, return_counts=True)
    n_flipped = int(np.sum(dir_counts > 1))
    n_nonmanifold += n_flipped

    v = mesh.vertices
    t = mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    signed_volume = float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)
    return MeshReport(
        watertight=(n_boundary == 0 and n_nonmanifold == 0),
        n_boundary_edges=n_boundary,
        n_nonmanifold_edges=n_nonmanifold,
        signed_volume=signed_volume,
        bbox_min=tuple(v.min(axis=0)),
        bbox_max=tuple(v.max(axis=0)),
    )


def mesh_volume(mesh: TriangleMesh) -> float:
    return validate_mesh(mesh).signed_volume


def analytic_volume(derived: PkwDerived, fixed: PkwFixed) -> float:
    """Closed-form solid volume integrated region by region.

    Independent of the tessellation: integrates width(x) * height(x) per
    region with Simpson's rule on each linear piece, which is exact for the
    quadratic integrand.
    """
    regions = build_regions(derived, fixed)
    total = 0.0
    for r in regions:
        cuts = sorted({r.x0, r.x1} | {
            b for prof in (r.z_lo, r.z_hi) for b in prof.breaks() if r.x0 < b < r.x1
        })
        for xa, xb in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (xa + xb)

            def f(x):
                h = r.z_hi.value(x, mid) - r.z_lo.value(x, mid)
                return h * r.width(x)

            total += (xb - xa) / 6.0 * (f(xa) + 4.0 * f(mid) + f(xb))
    return total


def crest_trace_length(mesh: TriangleMesh, tol: float = 1e-9) -> float:
    """Developed crest centreline length recovered from the crest skin.

    Works from the mesh alone. Takes the boundary of the patch of triangles
    at the top elevation, discards the cuts along the lateral domain walls,
    and reads the crest axis off it: boundary edges running streamwise are
    grouped into plan lines, lines are paired into wall strips (consecutive
    offsets within a slope group), and each strip contributes the length of
    its centreline over the union of the streamwise extents of its two
    sides, so the sidewall axis is counted over the full length of the weir
    as is conventional. Transverse boundary edges come in an outer and an
    inner curve per key closure whose mean is the transverse crest axis, so
    their summed length enters halved.
    """
    v = mesh.vertices
    if v.size == 0:
        raise EmptyMesh("mesh has no vertices")
    z_top = v[:, 2].max()
    at_top = v[:, 2] >= z_top - tol
    tris = mesh.triangles[np.all(at_top[mesh.triangles], axis=1)]
    if tris.size == 0:
        raise EmptyMesh("no faces at the crest elevation")
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    border = uniq[counts == 1]
    y_wall_lo, y_wall_hi = v[:, 1].min(), v[:, 1].max()
    pa, pb = v[border[:, 0]], v[border[:, 1]]
    on_wall = ((np.abs(pa[:, 1] - y_wall_lo) <= tol) & (np.abs(pb[:, 1] - y_wall_lo) <= tol)) | (
        (np.abs(pa[:, 1] - y_wall_hi) <= tol) & (np.abs(pb[:, 1] - y_wall_hi) <= tol))
    pa, pb = pa[~on_wall], pb[~on_wall]

    dx = pb[:, 0] - pa[:, 0]
    dy = pb[:, 1] - pa[:, 1]
    transverse = np.abs(dx) <= tol
    total = float(np.hypot(dx[transverse], dy[transverse]).sum()) / 2.0

    lines: dict[tuple[int, int], list[float]] = {}
    for k in np.nonzero(~transverse)[0]:
        slope = dy[k] / dx[k]
        intercept = pa[k, 1] - slope * pa[k, 0]
        key = (round(slope / tol), round(intercept / tol))
        lines.setdefault(key, [slope]).extend((pa[k, 0], pb[k, 0]))
    by_slope: dict[int, list[tuple[float, float, float, float]]] = {}
    for (ks, ki), rec in lines.items():
        by_slope.setdefault(ks, []).append((ki * tol, rec[0], min(rec[1:]), max(rec[1:])))
    for group in by_slope.values():
        group.sort()
        if len(group) % 2:
            raise StitchFailure("crest trace found an unpaired sidewall line")
        for m in range(0, len(group), 2):
            _, slope, lo_a, hi_a = group[m]
            _, _, lo_b, hi_b = group[m + 1]
            extent = max(hi_a, hi_b) - min(lo_a, lo_b)
            total += extent * math.hypot(1.0, slope)
    return total


def solid_mesh(derived: PkwDerived, fixed: PkwFixed, x_segments: int = 8) -> TriangleMesh:
    """Convenience wrapper: build regions and tessellate."""
    return tessellate(build_regions(derived, fixed), x_segments=x_segments)


def _solid_mesh_report(derived: PkwDerived, fixed: PkwFixed, x_segments: int):
    """``solid_mesh`` plus the watertight ``MeshReport`` it validated with."""
    return _tessellate(build_regions(derived, fixed), x_segments)
