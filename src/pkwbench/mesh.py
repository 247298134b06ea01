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

Every height profile is one ``Profile``: a clamped linear row per interval
between its cuts.  Profiles are evaluated only in bulk, from one table of
the rows of every distinct profile, by the station, tessellation and
volume code alike.

Tessellation emits top and bottom skins per region plus the exposed parts of
every vertical interface.  A vertical wall runs along a plan edge or across
a chain at a station; both kinds take the profiles of their two sides from
one side rule (``_Profiles.sides``) and their exposed bands from one band
rule (``_bands``).  It evaluates the profiles over all stations of all
chains and edges at once, collects the triangle corners in arrays, and
welds them in one numpy pass on an integer lattice at 1e-9 m, so shared
corners coincide exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegion, EmptyMesh, StitchFailure
from .geometry import _MIN_WIDTH, Line, PkwDerived, PkwFixed, unit_plan_edges

REGION_KINDS = (
    "inlet_channel", "outlet_channel", "sidewall",
    "upstream_crest_wall", "downstream_crest_wall",
)

LATTICE = 1e9          # vertex weld lattice: 1e-9 m resolution


class Profile:
    """Height profile z(x) of a region: ``clamp(a + b * x, lo, hi)``, with
    one ``(a, b, lo, hi)`` row per interval between consecutive ``cuts``.

    A constant c is the row ``(c, 0, c, c)``.  The row is picked by the
    selector ``at`` (an interval midpoint), not by x, which keeps one-sided
    limits well defined at jump stations.  ``breaks`` holds the cuts and
    the x where a sloped row reaches its clamps.  Profiles are evaluated
    only in bulk, by ``_Profiles.values``.
    """

    __slots__ = ("cuts", "rows", "breaks")

    def __init__(self, cuts: list[float], rows: list[tuple[float, float, float, float]]):
        if len(rows) != len(cuts) + 1:
            raise ValueError("need exactly one more row than cuts")
        self.cuts = tuple(cuts)
        self.rows = tuple(rows)
        self.breaks = self.cuts + tuple(
            x for a, b, lo, hi in self.rows if b != 0.0 for x in ((lo - a) / b, (hi - a) / b))


@dataclass(frozen=True)
class PlanRegion:
    """One plan trapezoid filled between two height profiles."""

    kind: str
    unit_index: int
    x0: float
    x1: float
    y_lo: Line
    y_hi: Line
    z_lo: Profile
    z_hi: Profile

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
    ``geometry.validate`` rejects such designs; this check is the backstop.
    """
    P = fixed.P
    B = derived.B
    T_s = derived.T_s2 * math.cos(derived.alpha)
    span = B - T_s
    x_base_lo = derived.B_o          # upstream edge of the base footprint
    x_base_hi = B - derived.B_i      # downstream edge of the base footprint

    # clamp rows (a, b, lo, hi): the inlet and outlet ramps, the slab
    # undersides below the overhangs, and the flat bed
    ramp_i = (0.0, P / span, 0.0, P)
    ramp_o = (P * B / span, -P / span, 0.0, P)
    under_i = (-T_s, P / span, 0.0, P - T_s)
    under_o = (P * B / span - T_s, -P / span, 0.0, P - T_s)
    bed = (0.0, 0.0, 0.0, 0.0)
    ri = Profile([], [ramp_i])
    ro = Profile([], [ramp_o])
    top = Profile([], [(P, 0.0, P, P)])
    wall_lo = Profile([x_base_lo, x_base_hi], [under_o, bed, under_i])
    inlet_lo = Profile([x_base_hi], [bed, under_i])
    outlet_lo = Profile([x_base_lo], [under_o, bed])

    regions: list[PlanRegion] = []
    for u, edges in enumerate(unit_plan_edges(derived, fixed)):
        lo_edge, f_ol, f_il, f_iu, f_ou, hi_edge = edges
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
        lo = bisect_left(out, x)
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
    breaks = {b for r in regions for prof in (r.z_lo, r.z_hi) for b in prof.breaks if x0 < b < x1}
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


class _Profiles:
    """The distinct height profiles of a set of regions, evaluated in bulk.

    Every region shares its profiles with many others.  A profile is
    referred to by its index here; -1 stands for no profile (a void side).
    The clamp rows of all profiles are stacked in one table, closed by a
    row of NaN that index -1 reaches, and the cuts are padded with inf to
    one width, so one ``values`` call evaluates any mix of profiles.
    """

    def __init__(self, regions: list[PlanRegion]):
        self.profiles = []
        self.index: dict[int, int] = {}
        for r in regions:
            for prof in (r.z_lo, r.z_hi):
                if id(prof) not in self.index:
                    self.index[id(prof)] = len(self.profiles)
                    self.profiles.append(prof)
        width = max(len(p.cuts) for p in self.profiles)
        self.cuts = np.full((len(self.profiles) + 1, width), np.inf)
        start, rows = [], []
        for k, prof in enumerate(self.profiles):
            self.cuts[k, :len(prof.cuts)] = prof.cuts
            start.append(len(rows))
            rows.extend(prof.rows)
        self.start = np.array(start + [len(rows)])
        self.rows = np.array(rows + [(np.nan,) * 4])

    def ids(self, profiles, piece: np.ndarray) -> np.ndarray:
        """The index of ``profiles[piece[i]]`` for every i; -1 where
        ``piece`` is -1."""
        table = np.array([self.index[id(p)] for p in profiles] + [-1])
        return table[piece]

    def sides(self, left, left_piece: np.ndarray, right, right_piece: np.ndarray) -> np.ndarray:
        """The profiles on the two sides of a wall, ``(m, 4)``: z_lo and
        z_hi of ``left[left_piece[i]]``, then of ``right[right_piece[i]]``,
        for every i; -1 on a void side (a piece of -1)."""
        return np.stack([self.ids([r.z_lo for r in left], left_piece),
                         self.ids([r.z_hi for r in left], left_piece),
                         self.ids([r.z_lo for r in right], right_piece),
                         self.ids([r.z_hi for r in right], right_piece)], axis=1)

    def values(self, pid: np.ndarray, x: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The value at ``x[i]`` of profile ``pid[i]``, on its row for the
        interval that holds ``at[i]``, for every i; NaN where ``pid[i]``
        is -1."""
        # counting the cuts at or below ``at`` is ``bisect_right``
        row = self.start[pid] + np.count_nonzero(self.cuts[pid] <= at[:, None], axis=1)
        a, b, lo, hi = self.rows[row].T
        v = a + b * x
        return np.where(v < lo, lo, np.where(v > hi, hi, v))


def _pieces_at(pieces: list[PlanRegion], x: np.ndarray) -> np.ndarray:
    """The index of the first piece whose [x0, x1] holds x, for every x;
    -1 where none does."""
    out = np.full(len(x), -1, dtype=np.int64)
    for k in range(len(pieces) - 1, -1, -1):
        out[(pieces[k].x0 <= x) & (x <= pieces[k].x1)] = k
    return out


def _edge_intervals(edge_groups, x: np.ndarray, profiles: _Profiles):
    """Every plan edge over every interval between the stations ``x``.

    Returns ``(pid, xa, xb, v_a, v_mid, v_b)``, one row per interval, edge
    by edge: ``pid`` holds the ``(m, 4)`` profiles of ``_Profiles.sides``
    for the pieces below and above the edge in y, each picked by the
    interval midpoint; ``xa`` and ``xb`` the interval ends; ``v_a``,
    ``v_mid`` and ``v_b`` the values of those profiles at the start, the
    midpoint and the end, each on its row for the midpoint.
    """
    xa, xb = x[:-1], x[1:]
    mid = 0.5 * (xa + xb)
    pid = np.concatenate([
        profiles.sides(below, _pieces_at(below, mid), above, _pieces_at(above, mid))
        for _, below, above in edge_groups])
    n_edges = len(edge_groups)
    at = np.repeat(np.tile(mid, n_edges), 4)
    xa, xb = np.tile(xa, n_edges), np.tile(xb, n_edges)
    v_a, v_mid, v_b = (profiles.values(pid.ravel(), xs, at).reshape(-1, 4)
                       for xs in (np.repeat(xa, 4), at, np.repeat(xb, 4)))
    return pid, xa, xb, v_a, v_mid, v_b


def _crossing_stations(edge_groups, mandatory: list[float], profiles: _Profiles) -> list[float]:
    """x positions where profiles on the two sides of a plan edge cross.

    Over each interval between mandatory stations where both sides of an
    edge are solid, two of its four profiles cross where their difference
    changes sign between the interval ends; the crossing is interpolated
    linearly.  The list is unordered.
    """
    pid, xa, xb, v_a, _, v_b = _edge_intervals(
        edge_groups, np.asarray(mandatory, dtype=np.float64), profiles)
    i, j = np.triu_indices(4, 1)
    da, db = v_a[:, i] - v_a[:, j], v_b[:, i] - v_b[:, j]
    row, k = np.nonzero((da * db < 0.0) & np.all(pid >= 0, axis=1)[:, None])
    da, db = da[row, k], db[row, k]
    t = da / (da - db)
    return (xa[row] + t * (xb[row] - xa[row])).tolist()


def _stations(regions: list[PlanRegion], edge_groups, profiles: _Profiles,
              x_segments: int) -> list[float]:
    """The x stations of a tessellation: mandatory and crossing stations,
    each interval between them split into ``x_segments`` equal parts."""
    mandatory = _mandatory_stations(regions)
    tol = 1e-12 * max(1.0, mandatory[-1] - mandatory[0])
    crossings = _crossing_stations(edge_groups, mandatory, profiles)
    keep = _merge_stations(mandatory, crossings, tol)
    out = []
    for k in range(len(keep) - 1):
        xa, xb = keep[k], keep[k + 1]
        for s in range(x_segments):
            out.append(xa + (xb - xa) * s / x_segments)
    out.append(keep[-1])
    return out


def _weld(rows: np.ndarray):
    """Group the equal rows of an (n, 3) array with one stable lexsort.

    Returns ``(first, group)``: groups are numbered in lexicographic row
    order, ``first[g]`` is the index of the first row of group ``g`` and
    ``group[i]`` the group of row ``i``.  Rows compare with ``!=``, so for
    float rows 0.0 and -0.0 are one group.
    """
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    ordered = rows[order]
    start = np.empty(len(rows), dtype=bool)
    start[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=start[1:])
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = np.cumsum(start) - 1
    return order[start], group


class _Builder:
    """Collects triangles in blocks; ``finish`` welds and orients them.

    The emitters hand over blocks of triangles as raw corners and the
    direction each normal must face.  ``finish`` keys every corner on the
    ``LATTICE`` grid (``np.rint``, half to even), welds equal keys into one
    vertex that keeps the coordinates of its first corner, and numbers the
    vertices in the order their first corners were added.  It drops a
    triangle with a repeated vertex or a zero orientation score, the dot
    product of the direction with the cross product of the raw corners, and
    winds the rest so that the score is positive.
    """

    def __init__(self):
        self.corners: list[np.ndarray] = []     # (m, 3, 3) blocks
        self.directions: list[np.ndarray] = []  # (m, 3) blocks

    def add(self, corners: np.ndarray, directions: np.ndarray):
        self.corners.append(corners)
        self.directions.append(directions)

    def finish(self) -> TriangleMesh:
        points = np.concatenate(self.corners).reshape(-1, 3)
        first, group = _weld(np.rint(points * LATTICE).astype(np.int64))
        by_occurrence = np.argsort(first)
        vertex_id = np.empty(len(first), dtype=np.int64)
        vertex_id[by_occurrence] = np.arange(len(first))
        tris = vertex_id[group].reshape(-1, 3)

        a, b, c = points[0::3], points[1::3], points[2::3]
        d = np.concatenate(self.directions)
        ux, uy, uz = (b - a).T
        vx, vy, vz = (c - a).T
        nx = uy * vz - uz * vy
        ny = uz * vx - ux * vz
        nz = ux * vy - uy * vx
        s = nx * d[:, 0] + ny * d[:, 1] + nz * d[:, 2]
        keep = ((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 0] != tris[:, 2]) & (s != 0.0))
        flip = ~(s > 0.0)
        tris[flip] = tris[flip][:, [0, 2, 1]]
        return TriangleMesh(vertices=points[first[by_occurrence]], triangles=tris[keep])


class _VerticalFaces:
    """Collects vertical wall faces and the z-nodes on every vertical line.

    Faces meeting along a vertical line (x, y) must subdivide it identically,
    otherwise hairline T-junctions open up at profile jumps. Emission is
    therefore deferred: first every skin corner and every face corner is
    recorded as an (x, y, z) node, then each face is triangulated against
    the union of nodes on its two lines with a zipper walk.

    Nodes are keyed on the ``LATTICE`` grid; a line is one (x, y) key, and
    the nodes of a line with one z key are one level of it.  A level takes
    the z of the node noted first, except where several distinct floats
    share its key (profiles crossing at a station agree only to an ulp):
    there it takes the one that a set of the line's z values, filled in
    noting order, yields last, as keying a dict on that set does.  Meshes
    then come out the same, bit for bit, as from building per-line sets
    while noting.
    """

    def __init__(self):
        self.nodes: list[np.ndarray] = []       # (n, 3) blocks
        self.n_nodes = 0
        self.faces: list[np.ndarray] = []       # first of the four nodes of each face
        self.directions: list[np.ndarray] = []  # (n, 3) blocks

    def note(self, points: np.ndarray):
        """Record (n, 3) points as nodes of their vertical lines."""
        self.nodes.append(points)
        self.n_nodes += len(points)

    def add(self, xa, ya, za0, za1, xb, yb, zb0, zb1, directions):
        """Add the faces spanning z from za0 to za1 on line (xa, ya) and from
        zb0 to zb1 on line (xb, yb); every argument is an array, one entry
        (one row of ``directions``) per face."""
        swap_a, swap_b = za0 > za1, zb0 > zb1
        za0, za1 = np.where(swap_a, za1, za0), np.where(swap_a, za0, za1)
        zb0, zb1 = np.where(swap_b, zb1, zb0), np.where(swap_b, zb0, zb1)
        corners = np.stack([
            np.stack([xa, ya, za0], axis=1), np.stack([xa, ya, za1], axis=1),
            np.stack([xb, yb, zb0], axis=1), np.stack([xb, yb, zb1], axis=1),
        ], axis=1)
        self.faces.append(self.n_nodes + 4 * np.arange(len(xa)))
        self.directions.append(directions)
        self.note(corners.reshape(-1, 3))

    def _levels(self, nodes: np.ndarray):
        """``(level, z)``: the level of every node, numbered by line and
        then by z key, and the z of every level."""
        keys = np.rint(nodes * LATTICE).astype(np.int64)
        first, level = _weld(keys)
        z = nodes[first, 2]
        clash = np.unique(level[nodes[:, 2] != z[level]])
        if clash.size:
            line_keys = keys[first, :2]
            new_line = np.ones(len(first), dtype=bool)
            new_line[1:] = np.any(line_keys[1:] != line_keys[:-1], axis=1)
            line = np.cumsum(new_line) - 1  # of every level
            for ln in np.unique(line[clash]):
                on_line = np.flatnonzero(line[level] == ln)
                last = {round(v * LATTICE): v for v in set(nodes[on_line, 2].tolist())}
                for lv in clash[line[clash] == ln]:
                    z[lv] = last[round(z[lv] * LATTICE)]
        return level, z

    def emit(self, builder: _Builder):
        nodes = np.concatenate(self.nodes)
        level, level_z = self._levels(nodes)

        # The chain of a face side runs from its low node to its high node
        # through every level of the line in between: a level lies strictly
        # between the two z keys exactly when its number does.
        face = np.concatenate(self.faces)
        lo = np.stack([face, face + 2], axis=1).ravel()  # left, right per face
        hi = lo + 1
        length = level[hi] - level[lo] + 1
        side = np.repeat(np.arange(len(lo)), length)
        start = np.cumsum(length) - length
        pos = np.arange(len(side)) - start[side]
        chain_z = level_z[level[lo][side] + pos]
        chain_z[start] = nodes[lo, 2]
        top = length > 1
        chain_z[(start + length - 1)[top]] = nodes[hi[top], 2]
        chain = np.column_stack([nodes[lo[side], 0], nodes[lo[side], 1], chain_z])

        # The zipper walk merges the two chains of a face above their first
        # nodes in z order, the left one first on a tie.  Each merged node
        # closes a triangle with the nodes the walk stands on in both chains.
        step = np.flatnonzero(pos > 0)
        step = step[np.lexsort((side[step] % 2, chain_z[step], side[step] // 2))]
        step_face = side[step] // 2
        is_right = side[step] % 2
        face_start = np.searchsorted(step_face, step_face)
        right_before = np.cumsum(is_right) - is_right
        right_before -= right_before[face_start]
        left_before = np.arange(len(step)) - face_start - right_before
        corners = np.stack([
            chain[start[2 * step_face] + left_before],
            chain[start[2 * step_face + 1] + right_before],
            chain[step],
        ], axis=1)
        builder.add(corners, np.concatenate(self.directions)[step_face])


_UP, _DOWN = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
_PLUS_Y, _MINUS_Y = (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)
_PLUS_X, _MINUS_X = (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)


def _skin_quads(chains, chain_pieces, x: np.ndarray, profiles: _Profiles) -> np.ndarray:
    """Top and bottom skins of all chains as (m, 2, 4, 3) quad corners.

    Each station interval of a chain is covered by exactly one piece, picked
    by the interval midpoint, so near-coincident stations can never
    double-cover a strip; it gives its z_hi quad and then its z_lo quad.
    """
    xa, xb = x[:-1], x[1:]
    mid = 0.5 * (xa + xb)
    rows, ys, z_hi, z_lo = [], [], [], []
    for chain, piece in zip(chains, chain_pieces):
        k = np.flatnonzero(piece >= 0)
        y_lo, y_hi = chain[0].y_lo, chain[0].y_hi  # shared by the whole chain
        rows.append(k)
        ys.append(np.stack([y_lo.value(xa[k]), y_hi.value(xa[k]),
                            y_hi.value(xb[k]), y_lo.value(xb[k])], axis=1))
        z_hi.append(profiles.ids([r.z_hi for r in chain], piece[k]))
        z_lo.append(profiles.ids([r.z_lo for r in chain], piece[k]))
    k = np.concatenate(rows)
    xa, xb, mid = xa[k], xb[k], mid[k]
    px = np.stack([xa, xa, xb, xb], axis=1)
    py = np.concatenate(ys)
    quads = []
    for pid in (np.concatenate(z_hi), np.concatenate(z_lo)):
        za, zb = profiles.values(pid, xa, mid), profiles.values(pid, xb, mid)
        quads.append(np.stack([px, py, np.stack([za, za, zb, zb], axis=1)], axis=2))
    return np.stack(quads, axis=1)


def _bands(walls, v_mid, v_a, v_b, xa, ya, xb, yb, toward_left, toward_right):
    """Add the exposed bands of walls between two sides to ``walls``.

    Each row is one wall face from line (xa, ya) to line (xb, yb) with the
    ``(m, 4)`` profile values of ``_Profiles.sides`` at its two lines and in
    between (``v_a``, ``v_b``, ``v_mid``).  The bands lie between
    consecutive values of ``v_mid``, and a band is added where exactly one
    side is solid there, facing ``toward_left`` if that is the left side
    and ``toward_right`` if not; its ends take the same two profiles' values
    in ``v_a`` and ``v_b``.  A void side's two values are NaN, which sorts
    last and fails every comparison, so it neither bounds a band nor counts
    as solid.  A band of zero height adds a face of no area, which gives no
    triangle.
    """
    order = np.argsort(v_mid, axis=1, kind="stable")
    ranked = np.take_along_axis(v_mid, order, axis=1)
    band_mid = 0.5 * (ranked[:, :-1] + ranked[:, 1:])
    in_left = (v_mid[:, :1] <= band_mid) & (band_mid <= v_mid[:, 1:2])
    in_right = (v_mid[:, 2:3] <= band_mid) & (band_mid <= v_mid[:, 3:])
    row, k = np.nonzero(in_left != in_right)
    f_lo, f_hi = order[row, k], order[row, k + 1]
    walls.add(xa[row], ya[row], v_a[row, f_lo], v_a[row, f_hi],
              xb[row], yb[row], v_b[row, f_lo], v_b[row, f_hi],
              np.where(in_left[row, k, None], toward_left, toward_right))


def _edge_bands(walls, edge_groups, x: np.ndarray, profiles: _Profiles):
    """Exposed wall faces along every plan edge, station interval by interval.

    Below and above an edge in y lie pieces; over an interval either side
    may be missing (void).  ``_bands`` finds the exposed bands from the
    profile values at the interval midpoint, the one band rule that
    ``_station_bands`` uses too.
    """
    _, xa, xb, v_a, v_mid, v_b = _edge_intervals(edge_groups, x, profiles)
    ya = np.concatenate([line.value(x[:-1]) for line, _, _ in edge_groups])
    yb = np.concatenate([line.value(x[1:]) for line, _, _ in edge_groups])
    _bands(walls, v_mid, v_a, v_b, xa, ya, xb, yb, _PLUS_Y, _MINUS_Y)


def _station_bands(walls, chains, chain_pieces, x: np.ndarray, profiles: _Profiles):
    """Exposed wall faces of every chain at its stations.

    At each station the pieces of the intervals on either side may differ
    (a profile jumps, or the chain starts or ends).  A station wall runs
    across the chain from y_lo to y_hi, so its values are the same at both
    lines and in between: ``_bands``, the band rule of ``_edge_bands``, gets
    the station values for all three.  A station with the same two profile
    values on both sides has only bands of zero height, or none.
    """
    mid = 0.5 * (x[:-1] + x[1:])
    none = np.array([-1])
    slots, ya, yb = [], [], []
    for chain, piece in zip(chains, chain_pieces):
        slots.append(profiles.sides(chain, np.concatenate([none, piece]),
                                    chain, np.concatenate([piece, none])))
        ya.append(chain[0].y_lo.value(x))
        yb.append(chain[0].y_hi.value(x))
    n_chains = len(slots)
    # the left pieces are evaluated at the midpoint of the interval before
    # the station, the right ones at the midpoint of the interval after it
    mid_l, mid_r = np.concatenate([[np.nan], mid]), np.concatenate([mid, [np.nan]])
    at = np.tile(np.stack([mid_l, mid_l, mid_r, mid_r], axis=1), (n_chains, 1)).ravel()
    xs = np.tile(x, n_chains)
    v = profiles.values(np.concatenate(slots).ravel(), np.repeat(xs, 4), at).reshape(-1, 4)
    _bands(walls, v, v, v, xs, np.concatenate(ya), xs, np.concatenate(yb), _PLUS_X, _MINUS_X)


def tessellate(regions: list[PlanRegion], x_segments: int = 8) -> tuple[TriangleMesh, MeshReport]:
    """Triangulate the solid bounded by the plan regions: ``(mesh, report)``,
    the report from the mesh's one ``validate_mesh``.

    The mesh is watertight and outward-oriented; a failed stitch raises
    StitchFailure with the offending edges attached.
    """
    if x_segments < 1:
        raise ValueError("x_segments must be >= 1")
    edge_groups = _edge_groups(regions)
    profiles = _Profiles(regions)
    x = np.asarray(_stations(regions, edge_groups, profiles, x_segments), dtype=np.float64)
    mid = 0.5 * (x[:-1] + x[1:])
    chains = _chain_groups(regions)
    chain_pieces = [_pieces_at(chain, mid) for chain in chains]
    walls = _VerticalFaces()

    # The skins are noted first so that their corners take part in the
    # vertical-line subdivision, then emitted as plain quads.
    skins = _skin_quads(chains, chain_pieces, x, profiles)
    walls.note(skins.reshape(-1, 3))
    # Wall faces along plan edges (slanted key faces, outer walls), then at
    # stations where profiles jump or a chain starts or ends.
    _edge_bands(walls, edge_groups, x, profiles)
    _station_bands(walls, chains, chain_pieces, x, profiles)

    builder = _Builder()
    # each quad (p00, p01, p11, p10) is the triangles (p00, p01, p11), (p00, p11, p10)
    builder.add(skins[:, :, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3, 3),
                np.tile([_UP, _UP, _DOWN, _DOWN], (len(skins), 1)))
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


def analytic_volume(derived: PkwDerived, fixed: PkwFixed) -> float:
    """Closed-form solid volume integrated region by region.

    Independent of the tessellation: integrates width(x) * height(x) per
    region with Simpson's rule on each linear piece, which is exact for the
    quadratic integrand.  Every piece of every region is evaluated in one
    batch, and the terms are summed one after another in region order.
    """
    regions = build_regions(derived, fixed)
    profiles = _Profiles(regions)
    region, xa, xb = [], [], []
    for k, r in enumerate(regions):
        cuts = sorted({r.x0, r.x1} | {
            b for prof in (r.z_lo, r.z_hi) for b in prof.breaks if r.x0 < b < r.x1
        })
        region += [k] * (len(cuts) - 1)
        xa += cuts[:-1]
        xb += cuts[1:]
    xa, xb = np.array(xa), np.array(xb)
    mid = 0.5 * (xa + xb)
    # f(x) = height * width at the two ends and the midpoint of every piece
    x, at, region = np.concatenate([xa, mid, xb]), np.tile(mid, 3), np.tile(region, 3)
    h = (profiles.values(profiles.ids([r.z_hi for r in regions], region), x, at)
         - profiles.values(profiles.ids([r.z_lo for r in regions], region), x, at))
    y_lo = np.array([(r.y_lo.a, r.y_lo.b) for r in regions])[region].T
    y_hi = np.array([(r.y_hi.a, r.y_hi.b) for r in regions])[region].T
    f_a, f_mid, f_b = (h * ((y_hi[0] + y_hi[1] * x) - (y_lo[0] + y_lo[1] * x))).reshape(3, -1)
    terms = (xb - xa) / 6.0 * (f_a + 4.0 * f_mid + f_b)
    # a running sum adds in the order the loop over regions and pieces did
    return float(np.cumsum(terms)[-1])


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
    _, undirected = _edge_keys(TriangleMesh(vertices=v, triangles=tris))
    keys, counts = np.unique(undirected, return_counts=True)
    border_a, border_b = np.divmod(keys[counts == 1], len(v))
    y_wall_lo, y_wall_hi = v[:, 1].min(), v[:, 1].max()
    pa, pb = v[border_a], v[border_b]
    on_wall = ((np.abs(pa[:, 1] - y_wall_lo) <= tol) & (np.abs(pb[:, 1] - y_wall_lo) <= tol)) | (
        (np.abs(pa[:, 1] - y_wall_hi) <= tol) & (np.abs(pb[:, 1] - y_wall_hi) <= tol))
    pa, pb = pa[~on_wall], pb[~on_wall]

    dx = pb[:, 0] - pa[:, 0]
    dy = pb[:, 1] - pa[:, 1]
    transverse = np.abs(dx) <= tol
    total = float(np.hypot(dx[transverse], dy[transverse]).sum()) / 2.0

    # Streamwise edges group into plan lines: sorted by slope, a gap of more
    # than tol starts a new slope group, and inside a group, sorted by
    # intercept, a gap of more than tol starts a new line.  Gaps rather than
    # rounded keys, so that edges of one line whose intercepts straddle a
    # half lattice step stay together.  A line keeps the slope of its first
    # edge and the extent of all of them; slope groups come in the order
    # their first edges do, lines inside a group by intercept, so that
    # consecutive lines pair into wall strips.
    k = np.flatnonzero(~transverse)
    if k.size == 0:
        return total
    slope = dy[k] / dx[k]
    intercept = pa[k, 1] - slope * pa[k, 0]
    by_slope = np.argsort(slope, kind="stable")
    group_of = np.empty(len(k), dtype=np.int64)
    group_of[by_slope] = np.concatenate(([0], np.cumsum(np.diff(slope[by_slope]) > tol)))
    order = np.lexsort((intercept, group_of))
    new_group_at = np.ones(len(order), dtype=bool)
    new_group_at[1:] = group_of[order][1:] != group_of[order][:-1]
    new_line = new_group_at.copy()
    new_line[1:] |= np.diff(intercept[order]) > tol
    line_start = np.flatnonzero(new_line)
    first = np.minimum.reduceat(order, line_start)
    xa, xb = pa[k, 0][order], pb[k, 0][order]
    lo = np.minimum.reduceat(np.minimum(xa, xb), line_start)
    hi = np.maximum.reduceat(np.maximum(xa, xb), line_start)
    line_slope = slope[first]
    new_group = new_group_at[line_start]
    group = np.cumsum(new_group) - 1
    if np.any(np.bincount(group) % 2):
        raise StitchFailure("crest trace found an unpaired sidewall line")
    group_rank = np.minimum.reduceat(first, np.flatnonzero(new_group))[group]
    seq = np.argsort(group_rank, kind="stable")
    a, b = seq[0::2], seq[1::2]
    extent = np.maximum(hi[a], hi[b]) - np.minimum(lo[a], lo[b])
    for e, s in zip(extent.tolist(), line_slope[a].tolist()):
        total += e * math.hypot(1.0, s)
    return total


def solid_mesh(derived: PkwDerived, fixed: PkwFixed, x_segments: int = 8) -> TriangleMesh:
    """Convenience wrapper: build regions and tessellate; the mesh alone."""
    return tessellate(build_regions(derived, fixed), x_segments=x_segments)[0]
