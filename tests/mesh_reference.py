"""Scalar references for the array code of ``pkwbench.mesh``.

``value`` evaluates a height profile at one point, and ``_piece_at``,
``_crossing_stations``, ``_stations`` and ``analytic_volume`` are the
station and volume code that ``pkwbench.mesh`` ran one profile value at a
time before it evaluated profiles only in bulk.  ``_Builder``,
``_VerticalFaces``, ``_interval_bands``, ``_station_bands`` and the loops
of ``tessellate`` are the emission that ``pkwbench.mesh`` used before it
recorded corners in arrays and welded them in one numpy pass: each corner
is keyed on the lattice and looked up in a dict as it is added, every
vertical line keeps a Python set of the z values noted on it, and every
profile is evaluated one station at a time.  ``tessellate`` takes its
stations from ``_stations`` here; chains, edge groups, mandatory stations
and the station merge come from ``pkwbench.mesh``.  The differential tests
in ``test_mesh.py`` require ``pkwbench.mesh`` to give the same stations,
volumes, vertices and triangles as the code here, bit for bit.
``crest_trace_length`` is the crest trace written with Python loops:
edges are grouped into slope groups and plan lines one at a time.
"""

import math
from bisect import bisect_right

import numpy as np

from pkwbench.errors import EmptyMesh, StitchFailure
from pkwbench.mesh import (
    LATTICE,
    TriangleMesh,
    _chain_groups,
    _edge_groups,
    _mandatory_stations,
    _merge_stations,
    build_regions,
)


def value(prof, x: float, at: float) -> float:
    """Profile ``prof`` at x, on its row for the interval that holds ``at``."""
    a, b, lo, hi = prof.rows[bisect_right(prof.cuts, at)]
    v = a + b * x
    if v < lo:
        return lo
    if v > hi:
        return hi
    return v


def _piece_at(pieces, x: float):
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
            va = [value(f, xa, mid) for f in funcs]
            vb = [value(f, xb, mid) for f in funcs]
            for i in range(4):
                for j in range(i + 1, 4):
                    da = va[i] - va[j]
                    db = vb[i] - vb[j]
                    if da * db < 0.0:
                        t = da / (da - db)
                        out.append(xa + t * (xb - xa))
    return out


def _stations(regions, x_segments: int) -> list[float]:
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


def analytic_volume(derived, fixed) -> float:
    """Simpson's rule on every linear piece of every region, summed one
    piece at a time."""
    regions = build_regions(derived, fixed)
    total = 0.0
    for r in regions:
        cuts = sorted({r.x0, r.x1} | {
            b for prof in (r.z_lo, r.z_hi) for b in prof.breaks if r.x0 < b < r.x1
        })
        for xa, xb in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (xa + xb)

            def f(x):
                h = value(r.z_hi, x, mid) - value(r.z_lo, x, mid)
                return h * r.width(x)

            total += (xb - xa) / 6.0 * (f(xa) + 4.0 * f(mid) + f(xb))
    return total


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
    mids = [value(f, mid, mid) for f in funcs]
    order = sorted(range(len(funcs)), key=mids.__getitem__)
    ya, yb = y_line.value(xa), y_line.value(xb)
    for k in range(len(order) - 1):
        f_lo, f_hi = funcs[order[k]], funcs[order[k + 1]]
        band_mid = 0.5 * (mids[order[k]] + mids[order[k + 1]])
        in_left = (left is not None
                   and value(left.z_lo, mid, mid) <= band_mid <= value(left.z_hi, mid, mid))
        in_right = (right is not None
                    and value(right.z_lo, mid, mid) <= band_mid <= value(right.z_hi, mid, mid))
        if in_left == in_right:
            continue
        direction = (0.0, 1.0, 0.0) if in_left else (0.0, -1.0, 0.0)
        walls.add(xa, ya, value(f_lo, xa, mid), value(f_hi, xa, mid),
                  xb, yb, value(f_lo, xb, mid), value(f_hi, xb, mid), direction)


def _station_bands(walls, x_s, y_lo, y_hi, left, right, mid_l, mid_r):
    """Exposed wall faces at one station of a streamwise chain."""
    lz0 = lz1 = rz0 = rz1 = None
    vals = []
    if left is not None:
        lz0, lz1 = value(left.z_lo, x_s, mid_l), value(left.z_hi, x_s, mid_l)
        vals += [lz0, lz1]
    if right is not None:
        rz0, rz1 = value(right.z_lo, x_s, mid_r), value(right.z_hi, x_s, mid_r)
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


def tessellate(regions, x_segments: int = 8) -> TriangleMesh:
    """The emission of ``pkwbench.mesh.tessellate``, unvalidated."""
    if x_segments < 1:
        raise ValueError("x_segments must be >= 1")
    stations = _stations(regions, x_segments)
    chains = _chain_groups(regions)
    builder = _Builder()
    walls = _VerticalFaces()
    skins = []

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
                z_a, z_b = value(prof, xa, mid), value(prof, xb, mid)
                skins.append(((xa, ya0, z_a), (xa, ya1, z_a), (xb, yb1, z_b), (xb, yb0, z_b), direction))
                for p in skins[-1][:4]:
                    walls.note_corner(*p)

    for line, below, above in _edge_groups(regions):
        for k in range(len(stations) - 1):
            xa, xb = stations[k], stations[k + 1]
            mid = 0.5 * (xa + xb)
            _interval_bands(walls, xa, xb, line, _piece_at(below, mid), _piece_at(above, mid), mid)

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
                lz = (value(left.z_lo, x_s, mid_l), value(left.z_hi, x_s, mid_l))
                rz = (value(right.z_lo, x_s, mid_r), value(right.z_hi, x_s, mid_r))
                if lz == rz:
                    continue
            _station_bands(walls, x_s, y_lo, y_hi, left, right, mid_l, mid_r)

    for p00, p01, p11, p10, direction in skins:
        builder.add_quad(p00, p01, p11, p10, direction)
    walls.emit(builder)
    return builder.finish()


def crest_trace_length(mesh: TriangleMesh, tol: float = 1e-9) -> float:
    """Developed crest centreline length recovered from the crest skin."""
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

    streamwise = [int(k) for k in np.nonzero(~transverse)[0]]
    slope = {k: dy[k] / dx[k] for k in streamwise}
    intercept = {k: pa[k, 1] - slope[k] * pa[k, 0] for k in streamwise}
    groups: list[list[int]] = []
    for k in sorted(streamwise, key=lambda k: slope[k]):
        if groups and slope[k] - slope[groups[-1][-1]] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    for group in sorted(groups, key=min):
        lines: list[list[int]] = []
        for k in sorted(group, key=lambda k: intercept[k]):
            if lines and intercept[k] - intercept[lines[-1][-1]] <= tol:
                lines[-1].append(k)
            else:
                lines.append([k])
        if len(lines) % 2:
            raise StitchFailure("crest trace found an unpaired sidewall line")
        for m in range(0, len(lines), 2):
            xs_a = [x for k in lines[m] for x in (pa[k, 0], pb[k, 0])]
            xs_b = [x for k in lines[m + 1] for x in (pa[k, 0], pb[k, 0])]
            extent = max(max(xs_a), max(xs_b)) - min(min(xs_a), min(xs_b))
            total += extent * math.hypot(1.0, slope[min(lines[m])])
    return total
