"""Surface point clouds: sampling, normalization, persistence.

Clouds live either in world meters or in the unit cube. The stored
transform always maps unit-cube coordinates back to world space as
``world = unit * scale + offset``, so normalization is invertible without
consulting the source mesh.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateExtent, EmptyMesh, MalformedCloud
from .mesh import TriangleMesh

FRAME_WORLD = "world-meters"
FRAME_UNIT = "unit-cube"

_MAGIC = b"WNPC"
_VERSION = 1
_FRAME_FLAGS = {FRAME_WORLD: 0, FRAME_UNIT: 1}
_FLAG_FRAMES = {v: k for k, v in _FRAME_FLAGS.items()}
_HEADER = struct.Struct("<4sHQB4d")  # magic, version, count, frame, scale, offset


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray          # (n, 3) float64
    frame: str
    scale: float                # unit-cube -> world scale [m]
    offset: np.ndarray          # (3,) unit-cube -> world translation [m]
    source_geometry_id: str = ""
    seed: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "offset",
                           np.asarray(self.offset, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if self.offset.shape != (3,):
            raise ValueError("offset must have shape (3,)")
        if self.frame not in _FRAME_FLAGS:
            raise ValueError(f"unknown frame {self.frame!r}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")
        if len(pts) and not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if self.frame == FRAME_UNIT and len(pts):
            if pts.min() < 0.0 or pts.max() > 1.0:
                raise ValueError("unit-cube cloud has coordinates outside [0, 1]")

    @property
    def n_points(self) -> int:
        return len(self.points)


def triangle_areas(mesh: TriangleMesh) -> np.ndarray:
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def sample_surface(mesh: TriangleMesh, n: int, seed: int,
                   geometry_id: str = "", return_indices: bool = False):
    """Draw n points uniformly by area from the mesh surface.

    Triangles are picked by inverse-transform sampling on the cumulative
    area, then each point is placed with uniform barycentric coordinates
    (the unit square folded onto the u + v <= 1 half). With
    return_indices=True the generating triangle of every point is returned
    alongside the cloud.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mesh.n_triangles == 0:
        raise EmptyMesh("cannot sample an empty mesh")
    areas = triangle_areas(mesh)
    total = areas.sum()
    if not total > 0:
        raise EmptyMesh("mesh has zero surface area")
    cum = np.cumsum(areas) / total

    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    idx = np.minimum(idx, len(areas) - 1)
    uv = rng.random((n, 2))
    over = uv.sum(axis=1) > 1.0
    uv[over] = 1.0 - uv[over]
    a = mesh.vertices[mesh.triangles[idx, 0]]
    b = mesh.vertices[mesh.triangles[idx, 1]]
    c = mesh.vertices[mesh.triangles[idx, 2]]
    pts = a + uv[:, :1] * (b - a) + uv[:, 1:] * (c - a)
    cloud = PointCloud(points=pts, frame=FRAME_WORLD, scale=1.0,
                       offset=np.zeros(3), source_geometry_id=geometry_id,
                       seed=seed)
    if return_indices:
        return cloud, idx
    return cloud


def normalize_unit_cube(cloud: PointCloud) -> PointCloud:
    """Isotropically rescale so the tight bounding box fits [0, 1]^3.

    One common factor (the longest box edge) scales all axes, so shape
    proportions and the sidewall inclination survive; the long axis spans
    exactly [0, 1].
    """
    if cloud.frame != FRAME_WORLD:
        raise ValueError("cloud is already normalized")
    if cloud.n_points == 0:
        raise DegenerateExtent("cannot normalize an empty cloud")
    mins = cloud.points.min(axis=0)
    extents = cloud.points.max(axis=0) - mins
    span = extents.max()
    if span < 1e-12:
        raise DegenerateExtent(f"cloud extent {span} m is below 1e-12 m")
    return PointCloud(points=(cloud.points - mins) / span, frame=FRAME_UNIT,
                      scale=span, offset=mins,
                      source_geometry_id=cloud.source_geometry_id,
                      seed=cloud.seed)


def denormalize(cloud: PointCloud) -> PointCloud:
    """Map a unit-cube cloud back to world meters via its transform."""
    if cloud.frame != FRAME_UNIT:
        raise ValueError("cloud is not in the unit cube")
    return PointCloud(points=cloud.points * cloud.scale + cloud.offset,
                      frame=FRAME_WORLD, scale=1.0, offset=np.zeros(3),
                      source_geometry_id=cloud.source_geometry_id,
                      seed=cloud.seed)


def subsample(cloud: PointCloud, n: int, seed: int) -> PointCloud:
    """Seeded draw of n distinct points (without replacement)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cloud.n_points:
        raise ValueError(f"cannot draw {n} from {cloud.n_points} points")
    rng = np.random.default_rng(seed)
    keep = rng.choice(cloud.n_points, size=n, replace=False)
    return PointCloud(points=cloud.points[keep], frame=cloud.frame,
                      scale=cloud.scale, offset=cloud.offset,
                      source_geometry_id=cloud.source_geometry_id, seed=seed)


def write_cloud(path, cloud: PointCloud) -> None:
    """Binary cloud file: fixed header, then n x 3 float32 coordinates."""
    header = _HEADER.pack(_MAGIC, _VERSION, cloud.n_points,
                          _FRAME_FLAGS[cloud.frame], cloud.scale,
                          *cloud.offset)
    payload = cloud.points.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_cloud(path, geometry_id: str = "") -> PointCloud:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise MalformedCloud(f"file is {len(blob)} bytes, header needs {_HEADER.size}")
    magic, version, count, flag, scale, ox, oy, oz = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise MalformedCloud(f"bad magic {magic!r}")
    if version != _VERSION:
        raise MalformedCloud(f"unsupported version {version}")
    if flag not in _FLAG_FRAMES:
        raise MalformedCloud(f"unknown frame flag {flag}")
    expected = _HEADER.size + 12 * count
    if len(blob) != expected:
        raise MalformedCloud(
            f"payload holds {len(blob) - _HEADER.size} bytes, "
            f"{count} points need {12 * count}")
    pts = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    pts = pts.reshape(count, 3).astype(np.float64)
    try:
        return PointCloud(points=pts, frame=_FLAG_FRAMES[flag], scale=scale,
                          offset=np.array([ox, oy, oz]),
                          source_geometry_id=geometry_id)
    except ValueError as exc:
        raise MalformedCloud(str(exc))
