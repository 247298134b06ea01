"""Binary STL reading and writing.

Layout: 80-byte header (tool tag plus geometry id), uint32 triangle count,
then per triangle a unit normal (3 x float32), three vertices (9 x float32)
and a zero uint16 attribute, all little-endian. A tetrahedron is exactly
84 + 4 * 50 = 284 bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .atomic import _atomic_write
from .errors import EmptyMesh, MalformedStl
from .mesh import TriangleMesh

_TOOL_TAG = b"pkwbench-solid"

_RECORD = np.dtype([
    ("normal", "<3f4"),
    ("v0", "<3f4"),
    ("v1", "<3f4"),
    ("v2", "<3f4"),
    ("attr", "<u2"),
])


def write_stl(path, mesh: TriangleMesh, geometry_id: str = "") -> None:
    """Write a binary STL; normals are recomputed from the winding."""
    if mesh.n_triangles == 0:
        raise EmptyMesh("refusing to write an STL with no triangles")
    v = mesh.vertices
    t = mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    normals = np.cross(b - a, c - a)
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0.0] = 1.0
    normals = normals / norms[:, None]

    records = np.zeros(len(t), dtype=_RECORD)
    records["normal"] = normals.astype(np.float32)
    records["v0"] = a.astype(np.float32)
    records["v1"] = b.astype(np.float32)
    records["v2"] = c.astype(np.float32)

    header = (_TOOL_TAG + b" " + geometry_id.encode("ascii", "replace"))[:80]
    header = header.ljust(80, b"\0")
    with _atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(struct.pack("<I", len(t)))
        fh.write(records.tobytes())


def read_stl(path) -> TriangleMesh:
    """Read a binary STL as its raw triangle corners.

    The vertices are the corners in file order, as float64, and triangle
    ``i`` is ``(3i, 3i + 1, 3i + 2)``: no vertex is shared, so the mesh is
    not welded.  Each triangle keeps its corner coordinates, which is all
    that surface sampling reads.  A truncated or over-long file raises
    ``MalformedStl`` and a file with no triangles ``EmptyMesh``.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 84:
        raise MalformedStl(f"{path}: file shorter than the 84-byte fixed part")
    (count,) = struct.unpack_from("<I", raw, 80)
    expected = 84 + 50 * count
    if len(raw) != expected:
        raise MalformedStl(
            f"{path}: declares {count} triangles ({expected} bytes) but has {len(raw)} bytes"
        )
    if count == 0:
        raise EmptyMesh(f"{path}: STL contains no triangles")
    records = np.frombuffer(raw, dtype=_RECORD, count=count, offset=84)

    flat = np.stack([records["v0"], records["v1"], records["v2"]], axis=1).reshape(-1, 3)
    return TriangleMesh(
        vertices=flat.astype(np.float64),
        triangles=np.arange(len(flat), dtype=np.int64).reshape(-1, 3),
    )
