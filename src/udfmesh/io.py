"""Mesh, point-cloud and weight-file readers and writers.

OBJ is the canonical interchange format (ASCII, ``%.8g`` vertex precision);
PLY is written binary little-endian with double-precision positions so a
round trip is exact. Point clouds are whitespace-separated XYZ text.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .mesh import TriMesh


class MeshFormatError(ValueError):
    pass


def write_obj(mesh: TriMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("# udfmesh OBJ\n")
        for v in mesh.vertices:
            fh.write("v %.8g %.8g %.8g\n" % (v[0], v[1], v[2]))
        for f in mesh.faces:
            fh.write("f %d %d %d\n" % (f[0] + 1, f[1] + 1, f[2] + 1))


def read_obj(path) -> TriMesh:
    verts, faces = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if parts[0] == "v":
                    v = [float(x) for x in parts[1:4]]
                    if not all(map(math.isfinite, v)):
                        raise ValueError(f"vertex {len(verts) + 1} is not finite")
                    verts.append(v)
                elif parts[0] == "f":
                    idx = [int(p.split("/")[0]) for p in parts[1:]]
                    if len(idx) < 3:
                        raise ValueError("face with fewer than 3 vertices")
                    # fan-triangulate polygons; indices are 1-based
                    for k in range(1, len(idx) - 1):
                        faces.append([idx[0] - 1, idx[k] - 1, idx[k + 1] - 1])
            except (ValueError, IndexError) as exc:
                raise MeshFormatError(f"{path}:{lineno}: bad OBJ line: {exc}")
    return _mesh(path, verts, faces)


def _mesh(path, vertices, faces) -> TriMesh:
    """The mesh read from ``path``; a vertex or face it refuses names the file."""
    try:
        return TriMesh(vertices, faces)
    except ValueError as exc:
        raise MeshFormatError(f"{path}: {exc}")


def write_ply(mesh: TriMesh, path) -> None:
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {mesh.n_vertices}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {mesh.n_faces}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(mesh.vertices.astype("<f8").tobytes())
        body = bytearray()
        for f in mesh.faces:
            body += struct.pack("<Biii", 3, int(f[0]), int(f[1]), int(f[2]))
        fh.write(bytes(body))


def read_ply(path) -> TriMesh:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"ply":
            raise MeshFormatError(f"{path}: not a PLY file")
        fmt = None
        n_verts = n_faces = 0
        vertex_props = []
        current = None
        while True:
            line = fh.readline()
            if not line:
                raise MeshFormatError(f"{path}: unterminated PLY header")
            parts = line.split()
            if parts[0] == b"format":
                fmt = parts[1]
            elif parts[0] == b"element":
                current = parts[1]
                if current == b"vertex":
                    n_verts = int(parts[2])
                elif current == b"face":
                    n_faces = int(parts[2])
            elif parts[0] == b"property" and current == b"vertex":
                vertex_props.append((parts[1], parts[2]))
            elif parts[0] == b"end_header":
                break
        if fmt != b"binary_little_endian":
            raise MeshFormatError(f"{path}: only binary little-endian PLY supported")

        dtype_map = {b"float": "<f4", b"float32": "<f4",
                     b"double": "<f8", b"float64": "<f8"}
        try:
            vdtype = np.dtype([(f"p{i}", dtype_map[t]) for i, (t, _) in
                               enumerate(vertex_props)])
        except KeyError as exc:
            raise MeshFormatError(f"{path}: unsupported vertex property type {exc}")
        raw = np.frombuffer(fh.read(vdtype.itemsize * n_verts), dtype=vdtype,
                            count=n_verts)
        verts = np.stack([raw[f"p{i}"].astype(np.float64) for i in range(3)], axis=1)

        faces = np.empty((n_faces, 3), dtype=np.int64)
        for i in range(n_faces):
            (count,) = struct.unpack("<B", fh.read(1))
            idx = struct.unpack("<" + "i" * count, fh.read(4 * count))
            if count != 3:
                raise MeshFormatError(f"{path}: face {i} has {count} vertices; "
                                      "only triangles supported")
            faces[i] = idx
    return _mesh(path, verts, faces)


def write_mesh(mesh: TriMesh, path) -> None:
    """Dispatch on extension: .obj or .ply."""
    path = str(path)
    if path.lower().endswith(".ply"):
        write_ply(mesh, path)
    else:
        write_obj(mesh, path)


def read_mesh(path) -> TriMesh:
    path = str(path)
    if path.lower().endswith(".ply"):
        return read_ply(path)
    return read_obj(path)


def write_xyz(points: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(points, dtype=np.float64).reshape(-1, 3),
               fmt="%.10g")


def read_xyz(path) -> np.ndarray:
    try:
        pts = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise MeshFormatError(f"{path}: bad XYZ data: {exc}")
    if pts.shape[1] < 3:
        raise MeshFormatError(f"{path}: expected 3 columns, found {pts.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(pts[:, :3]).all(axis=1))
    if bad.size:
        raise MeshFormatError(f"{path}: point {bad[0]} is not finite: "
                              f"{tuple(pts[bad[0], :3].tolist())}")
    return pts[:, :3]
