"""Mesh and point-cloud readers and writers.

OBJ is the canonical interchange format (ASCII, ``%.8g`` vertex precision);
PLY is written binary little-endian with double-precision positions so a
round trip is exact. Point clouds are whitespace-separated XYZ text. A
reader returns its value or raises ``MeshFormatError`` naming the file.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .mesh import TriMesh


class MeshFormatError(ValueError):
    """A mesh or point-cloud file that cannot be read; the message names it."""


def write_obj(mesh: TriMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("# udfmesh OBJ\n")
        for v in mesh.vertices:
            fh.write("v %.8g %.8g %.8g\n" % (v[0], v[1], v[2]))
        for f in mesh.faces:
            fh.write("f %d %d %d\n" % (f[0] + 1, f[1] + 1, f[2] + 1))


def read_obj(path) -> TriMesh:
    verts, faces = [], []
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if parts[0] == "v":
                    v = [float(x) for x in parts[1:4]]
                    if len(v) < 3:
                        raise ValueError(f"vertex {len(verts) + 1} has {len(v)} coordinates")
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


# one binary PLY face record: a vertex count, then three vertex indices
_PLY_FACE = np.dtype([("count", "u1"), ("index", "<i4", (3,))])
_PLY_REAL = {"float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8"}
# face lists read as _PLY_FACE: a uint index of 2^31 or more reads negative, refused
_PLY_LISTS = {f"list {count} {index}" for count in ("uchar", "uint8")
              for index in ("int", "int32", "uint", "uint32")}


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
    faces = np.empty(mesh.n_faces, _PLY_FACE)
    faces["count"] = 3
    faces["index"] = mesh.faces
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(mesh.vertices.astype("<f8").tobytes())
        fh.write(faces.tobytes())


def read_ply(path) -> TriMesh:
    """A binary little-endian PLY of triangles, each face one list of a
    uchar count and int or uint indices; the first three vertex properties,
    float or double, are x, y and z."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"ply":
            raise MeshFormatError(f"{path}: not a PLY file")
        fmt, counts, types, face, element = None, {}, [], [], None
        while (line := fh.readline()).strip() != b"end_header":
            if not line:
                raise MeshFormatError(f"{path}: unterminated PLY header")
            words = line.decode("ascii", "replace").split()
            try:
                key, *rest = words
                if key == "format":
                    fmt = rest[0]
                elif key == "element":
                    element = rest[0]
                    counts[element] = int(rest[1])
                elif key == "property" and element == "vertex":
                    types.append(rest[0])
                elif key == "property" and element == "face":
                    face.append(" ".join(rest[:-1]))
            except (ValueError, IndexError):
                raise MeshFormatError(f"{path}: bad PLY header line {' '.join(words)!r}")
        body = fh.read()
    if fmt != "binary_little_endian":
        raise MeshFormatError(f"{path}: only binary little-endian PLY supported")
    if len(types) < 3 or not set(types) <= _PLY_REAL.keys():
        raise MeshFormatError(f"{path}: vertex properties {' '.join(types)!r} are not "
                              "x, y, z first, each float or double")
    if "face" in counts and (len(face) != 1 or face[0] not in _PLY_LISTS):
        raise MeshFormatError(f"{path}: face properties {'; '.join(face)!r} are not one "
                              "list of a uchar count and int or uint indices")
    vertex = np.dtype([(f"p{i}", _PLY_REAL[t]) for i, t in enumerate(types)])
    n_verts, n_faces = counts.get("vertex", 0), counts.get("face", 0)
    if min(n_verts, n_faces) < 0 or (
            len(body) < vertex.itemsize * n_verts + _PLY_FACE.itemsize * n_faces):
        raise MeshFormatError(f"{path}: PLY data of {len(body)} bytes does not hold "
                              f"{n_verts} vertices and {n_faces} faces")
    raw = np.frombuffer(body, vertex, n_verts)
    faces = np.frombuffer(body, _PLY_FACE, n_faces, offset=raw.nbytes)
    # the records before the first non-triangle are aligned, so it is face i
    bad = np.flatnonzero(faces["count"] != 3)
    if bad.size:
        raise MeshFormatError(f"{path}: face {bad[0]} has {faces['count'][bad[0]]} "
                              "vertices; only triangles supported")
    return _mesh(path, np.stack([raw[f"p{i}"] for i in range(3)], axis=1), faces["index"])


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
        with warnings.catch_warnings():
            # an empty file is refused below, not warned about
            warnings.simplefilter("ignore")
            pts = np.loadtxt(path, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise MeshFormatError(f"{path}: bad XYZ data: {exc}")
    if pts.size == 0:
        raise MeshFormatError(f"{path}: holds no points")
    if pts.shape[1] < 3:
        raise MeshFormatError(f"{path}: expected 3 columns, found {pts.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(pts[:, :3]).all(axis=1))
    if bad.size:
        raise MeshFormatError(f"{path}: point {bad[0]} is not finite: "
                              f"{tuple(pts[bad[0], :3].tolist())}")
    return pts[:, :3]
