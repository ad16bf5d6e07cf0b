"""Independent reference implementations the tests check the library against.

Everything here is deliberately written plain and separate from the library
paths it validates: corner sums of every cell of a whole lattice, a
per-cell signed marching cubes with its own interpolation and
coordinate-keyed welding, an O(n^2) Chamfer scan, a loop-based MLP forward
pass, and per-vertex / per-edge loop versions of vertex normals, outward
border vectors and border smoothing. Only the published case tables are
shared, since they are fixed reference data.
"""

from __future__ import annotations

import math

import numpy as np

from udfmesh.mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE


def cell_corner_sums(values: np.ndarray) -> np.ndarray:
    """Sum of the 8 corner values of every cell of an [i, j, k] lattice,
    shape (N-1, N-1, N-1); corners add in ``CORNER_OFFSETS`` order."""
    n = values.shape[0]
    out = np.zeros((n - 1,) * 3)
    for dx, dy, dz in CORNER_OFFSETS:
        out += values[dx:dx + n - 1, dy:dy + n - 1, dz:dz + n - 1]
    return out


def signed_marching_cubes(values: np.ndarray, spec) -> tuple[np.ndarray, np.ndarray]:
    """Plain signed marching cubes; corners with value < 0 are inside.

    Vertices are merged by rounding coordinates to 1e-9, not by edge ids.
    Returns (vertices (V, 3), faces (F, 3)).
    """
    n = spec.resolution
    axes = [spec.axis_coords(a) for a in range(3)]
    inside = values < 0

    vert_index: dict = {}
    verts: list = []
    faces: list = []

    # a cell is active when its corners are neither all inside nor all out
    inside_count = np.add.reduce([
        inside[dx:dx + n - 1, dy:dy + n - 1, dz:dz + n - 1].astype(np.int8)
        for dx, dy, dz in CORNER_OFFSETS
    ])
    active = np.argwhere((inside_count > 0) & (inside_count < 8))

    for i, j, k in active:
        vals = [values[i + dx, j + dy, k + dz] for dx, dy, dz in CORNER_OFFSETS]
        case = 0
        for c in range(8):
            if vals[c] < 0.0:
                case |= 1 << c
        tri = TRI_TABLE[case]
        if not tri:
            continue
        cell_vertex = {}
        for e in set(tri):
            a, b = EDGE_CORNERS[e]
            va, vb = vals[a], vals[b]
            t = va / (va - vb)
            oa = CORNER_OFFSETS[a]
            ob = CORNER_OFFSETS[b]
            pa = (axes[0][i + oa[0]], axes[1][j + oa[1]], axes[2][k + oa[2]])
            pb = (axes[0][i + ob[0]], axes[1][j + ob[1]], axes[2][k + ob[2]])
            pos = tuple(pa[c] + t * (pb[c] - pa[c]) for c in range(3))
            key = tuple(round(c * 1e9) for c in pos)
            if key not in vert_index:
                vert_index[key] = len(verts)
                verts.append(pos)
            cell_vertex[e] = vert_index[key]
        for f in range(0, len(tri), 3):
            faces.append((cell_vertex[tri[f]], cell_vertex[tri[f + 1]],
                          cell_vertex[tri[f + 2]]))

    return (np.array(verts, dtype=np.float64).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, 3))


def brute_chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Chamfer distance by exhaustive pairwise scan."""
    d_ab = np.min(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1), axis=1)
    d_ba = np.min(np.sum((b[:, None, :] - a[None, :, :]) ** 2, axis=-1), axis=1)
    return float(d_ab.mean() + d_ba.mean())


def scripted_mlp_forward(data: dict, point) -> float:
    """Forward pass straight off the weight-file dict, all loops."""
    order = data["encoding_order"]
    feats = list(point)
    for k in range(order):
        w = (2.0 ** k) * math.pi
        feats.extend(math.sin(w * c) for c in point)
        feats.extend(math.cos(w * c) for c in point)
    feats.extend([0.0] * data["latent_dim"])

    n_layers = len(data["weights"])
    h = feats
    for layer in range(n_layers):
        w = data["weights"][layer]
        b = data["biases"][layer]
        out = []
        for row, bias in zip(w, b):
            acc = bias
            for wij, hj in zip(row, h):
                acc += wij * hj
            out.append(acc)
        if layer < n_layers - 1:
            h = [max(v, 0.0) for v in out]
        else:
            h = out
    u = abs(h[0])
    if data.get("d_max") is not None:
        u = min(u, data["d_max"])
    return u


def vertex_sets_match(a: np.ndarray, b: np.ndarray, tol: float = 1e-6) -> bool:
    """Same cardinality and mutual nearest-neighbor distance under tol."""
    from scipy.spatial import cKDTree
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    return (cKDTree(b).query(a)[0].max() < tol
            and cKDTree(a).query(b)[0].max() < tol)


def loop_vertex_normals(mesh) -> np.ndarray:
    """Vertex normals by a loop over each vertex's faces in face order, each
    face flipped to agree with the running area-weighted sum."""
    fn = mesh.face_normals(normalize=False)
    out = np.zeros((mesh.n_vertices, 3))
    order = np.argsort(mesh.faces.ravel(), kind="stable")
    flat_faces = mesh.faces.ravel()[order]
    flat_fidx = np.repeat(np.arange(mesh.n_faces), 3)[order]
    starts = np.searchsorted(flat_faces, np.arange(mesh.n_vertices))
    ends = np.searchsorted(flat_faces, np.arange(mesh.n_vertices), side="right")
    for v in range(mesh.n_vertices):
        acc = np.zeros(3)
        for fi in flat_fidx[starts[v]:ends[v]]:
            n = fn[fi]
            acc += -n if acc @ n < 0 else n
        norm = np.linalg.norm(acc)
        if norm < 1e-300 and ends[v] > starts[v]:
            acc = fn[flat_fidx[starts[v]]]
            norm = np.linalg.norm(acc)
        if norm > 0:
            out[v] = acc / norm
    return out


def loop_outward_vectors(mesh, field, alpha: float):
    """Outward border vectors from dicts built edge by edge: the face of the
    first border edge crossed with the neighbour chord (two border edges) or
    the first border edge, signed toward increasing field value."""
    border = mesh.border_edges()
    o = np.zeros((mesh.n_vertices, 3))
    resolved = np.zeros(mesh.n_vertices, dtype=bool)
    if len(border) == 0:
        return o, resolved
    edge_face = {}
    for fi, tri in enumerate(mesh.faces):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge_face.setdefault((min(a, b), max(a, b)), fi)
    neighbors: dict = {}
    first_edge = {}
    for a, b in border:
        a, b = int(a), int(b)
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
        first_edge.setdefault(a, (a, b))
        first_edge.setdefault(b, (b, a))
    fn = mesh.face_normals()
    verts = list(first_edge)
    dirs = np.zeros((len(verts), 3))
    keep = np.zeros(len(verts), dtype=bool)
    for row, v in enumerate(verts):
        a, b = first_edge[v]
        n = fn[edge_face[(min(a, b), max(a, b))]]
        nbrs = neighbors[v]
        if len(nbrs) == 2:
            e = mesh.vertices[nbrs[1]] - mesh.vertices[nbrs[0]]
        else:
            e = mesh.vertices[b] - mesh.vertices[a]
        cross = np.cross(n, e)
        norm = np.linalg.norm(cross)
        if norm < 1e-9:
            continue
        dirs[row] = cross / norm
        keep[row] = True
    vidx = np.array(verts, dtype=np.int64)
    pos = mesh.vertices[vidx[keep]]
    d = dirs[keep]
    u_plus = field.eval(pos + alpha * d)
    u_minus = field.eval(pos - alpha * d)
    sign = np.where(u_plus >= u_minus, 1.0, -1.0)
    o[vidx[keep]] = d * sign[:, None]
    resolved[vidx[keep]] = True
    return o, resolved


def loop_smooth_borders(mesh, steps: int, weight: float) -> np.ndarray:
    """Smoothed vertex positions from a neighbour table filled edge by edge;
    only vertices with exactly two border edges move."""
    border = mesh.border_edges()
    verts = mesh.vertices.copy()
    counts = np.bincount(border.ravel(), minlength=mesh.n_vertices)
    movable = counts == 2
    if len(border) == 0 or steps <= 0 or not movable.any():
        return verts
    nbr = np.full((mesh.n_vertices, 2), -1, dtype=np.int64)
    slot = np.zeros(mesh.n_vertices, dtype=np.int64)
    for a, b in border:
        for v, w in ((a, b), (b, a)):
            if movable[v]:
                nbr[v, slot[v]] = w
                slot[v] += 1
    idx = np.flatnonzero(movable)
    for _ in range(steps):
        mid = 0.5 * (verts[nbr[idx, 0]] + verts[nbr[idx, 1]])
        verts[idx] += weight * (mid - verts[idx])
    return verts
