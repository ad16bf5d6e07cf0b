"""Independent reference implementations the tests check the library against.

Everything here is deliberately written plain and separate from the library
paths it validates: corner sums of every cell of a whole lattice, a
per-cell signed marching cubes with its own interpolation and
coordinate-keyed welding, an O(n^2) Chamfer scan, a loop-based MLP forward
pass, the Fourier encoding evaluated directly at every coordinate, the
allocating MLP forward and reverse pass that recomputes the encoding's sines
and cosines, lattice sampling that evaluates values and gradients at every
corner in one pass, per-vertex / per-edge loop versions of vertex normals,
outward border vectors and border smoothing, a per-face loop z-buffer, and the
exact mesh distance as a sweep over the faces with a closest-point kernel
that evaluates every region for every pair, and extraction as it ran
before the corner table: ``np.unique`` over (m, 8, 3) and (m, 12, 3)
corner coordinates for the corner table, the gradient corners and the
weld, and a ``searchsorted`` of every uncut edge for the disagreement
count. Only the published case tables and the camera frame (``look_at``)
are shared, since they are fixed reference data, not what the oracles
check; the extraction oracle also reuses the library stages it does not
check (``sample_band``'s cells and values, the cull and the pseudo-sign).
The binary PLY writer packs one face at a time with ``struct``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from udfmesh.mc_tables import (CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE, EDGE_CORNERS,
                               EDGE_CORNERS_LOW_HIGH, TRI_TABLE)
from udfmesh.render import IMAGE_SIZE, VFOV_DEG, look_at


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


def direct_positional_encoding(pts: np.ndarray, order: int) -> np.ndarray:
    """The Fourier features of ``mlp`` with the sines and cosines evaluated
    at every coordinate, however often it repeats."""
    feats = [pts]
    for k in range(order):
        w = (2.0 ** k) * np.pi
        feats.append(np.sin(w * pts))
        feats.append(np.cos(w * pts))
    return np.concatenate(feats, axis=1)


def allocating_mlp_query(net, pts: np.ndarray, grad: bool, sens: bool):
    """``MlpUdf`` queries as one allocating pass: every layer's bias add and
    rectifier make new arrays, every pre-activation is kept, and the
    encoding Jacobian recomputes its sines and cosines. Returns
    (u, g, s, pre_acts) with g and s None unless asked for."""
    order = net.encoding_order
    h = direct_positional_encoding(pts, order)
    if net.latent_dim:
        h = np.concatenate([h, np.broadcast_to(net.latent, (len(pts), net.latent_dim))],
                           axis=1)
    pre_acts = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = h @ w.T + b
        pre_acts.append(a)
        h = np.maximum(a, 0.0) if i < len(net.weights) - 1 else a
    raw = h[:, 0]
    u = np.abs(raw)
    clamped = None
    if net.d_max is not None:
        clamped = u >= net.d_max
        u = np.minimum(u, net.d_max)
    if not (grad or sens):
        return u, None, None, pre_acts

    delta = np.sign(raw)[:, None]
    if clamped is not None:
        delta = np.where(clamped[:, None], 0.0, delta)
    for i in range(len(net.weights) - 1, 0, -1):
        delta = delta @ net.weights[i]
        delta = delta * (pre_acts[i - 1] > 0)
    grad_in = delta @ net.weights[0]
    enc_cols = 3 * (1 + 2 * order)
    g = s = None
    if grad:
        g = grad_in[:, 0:3].copy()
        col = 3
        for k in range(order):
            w = (2.0 ** k) * np.pi
            g += grad_in[:, col:col + 3] * (w * np.cos(w * pts))
            col += 3
            g += grad_in[:, col:col + 3] * (-w * np.sin(w * pts))
            col += 3
    if sens:
        s = grad_in[:, enc_cols:].copy()
    return u, g, s, pre_acts


def allocating_hidden_sign_pattern(net, pts: np.ndarray) -> np.ndarray:
    """Concatenated rectifier on/off pattern plus the output sign, from
    every kept pre-activation.

    Finite differences are only trustworthy where this pattern is
    constant across the probe points (the network is piecewise linear)."""
    pre_acts = allocating_mlp_query(net, pts, False, False)[3]
    return np.concatenate([a > 0 for a in pre_acts], axis=1)


def eager_sample_grid(field, spec, chunk: int):
    """(u, g): value and gradient at every lattice corner from one
    ``eval_grad`` pass over x-fastest chunks of ``chunk`` corners, [i, j, k]
    indexed, shapes (N, N, N) and (N, N, N, 3)."""
    n = spec.resolution
    pts = spec.corner_points()
    u, g = np.empty(n ** 3), np.empty((n ** 3, 3))
    for s in range(0, n ** 3, chunk):
        u[s:s + chunk], g[s:s + chunk] = field.eval_grad(pts[s:s + chunk])
    return (np.ascontiguousarray(u.reshape(n, n, n).transpose(2, 1, 0)),
            np.ascontiguousarray(g.reshape(n, n, n, 3).transpose(2, 1, 0, 3)))


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


def loop_render_view(mesh, eye, target, size: int = IMAGE_SIZE,
                     vfov_deg: float = VFOV_DEG) -> tuple[np.ndarray, np.ndarray]:
    """The z-buffer as one loop over faces in face order: a face takes a
    pixel only where its 1/depth is strictly larger than the buffer's, so
    among equal depths the lowest face index keeps the pixel. Returns
    (silhouette bool (H,W), normal map (H,W,3))."""
    sil = np.zeros((size, size), dtype=bool)
    normals = np.zeros((size, size, 3))
    if mesh.is_empty():
        return sil, normals

    frame = look_at(np.asarray(eye, float), np.asarray(target, float))
    cam = (mesh.vertices - eye) @ frame.T
    focal = 1.0 / np.tan(np.radians(vfov_deg) / 2.0)

    tri_cam = cam[mesh.faces]
    depths = tri_cam[..., 2]
    ok = (depths > 1e-9).all(axis=1)
    if not ok.any():
        return sil, normals

    # NDC in [-1, 1], then pixel centers
    ndc = tri_cam[..., :2] * focal / depths[..., None]
    px = (ndc + 1.0) * 0.5 * size - 0.5
    inv_z = 1.0 / depths

    face_normals = mesh.face_normals()
    zbuf = np.zeros((size, size))

    for f in np.flatnonzero(ok):
        p = px[f]
        # clamped before the cast, which past int64 would give INT_MIN
        lo = np.floor(np.clip(p.min(axis=0), 0, size)).astype(int)
        hi = np.ceil(np.clip(p.max(axis=0), -1, size - 1)).astype(int)
        x0, y0 = np.maximum(lo, 0)
        x1, y1 = np.minimum(hi, size - 1)
        if x1 < x0 or y1 < y0:
            continue
        xs = np.arange(x0, x1 + 1)
        ys = np.arange(y0, y1 + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")

        v0 = p[1] - p[0]
        v1 = p[2] - p[0]
        den = v0[0] * v1[1] - v0[1] * v1[0]
        if abs(den) < 1e-14:
            continue
        dx = gx - p[0, 0]
        dy = gy - p[0, 1]
        w1 = (dx * v1[1] - dy * v1[0]) / den
        w2 = (dy * v0[0] - dx * v0[1]) / den
        w0 = 1.0 - w1 - w2
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        if not inside.any():
            continue
        z = w0 * inv_z[f, 0] + w1 * inv_z[f, 1] + w2 * inv_z[f, 2]
        closer = inside & (z > zbuf[gx, gy])
        if not closer.any():
            continue
        gi, gj = gx[closer], gy[closer]
        zbuf[gi, gj] = z[closer]
        sil[gi, gj] = True
        normals[gi, gj] = face_normals[f]
    return sil, normals


def settle_closest_points(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Closest point on triangle i to point i: all seven Voronoi-region
    candidates are built for every row, then each row takes the first
    region (A, B, C, AB, AC, BC, interior) whose test holds."""
    p = np.asarray(points, dtype=np.float64)
    tri = np.asarray(triangles, dtype=np.float64)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, ac = b - a, c - a
    ap, bp, cp = p - a, p - b, p - c
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    out = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def settle(mask, value):
        fresh = mask & ~done
        out[fresh] = value[fresh]
        done[fresh] = True

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros_like(num), where=den != 0)

    settle((d1 <= 0) & (d2 <= 0), a)
    settle((d3 >= 0) & (d4 <= d3), b)
    settle((d6 >= 0) & (d5 <= d6), c)
    vc = d1 * d4 - d3 * d2
    settle((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + ratio(d1, d1 - d3)[:, None] * ab)
    vb = d5 * d2 - d1 * d6
    settle((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + ratio(d2, d2 - d6)[:, None] * ac)
    va = d3 * d6 - d5 * d4
    settle((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
           b + ratio(d4 - d3, (d4 - d3) + (d5 - d6))[:, None] * (c - b))
    inv = ratio(np.ones(len(p)), va + vb + vc)
    settle(np.ones(len(p), dtype=bool),
           a + (vb * inv)[:, None] * ab + (vc * inv)[:, None] * ac)
    return out


def sweep_mesh_distance(vertices: np.ndarray, faces: np.ndarray,
                        points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance and closest point of each point by one pass over the faces
    in face order: a face replaces the best only when its squared distance
    is strictly smaller, so among exact ties the lowest face index wins."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    triangles = np.asarray(vertices, dtype=np.float64)[np.asarray(faces)]
    n = len(points)
    best_d2 = np.full(n, np.inf)
    best_cp = np.zeros((n, 3))
    for tri in triangles:
        cp = settle_closest_points(points, np.broadcast_to(tri, (n, 3, 3)))
        d2 = np.einsum("ij,ij->i", points - cp, points - cp)
        better = d2 < best_d2
        best_d2[better] = d2[better]
        best_cp[better] = cp[better]
    return np.sqrt(best_d2), best_cp


def unique_corner_table(spec, cells) -> tuple[np.ndarray, np.ndarray]:
    """(ids, index) of the corners of ``cells``: ``np.unique`` with
    ``return_inverse`` over their (m, 8) corner ids, in CORNER_OFFSETS order."""
    corner_ids = spec.corner_linear_index(spec.cell_origin_ijk(np.asarray(cells))[:, None, :]
                                          + CORNER_OFFSETS)
    ids, inverse = np.unique(corner_ids, return_inverse=True)
    return ids, inverse.reshape(corner_ids.shape)


def unique_cell_gradients(gradients, spec, ijk: np.ndarray) -> np.ndarray:
    """(m, 8, 3) gradients at the corners of the cells with min corners
    ``ijk`` from one ``gradients(ids)`` call on their ``np.unique`` ids."""
    corner_ids = spec.corner_linear_index(ijk[:, None, :] + CORNER_OFFSETS)
    needed, inverse = np.unique(corner_ids, return_inverse=True)
    return gradients(needed)[inverse.reshape(corner_ids.shape)]


def unique_weld(spec, cells_ijk: np.ndarray, s: np.ndarray):
    """Case-table triangulation of sorted cells, welded by ``np.unique`` over
    the cut edge ids in (cell, edge) order: each vertex is computed by the
    first cell that cuts its edge. The disagreements are the cut edge ids
    that ``searchsorted`` finds among the uncut ones. Returns (mesh,
    vertex_ids, disagreements)."""
    from udfmesh.mesh import TriMesh, empty_mesh
    n = spec.resolution
    ids = EDGE_AXIS * n ** 3 + spec.corner_linear_index(cells_ijk[:, None, :] + EDGE_BASE)
    neg = s < 0
    lo, hi = EDGE_CORNERS_LOW_HIGH.T
    cut = neg[:, lo] != neg[:, hi]
    if not cut.any():
        return empty_mesh(), ids[cut], 0

    cell_of, edge_of = np.nonzero(cut)
    vertex_ids, first, inverse = np.unique(ids[cut], return_index=True, return_inverse=True)
    c, ca, cb = cell_of[first], lo[edge_of[first]], hi[edge_of[first]]
    axes = np.stack([spec.axis_coords(a) for a in range(3)])
    pa = axes[np.arange(3), cells_ijk[c] + CORNER_OFFSETS[ca]]
    pb = axes[np.arange(3), cells_ijk[c] + CORNER_OFFSETS[cb]]
    t = s[c, ca] / (s[c, ca] - s[c, cb])
    vertices = pa + t[:, None] * (pb - pa)

    vertex_of = np.full(cut.shape, -1, dtype=np.int64)
    vertex_of[cut] = inverse
    faces = []
    for cell, case in enumerate(neg @ (1 << np.arange(8))):
        faces.extend(vertex_of[cell, TRI_TABLE[case]])
    uncut = ids[~cut]
    pos = np.minimum(np.searchsorted(vertex_ids, uncut), len(vertex_ids) - 1)
    hit = np.zeros(len(vertex_ids), dtype=bool)
    hit[pos[vertex_ids[pos] == uncut]] = True
    return TriMesh(vertices, np.array(faces, dtype=np.int64)), vertex_ids, int(hit.sum())


def unique_extract_mesh_detailed(field, spec, cull_factor: float = 1.0,
                                 grad_norm_min: float = 0.3, threads=None, samples=None):
    """``extract_mesh_detailed`` with the sort-based stages: the candidate
    corners by ``unique_cell_gradients`` and the weld and disagreement count
    by ``unique_weld``. Cells and corner values come from ``sample_band``
    or, for a given value lattice, from ``_lattice_band``. Timings stay
    empty."""
    from udfmesh.extract import (CORNERS_BOUND, CORNERS_DENSE, CORNERS_GIVEN,
                                 ExtractStats, _pseudo_sign)
    from udfmesh.grid import _cull, _lattice_band, _sample_corners, sample_band
    stats = ExtractStats(total_cells=spec.n_cells, total_corners=spec.resolution ** 3)
    upper = cull_factor * spec.cell_diagonal
    if samples is None:
        cells, u8, _, stats.corners_evaluated = sample_band(field, spec, -np.inf, upper,
                                                            threads)
        stats.corner_source = CORNERS_DENSE if field.lipschitz is None else CORNERS_BOUND
    else:
        cells, u8 = _lattice_band(samples, -np.inf, upper)
        stats.corner_source = CORNERS_GIVEN
    keep = _cull(u8, spec, cull_factor)
    cand, u8 = cells[keep], u8[keep]
    stats.candidate_cells = len(cand)
    stats.culled_cells = stats.total_cells - len(cand)
    ijk = spec.cell_origin_ijk(cand)
    g8 = unique_cell_gradients(lambda ids: _sample_corners(field, spec, threads, True, ids)[1],
                               spec, ijk)
    s, _, has_anchor = _pseudo_sign(u8, g8, grad_norm_min)
    crossing = (s < 0).any(axis=1)
    stats.skipped_no_anchor = int((~has_anchor).sum())
    stats.skipped_no_crossing = int((~crossing).sum())
    stats.triangulated_cells = int(crossing.sum())
    mesh, _, stats.edge_disagreements = unique_weld(spec, ijk[has_anchor], s)
    return mesh, stats


def unique_inflate_mesh(field, spec, eps: float):
    """``inflate_mesh`` with the weld of ``unique_weld``."""
    from udfmesh.grid import sample_band
    cells, u8, _, _ = sample_band(field, spec, eps, eps)
    s = u8 - eps
    inside = (s < 0).sum(axis=1)
    active = (inside > 0) & (inside < 8)
    return unique_weld(spec, spec.cell_origin_ijk(cells[active]), s[active])[0]


def struct_write_ply(mesh, path) -> None:
    """Binary little-endian PLY, double positions, each face packed on its
    own as ``<Biii`` (a count of 3, then three int32 indices)."""
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


def loop_write_obj(mesh, path) -> None:
    """OBJ text written one ``%`` format per vertex and per face."""
    with open(path, "w") as fh:
        fh.write("# udfmesh OBJ\n")
        for v in mesh.vertices:
            fh.write("v %.8g %.8g %.8g\n" % (v[0], v[1], v[2]))
        for f in mesh.faces:
            fh.write("f %d %d %d\n" % (f[0] + 1, f[1] + 1, f[2] + 1))
