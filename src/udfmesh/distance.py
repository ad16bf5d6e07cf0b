"""Exact point-to-triangle-mesh distance queries.

The closest-point routine is the standard Voronoi-region walk (vertex, edge
and face regions checked in turn), vectorized over point/triangle pairs.

``MeshDistanceIndex`` answers a query exactly through a bounding-volume
hierarchy of triangle boxes (Ericson, *Real-Time Collision Detection*,
2005, ch. 6). The triangles are sorted by the Morton code of their
centroids and merged ``FANOUT`` at a time into axis-aligned boxes, level by
level, up to one root (the linear build of Karras, HPG 2012). A query
point first gets an upper bound: its exact distance to the triangle with
the nearest centroid. (point, box) pairs are then pruned level by level,
keeping every box no farther than that bound, and every surviving
(point, triangle) pair is evaluated in flat closest-point calls of whole
points, up to ``SETTLE`` pairs each, so a sampling worker's temporaries
stay small however many pairs a batch keeps. Each
point keeps the smallest squared distance, and among exact ties the lowest
face index, which is the rule of a sweep over the faces in order: the
result is bitwise that of the sweep. A mesh of at most ``FANOUT``
triangles has no box to prune and evaluates every pair.
"""

from __future__ import annotations

import numpy as np

FANOUT = 4            # children per tree node; a leaf is one triangle
BATCH = 2048          # points per traversal; bounds the per-point arrays
PAIRS = 1 << 14       # (point, box) pairs per pruning step, about 100 B each
SETTLE = 4096         # (point, triangle) pairs per closest-point call, but
                      # whole points; each pair holds about 360 B of temporaries.
                      # With PAIRS, this bounds what a sampling worker holds
SLACK = 1e-9          # relative widening of every pruning radius
MORTON_BITS = 10      # centroid quantization per axis for the build order
# largest coordinate magnitude of a vertex or query point: the closest-point
# walk multiplies two dot products of coordinate differences, a fourth power
# of the coordinates, and below 1e75 those stay under 432e300, inside float64
COORD_LIMIT = 1e75


def closest_point_on_triangles(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Closest point on triangle i to point i, for paired inputs.

    points: (n, 3); triangles: (n, 3, 3). Returns (n, 3).

    Each row is first assigned its region (vertex A, B, C, edge AB, AC, BC,
    then interior, the first test that holds wins) and only that region's
    expression is evaluated on its rows.
    """
    p = np.asarray(points, dtype=np.float64)
    tri = np.asarray(triangles, dtype=np.float64)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]

    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)

    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)

    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    region = np.select([(d1 <= 0) & (d2 <= 0),                       # vertex A
                        (d3 >= 0) & (d4 <= d3),                      # vertex B
                        (d6 >= 0) & (d5 <= d6),                      # vertex C
                        (vc <= 0) & (d1 >= 0) & (d3 <= 0),           # edge AB
                        (vb <= 0) & (d2 >= 0) & (d6 <= 0),           # edge AC
                        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)],  # edge BC
                       np.arange(6, dtype=np.int8), np.int8(6))      # interior
    order = np.argsort(region, kind="stable")
    ends = np.searchsorted(region[order], np.arange(7, dtype=np.int8), side="right")
    rows = np.split(order, ends[:-1])

    out = np.empty_like(p)
    for corner, i in zip((a, b, c), rows[:3]):
        out[i] = corner[i]

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros_like(num), where=den != 0)

    i = rows[3]
    v = ratio(d1[i], d1[i] - d3[i])
    out[i] = a[i] + v[:, None] * ab[i]

    i = rows[4]
    w = ratio(d2[i], d2[i] - d6[i])
    out[i] = a[i] + w[:, None] * ac[i]

    i = rows[5]
    num = d4[i] - d3[i]
    w = ratio(num, num + (d5[i] - d6[i]))
    out[i] = b[i] + w[:, None] * (c[i] - b[i])

    i = rows[6]
    inv = ratio(np.ones(len(i)), va[i] + vb[i] + vc[i])
    out[i] = a[i] + (vb[i] * inv)[:, None] * ab[i] + (vc[i] * inv)[:, None] * ac[i]
    return out


def _check_coordinates(pts: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first row of ``pts`` with a
    coordinate that is not finite or exceeds ``COORD_LIMIT`` in magnitude."""
    bad = np.flatnonzero(~(np.abs(pts) <= COORD_LIMIT).all(axis=1))
    if len(bad):
        x, y, z = pts[bad[0]]
        raise ValueError(f"{what} {bad[0]} is not finite or exceeds {COORD_LIMIT:g} "
                         f"in magnitude: ({x}, {y}, {z})")


def _morton_order(centroids: np.ndarray) -> np.ndarray:
    """Stable order of the centroids along a Z-order curve over their box."""
    lo, hi = centroids.min(axis=0), centroids.max(axis=0)
    scale = (1 << MORTON_BITS) - 1
    q = ((centroids - lo) / np.where(hi > lo, hi - lo, 1.0) * scale).astype(np.uint64)
    code = np.zeros(len(centroids), dtype=np.uint64)
    for bit in range(MORTON_BITS):
        for axis in range(3):
            code |= ((q[:, axis] >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit + axis)
    return np.argsort(code, kind="stable")


def _box_d2(q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance from each point q[i] to its boxes [lo[i], hi[i]],
    of shape (n, 3), or (n, k, 3) for k boxes per point: the offset to the
    box's nearest point. Overwrites ``lo``, a fresh gather at every call.

    Every step is monotone in the box, and the squares add in one fixed
    order, so a box inside another never gets the smaller result."""
    if lo.ndim == 3:
        q = q[:, None, :]
    t = np.maximum(lo, q, out=lo)
    np.minimum(t, hi, out=t)
    t -= q
    t *= t
    return t[..., 0] + t[..., 1] + t[..., 2]


class MeshDistanceIndex:
    """Exact nearest-point queries against a fixed triangle soup."""

    def __init__(self, vertices: np.ndarray, faces: np.ndarray):
        vertices = np.asarray(vertices, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.int64)
        if len(faces) == 0:
            raise ValueError("mesh has no triangles")
        _check_coordinates(vertices, "vertex")
        triangles = vertices[faces]
        centroids = triangles.mean(axis=1)
        # farthest vertex-to-centroid distance: the mesh's length scale
        self.max_spread = float(np.linalg.norm(
            triangles - centroids[:, None, :], axis=2).max())
        # a pruning radius also covers the rounding of the distances it is
        # compared with, which scales with the coordinates
        self._atol = 1e-12 * (1.0 + float(np.abs(triangles).max()))

        self._face = _morton_order(centroids)          # sorted slot -> face
        self._triangles = triangles[self._face]
        lo, hi = self._triangles.min(axis=1), self._triangles.max(axis=1)
        # levels below the root, deepest (the triangles) last, as the lo and
        # hi corners of each parent's FANOUT children, shape (parents,
        # FANOUT, 3); NaN boxes pad the last parent and fail every test
        self._levels = []
        while len(lo) > 1:
            starts = np.arange(0, len(lo), FANOUT)
            pad = np.full((len(starts) * FANOUT - len(lo), 3), np.nan)
            self._levels.insert(0, tuple(np.vstack([c, pad]).reshape(-1, FANOUT, 3)
                                         for c in (lo, hi)))
            lo = np.minimum.reduceat(lo, starts, axis=0)
            hi = np.maximum.reduceat(hi, starts, axis=0)
        # a single-leaf mesh (at most FANOUT triangles) needs no bound, and
        # only a tree pays for importing scipy
        self._tree = None
        if len(self._levels) > 1:
            from scipy.spatial import cKDTree
            self._tree = cKDTree(centroids[self._face])

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances and closest surface points for (n, 3) queries.

        Raises ``ValueError`` naming the first point with a coordinate that
        is not finite or exceeds ``COORD_LIMIT`` in magnitude.
        """
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        _check_coordinates(points, "query point")
        d = np.empty(len(points))
        cp = np.empty((len(points), 3))
        for s in range(0, len(points), BATCH):
            self._query_batch(points[s:s + BATCH], d[s:s + BATCH], cp[s:s + BATCH])
        return d, cp

    def _query_batch(self, p: np.ndarray, d: np.ndarray, cp: np.ndarray) -> None:
        n, m = len(p), len(self._triangles)
        if self._tree is None:
            self._settle(p, np.repeat(np.arange(n), m), np.tile(np.arange(m), n), d, cp)
            return
        reach2 = self._reach2(p)
        # pairs stay grouped by point in ascending order, and every point
        # keeps at least one pair, so a slice at a point boundary is a
        # query of its own
        pending = [(0, np.arange(n), np.zeros(n, dtype=np.int64))]
        while pending:
            depth, pid, node = pending.pop()
            while depth < len(self._levels):
                if len(pid) * FANOUT > PAIRS and pid[0] != pid[-1]:
                    cut = np.searchsorted(pid, (pid[0] + pid[-1] + 1) // 2)
                    pending.append((depth, pid[cut:], node[cut:]))
                    pid, node = pid[:cut], node[:cut]
                    continue
                lo, hi = self._levels[depth]
                keep = _box_d2(p[pid], lo[node], hi[node]) <= reach2[pid, None]
                parent, child = np.nonzero(keep)
                pid, node = pid[parent], node[parent] * FANOUT + child
                depth += 1
            # cut at point boundaries; a point with more pairs is one slice
            s = 0
            while s < len(pid):
                e = s + SETTLE
                if e < len(pid):
                    e = np.searchsorted(pid, pid[e])
                    if e <= s:
                        e = np.searchsorted(pid, pid[s], side="right")
                self._settle(p, pid[s:e], node[s:e], d, cp)
                s = e

    def _reach2(self, p: np.ndarray) -> np.ndarray:
        """Squared pruning radius of each point: its exact distance to the
        triangle with the nearest centroid, widened for rounding. It never
        falls below that triangle's box distance, so the triangle and all
        its ancestors survive every test."""
        _, near = self._tree.query(p)
        diff = p - closest_point_on_triangles(p, self._triangles[near])
        reach = np.sqrt(np.einsum("ij,ij->i", diff, diff)) * (1.0 + SLACK) + self._atol
        lo, hi = (c.reshape(-1, 3)[near] for c in self._levels[-1])
        return np.maximum(reach * reach, _box_d2(p, lo, hi))

    def _settle(self, p, pid, tri, d, cp) -> None:
        """Evaluate the (point, triangle) pairs of the points pid[0]..pid[-1]
        and write each point's winner: the smallest squared distance, then
        the lowest face index."""
        q = p[pid]
        c = closest_point_on_triangles(q, self._triangles[tri])
        diff = q - c
        d2 = np.einsum("ij,ij->i", diff, diff)
        first = pid[0]
        group = pid - first
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        tie = d2 == np.minimum.reduceat(d2, starts)[group]
        face = self._face[tri]
        lowest = np.minimum.reduceat(np.where(tie, face, len(self._face)), starts)
        win = tie & (face == lowest[group])
        d[first:pid[-1] + 1] = np.sqrt(d2[win])
        cp[first:pid[-1] + 1] = c[win]
