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

The index walks the mesh scaled by a power of two to a bounding box 1/2
to 1 long, so tiny meshes do not underflow the walk's fourth-power
products. Every array the walk reads is a contiguous (n, 3) block gathered
with ``take``, so each step is one flat loop over its rows: a strided
corner view costs one inner loop per row, and a numpy call holds the GIL
while it starts, so short calls keep a second sampling worker waiting. On
a 2-core x86-64 VM (one BLAS thread), the 65^3 lattice of the bench
garment samples in 0.58-0.61 s with one worker and 0.47-0.52 s with two,
against 0.90-1.02 s and 0.66-0.77 s with strided corners and fancy
indexing.
"""

from __future__ import annotations

import numpy as np

FANOUT = 4            # children per tree node; a leaf is one triangle
# Step sizes. What one sampling worker holds is their product: a
# 32,768-point MeshUdf query traces at most 2.8 MiB on the bench garment and
# 3.1 MiB on near-axis points of a 720-face tube, where every face survives
# (tests/test_distance.py bounds both at 3.5 MiB). Larger steps make longer
# numpy calls, which run beside another worker's for longer: BATCH and
# SETTLE at 8192 sample the 65^3 garment lattice about 10% faster with two
# workers, but hold 1.0-1.3 MiB more per worker
BATCH = 2048          # points per traversal; bounds the per-point arrays
PAIRS = 1 << 14       # (point, child box) rows per pruning step, about 110 B each
SETTLE = 4096         # (point, triangle) pairs per closest-point call, but
                      # whole points; each pair holds about 300 B of temporaries
SLACK = 1e-9          # relative widening of every pruning radius
MORTON_BITS = 10      # centroid quantization per axis for the build order
# largest coordinate magnitude of a vertex or query point: the closest-point
# walk multiplies two dot products of coordinate differences, a fourth power
# of the coordinates, and below 1e75 those stay under 432e300, inside float64
COORD_LIMIT = 1e75


def _corner_table(tri: np.ndarray) -> tuple[np.ndarray, ...]:
    """Corners a, b, c and edge vectors b - a, c - a, c - b of the triangles
    (n, 3, 3), each a contiguous (n, 3) array: the walk then runs every
    step as one flat loop over 3n values, where a strided corner view
    costs one inner loop per row."""
    a, b, c = (np.ascontiguousarray(tri[:, k]) for k in range(3))
    return a, b, c, b - a, c - a, c - b


def _rows(x: np.ndarray) -> np.ndarray:
    """A contiguous (n, 3) float array viewed as n 24-byte items, so that a
    row gather or scatter is one flat copy per row."""
    return x.view(_ROW).reshape(len(x))


_ROW = np.dtype((np.void, 24))


def _closest_points(p: np.ndarray, corners: tuple[np.ndarray, ...],
                    slot: np.ndarray) -> np.ndarray:
    """Closest point to p[i] on the triangle slot[i] of the
    ``_corner_table`` ``corners``, for (n, 3) points p. Returns (n, 3).

    Each row is first assigned its region (vertex A, B, C, edge AB, AC, BC,
    then interior, the first test that holds wins) and only that region's
    expression is evaluated on its rows; only the rows of edge BC gather
    c - b.
    """
    a, b, c, ab, ac = (x.take(slot, axis=0) for x in corners[:5])
    ap, bp, cp = p - a, p - b, p - c
    # every dot product is the einsum of the sweep, over contiguous rows
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    del ap, bp, cp

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    # the first region whose test holds: tests assigned last to first
    region = np.full(len(p), 6, dtype=np.int8)                     # interior
    region[(va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)] = 5         # edge BC
    region[(vb <= 0) & (d2 >= 0) & (d6 <= 0)] = 4                   # edge AC
    region[(vc <= 0) & (d1 >= 0) & (d3 <= 0)] = 3                   # edge AB
    region[(d6 >= 0) & (d5 <= d6)] = 2                              # vertex C
    region[(d3 >= 0) & (d4 <= d3)] = 1                              # vertex B
    region[(d1 <= 0) & (d2 <= 0)] = 0                               # vertex A
    order = np.argsort(region, kind="stable")
    ends = np.searchsorted(region.take(order), np.arange(7, dtype=np.int8), side="right")
    rows = np.split(order, ends[:-1])

    out = np.empty((len(p), 3))
    o = _rows(out)
    for corner, i in zip((a, b, c), rows[:3]):
        o[i] = _rows(corner).take(i)

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros_like(num), where=den != 0)

    i = rows[3]
    n1 = d1.take(i)
    v = ratio(n1, n1 - d3.take(i))
    o[i] = _rows(a.take(i, axis=0) + v[:, None] * ab.take(i, axis=0))

    i = rows[4]
    n2 = d2.take(i)
    w = ratio(n2, n2 - d6.take(i))
    o[i] = _rows(a.take(i, axis=0) + w[:, None] * ac.take(i, axis=0))

    i = rows[5]
    num = d4.take(i) - d3.take(i)
    w = ratio(num, num + (d5.take(i) - d6.take(i)))
    o[i] = _rows(b.take(i, axis=0) + w[:, None] * corners[5].take(slot.take(i), axis=0))

    i = rows[6]
    inv = ratio(np.ones(len(i)), va.take(i) + vb.take(i) + vc.take(i))
    o[i] = _rows(a.take(i, axis=0) + (vb.take(i) * inv)[:, None] * ab.take(i, axis=0)
                 + (vc.take(i) * inv)[:, None] * ac.take(i, axis=0))
    return out


def _check_coordinates(pts: np.ndarray, what: str, limit: float) -> None:
    """Raise ``ValueError`` naming the first row of ``pts`` with a
    coordinate that is not finite or exceeds ``limit`` in magnitude."""
    bad = np.flatnonzero(~(np.abs(pts) <= limit).all(axis=1))
    if len(bad):
        x, y, z = pts[bad[0]]
        raise ValueError(f"{what} {bad[0]} is not finite or exceeds {limit:g} "
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
    """Squared distance from each point q[i] to its box [lo[i], hi[i]], all
    contiguous (n, 3): the offset to the box's nearest point. Overwrites
    ``lo``, a fresh gather at every call.

    Every step is monotone in the box, and the squares add in one fixed
    order, so a box inside another never gets the smaller result."""
    t = np.maximum(lo, q, out=lo)
    np.minimum(t, hi, out=t)
    t -= q
    t *= t
    return t[:, 0] + t[:, 1] + t[:, 2]


class MeshDistanceIndex:
    """Exact nearest-point queries against a fixed triangle soup."""

    def __init__(self, vertices: np.ndarray, faces: np.ndarray):
        vertices = np.asarray(vertices, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.int64)
        if len(faces) == 0:
            raise ValueError("mesh has no triangles")
        _check_coordinates(vertices, "vertex", COORD_LIMIT)
        triangles = vertices[faces]
        centroids = triangles.mean(axis=1)
        # farthest vertex-to-centroid distance: the mesh's length scale
        self.max_spread = float(np.linalg.norm(
            triangles - centroids[:, None, :], axis=2).max())
        # The walk runs on the mesh scaled by 2^-k, whose bounding box is
        # 1/2 to 1 long: a power of two scales every sum, product and
        # quotient of the walk exactly, so the distances and closest
        # points scaled back are bitwise the unscaled walk's wherever that
        # stays clear of underflow, and right at any scale. A coordinate
        # must also stay within COORD_LIMIT once scaled.
        self._k = int(np.frexp(np.ptp(triangles.reshape(-1, 3), axis=0).max())[1])
        self._limit = float(np.ldexp(COORD_LIMIT, min(self._k, 0)))
        _check_coordinates(vertices, "vertex", self._limit)
        triangles = np.ldexp(triangles, -self._k)
        # a pruning radius also covers the rounding of the distances it is
        # compared with, which scales with the coordinates
        self._atol = 1e-12 * (1.0 + float(np.abs(triangles).max()))

        self._face = _morton_order(centroids)          # sorted slot -> face
        triangles = triangles[self._face]
        # per slot: the corners and edge vectors the walk reads
        self._corners = _corner_table(triangles)
        lo, hi = triangles.min(axis=1), triangles.max(axis=1)
        # levels below the root, deepest (the triangles) last, as the lo and
        # hi corners of each parent's FANOUT children, parent-major, shape
        # (parents * FANOUT, 3); NaN boxes pad the last parent and fail
        # every test
        self._levels = []
        while len(lo) > 1:
            starts = np.arange(0, len(lo), FANOUT)
            pad = np.full((len(starts) * FANOUT - len(lo), 3), np.nan)
            self._levels.insert(0, tuple(np.vstack([c, pad]) for c in (lo, hi)))
            lo = np.minimum.reduceat(lo, starts, axis=0)
            hi = np.maximum.reduceat(hi, starts, axis=0)
        # a single-leaf mesh (at most FANOUT triangles) needs no bound, and
        # only a tree pays for importing scipy
        self._tree = None
        if len(self._levels) > 1:
            from scipy.spatial import cKDTree
            self._tree = cKDTree(triangles.mean(axis=1))

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances and closest surface points for (n, 3) queries.

        Raises ``ValueError`` naming the first point with a coordinate that
        is not finite or exceeds ``COORD_LIMIT`` in magnitude, or in units
        of the mesh's scale for a mesh smaller than 1.
        """
        # C-ordered rows keep every step of the walk one flat loop
        points = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)
        _check_coordinates(points, "query point", self._limit)
        d = np.empty(len(points))
        cp = np.empty((len(points), 3))
        for s in range(0, len(points), BATCH):
            p = np.ldexp(points[s:s + BATCH], -self._k)
            self._query_batch(p, d[s:s + BATCH], cp[s:s + BATCH])
        return np.ldexp(d, self._k, out=d), np.ldexp(cp, self._k, out=cp)

    def _query_batch(self, p: np.ndarray, d: np.ndarray, cp: np.ndarray) -> None:
        n, m = len(p), len(self._face)
        if self._tree is None:
            self._settle(p, np.repeat(np.arange(n), m), np.tile(np.arange(m), n), d, cp)
            return
        reach2 = self._reach2(p)
        # pairs stay grouped by point in ascending order, and every point
        # keeps at least one pair, so a slice at a point boundary is a
        # query of its own
        children = np.arange(FANOUT)
        pending = [(0, np.arange(n), np.zeros(n, dtype=np.int64))]
        while pending:
            depth, pid, node = pending.pop()
            while depth < len(self._levels):
                if len(pid) * FANOUT > PAIRS and pid[0] != pid[-1]:
                    cut = np.searchsorted(pid, (pid[0] + pid[-1] + 1) // 2)
                    pending.append((depth, pid[cut:], node[cut:]))
                    pid, node = pid[:cut], node[:cut]
                    continue
                # every (point, child box) pair as one flat row
                pid = np.repeat(pid, FANOUT)
                node = (node[:, None] * FANOUT + children).ravel()
                lo, hi = self._levels[depth]
                keep = np.flatnonzero(
                    _box_d2(p.take(pid, axis=0), lo.take(node, axis=0), hi.take(node, axis=0))
                    <= reach2.take(pid))
                pid, node = pid.take(keep), node.take(keep)
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
        diff = p - _closest_points(p, self._corners, near)
        reach = np.sqrt(np.einsum("ij,ij->i", diff, diff)) * (1.0 + SLACK) + self._atol
        lo, hi = (c.take(near, axis=0) for c in self._levels[-1])
        return np.maximum(reach * reach, _box_d2(p, lo, hi))

    def _settle(self, p, pid, tri, d, cp) -> None:
        """Evaluate the (point, triangle) pairs of the points pid[0]..pid[-1]
        and write each point's winner: the smallest squared distance, then
        the lowest face index."""
        q = p.take(pid, axis=0)
        c = _closest_points(q, self._corners, tri)
        diff = q - c
        d2 = np.einsum("ij,ij->i", diff, diff)
        first = pid[0]
        group = pid - first
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        tie = d2 == np.minimum.reduceat(d2, starts).take(group)
        face = self._face.take(tri)
        lowest = np.minimum.reduceat(np.where(tie, face, len(self._face)), starts)
        win = np.flatnonzero(tie & (face == lowest.take(group)))
        d[first:pid[-1] + 1] = np.sqrt(d2.take(win))
        cp[first:pid[-1] + 1] = c.take(win, axis=0)
