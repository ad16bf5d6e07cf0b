"""Geometry used only to check outputs.

Everything here is written independently of ``udfmesh``: its own edge
counting, its own area-weighted sampler, an exact point-to-triangle distance
built from plane projection and segment clamping (not the library's
Voronoi-region walk), and a brute-force nearest neighbour.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree


def edge_counts(faces: np.ndarray) -> np.ndarray:
    """Number of faces on each undirected edge."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if len(faces) == 0:
        return np.zeros(0, dtype=np.int64)
    pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    pairs.sort(axis=1)
    keys = pairs[:, 0] * (int(faces.max()) + 1) + pairs[:, 1]
    return np.unique(keys, return_counts=True)[1]


def border_edge_count(faces: np.ndarray) -> int:
    return int((edge_counts(faces) == 1).sum())


def point_triangle_distance(points: np.ndarray, vertices: np.ndarray,
                            faces: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest triangle.

    A point whose projection falls inside a triangle is at its plane
    distance; otherwise the nearest point is on one of the three edges.
    """
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    best = np.full(len(p), np.inf)
    for a, b, c in np.asarray(vertices, dtype=np.float64)[faces]:
        n = np.cross(b - a, c - a)
        nn = float(n @ n)
        d = best.copy()
        if nn > 0:
            h = (p - a) @ n / nn
            q = p - h[:, None] * n
            inside = np.ones(len(p), dtype=bool)
            for u, v in ((a, b), (b, c), (c, a)):
                inside &= np.cross(v - u, q - u) @ n >= 0
            d[inside] = np.abs(h[inside]) * np.sqrt(nn)
        for u, v in ((a, b), (b, c), (c, a)):
            e = v - u
            t = np.clip((p - u) @ e / max(float(e @ e), 1e-300), 0.0, 1.0)
            d = np.minimum(d, np.linalg.norm(p - (u + t[:, None] * e), axis=1))
        best = np.minimum(best, d)
    return best


def sample_triangles(vertices: np.ndarray, faces: np.ndarray, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Area-weighted uniform samples on a triangle mesh."""
    tri = np.asarray(vertices, dtype=np.float64)[faces]
    area = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0],
                                         tri[:, 2] - tri[:, 0]), axis=1)
    pick = rng.choice(len(tri), size=n, p=area / area.sum())
    r1, r2 = rng.random(n), rng.random(n)
    flip = r1 + r2 > 1
    r1[flip], r2[flip] = 1 - r1[flip], 1 - r2[flip]
    t = tri[pick]
    return t[:, 0] + r1[:, None] * (t[:, 1] - t[:, 0]) + r2[:, None] * (t[:, 2] - t[:, 0])


def chamfer_to_surface(vertices, faces, ref_points, n: int,
                       rng: np.random.Generator) -> float:
    """Symmetric mean squared nearest-sample distance between a mesh and a
    point sampling of the reference surface."""
    ours = sample_triangles(vertices, faces, n, rng)
    d_or = cKDTree(ref_points).query(ours)[0]
    d_ro = cKDTree(ours).query(ref_points)[0]
    return float((d_or ** 2).mean() + (d_ro ** 2).mean())


def max_distance_to_mesh(points, vertices, faces, limit: float) -> float:
    """Largest distance from the points to the mesh surface, exact for every
    point that matters against ``limit``.

    Dense surface samples give an upper bound for each point; only points
    whose bound exceeds ``limit`` pay for the exact triangle distance.
    """
    faces = np.asarray(faces, dtype=np.int64)
    tri = np.asarray(vertices, dtype=np.float64)[faces]
    w = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1 / 3, 1 / 3, 1 / 3],
                  [.5, .5, 0], [0, .5, .5], [.5, 0, .5]])
    dense = np.einsum("kc,fcj->fkj", w, tri).reshape(-1, 3)
    upper = cKDTree(dense).query(points)[0]
    far = upper > limit
    if far.any():
        upper[far] = point_triangle_distance(points[far], vertices, faces)
    return float(upper.max())


def brute_nearest(query: np.ndarray, target: np.ndarray, chunk: int = 32):
    """Squared distance and index of each query's nearest target, by
    scanning every pair; the winner's distance is recomputed as a plain
    subtract-square-sum. Small chunks keep each block of distances in
    cache: 30k x 30k took 1.3 s at 32 rows against 3.7 s at 512."""
    tt = (target * target).sum(axis=1)
    idx = np.empty(len(query), dtype=np.int64)
    neg2t = -2.0 * target.T
    for s in range(0, len(query), chunk):
        d = query[s:s + chunk] @ neg2t
        d += tt
        idx[s:s + chunk] = d.argmin(axis=1)
    diff = query - target[idx]
    return (diff ** 2).sum(axis=-1), idx


def brute_chamfer_nc(a_pts, a_nrm, b_pts, b_nrm) -> tuple[float, float]:
    """Chamfer distance and normal consistency (percent) by brute force."""
    d_ab, i_ab = brute_nearest(a_pts, b_pts)
    d_ba, i_ba = brute_nearest(b_pts, a_pts)
    cos_ab = np.abs(np.einsum("ij,ij->i", a_nrm, b_nrm[i_ab]))
    cos_ba = np.abs(np.einsum("ij,ij->i", b_nrm, a_nrm[i_ba]))
    return float(d_ab.mean() + d_ba.mean()), float(50.0 * (cos_ab.mean() + cos_ba.mean()))
