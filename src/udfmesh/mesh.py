"""Indexed triangle mesh with border-edge bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TriMesh:
    """Triangle mesh as (V, 3) float vertices and (F, 3) int faces.

    Edge/border adjacency is derived lazily and cached; mutate vertices or
    faces only through ``replace``-style copies or call ``invalidate`` after
    in-place edits.
    """

    vertices: np.ndarray
    faces: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.faces.size and self.faces.max() >= len(self.vertices):
            raise ValueError("face index out of range")
        if self.faces.size and self.faces.min() < 0:
            raise ValueError("negative face index")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def is_empty(self) -> bool:
        return self.n_faces == 0

    def invalidate(self):
        self._cache.clear()

    # -- derived connectivity -------------------------------------------------

    def edges_with_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges (E, 2) and their incident-face counts."""
        if "edges" not in self._cache:
            if self.faces.size == 0:
                self._cache["edges"] = (np.zeros((0, 2), np.int64), np.zeros(0, np.int64))
            else:
                raw = np.concatenate([self.faces[:, [0, 1]],
                                      self.faces[:, [1, 2]],
                                      self.faces[:, [2, 0]]])
                raw = np.sort(raw, axis=1)
                # one integer key per (low, high) pair sorts like the pair
                nv = self.n_vertices
                keys, counts = np.unique(raw[:, 0] * nv + raw[:, 1], return_counts=True)
                edges = np.stack(np.divmod(keys, nv), axis=1)
                self._cache["edges"] = (edges, counts)
        return self._cache["edges"]

    def border_edges(self) -> np.ndarray:
        """Edges incident to exactly one face, shape (B, 2)."""
        edges, counts = self.edges_with_counts()
        return edges[counts == 1]

    def border_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        be = self.border_edges()
        if be.size:
            mask[be.ravel()] = True
        return mask

    def is_watertight(self) -> bool:
        return len(self.border_edges()) == 0 and self.n_faces > 0

    def is_edge_manifold(self) -> bool:
        _, counts = self.edges_with_counts()
        return bool(np.all(counts <= 2))

    def euler_characteristic(self) -> int:
        edges, _ = self.edges_with_counts()
        return self.n_vertices - len(edges) + self.n_faces

    # -- geometry --------------------------------------------------------------

    def face_normals(self, normalize: bool = True) -> np.ndarray:
        tri = self.vertices[self.faces]
        n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        if normalize:
            norms = np.linalg.norm(n, axis=1, keepdims=True)
            n = np.divide(n, norms, out=np.zeros_like(n), where=norms > 0)
        return n

    def face_areas(self) -> np.ndarray:
        return 0.5 * np.linalg.norm(self.face_normals(normalize=False), axis=1)

    def area(self) -> float:
        return float(self.face_areas().sum())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if self.n_vertices == 0:
            z = np.zeros(3)
            return z, z
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def centroid(self) -> np.ndarray:
        """Area-weighted surface centroid (vertex mean for zero-area meshes)."""
        if self.n_faces == 0:
            return self.vertices.mean(axis=0) if self.n_vertices else np.zeros(3)
        areas = self.face_areas()
        total = areas.sum()
        if total <= 0:
            return self.vertices.mean(axis=0)
        face_centers = self.vertices[self.faces].mean(axis=1)
        return (face_centers * areas[:, None]).sum(axis=0) / total

    def copy(self) -> "TriMesh":
        return TriMesh(self.vertices.copy(), self.faces.copy())

    def select_faces(self, keep: np.ndarray) -> "TriMesh":
        """Sub-mesh of the kept faces, orphaned vertices dropped, reindexed."""
        faces = self.faces[np.asarray(keep)]
        used = np.unique(faces)
        remap = np.full(self.n_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        return TriMesh(self.vertices[used], remap[faces])


def empty_mesh() -> TriMesh:
    return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
