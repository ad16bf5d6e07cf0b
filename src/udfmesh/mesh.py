"""Indexed triangle mesh with border-edge bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Triangle mesh as (V, 3) float vertices and (F, 3) int faces.

    A mesh is an immutable value, checked once when it is built: every
    vertex is finite and every face index is in range. ``vertices`` and
    ``faces`` are read-only; a writeable input array is copied, a read-only
    one (another mesh's faces, say) is shared. Connectivity (edges,
    vertex->face and border tables) and face normals are derived lazily
    and cached, the normals as read-only arrays. ``with_vertices`` moves
    the vertices in a new mesh that shares the faces and the connectivity
    tables, which never read positions, but not the face normals.
    """

    vertices: np.ndarray
    faces: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        vertices = _frozen_rows(self.vertices, np.float64)
        faces = _frozen_rows(self.faces, np.int64)
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if bad.size:
            x, y, z = vertices[bad[0]]
            raise ValueError(f"vertex {bad[0]} is not finite: ({x}, {y}, {z})")
        if faces.size and faces.max() >= len(vertices):
            raise ValueError("face index out of range")
        if faces.size and faces.min() < 0:
            raise ValueError("negative face index")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "faces", faces)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def is_empty(self) -> bool:
        return self.n_faces == 0

    def with_vertices(self, vertices) -> "TriMesh":
        """A mesh with these vertex positions and the same faces. It shares
        the connectivity tables, never the face normals."""
        mesh = TriMesh(vertices, self.faces)
        if mesh.n_vertices != self.n_vertices:
            raise ValueError("with_vertices needs one position per vertex")
        mesh._cache.update((k, v) for k, v in self._cache.items()
                           if k not in ("cross", "normals"))
        return mesh

    # -- derived connectivity -------------------------------------------------

    def edges_with_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges (E, 2) and their incident-face counts."""
        # one build fills both tables, so the border table's key stands
        # for both: border_table builds through here
        if "border" not in self._cache:
            self._build_connectivity()
        return self._cache["edges"]

    def vertex_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Faces around every vertex, in face order: vertex v touches faces
        ``fidx[start[v]:start[v + 1]]`` (a face listing v twice appears twice)."""
        if "vertex_faces" not in self._cache:
            flat = self.faces.ravel()
            order = np.argsort(flat, kind="stable")
            start = np.searchsorted(flat[order], np.arange(self.n_vertices + 1))
            self._cache["vertex_faces"] = (order // 3, start)
        return self._cache["vertex_faces"]

    def border_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-vertex border adjacency, in border-edge order.

        Returns (count (V,), nbrs (V, 2), face (V,)): the number of border
        edges at each vertex, the far ends of its first two border edges,
        and the one face of its first border edge; -1 where absent.
        """
        if "border" not in self._cache:
            self.edges_with_counts()
        return self._cache["border"]

    def _build_connectivity(self) -> None:
        """Sort the face edges once and cache both the unique edges with
        their counts and the border table."""
        raw = np.concatenate([self.faces[:, [0, 1]],
                              self.faces[:, [1, 2]],
                              self.faces[:, [2, 0]]])
        raw = np.sort(raw, axis=1)
        # one integer key per (low, high) pair sorts like the pair
        nv = max(self.n_vertices, 1)
        keys, edge_of, counts = np.unique(raw[:, 0] * nv + raw[:, 1],
                                          return_inverse=True,
                                          return_counts=True)
        edges = np.stack(np.divmod(keys, nv), axis=1)
        # face edges run edge (0, 1) of every face, then (1, 2), then
        # (2, 0); a border edge has exactly one, so one face writes it
        edge_face = np.empty(len(edges), dtype=np.int64)
        edge_face[edge_of] = np.arange(3 * self.n_faces) % max(self.n_faces, 1)
        border = edges[counts == 1]
        border_face = edge_face[counts == 1]
        # each border edge seen from both ends, grouped by vertex
        src = border.ravel()
        dst = border[:, ::-1].ravel()
        order = np.argsort(src, kind="stable")
        count = np.bincount(src, minlength=self.n_vertices)
        first = np.cumsum(count) - count
        nbrs = np.full((self.n_vertices, 2), -1, dtype=np.int64)
        for k in range(2):
            has = count > k
            nbrs[has, k] = dst[order[first[has] + k]]
        face = np.full(self.n_vertices, -1, dtype=np.int64)
        has = count > 0
        face[has] = border_face[order[first[has]] // 2]
        self._cache["edges"] = (edges, counts)
        self._cache["border"] = (count, nbrs, face)

    def border_edges(self) -> np.ndarray:
        """Edges incident to exactly one face, shape (B, 2)."""
        edges, counts = self.edges_with_counts()
        return edges[counts == 1]

    def border_vertex_mask(self) -> np.ndarray:
        return self.border_table()[0] > 0

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
        """Unit face normals, or with ``normalize`` off the edge cross
        products (twice the area-weighted normals); both read-only."""
        if "cross" not in self._cache:
            tri = self.vertices[self.faces]
            self._cache["cross"] = _read_only(
                np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]))
        if not normalize:
            return self._cache["cross"]
        if "normals" not in self._cache:
            self._cache["normals"] = _read_only(_unit_rows(self._cache["cross"]))
        return self._cache["normals"]

    def face_areas(self) -> np.ndarray:
        return 0.5 * np.linalg.norm(self.face_normals(normalize=False), axis=1)

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

    def select_faces(self, keep: np.ndarray) -> "TriMesh":
        """Sub-mesh of the kept faces, orphaned vertices dropped, reindexed."""
        faces = self.faces[np.asarray(keep)]
        mark = np.zeros(self.n_vertices, dtype=bool)
        mark[faces] = True
        used = np.flatnonzero(mark)
        remap = np.full(self.n_vertices, -1, dtype=np.int64)
        remap[used] = np.arange(len(used))
        return TriMesh(self.vertices[used], remap[faces])


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows of ``v`` scaled to unit length; zero rows stay zero. Each row's
    result depends on that row alone."""
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    return np.divide(v, norms, out=np.zeros_like(v), where=norms > 0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen_rows(a, dtype) -> np.ndarray:
    """``a`` as a read-only (n, 3) array of ``dtype``. An array the caller
    could still write through is copied first."""
    rows = np.asarray(a, dtype=dtype)
    if isinstance(a, np.ndarray) and rows.flags.writeable and np.may_share_memory(rows, a):
        rows = rows.copy()
    return _read_only(rows.reshape(-1, 3))


def empty_mesh() -> TriMesh:
    return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
