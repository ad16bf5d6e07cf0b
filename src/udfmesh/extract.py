"""Triangle extraction from unsigned distance grids.

Unsigned fields never change sign, so plain marching cubes sees nothing to
triangulate. Within each near-surface cell we instead pick an anchor corner
whose gradient is trustworthy and give every corner a pseudo-sign: corners
whose gradient opposes the anchor's land on the other side of the surface
and get their distance negated. The standard case table and edge
interpolation then apply unchanged. Cells where no corner has a usable
gradient are skipped rather than guessed.

One batched kernel does this work: ``_pseudo_sign`` signs a batch of cells
and ``_mesh_cells`` triangulates and welds them. ``extract_mesh_detailed``
runs both over every candidate cell, ``mesh_signed_grid`` (the inflation
baseline) runs ``_mesh_cells`` on signed values, and ``pseudo_sign_cell`` and
``triangulate_cell`` run them on a single cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (GridSamples, GridSpec, candidate_cells, cell_corner_sums,
                   sample_grid)
from .mc_tables import (CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE,
                        EDGE_CORNERS_LOW_HIGH, TRI_TABLE)
from .mesh import TriMesh, empty_mesh

DEFAULT_GRAD_NORM_MIN = 0.3
DEFAULT_CULL_FACTOR = 1.0

SKIP_NO_ANCHOR = "no-valid-anchor"
SKIP_NO_CROSSING = "no-crossing"
SKIP_CULLED = "culled"

_CASE_BITS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.int64)

# TRI_TABLE as one array, each row padded with -1 to the longest case
_TRI_ROWS = np.array([tri + [-1] * (15 - len(tri)) for tri in TRI_TABLE],
                     dtype=np.int64)


@dataclass
class PseudoSignedCell:
    """Per-cell pseudo-sign assignment, or the reason it was skipped."""

    cell_index: int
    values: np.ndarray | None       # pseudo-signed distances, None if skipped
    anchor: int | None              # local corner 0-7
    skipped: str | None = None


@dataclass
class ExtractStats:
    total_cells: int = 0
    candidate_cells: int = 0
    culled_cells: int = 0
    skipped_no_anchor: int = 0
    skipped_no_crossing: int = 0
    triangulated_cells: int = 0
    edge_disagreements: int = 0
    timings: dict = dc_field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"cells: {self.total_cells} total, {self.candidate_cells} candidate, "
            f"{self.culled_cells} culled",
            f"triangulated: {self.triangulated_cells}; skipped: "
            f"{self.skipped_no_anchor} no-valid-anchor, "
            f"{self.skipped_no_crossing} no-crossing",
            f"crossing disagreements on shared edges: {self.edge_disagreements}",
        ]
        for name, secs in self.timings.items():
            lines.append(f"{name}: {secs:.3f} s")
        return "\n".join(lines)


def _gather_cell_corners(values: np.ndarray, ijk: np.ndarray) -> np.ndarray:
    """Corner values for selected cells: values (N,..) gathered to (m, 8, ...)."""
    i, j, k = ijk[:, 0], ijk[:, 1], ijk[:, 2]
    out = np.stack([values[i + dx, j + dy, k + dz] for dx, dy, dz in CORNER_OFFSETS],
                   axis=1)
    return out


def _pseudo_sign(u8: np.ndarray, g8: np.ndarray, grad_norm_min: float,
                 anchor=None):
    """Pseudo-sign m cells from their corner values (m, 8) and gradients (m, 8, 3).

    Anchors follow the rule of ``pseudo_sign_cell``; a given ``anchor``
    overrides the choice for every cell. Returns (s, anchor, has_anchor):
    the signed values and the anchors of the cells that have one, and the
    (m,) mask of those cells.
    """
    if anchor is None:
        norms = np.linalg.norm(g8, axis=2)
        valid = norms >= grad_norm_min
        has_anchor = valid.any(axis=1)
        anchor = np.argmax(np.where(valid, norms, -1.0)[has_anchor], axis=1)
    else:
        has_anchor = np.ones(len(u8), dtype=bool)
        anchor = np.full(len(u8), anchor, dtype=np.int64)
    u8, g8 = u8[has_anchor], g8[has_anchor]
    g_anchor = g8[np.arange(len(g8)), anchor]
    dots = np.einsum("mcj,mj->mc", g8, g_anchor)
    return np.where(dots < 0, -u8, u8), anchor, has_anchor


def _mesh_cells(spec: GridSpec, cells_ijk: np.ndarray, s: np.ndarray):
    """Case-table triangulation and weld of m cells with signed corner values.

    Cells must come sorted by linear index; faces then come out cell by
    cell in table order. Every cut lattice edge becomes one vertex, ordered
    by global edge id. Interpolating each edge from its low corner to its
    high one makes the position independent of which incident cell computes
    it. Returns (mesh, ids, cut): the mesh plus the (m, 12) global edge ids
    of every cell and the mask of those its signs cut.
    """
    n = spec.resolution
    ids = EDGE_AXIS * n ** 3 + spec.corner_linear_index(cells_ijk[:, None, :] + EDGE_BASE)
    neg = s < 0
    lo, hi = EDGE_CORNERS_LOW_HIGH.T
    cut = neg[:, lo] != neg[:, hi]
    if not cut.any():
        return empty_mesh(), ids, cut

    cell_of, edge_of = np.nonzero(cut)
    _, first, inverse = np.unique(ids[cut], return_index=True, return_inverse=True)
    c, ca, cb = cell_of[first], lo[edge_of[first]], hi[edge_of[first]]
    axes = np.stack([spec.axis_coords(a) for a in range(3)])
    pa = axes[np.arange(3), cells_ijk[c] + CORNER_OFFSETS[ca]]
    pb = axes[np.arange(3), cells_ijk[c] + CORNER_OFFSETS[cb]]
    t = s[c, ca] / (s[c, ca] - s[c, cb])
    vertices = pa + t[:, None] * (pb - pa)

    vertex_of = np.full(cut.shape, -1, dtype=np.int64)
    vertex_of[cut] = inverse
    tri = _TRI_ROWS[neg @ _CASE_BITS]
    has_tri = tri >= 0
    face_cell = np.broadcast_to(np.arange(len(tri))[:, None], tri.shape)[has_tri]
    faces = vertex_of[face_cell, tri[has_tri]].reshape(-1, 3)
    return TriMesh(vertices, faces), ids, cut


def pseudo_sign_cell(samples: GridSamples, cell_index: int,
                     grad_norm_min: float = DEFAULT_GRAD_NORM_MIN,
                     force_anchor: int | None = None) -> PseudoSignedCell:
    """Assign pseudo-signed distances to one cell's corners.

    The anchor is the corner with the largest gradient norm among those with
    norm >= grad_norm_min (ties broken by smallest corner index); a cell with
    no such corner is skipped. ``force_anchor`` overrides the choice, which
    the anchor-invariance tests rely on.
    """
    ijk = samples.spec.cell_origin_ijk(np.array([cell_index]))
    s, anchor, has_anchor = _pseudo_sign(_gather_cell_corners(samples.u, ijk),
                                         _gather_cell_corners(samples.g, ijk),
                                         grad_norm_min, force_anchor)
    if not has_anchor[0]:
        return PseudoSignedCell(cell_index, None, None, SKIP_NO_ANCHOR)
    skipped = None if (s[0] < 0).any() else SKIP_NO_CROSSING
    return PseudoSignedCell(cell_index, s[0], int(anchor[0]), skipped)


def triangulate_cell(cell: PseudoSignedCell, spec: GridSpec) -> np.ndarray:
    """Triangles for one pseudo-signed cell as (n, 3, 3) vertex positions."""
    if cell.values is None:
        return np.zeros((0, 3, 3))
    ijk = spec.cell_origin_ijk(np.array([cell.cell_index]))
    mesh, _, _ = _mesh_cells(spec, ijk, cell.values[None, :])
    return mesh.vertices[mesh.faces]


def extract_mesh_detailed(field, spec: GridSpec,
                          cull_factor: float = DEFAULT_CULL_FACTOR,
                          grad_norm_min: float = DEFAULT_GRAD_NORM_MIN,
                          threads: int | None = None,
                          samples: GridSamples | None = None
                          ) -> tuple[TriMesh, ExtractStats]:
    """Full pipeline: sample, cull, pseudo-sign, triangulate, weld.

    An edge cut in one sign-assigned cell but uncut in another is counted in
    ``edge_disagreements``. Neighboring cells can disagree near borders when
    their anchors induce different sign partitions; those edges are
    reported, not repaired.
    """
    stats = ExtractStats(total_cells=spec.n_cells)
    t0 = time.perf_counter()
    if samples is None:
        samples = sample_grid(field, spec, threads=threads)
    stats.timings["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cand = candidate_cells(samples, spec, cull_factor)
    stats.candidate_cells = len(cand)
    stats.culled_cells = stats.total_cells - len(cand)

    ijk = spec.cell_origin_ijk(cand)
    s, _, has_anchor = _pseudo_sign(_gather_cell_corners(samples.u, ijk),
                                    _gather_cell_corners(samples.g, ijk),
                                    grad_norm_min)
    crossing = (s < 0).any(axis=1)
    stats.skipped_no_anchor = int((~has_anchor).sum())
    stats.skipped_no_crossing = int((~crossing).sum())
    stats.triangulated_cells = int(crossing.sum())

    mesh, ids, cut = _mesh_cells(spec, ijk[has_anchor], s)
    stats.edge_disagreements = int(np.isin(np.unique(ids[cut]), ids[~cut]).sum())
    stats.timings["extract"] = time.perf_counter() - t0
    return mesh, stats


def extract_mesh(field, spec: GridSpec,
                 cull_factor: float = DEFAULT_CULL_FACTOR,
                 grad_norm_min: float = DEFAULT_GRAD_NORM_MIN,
                 threads: int | None = None,
                 samples: GridSamples | None = None) -> TriMesh:
    mesh, _ = extract_mesh_detailed(field, spec, cull_factor, grad_norm_min,
                                    threads, samples)
    return mesh


def mesh_signed_grid(values: np.ndarray, spec: GridSpec) -> TriMesh:
    """Standard signed marching cubes over corner values (negative inside)."""
    n = spec.resolution
    assert values.shape == (n, n, n)
    inside = cell_corner_sums(values < 0)
    active = (inside > 0) & (inside < 8)
    # x-fastest ravel: active cells come out sorted by linear index
    ijk = spec.cell_origin_ijk(np.flatnonzero(active.transpose(2, 1, 0).ravel()))
    mesh, _, _ = _mesh_cells(spec, ijk, _gather_cell_corners(values, ijk))
    return mesh
