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
runs both over every candidate cell, ``_mesh_signed_cells`` (the inflation
baseline) runs ``_mesh_cells`` on signed values, and ``pseudo_sign_cell`` and
``triangulate_cell`` run them on a single cell.

Every path reads one format, a sorted cell list with the 8 exact corner
values of each cell, from ``grid.sample_band`` (which skips what a field's
Lipschitz bound rules out) or, for given samples, ``grid._lattice_band``.
Only candidate cells are signed, and gradients are read at the corners of
the candidate cells alone: evaluated there from the field, or from given
samples through ``GridSamples.gradients``, which evaluates them there too
unless the samples were built with gradients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (GridSamples, GridSpec, _cell_corners, _cull, _lattice_band,
                   _sample_corners, sample_band)
from .mc_tables import (CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE,
                        EDGE_CORNERS_LOW_HIGH, TRI_TABLE)
from .mesh import TriMesh, empty_mesh

DEFAULT_GRAD_NORM_MIN = 0.3
DEFAULT_CULL_FACTOR = 1.0

SKIP_NO_ANCHOR = "no-valid-anchor"
SKIP_NO_CROSSING = "no-crossing"

# who chose the corners an extraction evaluated
CORNERS_BOUND = "lipschitz"
CORNERS_DENSE = "dense"
CORNERS_GIVEN = "given"
_CORNER_NOTES = {
    CORNERS_BOUND: "the rest ruled out by the field's Lipschitz bound",
    CORNERS_DENSE: "the field declares no Lipschitz bound",
    CORNERS_GIVEN: "all given as samples",
}

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
    total_corners: int = 0
    corners_evaluated: int = 0      # values computed by this call
    corner_source: str = ""         # one of the CORNERS_* names
    candidate_cells: int = 0
    culled_cells: int = 0
    skipped_no_anchor: int = 0
    skipped_no_crossing: int = 0
    triangulated_cells: int = 0
    edge_disagreements: int = 0
    timings: dict = dc_field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"corners: {self.corners_evaluated} of {self.total_corners} evaluated "
            f"({_CORNER_NOTES.get(self.corner_source, self.corner_source)})",
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
    it. Returns (mesh, ids, cut, vertex_ids): the mesh, the (m, 12) global
    edge ids of every cell, the mask of those its signs cut, and the sorted
    global edge id of every vertex.
    """
    n = spec.resolution
    ids = EDGE_AXIS * n ** 3 + spec.corner_linear_index(cells_ijk[:, None, :] + EDGE_BASE)
    neg = s < 0
    lo, hi = EDGE_CORNERS_LOW_HIGH.T
    cut = neg[:, lo] != neg[:, hi]
    if not cut.any():
        return empty_mesh(), ids, cut, ids[cut]

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
    tri = _TRI_ROWS[neg @ _CASE_BITS]
    has_tri = tri >= 0
    face_cell = np.broadcast_to(np.arange(len(tri))[:, None], tri.shape)[has_tri]
    faces = vertex_of[face_cell, tri[has_tri]].reshape(-1, 3)
    return TriMesh(vertices, faces), ids, cut, vertex_ids


def _cell_gradients(gradients, spec: GridSpec, ijk: np.ndarray) -> np.ndarray:
    """(m, 8, 3) gradients at the corners of the cells with min corners
    ``ijk``, in ``CORNER_OFFSETS`` order, from one ``gradients(ids)`` call on
    the sorted distinct corner ids."""
    corner_ids = spec.corner_linear_index(ijk[:, None, :] + CORNER_OFFSETS)
    needed, inverse = np.unique(corner_ids, return_inverse=True)
    return gradients(needed)[inverse.reshape(corner_ids.shape)]


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
    s, anchor, has_anchor = _pseudo_sign(_cell_corners(samples.u, ijk),
                                         _cell_gradients(samples.gradients,
                                                         samples.spec, ijk),
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
    mesh = _mesh_cells(spec, ijk, cell.values[None, :])[0]
    return mesh.vertices[mesh.faces]


def extract_mesh_detailed(field, spec: GridSpec,
                          cull_factor: float = DEFAULT_CULL_FACTOR,
                          grad_norm_min: float = DEFAULT_GRAD_NORM_MIN,
                          threads: int | None = None,
                          samples: GridSamples | None = None
                          ) -> tuple[TriMesh, ExtractStats]:
    """Full pipeline: sample, cull, pseudo-sign, triangulate, weld.

    Without ``samples``, ``sample_band`` hands over the cells that may pass
    the cull test with their exact corner values, evaluating a field that
    declares a Lipschitz bound only where the bound cannot rule the test
    out. Either way gradients are read only at the corners of candidate
    cells: from the field, or through ``samples.gradients``. The output is
    the same as from dense ``samples``.

    An edge cut in one sign-assigned cell but uncut in another is counted in
    ``edge_disagreements``. Neighboring cells can disagree near borders when
    their anchors induce different sign partitions; those edges are
    reported, not repaired.
    """
    stats = ExtractStats(total_cells=spec.n_cells, total_corners=spec.resolution ** 3)
    upper = cull_factor * spec.cell_diagonal
    t0 = time.perf_counter()
    if samples is None:
        cells, u8, stats.corners_evaluated = sample_band(field, spec, -np.inf, upper,
                                                         threads)
        stats.corner_source = CORNERS_DENSE if field.lipschitz is None else CORNERS_BOUND
    else:
        cells, u8 = _lattice_band(samples.u, -np.inf, upper)
        stats.corner_source = CORNERS_GIVEN
    stats.timings["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    keep = _cull(u8, spec, cull_factor)
    cand, u8 = cells[keep], u8[keep]
    stats.candidate_cells = len(cand)
    stats.culled_cells = stats.total_cells - len(cand)
    ijk = spec.cell_origin_ijk(cand)
    t1 = time.perf_counter()
    if samples is None:
        g8 = _cell_gradients(lambda ids: _sample_corners(field, spec, threads, True, ids)[1],
                             spec, ijk)
    else:
        g8 = _cell_gradients(samples.gradients, spec, ijk)
    stats.timings["gradients"] = time.perf_counter() - t1

    s, _, has_anchor = _pseudo_sign(u8, g8, grad_norm_min)
    crossing = (s < 0).any(axis=1)
    stats.skipped_no_anchor = int((~has_anchor).sum())
    stats.skipped_no_crossing = int((~crossing).sum())
    stats.triangulated_cells = int(crossing.sum())

    mesh, ids, cut, cut_ids = _mesh_cells(spec, ijk[has_anchor], s)
    # edges cut in some cell (one per vertex): mark those also uncut in another
    if len(cut_ids):
        uncut = ids[~cut]
        pos = np.minimum(np.searchsorted(cut_ids, uncut), len(cut_ids) - 1)
        hit = np.zeros(len(cut_ids), dtype=bool)
        hit[pos[cut_ids[pos] == uncut]] = True
        stats.edge_disagreements = int(hit.sum())
    stats.timings["extract"] = time.perf_counter() - t0 - stats.timings["gradients"]
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
    return _mesh_signed_cells(spec, *_lattice_band(values, 0.0, 0.0))


def _mesh_signed_cells(spec: GridSpec, cells: np.ndarray, s: np.ndarray) -> TriMesh:
    """Signed marching cubes over sorted cells with corner values ``s`` (m, 8);
    only cells with 1 to 7 negative corners hold surface."""
    inside = (s < 0).sum(axis=1)
    active = (inside > 0) & (inside < 8)
    return _mesh_cells(spec, spec.cell_origin_ijk(cells[active]), s[active])[0]
