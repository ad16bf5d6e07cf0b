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
runs both over every candidate cell and ``_mesh_signed_cells`` (the
inflation baseline) runs ``_mesh_cells`` on signed values.

Every path reads one format, a sorted cell list with the 8 exact corner
values of each cell and its corner table, from ``grid.sample_band`` (which
skips what a field's Lipschitz bound rules out, on every lattice size) or,
for a given value lattice, ``grid._lattice_band`` and
``grid._corner_table``. Dense sampling serves only fields without a bound
and given lattices. Only candidate cells are signed. Their corners are
picked out of the corner table with a mask and a rank, and the field's
gradients are evaluated there in one call.

The corner table is the only lattice index. The weld names a lattice edge
by its axis and the rank of its low corner in the table, and counting
those keys welds the cut edges into vertices and counts the edges cut in
one cell but not in another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (GridSpec, NonFiniteFieldError, _corner_subtable, _corner_table, _cull,
                   _lattice_band, _require, _sample_corners, sample_band)
from .mc_tables import EDGE_AXIS, EDGE_CORNERS_LOW_HIGH, TRI_TABLE
from .mesh import TriMesh, empty_mesh

DEFAULT_GRAD_NORM_MIN = 0.3
DEFAULT_CULL_FACTOR = 1.0

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

    A cell's anchor is the corner with the largest gradient norm among those
    with norm >= ``grad_norm_min``, ties broken by the smallest corner
    index; a given ``anchor`` overrides the choice for every cell, which the
    anchor-invariance tests rely on. Returns (s, anchor, has_anchor):
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


def _mesh_cells(spec: GridSpec, s: np.ndarray, ids: np.ndarray, index: np.ndarray):
    """Case-table triangulation and weld of m sorted cells with signed corner
    values ``s`` (m, 8) and rows ``index`` (m, 8) of a corner table ``ids``,
    which may hold more corners than the cells use.

    A lattice edge's key, its axis and the rank of its low corner in ``ids``,
    sorts as its global edge id does. Every cut lattice edge becomes one
    vertex, ordered by key and computed by the lowest cell that cuts it;
    interpolating from the low corner to the high one makes the position
    independent of that cell. Faces come out cell by cell in table order.
    Returns (mesh, vertex_ids, disagreements): the mesh, the sorted global
    edge id of every vertex, and the number of those edges that some other
    of these cells leaves uncut.
    """
    n, edges = spec.resolution, 3 * len(ids)
    lo, hi = EDGE_CORNERS_LOW_HIGH.T
    neg = s < 0
    cut = neg[:, lo] != neg[:, hi]               # (m, 12)
    if not cut.any():
        return empty_mesh(), np.zeros(0, dtype=np.int64), 0

    key = EDGE_AXIS * len(ids) + index[:, lo]
    pos = np.flatnonzero(cut)                    # cell by cell
    cut_key = key.ravel()[pos]
    # per lattice edge: the cells that cut it, of all the cells that hold it
    cuts = np.bincount(cut_key, minlength=edges)
    some = cuts > 0
    disagreements = int((some & (cuts < np.bincount(key.ravel(), minlength=edges))).sum())
    number = np.cumsum(some) - 1

    tri = _TRI_ROWS[neg @ _CASE_BITS]
    has_tri = tri >= 0
    face_cell = np.broadcast_to(np.arange(len(tri))[:, None], tri.shape)[has_tri]
    faces = number[key[face_cell, tri[has_tri]]].reshape(-1, 3)

    # the least position of an edge's cut entries lies in the lowest cell
    # that cuts it
    first = np.full(edges, cut.size)
    np.minimum.at(first, cut_key, pos)
    c, e = np.divmod(first[some], 12)
    ca, cb = lo[e], hi[e]
    low = ids[index[c, ca]]
    vertex_ids = EDGE_AXIS[e] * n ** 3 + low
    pa, pb = spec.corner_points(low), spec.corner_points(ids[index[c, cb]])
    t = s[c, ca] / (s[c, ca] - s[c, cb])
    vertices = pa + t[:, None] * (pb - pa)
    return TriMesh(vertices, faces), vertex_ids, disagreements


def _check_lattice(values: np.ndarray, spec: GridSpec, what: str) -> None:
    """Refuse a value lattice that is not (N, N, N) for ``spec`` with a
    ``ValueError``, and one holding NaN or infinity with a
    ``NonFiniteFieldError`` naming its first such corner in x-fastest
    order, as ``sample_grid`` does."""
    n = spec.resolution
    if np.shape(values) != (n, n, n):
        raise ValueError(f"{what} of shape {np.shape(values)} do not fit a {n}^3 lattice")
    finite = np.isfinite(values)
    if finite.all():
        return
    bad = np.argwhere(~finite)
    i, j, k = bad[np.argmin(spec.corner_linear_index(bad))]
    x, y, z = (spec.axis_coords(a)[c] for a, c in enumerate((i, j, k)))
    raise NonFiniteFieldError(f"{what} hold a non-finite value at corner [{i}, {j}, {k}] "
                              f"({x:.6g}, {y:.6g}, {z:.6g})")


def extract_mesh_detailed(field, spec: GridSpec,
                          cull_factor: float = DEFAULT_CULL_FACTOR,
                          grad_norm_min: float = DEFAULT_GRAD_NORM_MIN,
                          threads: int | None = None,
                          samples: np.ndarray | None = None
                          ) -> tuple[TriMesh, ExtractStats]:
    """Full pipeline: sample, cull, pseudo-sign, triangulate, weld.

    Without ``samples``, ``sample_band`` hands over the cells that may pass
    the cull test with their exact corner values, evaluating a field that
    declares a Lipschitz bound only where the bound cannot rule the test
    out, and a field without one at every corner. ``samples`` is an (N, N,
    N) value lattice, as ``sample_grid`` returns, checked like it: a
    non-finite value raises ``NonFiniteFieldError`` naming its corner.
    Either way the field's gradients are evaluated only at the corners of
    candidate cells, and the output is the same as from dense ``samples``.

    An edge cut in one sign-assigned cell but uncut in another is counted in
    ``edge_disagreements``. Neighboring cells can disagree near borders when
    their anchors induce different sign partitions; those edges are
    reported, not repaired. A ``cull_factor`` that is not positive or a
    ``grad_norm_min`` that is negative, or either not finite, is refused.
    """
    _require(0 < cull_factor < np.inf, "cull_factor", "positive and finite", cull_factor)
    _require(0 <= grad_norm_min < np.inf, "grad_norm_min", "non-negative and finite",
             grad_norm_min)
    stats = ExtractStats(total_cells=spec.n_cells, total_corners=spec.resolution ** 3)
    upper = cull_factor * spec.cell_diagonal
    t0 = time.perf_counter()
    if samples is None:
        cells, u8, table, stats.corners_evaluated = sample_band(field, spec, -np.inf,
                                                                upper, threads)
        stats.corner_source = CORNERS_DENSE if field.lipschitz is None else CORNERS_BOUND
    else:
        _check_lattice(samples, spec, "samples")
        cells, u8 = _lattice_band(samples, -np.inf, upper)
        table = _corner_table(spec, cells)
        stats.corner_source = CORNERS_GIVEN
    stats.timings["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    keep = _cull(u8, spec, cull_factor)
    u8 = u8[keep]
    stats.candidate_cells = len(u8)
    stats.culled_cells = stats.total_cells - len(u8)
    t1 = time.perf_counter()
    ids, index = _corner_subtable(table, keep)
    del table                     # not read again: free it before the weld
    g8 = _sample_corners(field, spec, threads, True, ids)[1][index]
    stats.timings["gradients"] = time.perf_counter() - t1

    s, _, has_anchor = _pseudo_sign(u8, g8, grad_norm_min)
    crossing = (s < 0).any(axis=1)
    stats.skipped_no_anchor = int((~has_anchor).sum())
    stats.skipped_no_crossing = int((~crossing).sum())
    stats.triangulated_cells = int(crossing.sum())

    mesh, _, stats.edge_disagreements = _mesh_cells(spec, s, ids, index[has_anchor])
    stats.timings["extract"] = time.perf_counter() - t0 - stats.timings["gradients"]
    return mesh, stats


def extract_mesh(field, spec: GridSpec) -> TriMesh:
    """The mesh of ``extract_mesh_detailed`` at its defaults."""
    return extract_mesh_detailed(field, spec)[0]


def mesh_signed_grid(values: np.ndarray, spec: GridSpec) -> TriMesh:
    """Standard signed marching cubes over corner values (negative inside),
    checked as ``extract_mesh_detailed`` checks its ``samples``."""
    _check_lattice(values, spec, "values")
    cells, s = _lattice_band(values, 0.0, 0.0)
    return _mesh_signed_cells(spec, s, *_corner_table(spec, cells))


def _mesh_signed_cells(spec: GridSpec, s: np.ndarray, ids: np.ndarray,
                       index: np.ndarray) -> TriMesh:
    """Signed marching cubes over sorted cells with corner values ``s`` (m, 8)
    and rows ``index`` into the corner table ``ids``; only cells with 1 to 7
    negative corners hold surface."""
    inside = (s < 0).sum(axis=1)
    active = (inside > 0) & (inside < 8)
    return _mesh_cells(spec, s[active], ids, index[active])[0]
