"""Cleanup of raw extractions: facet pruning and border smoothing."""

from __future__ import annotations

import numpy as np

from .fields import UdfField
from .grid import GridSpec, _require
from .mesh import TriMesh


def default_prune_tol(spec: GridSpec) -> float:
    """Facet pruning distance: half a cell diagonal of the lattice."""
    return 0.5 * spec.cell_diagonal


def remove_spurious_facets(mesh: TriMesh, field: UdfField, tol: float) -> TriMesh:
    """Drop faces that the field itself disowns.

    Cells with opposing gradients that never meet the zero set (between two
    sheets, or just past a border) emit facets far from any surface;
    re-evaluating the field at the vertices exposes them. A face survives
    only if all three of its vertices sit within ``tol`` of the surface.
    Orphaned vertices are dropped and the mesh reindexed.
    """
    _require(0 < tol < np.inf, "tol", "positive and finite", tol)
    if mesh.is_empty():
        return mesh
    near = field.eval(mesh.vertices) <= tol
    keep = near[mesh.faces].all(axis=1)
    return mesh.select_faces(keep)


def smooth_borders(mesh: TriMesh, steps: int = 5, weight: float = 0.5) -> TriMesh:
    """Relax jagged open borders with curve-Laplacian steps.

    Each step moves every border vertex that has exactly two border-edge
    neighbors toward their midpoint by ``weight``; all other vertices
    (interior, and border junctions with three or more border edges) stay
    put. Connectivity never changes. ``steps`` must be at least 0 and
    ``weight`` in [0, 1]: a larger weight overshoots the midpoint.
    """
    _require(steps >= 0, "steps", "at least 0", steps)
    _require(0 <= weight <= 1, "weight", "in [0, 1]", weight)
    count, nbrs, _ = mesh.border_table()
    idx = np.flatnonzero(count == 2)
    if steps <= 0 or len(idx) == 0:
        return mesh

    verts = mesh.vertices.copy()
    for _ in range(steps):
        mid = 0.5 * (verts[nbrs[idx, 0]] + verts[nbrs[idx, 1]])
        verts[idx] += weight * (mid - verts[idx])
    return mesh.with_vertices(verts)
