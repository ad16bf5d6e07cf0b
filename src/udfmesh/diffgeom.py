"""Derivatives of extracted vertices w.r.t. field parameters, and fitting.

Extraction itself is not differentiable, but each vertex can be modeled as
riding the zero set of the field. Probing parameter sensitivities a small
distance alpha on either side of a vertex along its surface normal gives a
rank-1 derivative row: the vertex moves along the normal at the rate the
zero set does. Each one-sided probe fully determines that rate (the two
probes are two estimates of the same motion), so the row averages them:

    dv/dc = n * 0.5 * [dphi/dc(v - alpha*n) - dphi/dc(v + alpha*n)]

Border vertices get a tangential rule instead: along the outward in-plane
vector o, raising the field ahead of the border pulls it in, so

    dv/dc = -o * dphi/dc(v + alpha*o)

which lets an optimizer grow or shrink open surfaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .extract import extract_mesh
from .fields import UdfField
from .grid import GridSpec, _require
from .mesh import TriMesh
from .metrics import nearest_neighbor_sq, sample_surface
from .postprocess import default_prune_tol, remove_spurious_facets, smooth_borders

DEFAULT_ALPHA = 1e-2
GRADCHECK_RTOL = 0.10         # rate tolerances of directional_gradcheck
GRADCHECK_ATOL = 1e-4


def vertex_normals(mesh: TriMesh) -> np.ndarray:
    """Per-vertex unit normals, robust to inconsistent face orientation.

    Faces are accumulated area-weighted, each one flipped if needed to agree
    with the running sum, so opposite-wound neighbors reinforce instead of
    cancelling. Every vertex visits its faces in face order; step k adds
    the k-th face of all vertices that have one. Vertices without faces get
    a zero normal.
    """
    fn = mesh.face_normals(normalize=False)
    fidx, start = mesh.vertex_faces()
    valence = np.diff(start)
    acc = np.zeros((mesh.n_vertices, 3))
    for k in range(valence.max(initial=0)):
        v = np.flatnonzero(valence > k)
        n = fn[fidx[start[v] + k]]
        acc[v] += np.where((np.vecdot(acc[v], n) < 0)[:, None], -n, n)
    norm = np.sqrt(np.vecdot(acc, acc))
    # faces that cancel exactly: fall back to the first face's normal
    lost = np.flatnonzero((norm < 1e-300) & (valence > 0))
    acc[lost] = fn[fidx[start[lost]]]
    norm[lost] = np.sqrt(np.vecdot(acc[lost], acc[lost]))
    return np.divide(acc, norm[:, None], out=np.zeros_like(acc),
                     where=norm[:, None] > 0)


def outward_vectors(mesh: TriMesh, field: UdfField,
                    alpha: float = DEFAULT_ALPHA):
    """Outward in-plane unit vectors at border vertices.

    o is the unit cross product of the incident face normal with the local
    border direction, its sign chosen toward increasing field value. At a
    vertex with exactly two border edges the border direction is the chord
    between its two neighbors, which cancels most of the staircase jag of
    extracted borders; junction vertices (3+ border edges) fall back to
    their first border edge. Returns (o (V, 3), resolved (V,) bool);
    unresolved vertices (vanishing cross product) should be treated as
    interior.
    """
    count, nbrs, face = mesh.border_table()
    o = np.zeros((mesh.n_vertices, 3))
    resolved = np.zeros(mesh.n_vertices, dtype=bool)
    if not count.any():
        return o, resolved

    junctions = int((count > 2).sum())
    if junctions:
        warnings.warn(f"{junctions} border vertices join 3+ border edges; "
                      "using their first border edge for the outward vector")

    verts = np.flatnonzero(count)
    chord = (count[verts] == 2)[:, None]
    first, second = nbrs[verts, 0], nbrs[verts, 1]
    p = mesh.vertices
    e = np.where(chord, p[second] - p[first], p[first] - p[verts])
    cross = np.cross(mesh.face_normals()[face[verts]], e)
    norm = np.sqrt(np.vecdot(cross, cross))
    keep = ~(norm < 1e-9)           # a NaN direction stays resolved
    verts = verts[keep]
    d = cross[keep] / norm[keep, None]

    pos = p[verts]
    u_plus = field.eval(pos + alpha * d)
    u_minus = field.eval(pos - alpha * d)
    sign = np.where(u_plus >= u_minus, 1.0, -1.0)
    o[verts] = d * sign[:, None]
    resolved[verts] = True
    return o, resolved


@dataclass
class VertexJacobian:
    """Rank-1 derivative rows: dv/dc = direction outer row, per vertex."""

    directions: np.ndarray          # (V, 3) unit n (interior) or o (border)
    rows: np.ndarray                # (V, C)
    is_border: np.ndarray           # (V,) bool
    alpha: float

    def predict_displacement(self, dc) -> np.ndarray:
        """First-order vertex motion for a parameter change dc, shape (V, 3)."""
        dc = np.asarray(dc, dtype=np.float64).reshape(-1)
        return (self.rows @ dc)[:, None] * self.directions

    def param_gradient(self, vertex_grads: np.ndarray) -> np.ndarray:
        """Pull per-vertex loss gradients (V, 3) back to the parameters."""
        along = np.einsum("vj,vj->v", vertex_grads, self.directions)
        return self.rows.T @ along


def interior_vertex_rows(field: UdfField, points: np.ndarray,
                         normals: np.ndarray, alpha: float) -> np.ndarray:
    """Rows for vertices inside the surface; invariant under n -> -n."""
    minus = field.param_sensitivity(points - alpha * normals)
    plus = field.param_sensitivity(points + alpha * normals)
    return 0.5 * (minus - plus)


def border_vertex_rows(field: UdfField, points: np.ndarray,
                       outward: np.ndarray, alpha: float) -> np.ndarray:
    """Rows for border vertices: raising the field ahead shrinks the sheet."""
    return -field.param_sensitivity(points + alpha * outward)


def assemble_jacobian(mesh: TriMesh, field: UdfField,
                      alpha: float = DEFAULT_ALPHA,
                      use_border_formula: bool = True) -> VertexJacobian:
    """One derivative row per vertex; border vertices use the outward rule
    unless ``use_border_formula`` is off (the ablation switch)."""
    _require(0 < alpha < np.inf, "alpha", "positive and finite", alpha)
    normals = vertex_normals(mesh)
    is_border = mesh.border_vertex_mask()
    directions = normals.copy()
    rows = np.zeros((mesh.n_vertices, field.param_dim))

    if use_border_formula and is_border.any():
        o, resolved = outward_vectors(mesh, field, alpha)
        border = is_border & resolved
        directions[border] = o[border]
    else:
        border = np.zeros(mesh.n_vertices, dtype=bool)

    interior = ~border
    if field.param_dim:
        if interior.any():
            rows[interior] = interior_vertex_rows(
                field, mesh.vertices[interior], directions[interior], alpha)
        if border.any():
            rows[border] = border_vertex_rows(
                field, mesh.vertices[border], directions[border], alpha)
    return VertexJacobian(directions, rows, border, alpha)


# -- point-cloud fitting -------------------------------------------------------

@dataclass
class FitResult:
    params: np.ndarray
    field: UdfField
    trace: list = dc_field(default_factory=list)   # (iter, chamfer, reg, total)
    events: list = dc_field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.trace[-1][3] if self.trace else float("nan")

    def trace_csv(self) -> str:
        lines = ["iter,chamfer,reg,total"]
        for it, chd, reg, total in self.trace:
            lines.append(f"{it},{chd:.10g},{reg:.10g},{total:.10g}")
        return "\n".join(lines) + "\n"


def fit_point_cloud(field: UdfField, target: np.ndarray, spec: GridSpec,
                    iters: int = 100, lr: float = 0.02,
                    lambda_reg: float = 0.0, alpha: float = DEFAULT_ALPHA,
                    n_surface: int = 10000, use_border_formula: bool = True,
                    adaptive: bool = False, seed: int = 0) -> FitResult:
    """Descend the one-sided Chamfer loss from a sparse point cloud to the
    extracted surface, moving the field parameters.

    Each iteration re-extracts the mesh, prunes and border-smooths it with
    the defaults of ``udfmesh mesh``, samples its surface (same seed
    every pass to keep gradient variance down), matches every target point
    to its nearest sample, and pushes the point-to-sample distances back
    through the barycentric weights and the vertex derivative rows. An
    empty extraction stops the fit with one ``(iter, "empty mesh, fit
    stopped")`` event: with no surface there is no step, so every later
    iteration would see the same empty mesh. ``iters`` and ``n_surface``
    must be at least 1, ``seed`` at least 0, ``lr`` and ``alpha`` positive
    and ``lambda_reg`` non-negative, all finite.
    """
    _require(iters >= 1, "iters", "at least 1", iters)
    _require(n_surface >= 1, "n_surface", "at least 1", n_surface)
    _require(seed >= 0, "seed", "at least 0", seed)
    _require(0 < lr < np.inf, "lr", "positive and finite", lr)
    _require(0 < alpha < np.inf, "alpha", "positive and finite", alpha)
    _require(0 <= lambda_reg < np.inf, "lambda_reg", "non-negative and finite", lambda_reg)
    target = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if len(target) == 0:
        raise ValueError("target point cloud is empty")
    bad = np.flatnonzero(~np.isfinite(target).all(axis=1))
    if len(bad):
        raise ValueError(f"target point {bad[0]} is not finite: {target[bad[0]].tolist()}")
    params = np.asarray(field.params, dtype=np.float64).copy()
    prune_tol = default_prune_tol(spec)

    result = FitResult(params=params, field=field)
    m1 = np.zeros_like(params)
    m2 = np.zeros_like(params)

    for it in range(iters):
        current = field.with_params(params)
        mesh = remove_spurious_facets(extract_mesh(current, spec), current, prune_tol)
        mesh = smooth_borders(mesh)
        if mesh.is_empty():
            # nothing to descend on, and the parameters cannot change again
            result.events.append((it, "empty mesh, fit stopped"))
            result.trace.append((it, float("nan"), float("nan"), float("nan")))
            break

        pts, _, faces, bary = sample_surface(mesh, n_surface, seed)
        d2, idx = nearest_neighbor_sq(target, pts)
        dist = np.sqrt(d2)
        chd_loss = float(dist.mean())

        # d|a - p|/da for each matched sample, averaged over targets
        ok = dist > 0
        pull = np.zeros_like(target)
        pull[ok] = (pts[idx[ok]] - target[ok]) / dist[ok, None]
        pull /= len(target)

        vgrad = np.zeros((mesh.n_vertices, 3))
        hit_faces = mesh.faces[faces[idx]]
        hit_bary = bary[idx]
        for corner in range(3):
            np.add.at(vgrad, hit_faces[:, corner],
                      hit_bary[:, corner, None] * pull)

        jac = assemble_jacobian(mesh, current, alpha, use_border_formula)
        grad = jac.param_gradient(vgrad)

        reg_loss = 0.0
        norm = np.linalg.norm(params)
        if lambda_reg > 0:
            reg_loss = float(lambda_reg * norm)
            if norm > 0:
                grad = grad + lambda_reg * params / norm
        result.trace.append((it, chd_loss, reg_loss, chd_loss + reg_loss))

        if adaptive:
            m1 = 0.9 * m1 + 0.1 * grad
            m2 = 0.999 * m2 + 0.001 * grad * grad
            c1 = m1 / (1 - 0.9 ** (it + 1))
            c2 = m2 / (1 - 0.999 ** (it + 1))
            params = params - lr * c1 / (np.sqrt(c2) + 1e-8)
        else:
            params = params - lr * grad

    result.params = params
    result.field = field.with_params(params)
    return result


# -- finite-difference verification --------------------------------------------

@dataclass
class GradcheckReport:
    passed: bool
    max_error: float
    worst: tuple | None              # (vertex index, predicted, measured)
    n_checked: int
    n_rejected: int
    records: list = dc_field(default_factory=list)


def gradcheck_csv(records) -> str:
    """Per-vertex check records as CSV, one row each under a header."""
    lines = ["vertex,predicted,measured,error,tolerance,kind"]
    for rec in records:
        lines.append("%d,%.10g,%.10g,%.10g,%.10g,%s" % rec)
    return "\n".join(lines) + "\n"


def directional_gradcheck(field: UdfField, spec: GridSpec, delta: np.ndarray,
                          eps: float = 1e-3, alpha: float = DEFAULT_ALPHA) -> GradcheckReport:
    """Compare predicted vertex motion against re-extraction.

    The field is perturbed by eps*delta, the mesh re-extracted, and each
    interior vertex matched to its nearest new vertex (rejection radius half
    a step). Measured displacement projected on the vertex direction must
    agree with the predicted rate within max(GRADCHECK_RTOL * |predicted|,
    GRADCHECK_ATOL / eps); the predicted rates probe the field ``alpha``
    away from each vertex, as ``assemble_jacobian`` does.
    Border vertices are excluded: their positions are grid-quantized along
    the border tangent, so re-extraction cannot observe the modeled
    tangential rate (the fitting tests exercise that term end to end).
    ``eps`` and ``alpha`` must be positive and finite.
    """
    _require(0 < eps < np.inf, "eps", "positive and finite", eps)
    _require(0 < alpha < np.inf, "alpha", "positive and finite", alpha)
    delta = np.asarray(delta, dtype=np.float64).reshape(-1)
    if field.param_dim == 0:
        return GradcheckReport(True, 0.0, None, 0, 0)
    prune_tol = default_prune_tol(spec)

    base_params = np.asarray(field.params, dtype=np.float64)
    if np.array_equal(base_params + eps * delta, base_params):
        raise ValueError(f"gradcheck: eps={eps:g} times delta leaves the parameters "
                         "unchanged, so no vertex can move")
    mesh0 = remove_spurious_facets(extract_mesh(field, spec), field, prune_tol)
    if mesh0.is_empty():
        raise ValueError("gradcheck: base field extracts an empty mesh")
    jac = assemble_jacobian(mesh0, field, alpha)

    moved = field.with_params(base_params + eps * delta)
    mesh1 = remove_spurious_facets(extract_mesh(moved, spec), moved, prune_tol)
    if mesh1.is_empty():
        raise ValueError("gradcheck: perturbed field extracts an empty mesh")

    # exclude borders and anything within a cell of the domain walls
    lo = np.asarray(spec.bounds_min) + spec.step
    hi = np.asarray(spec.bounds_max) - spec.step
    inside_domain = np.all((mesh0.vertices >= lo) & (mesh0.vertices <= hi), axis=1)
    check = inside_domain & ~jac.is_border

    d2, idx = nearest_neighbor_sq(mesh0.vertices, mesh1.vertices)
    radius = 0.5 * float(spec.step.min())
    matched = d2 <= radius * radius
    n_rejected = int((check & ~matched).sum())
    check &= matched

    predicted_rate = jac.rows @ delta
    disp = mesh1.vertices[idx] - mesh0.vertices
    measured = np.einsum("vj,vj->v", disp, jac.directions) / eps

    records = []
    max_err = 0.0
    worst = None
    passed = True
    for v in np.flatnonzero(check):
        err = abs(measured[v] - predicted_rate[v])
        tol = max(GRADCHECK_RTOL * abs(predicted_rate[v]), GRADCHECK_ATOL / eps)
        ok = err <= tol
        records.append((v, predicted_rate[v], measured[v], err, tol,
                        "interior"))
        if err > max_err:
            max_err = err
            worst = (int(v), float(predicted_rate[v]), float(measured[v]))
        passed &= ok
    return GradcheckReport(passed, max_err, worst, int(check.sum()),
                           n_rejected, records)
