"""Reconstruction quality metrics and the inflation baseline.

Three mesh-to-mesh scores:

* Chamfer distance (CHD): symmetric sum of mean squared nearest-neighbor
  distances between surface samplings; lower is better.
* Normal consistency (NC): unsigned cosine agreement between normals of
  nearest point pairs, averaged over both directions, in percent.
* Image consistency (IC): per-view silhouette IoU times unsigned normal-map
  cosine from 8 cuboid cameras, averaged, in percent. The cosine term is
  taken over pixels covered in both renders; scoring background pixels
  would reward empty agreement.

The inflation baseline meshes the eps-isolevel of the field with ordinary
signed marching cubes, producing a thin watertight shell around the
surface.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import render
from .extract import _mesh_signed_cells
from .fields import UdfField
from .grid import GridSpec, _require, sample_band
from .mesh import TriMesh

DEFAULT_EPS_FACTOR = 0.55
DEFAULT_SAMPLES = 30000


@dataclass
class MetricsReport:
    chd: float                      # world units squared
    ic: float                       # percent
    nc: float                       # percent
    timings: dict = dc_field(default_factory=dict)

    @property
    def chd_x1000(self) -> float:
        """Chamfer scaled by 1e3, the usual table convention."""
        return self.chd * 1e3

    def to_dict(self) -> dict:
        return {"chd": self.chd, "chd_x1000": self.chd_x1000,
                "ic": self.ic, "nc": self.nc, "timings": dict(self.timings),
                "ic_cosine_over": "co-covered pixels"}


def sample_surface(mesh: TriMesh, n: int, seed: int = 0):
    """Area-weighted surface samples with their face normals.

    Returns (points (n,3), normals (n,3), face indices (n,), barycentric
    weights (n,3)); the last two let callers push sample gradients back to
    the vertices. ``n`` must be at least 1 and ``seed`` at least 0.
    """
    _require(n >= 1, "n", "at least 1", n)
    _require(seed >= 0, "seed", "at least 0", seed)
    if mesh.is_empty():
        raise ValueError("cannot sample an empty mesh")
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0:
        raise ValueError("mesh has zero surface area")
    rng = np.random.default_rng(seed)
    faces = rng.choice(mesh.n_faces, size=n, p=areas / total)
    r1 = rng.random(n)
    r2 = rng.random(n)
    su = np.sqrt(r1)
    w = np.stack([1.0 - su, su * (1.0 - r2), su * r2], axis=1)
    tri = mesh.vertices[mesh.faces[faces]]
    pts = np.einsum("nc,ncj->nj", w, tri)
    return pts, mesh.face_normals()[faces], faces, w


def nearest_neighbor_sq(query: np.ndarray, target: np.ndarray):
    """Squared nearest-neighbor distance and index of each query in target.

    Distances are recomputed from the top tree candidates with plain
    subtract-square-sum arithmetic and minimized, so results are bitwise
    identical to a brute-force scan even when two targets tie within
    rounding of each other.
    """
    from scipy.spatial import cKDTree     # imported here to keep it off the meshing path
    k = min(4, len(target))
    idx = cKDTree(target).query(query, k=k)[1].reshape(len(query), k)
    diff = query[:, None, :] - target[idx]
    d2 = (diff ** 2).sum(axis=-1)
    pick = np.argmin(d2, axis=1)
    rows = np.arange(len(query))
    return d2[rows, pick], idx[rows, pick]


def _chamfer_nc(a, b, a_normals=None, b_normals=None):
    """CHD, and NC when normals are given (else None), from one
    nearest-neighbor query each way."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer requires non-empty point sets")
    d_ab, idx_ab = nearest_neighbor_sq(a, b)
    d_ba, idx_ba = nearest_neighbor_sq(b, a)
    chd = float(d_ab.mean() + d_ba.mean())
    if a_normals is None:
        return chd, None
    cos_ab = np.abs(np.einsum("ij,ij->i", a_normals, b_normals[idx_ab]))
    cos_ba = np.abs(np.einsum("ij,ij->i", b_normals, a_normals[idx_ba]))
    return chd, float(50.0 * (cos_ab.mean() + cos_ba.mean()))


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Chamfer distance between two point sets (squared units)."""
    return _chamfer_nc(a, b)[0]


def normal_consistency(a_pts, a_normals, b_pts, b_normals) -> float:
    """Mean unsigned cosine between normals of nearest pairs, in percent."""
    return _chamfer_nc(a_pts, b_pts, a_normals, b_normals)[1]


def image_consistency(pred: TriMesh, gt: TriMesh, size: int = render.IMAGE_SIZE) -> float:
    """Silhouette IoU times normal-map cosine over 8 views, in percent."""
    if pred.is_empty() or gt.is_empty():
        raise ValueError("image consistency requires non-empty meshes")
    cams, target = render.scene_cameras(pred, gt)

    scores = []
    for k, eye in enumerate(cams):
        sil_p, nrm_p = render.render_view(pred, eye, target, size)
        sil_g, nrm_g = render.render_view(gt, eye, target, size)
        union = sil_p | sil_g
        if not union.any():
            warnings.warn(f"view {k}: both silhouettes empty, view skipped")
            continue
        inter = sil_p & sil_g
        iou = inter.sum() / union.sum()
        if inter.any():
            dots = np.einsum("ij,ij->i", nrm_p[inter], nrm_g[inter])
            cos = float(np.abs(dots).mean())
        else:
            cos = 0.0
        scores.append(iou * cos)
    if not scores:
        return 0.0
    return float(100.0 * np.mean(scores))


def evaluate_pair(pred: TriMesh, gt: TriMesh, n_samples: int = DEFAULT_SAMPLES,
                  seed: int = 0, image_size: int = render.IMAGE_SIZE) -> MetricsReport:
    """All three metrics between a reconstruction and a reference mesh.
    ``n_samples`` and ``image_size`` must be at least 1, ``seed`` at least 0."""
    _require(n_samples >= 1, "n_samples", "at least 1", n_samples)
    _require(seed >= 0, "seed", "at least 0", seed)
    _require(image_size >= 1, "image_size", "at least 1", image_size)
    timings = {}
    t0 = time.perf_counter()
    a_pts, a_nrm, _, _ = sample_surface(pred, n_samples, seed)
    b_pts, b_nrm, _, _ = sample_surface(gt, n_samples, seed + 1)
    timings["sample"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    chd, nc = _chamfer_nc(a_pts, b_pts, a_nrm, b_nrm)
    timings["chamfer_nc"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ic = image_consistency(pred, gt, image_size)
    timings["image_consistency"] = time.perf_counter() - t0
    return MetricsReport(chd=chd, ic=ic, nc=nc, timings=timings)


def inflate_mesh(field: UdfField, spec: GridSpec, eps: float | None = None,
                 threads: int | None = None) -> TriMesh:
    """Mesh the eps-isolevel of the field with signed marching cubes.

    Default eps is 55% of the grid step; the shell closes up (watertight)
    once 2*eps reaches the step size. ``sample_band`` with the band
    [eps, eps] hands over every cell that may straddle the isolevel, so a
    field with a Lipschitz bound is evaluated only near it. The mesh is the
    same as ``mesh_signed_grid`` of dense ``sample_grid`` minus eps.
    """
    if eps is None:
        eps = DEFAULT_EPS_FACTOR * float(spec.step.max())
    _require(0 < eps < np.inf, "eps", "positive and finite", eps)
    _, u8, (ids, index), _ = sample_band(field, spec, eps, eps, threads)
    return _mesh_signed_cells(spec, u8 - eps, ids, index)
