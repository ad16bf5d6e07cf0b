"""Regular-lattice sampling of a field and candidate-cell selection."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fields import UdfField

THREADS_ENV_VAR = "UDF_MESHER_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Effective worker count: explicit argument wins over the environment."""
    if threads is None:
        env = os.environ.get(THREADS_ENV_VAR)
        threads = int(env) if env else 1
    return max(1, int(threads))


@dataclass(frozen=True)
class GridSpec:
    """Corner lattice over an axis-aligned box; ``resolution`` counts corners
    per axis, so a resolution of N spans N-1 cells."""

    resolution: int = 129
    bounds_min: tuple = (-1.0, -1.0, -1.0)
    bounds_max: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2 corners per axis")
        lo, hi = np.asarray(self.bounds_min, float), np.asarray(self.bounds_max, float)
        if not np.all(lo < hi):
            raise ValueError("bounds_min must be strictly below bounds_max")
        object.__setattr__(self, "bounds_min", tuple(lo))
        object.__setattr__(self, "bounds_max", tuple(hi))

    @property
    def step(self) -> np.ndarray:
        lo, hi = np.asarray(self.bounds_min), np.asarray(self.bounds_max)
        return (hi - lo) / (self.resolution - 1)

    @property
    def cell_diagonal(self) -> float:
        return float(np.linalg.norm(self.step))

    @property
    def n_cells(self) -> int:
        return (self.resolution - 1) ** 3

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.linspace(self.bounds_min[axis], self.bounds_max[axis], self.resolution)

    def corner_points(self) -> np.ndarray:
        """All lattice corners as (N^3, 3), x varying fastest."""
        xs, ys, zs = (self.axis_coords(a) for a in range(3))
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        pts = np.empty((self.resolution ** 3, 3))
        # transpose so the flat order runs x fastest, then y, then z
        pts[:, 0] = gx.transpose(2, 1, 0).ravel()
        pts[:, 1] = gy.transpose(2, 1, 0).ravel()
        pts[:, 2] = gz.transpose(2, 1, 0).ravel()
        return pts

    def corner_linear_index(self, ijk: np.ndarray) -> np.ndarray:
        ijk = np.asarray(ijk)
        n = self.resolution
        return ijk[..., 0] + n * (ijk[..., 1] + n * ijk[..., 2])

    def cell_origin_ijk(self, cell_index: np.ndarray) -> np.ndarray:
        """Cell linear index -> integer (i, j, k) of its min corner."""
        m = self.resolution - 1
        cell_index = np.asarray(cell_index)
        i = cell_index % m
        j = (cell_index // m) % m
        k = cell_index // (m * m)
        return np.stack([i, j, k], axis=-1)

    def cell_linear_index(self, ijk: np.ndarray) -> np.ndarray:
        ijk = np.asarray(ijk)
        m = self.resolution - 1
        return ijk[..., 0] + m * (ijk[..., 1] + m * ijk[..., 2])


@dataclass
class GridSamples:
    """Field values and gradients at every lattice corner.

    ``u`` has shape (N, N, N) indexed [i, j, k] = (x, y, z); ``g`` appends
    the component axis.
    """

    spec: GridSpec
    u: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        n = self.spec.resolution
        assert self.u.shape == (n, n, n)
        assert self.g.shape == (n, n, n, 3)

    def corner_values_flat(self) -> np.ndarray:
        """u flattened x-fastest (the dump-file order)."""
        return self.u.transpose(2, 1, 0).ravel()


def _sample_corners(field: UdfField, spec: GridSpec, threads: int | None,
                    grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Values (and gradients with ``grad``) at every corner, [i, j, k] indexed.

    Corners are processed in fixed chunks; each worker writes a disjoint
    slice, so the result is identical for any worker count.
    """
    threads = resolve_threads(threads)
    pts = spec.corner_points()
    n_pts = len(pts)
    u_flat = np.empty(n_pts)
    g_flat = np.empty((n_pts, 3)) if grad else None

    chunk = 262144
    spans = [(s, min(s + chunk, n_pts)) for s in range(0, n_pts, chunk)]

    # through the public queries, so a traced run bills them to the field
    def run(span):
        s, e = span
        if grad:
            u_flat[s:e], g_flat[s:e] = field.eval_grad(pts[s:e])
        else:
            u_flat[s:e] = field.eval(pts[s:e])

    if threads == 1 or len(spans) == 1:
        for span in spans:
            run(span)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, spans))

    n = spec.resolution
    # flat order is x-fastest; bring it to [i, j, k] indexing
    u = np.ascontiguousarray(u_flat.reshape(n, n, n).transpose(2, 1, 0))
    if not grad:
        return u, None
    return u, np.ascontiguousarray(g_flat.reshape(n, n, n, 3).transpose(2, 1, 0, 3))


def sample_grid(field: UdfField, spec: GridSpec, threads: int | None = None) -> GridSamples:
    """Evaluate value and gradient at every corner of the lattice."""
    u, g = _sample_corners(field, spec, threads, grad=True)
    return GridSamples(spec, u, g)


def sample_grid_values(field: UdfField, spec: GridSpec,
                       threads: int | None = None) -> np.ndarray:
    """Field values only, for consumers that never touch gradients."""
    return _sample_corners(field, spec, threads, grad=False)[0]


def cell_corner_sums(values: np.ndarray) -> np.ndarray:
    """Sum of the 8 corner values of every cell, shape (N-1, N-1, N-1)."""
    v = values
    out = v[:-1, :-1, :-1].astype(np.float64).copy()
    for sl in (v[1:, :-1, :-1], v[1:, 1:, :-1], v[:-1, 1:, :-1],
               v[:-1, :-1, 1:], v[1:, :-1, 1:], v[1:, 1:, 1:], v[:-1, 1:, 1:]):
        out += sl
    return out


def candidate_cells(samples: GridSamples, spec: GridSpec | None = None,
                    cull_factor: float = 1.0) -> np.ndarray:
    """Linear indices of cells whose mean corner distance is at most
    ``cull_factor`` cell diagonals; everything farther is skipped."""
    if cull_factor <= 0:
        raise ValueError("cull_factor must be positive")
    spec = spec or samples.spec
    means = cell_corner_sums(samples.u) / 8.0
    keep = means.transpose(2, 1, 0).ravel() <= cull_factor * spec.cell_diagonal
    return np.flatnonzero(keep)


# -- raw grid export ----------------------------------------------------------

def dump_grid(samples: GridSamples, base_path: str) -> tuple[str, str]:
    """Write corner distances as little-endian float32 (x fastest) plus a
    JSON sidecar describing the lattice. Returns the two paths written."""
    data_path = base_path + ".f32"
    meta_path = base_path + ".json"
    samples.corner_values_flat().astype("<f4").tofile(data_path)
    with open(meta_path, "w") as fh:
        json.dump({
            "resolution": samples.spec.resolution,
            "bounds_min": list(samples.spec.bounds_min),
            "bounds_max": list(samples.spec.bounds_max),
            "dtype": "<f4",
            "order": "x-fastest",
        }, fh, indent=2)
    return data_path, meta_path


def load_grid_dump(base_path: str) -> tuple[np.ndarray, GridSpec]:
    """Read a dumped grid back as ((N, N, N) float array, GridSpec)."""
    with open(base_path + ".json") as fh:
        meta = json.load(fh)
    spec = GridSpec(meta["resolution"], tuple(meta["bounds_min"]), tuple(meta["bounds_max"]))
    flat = np.fromfile(base_path + ".f32", dtype="<f4").astype(np.float64)
    n = spec.resolution
    if flat.size != n ** 3:
        raise ValueError(f"grid dump holds {flat.size} values, expected {n ** 3}")
    return flat.reshape(n, n, n).transpose(2, 1, 0).copy(), spec
