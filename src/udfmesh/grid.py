"""Regular-lattice sampling of a field and candidate-cell selection.

``sample_grid`` and ``sample_grid_values`` evaluate every corner.
``sample_band`` evaluates a field coarse to fine and skips the blocks its
Lipschitz bound proves to lie outside a band of values; extraction and
inflation use it. Every query runs in the fixed chunks of ``_evaluate``,
lattice corners through ``_sample_corners``, so results do not depend on
the worker count.
"""

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


class NonFiniteFieldError(ValueError):
    """A field returned NaN or infinity at a lattice corner."""


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


CHUNK = 32768                 # points per query; bounds one query's memory
ROUNDING_SLACK = 1e-9         # relative widening of every Lipschitz radius


def _evaluate(field: UdfField, n_pts: int, points, threads: int | None,
              grad: bool, what: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Values (and gradients with ``grad``) at ``n_pts`` points, where
    ``points(s, e)`` builds points s..e-1.

    Points are processed in fixed chunks of ``CHUNK``; each worker writes a
    disjoint slice, so the result is identical for any worker count. A
    non-finite value raises ``NonFiniteFieldError`` naming the first such
    point as ``what``.
    """
    threads = resolve_threads(threads)
    u = np.empty(n_pts)
    g = np.empty((n_pts, 3)) if grad else None
    spans = [(s, min(s + CHUNK, n_pts)) for s in range(0, n_pts, CHUNK)]

    # through the public queries, so a traced run bills them to the field
    def run(span):
        s, e = span
        if grad:
            u[s:e], g[s:e] = field.eval_grad(points(s, e))
        else:
            u[s:e] = field.eval(points(s, e))

    if threads == 1 or len(spans) <= 1:
        for span in spans:
            run(span)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, spans))

    bad = np.flatnonzero(~np.isfinite(u))
    if len(bad):
        x, y, z = points(bad[0], bad[0] + 1)[0]
        raise NonFiniteFieldError(f"field produced a non-finite value at {what} "
                                  f"({x:.6g}, {y:.6g}, {z:.6g})")
    return u, g


def _sample_corners(field: UdfField, spec: GridSpec, threads: int | None,
                    grad: bool, ids: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Values (and gradients with ``grad``) at lattice corners.

    Without ``ids`` every corner is evaluated and the arrays come back
    [i, j, k] indexed. With a sorted array of x-fastest corner ids they come
    back flat, one entry per id. Either way the corners run in fixed chunks
    of the id list, and a non-finite value names the first such corner in
    x-fastest order.
    """
    n = spec.resolution
    xs, ys, zs = (spec.axis_coords(a) for a in range(3))

    def points(s, e):
        i = np.arange(s, e) if ids is None else ids[s:e]
        return np.column_stack([xs[i % n], ys[i // n % n], zs[i // (n * n)]])

    n_pts = n ** 3 if ids is None else len(ids)
    u, g = _evaluate(field, n_pts, points, threads, grad, "corner")
    if ids is not None:
        return u, g
    # flat order is x-fastest; bring it to [i, j, k] indexing
    u = np.ascontiguousarray(u.reshape(n, n, n).transpose(2, 1, 0))
    if not grad:
        return u, None
    return u, np.ascontiguousarray(g.reshape(n, n, n, 3).transpose(2, 1, 0, 3))


def sample_grid(field: UdfField, spec: GridSpec, threads: int | None = None) -> GridSamples:
    """Evaluate value and gradient at every corner of the lattice."""
    u, g = _sample_corners(field, spec, threads, grad=True)
    return GridSamples(spec, u, g)


def sample_grid_values(field: UdfField, spec: GridSpec,
                       threads: int | None = None) -> np.ndarray:
    """Field values only, for consumers that never touch gradients."""
    return _sample_corners(field, spec, threads, grad=False)[0]


# per-axis offsets of a block's 8 children and of the 27 corners of a
# stride-2 block
_CHILDREN = np.indices((2, 2, 2)).reshape(3, -1).T
_BLOCK_CORNERS = np.indices((3, 3, 3)).reshape(3, -1).T


def sample_band(field: UdfField, spec: GridSpec, lower: float, upper: float,
                threads: int | None = None) -> tuple[np.ndarray, int]:
    """Corner values wherever the field's bound cannot rule out the band
    [lower, upper]; returns the [i, j, k] value array and the number of
    corners evaluated.

    A field with ``lipschitz = L`` moves by at most L per unit distance, so
    its value u(c) at the centre of a block of s^3 cells bounds the whole
    block to [u(c) - h, u(c) + h] with h = L (s/2) cell diagonals. Blocks
    start at the largest power-of-two stride s <= (N-1)/4 and halve down to
    stride 2; each level keeps only the blocks whose bound meets the band.
    Every corner of every cell of a surviving stride-2 block gets its exact
    value; every other corner gets a placeholder on its certified side,
    -inf below ``lower`` and +inf above ``upper``. So any cell with a corner
    value in the band, or with corners on both sides of it, has only exact
    corners. A field without a bound, or a lattice too small for stride 2,
    gets every corner evaluated, as ``sample_grid_values`` does.
    """
    n = spec.resolution
    m = n - 1
    s = 1
    while 2 * s <= m / 4:
        s *= 2
    if field.lipschitz is None or s < 2:
        return _sample_corners(field, spec, threads, grad=False)[0], n ** 3

    lo, step = np.asarray(spec.bounds_min), spec.step
    values = np.full((n, n, n), np.inf)
    axis = np.arange(0, m, s)
    blocks = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    while True:
        h = field.lipschitz * (s / 2) * spec.cell_diagonal * (1 + ROUNDING_SLACK)
        # centres of blocks running past the last cell lie outside the box;
        # the bound still covers the part inside it
        centres = lo + (blocks + s // 2) * step
        u, _ = _evaluate(field, len(blocks), lambda a, b: centres[a:b], threads,
                         False, "block centre")
        for x, y, z in blocks[u + h < lower]:
            values[x:x + s + 1, y:y + s + 1, z:z + s + 1] = -np.inf
        blocks = blocks[(u + h >= lower) & (u - h <= upper)]
        if s == 2:
            break
        s //= 2
        blocks = (blocks[:, None, :] + s * _CHILDREN).reshape(-1, 3)
        blocks = blocks[(blocks < m).all(axis=1)]

    corners = (blocks[:, None, :] + _BLOCK_CORNERS).reshape(-1, 3)
    ids = np.unique(spec.corner_linear_index(corners[(corners <= m).all(axis=1)]))
    values[ids % n, ids // n % n, ids // (n * n)] = \
        _sample_corners(field, spec, threads, False, ids)[0]
    return values, len(ids)


def cell_corner_sums(values: np.ndarray) -> np.ndarray:
    """Sum of the 8 corner values of every cell, shape (N-1, N-1, N-1)."""
    v = values
    out = v[:-1, :-1, :-1].astype(np.float64).copy()
    for sl in (v[1:, :-1, :-1], v[1:, 1:, :-1], v[:-1, 1:, :-1],
               v[:-1, :-1, 1:], v[1:, :-1, 1:], v[1:, 1:, 1:], v[:-1, 1:, 1:]):
        out += sl
    return out


def candidate_cells(samples, spec: GridSpec | None = None,
                    cull_factor: float = 1.0) -> np.ndarray:
    """Linear indices of cells whose mean corner distance is at most
    ``cull_factor`` cell diagonals; everything farther is skipped.

    ``samples`` is a ``GridSamples`` or an [i, j, k] array of corner values;
    an array needs ``spec``.
    """
    if cull_factor <= 0:
        raise ValueError("cull_factor must be positive")
    if isinstance(samples, GridSamples):
        spec, values = spec or samples.spec, samples.u
    else:
        values = samples
    means = cell_corner_sums(values) / 8.0
    keep = means.transpose(2, 1, 0).ravel() <= cull_factor * spec.cell_diagonal
    return np.flatnonzero(keep)


# -- raw grid export ----------------------------------------------------------

def dump_grid(values: np.ndarray, spec: GridSpec, base_path: str) -> tuple[str, str]:
    """Write (N, N, N) corner distances as little-endian float32 (x fastest)
    plus a JSON sidecar describing the lattice; ``load_grid_dump`` reads
    them back. Returns the two paths written."""
    data_path = base_path + ".f32"
    meta_path = base_path + ".json"
    np.asarray(values).transpose(2, 1, 0).ravel().astype("<f4").tofile(data_path)
    with open(meta_path, "w") as fh:
        json.dump({
            "resolution": spec.resolution,
            "bounds_min": list(spec.bounds_min),
            "bounds_max": list(spec.bounds_max),
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
