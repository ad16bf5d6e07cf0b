"""Regular-lattice sampling of a field and the cells near a level set.

``sample_grid`` returns the value at every corner as a plain (N, N, N)
array. ``sample_band`` hands extraction and inflation the cells whose
values may meet a band, sorted, with their 8 exact corner values; for a
field with a Lipschitz bound it evaluates only the blocks the bound cannot
rule out, on every lattice size. The dense path serves only fields without
a bound and value lattices given by the caller. Gradients are evaluated
only at the corners extraction signs, by ``_sample_corners`` given their
ids. Every query runs in the fixed chunks of ``_evaluate``, lattice
corners through ``_sample_corners``, so results do not depend on the
worker count. The calling thread is one worker; ``resolve_threads`` gives
the count, by default one per core left over by BLAS.

``sample_band`` also hands on its corner table (``_corner_table``): the
sorted distinct corner ids of its cells and each cell's (m, 8) index into
them. A cell's min corner id i + n j + n^2 k rises with its cell id, so for
sorted cells every column of the (m, 8) corner ids is already sorted, and
one stable sort of those 8 runs deduplicates them. It is the only lattice
index: later stages pick the corners of a subset of the cells out of the
table with a mask and a rank (``_corner_subtable``) instead of sorting
again, and the weld keys each lattice edge by its axis and the rank of its
low corner in the table.
"""

from __future__ import annotations

import json
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .fields import UdfField
from .mc_tables import CORNER_OFFSETS

THREADS_ENV_VAR = "UDF_MESHER_THREADS"
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _default_threads() -> int:
    """The cores this process may use, divided by the threads each BLAS
    call may start (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``).
    With neither set, or set to no positive count, BLAS starts one thread
    per core, and sampling workers on top of it only queue for the same
    cores, so the default is one worker: on two cores, two workers over
    two-thread BLAS took a network's ``sample_grid`` from about 0.45 s to
    0.7 s."""
    value = next((os.environ[name] for name in BLAS_ENV_VARS
                  if os.environ.get(name, "").strip()), "0")
    try:
        per_call = int(value.split(",")[0])
    except ValueError:
        per_call = 0
    if per_call < 1:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:                   # not offered on every platform
        cores = os.cpu_count() or 1
    return max(1, cores // per_call)


def resolve_threads(threads: int | None = None) -> int:
    """Effective worker count: the argument, else ``UDF_MESHER_THREADS``,
    else ``_default_threads()``. An argument or a variable that is not an
    integer of at least 1 raises a ``ValueError`` naming it; nothing is
    rounded or clipped."""
    source, value, parse = "threads", threads, operator.index
    if threads is None:
        value = os.environ.get(THREADS_ENV_VAR)
        if not value:
            return _default_threads()
        source, parse = THREADS_ENV_VAR, int
    try:
        count = parse(value)
    except (TypeError, ValueError):
        count = 0
    _require(count >= 1, source, "an integer of at least 1", value)
    return count


def _require(ok: bool, name: str, rule: str, value) -> None:
    """Refuse an argument that breaks its rule with a ``ValueError`` naming
    it: "<name> must be <rule>, got <value>"."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


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
        try:
            n = operator.index(self.resolution)
        except TypeError:
            n = 0
        _require(n >= 2, "resolution", "an integer of at least 2", self.resolution)
        object.__setattr__(self, "resolution", n)
        lo, hi = np.asarray(self.bounds_min, float), np.asarray(self.bounds_max, float)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError(f"bounds must be finite, got bounds_min {lo.tolist()} "
                             f"and bounds_max {hi.tolist()}")
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

    def corner_points(self, ids: np.ndarray | None = None) -> np.ndarray:
        """The (k, 3) lattice points of x-fastest corner ids, or all N^3
        corners, x varying fastest, without ``ids``."""
        n = self.resolution
        if ids is None:
            ids = np.arange(n ** 3)
        xs, ys, zs = (self.axis_coords(a) for a in range(3))
        return np.column_stack([xs[ids % n], ys[ids // n % n], zs[ids // (n * n)]])

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


CHUNK = 32768                 # points per field query; an MlpUdf value query
                              # then holds one block of them at a time
ROUNDING_SLACK = 1e-9         # relative widening of every Lipschitz radius


def _evaluate(field: UdfField, n_pts: int, points, threads: int | None,
              grad: bool, what: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Values (and gradients with ``grad``) at ``n_pts`` points, where
    ``points(s, e)`` builds points s..e-1.

    Points are processed in fixed chunks of ``CHUNK``, each written to its
    own slice, so the result is identical for any worker count. The calling
    thread and at most ``min(workers, whole chunks) - 1`` helper threads
    take chunks in order from one shared iterator, so no thread starts
    without a whole chunk to run, and each worker holds one chunk's query at
    a time. The
    first chunk that raises, in chunk order, has its exception re-raised
    unchanged once every worker has stopped; no chunk is started after a
    failure. A non-finite value raises ``NonFiniteFieldError`` naming the
    first such point as ``what``.
    """
    workers = resolve_threads(threads)
    u = np.empty(n_pts)
    g = np.empty((n_pts, 3)) if grad else None
    starts = iter(range(0, n_pts, CHUNK))
    lock = threading.Lock()
    failed = {}                              # chunk start -> its exception

    def work():
        while True:
            with lock:
                s = None if failed else next(starts, None)
            if s is None:
                return
            e = min(s + CHUNK, n_pts)
            # through the public queries, so a traced run bills them to the field
            try:
                if grad:
                    u[s:e], g[s:e] = field.eval_grad(points(s, e))
                else:
                    u[s:e] = field.eval(points(s, e))
            except BaseException as exc:
                with lock:
                    failed[s] = exc
                return

    # A last partial chunk starts no helper of its own: a 20-iteration
    # cylinder fit, whose 40k-corner passes are one chunk and a fifth (about
    # 2 ms each), ran 4% slower with a helper for the fifth. Every chunk
    # before a failed one was handed out before it and runs to its end, so
    # the lowest failed start is the first chunk that fails
    helpers = [threading.Thread(target=work)
               for _ in range(min(workers, n_pts // CHUNK) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]

    bad = np.flatnonzero(~np.isfinite(u))
    if len(bad):
        x, y, z = points(bad[0], bad[0] + 1)[0]
        raise NonFiniteFieldError(f"field produced a non-finite value at {what} "
                                  f"({x:.6g}, {y:.6g}, {z:.6g})")
    return u, g


def _sample_corners(field: UdfField, spec: GridSpec, threads: int | None,
                    grad: bool, ids: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Values (and gradients with ``grad``) at a sorted array of x-fastest
    corner ids, or at every corner without ``ids``, one flat entry per
    corner. The corners run in fixed chunks of the id list, and a non-finite
    value names the first such corner in x-fastest order.
    """
    n = spec.resolution

    def points(s, e):
        return spec.corner_points(np.arange(s, e) if ids is None else ids[s:e])

    return _evaluate(field, n ** 3 if ids is None else len(ids), points, threads,
                     grad, "corner")


def sample_grid(field: UdfField, spec: GridSpec, threads: int | None = None) -> np.ndarray:
    """The value at every lattice corner as an (N, N, N) array indexed
    [i, j, k] = (x, y, z); a non-finite value raises ``NonFiniteFieldError``.
    Gradients are read by extraction at the corners it signs, never here."""
    n = spec.resolution
    u = _sample_corners(field, spec, threads, grad=False)[0]
    # flat order is x-fastest; bring it to [i, j, k] indexing
    return np.ascontiguousarray(u.reshape(n, n, n).transpose(2, 1, 0))


def _cell_corners(values: np.ndarray, ijk: np.ndarray) -> np.ndarray:
    """Entries of an [i, j, k] array (N, N, N, ...) at the corners of the cells
    with min corners ``ijk``, as (m, 8, ...) in ``CORNER_OFFSETS`` order."""
    n = values.shape[0]
    strides = np.array([n * n, n, 1])      # of the flat [i, j, k] order
    flat = values.reshape(n ** 3, *values.shape[3:])
    return flat[(ijk @ strides)[:, None] + CORNER_OFFSETS @ strides]


def _lattice_band(values: np.ndarray, lower: float, upper: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The cells of an [i, j, k] value lattice with some corner <= ``upper``
    and some corner >= ``lower``, as (cells, u8) like ``sample_band``."""
    n = values.shape[0]
    # a NaN corner counts as above, as signed marching cubes counts it outside
    below, above = values <= upper, ~(values < lower)
    some_below, some_above = np.zeros((2,) + (n - 1,) * 3, dtype=bool)
    for dx, dy, dz in CORNER_OFFSETS:
        corner = np.s_[dx:dx + n - 1, dy:dy + n - 1, dz:dz + n - 1]
        some_below |= below[corner]
        some_above |= above[corner]
    # nonzero of the [k, j, i] view runs x fastest: ids come out sorted
    k, j, i = np.nonzero((some_below & some_above).transpose(2, 1, 0))
    cells = i + (n - 1) * (j + (n - 1) * k)
    return cells, _cell_corners(values, np.column_stack([i, j, k]))


def _corner_table(spec: GridSpec, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct corners of sorted cells: (ids, index), their sorted
    x-fastest corner ids and the (m, 8) position in ``ids`` of each cell's
    corners in ``CORNER_OFFSETS`` order, the arrays
    ``np.unique(corner_ids, return_inverse=True)`` gives. A cell's min corner
    id i + n j + n^2 k rises with its cell id, so each column of the corner
    ids is presorted and one stable sort merges the 8 runs; memory grows
    with the cells, not with the lattice."""
    n, m = spec.resolution, spec.resolution - 1
    low = cells + cells // m + n * (cells // (m * m))
    flat = ((CORNER_OFFSETS @ (1, n, n * n))[:, None] + low).ravel()
    order = np.argsort(flat, kind="stable")
    values = flat[order]
    head = np.empty(len(values), dtype=bool)
    head[:1] = True
    np.not_equal(values[1:], values[:-1], out=head[1:])
    first = np.flatnonzero(head)
    index = np.empty(len(order), dtype=np.int64)
    index[order] = np.repeat(np.arange(len(first)), np.diff(first, append=len(values)))
    return values[first], index.reshape(8, -1).T


def _corner_subtable(table: tuple[np.ndarray, np.ndarray], keep: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The corner table of the cells ``keep`` selects, picked out of
    ``table`` by marking the corners they use and ranking the marks."""
    ids, index = table
    index = index[keep]
    used = np.zeros(len(ids), dtype=bool)
    used[index] = True
    return ids[used], (np.cumsum(used) - 1)[index]


def sample_band(field: UdfField, spec: GridSpec, lower: float, upper: float,
                threads: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray], int]:
    """The cells whose values may meet the band [lower, upper]: (cells, u8,
    table, evaluated), the sorted linear cell ids, their (m, 8) exact corner
    values in ``CORNER_OFFSETS`` order, their corner table
    (``_corner_table``) and the number of corners evaluated. Every cell left
    out has all 8 corners above ``upper`` or all below ``lower``.

    A field with ``lipschitz = L`` moves by at most L per unit distance, so
    its value u(c) at the centre of a block of s^3 cells bounds the whole
    block to [u(c) - h, u(c) + h] with h = L (s/2) cell diagonals. Blocks
    start at the largest power-of-two stride s <= (N-1)/4, or at stride 2
    on a lattice of fewer than 8 cells per axis, and halve down to stride 2;
    each level keeps only the blocks whose bound meets the band, and the
    cells of the last survivors are returned. Only a field without a bound
    gets every corner evaluated, as ``sample_grid`` does, and every cell
    with a corner at or below ``upper`` and one at or above ``lower`` is
    returned.
    """
    n = spec.resolution
    m = n - 1
    if field.lipschitz is None:
        cells, u8 = _lattice_band(sample_grid(field, spec, threads), lower, upper)
        return cells, u8, _corner_table(spec, cells), n ** 3

    s = 2
    while 2 * s <= m / 4:
        s *= 2
    lo, step = np.asarray(spec.bounds_min), spec.step
    axis = np.arange(0, m, s)
    blocks = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    while True:
        h = field.lipschitz * (s / 2) * spec.cell_diagonal * (1 + ROUNDING_SLACK)
        # centres of blocks running past the last cell lie outside the box;
        # the bound still covers the part inside it
        centres = lo + (blocks + s // 2) * step
        u, _ = _evaluate(field, len(blocks), lambda a, b: centres[a:b], threads,
                         False, "block centre")
        blocks = blocks[(u + h >= lower) & (u - h <= upper)]
        s //= 2
        # a block's children sit at the offsets of a cell's corners, scaled;
        # those of stride-2 blocks are cells
        blocks = (blocks[:, None, :] + s * CORNER_OFFSETS).reshape(-1, 3)
        blocks = blocks[(blocks < m).all(axis=1)]
        if s == 1:
            break

    cells = np.sort(spec.cell_linear_index(blocks))
    ids, index = _corner_table(spec, cells)
    u = _sample_corners(field, spec, threads, False, ids)[0]
    return cells, u[index], (ids, index), len(ids)


def _cull(u8: np.ndarray, spec: GridSpec, cull_factor: float) -> np.ndarray:
    """Mask of the cells whose mean corner value, from (m, 8) corners added
    in ``CORNER_OFFSETS`` order, is at most ``cull_factor`` cell diagonals.
    ``u8.sum(axis=1)`` adds pairwise, which changes the last bit of some means
    and so moves cells across the cull boundary."""
    return sum(u8[:, c] for c in range(8)) / 8.0 <= cull_factor * spec.cell_diagonal


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
    try:
        spec = GridSpec(meta["resolution"], tuple(meta["bounds_min"]),
                        tuple(meta["bounds_max"]))
    except KeyError as exc:
        raise ValueError(f"{base_path}.json: no {exc} entry")
    flat = np.fromfile(base_path + ".f32", dtype="<f4").astype(np.float64)
    n = spec.resolution
    if flat.size != n ** 3:
        raise ValueError(f"{base_path}.f32: grid dump holds {flat.size} values, "
                         f"expected {n ** 3}")
    return flat.reshape(n, n, n).transpose(2, 1, 0).copy(), spec
