import os
import re
import sys
import threading
import types

import numpy as np
import pytest

from udfmesh import (GridSpec, MeshUdf, MlpUdf, OpenCylinderUdf,
                     RectanglePatchUdf, SphereShellUdf, TranslatedMeshUdf, TranslatedPlaneUdf,
                     TriMesh, dump_grid, extract_mesh_detailed, inflate_mesh,
                     load_grid_dump, mesh_signed_grid, primitives, random_mlp,
                     sample_grid)
from udfmesh import grid
from udfmesh.distance import COORD_LIMIT
from udfmesh.fields import UdfField
from udfmesh.grid import (BLAS_ENV_VARS, CHUNK, THREADS_ENV_VAR, NonFiniteFieldError, _cull,
                          _evaluate, _lattice_band, _sample_corners, resolve_threads,
                          sample_band)
from udfmesh.mlp import VALUE_BLOCK
from udfmesh.mc_tables import CORNER_OFFSETS

from conftest import generic_spec, wavy_patch_mlp
from oracles import cell_corner_sums, eager_sample_grid


def one_field_per_family():
    patch = MeshUdf(primitives.square_patch(side=1.0, z=0.0))
    net = random_mlp(hidden=(16, 16), encoding_order=3, latent_dim=4,
                     d_max=0.45, seed=3)
    return {
        "mesh": patch,
        "mesh-dmax": MeshUdf(patch.mesh, d_max=0.3),
        "translated-mesh": TranslatedMeshUdf(patch, (0.1, -0.2, 0.05)),
        "plane": TranslatedPlaneUdf(0.17),
        "sphere": SphereShellUdf(0.45),
        "patch": RectanglePatchUdf(0.4, -0.5, (-0.45, 0.55), 0.08),
        "cylinder": OpenCylinderUdf(0.55, (-0.5, 0.4)),
        "mlp": net.with_latent([0.3, -0.2, 0.1, 0.25]),
    }


FAMILIES = one_field_per_family()


def assert_bitwise(a, b):
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


def lattice_gradients(field, spec, threads=None):
    """Gradients at every corner, [i, j, k] indexed, through the one path
    extraction reads gradients by: ``_sample_corners`` given corner ids."""
    n = spec.resolution
    g = _sample_corners(field, spec, threads, True, np.arange(n ** 3))[1]
    return g.reshape(n, n, n, 3).transpose(2, 1, 0, 3)


class TestGridSpec:
    def test_step_and_diagonal(self):
        spec = GridSpec(129)
        assert np.allclose(spec.step, 2 / 128)
        assert spec.cell_diagonal == pytest.approx(np.sqrt(3) * 2 / 128)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1)
        with pytest.raises(ValueError):
            GridSpec(10, (0, 0, 0), (0, 1, 1))
        for lo, hi in [((-np.inf,) * 3, (1.0,) * 3), ((-1.0,) * 3, (1.0, np.inf, 1.0)),
                       ((-1.0, np.nan, -1.0), (1.0,) * 3)]:
            with pytest.raises(ValueError, match="bounds must be finite.*bounds_min"):
                GridSpec(17, lo, hi)

    def test_corner_points_x_fastest(self):
        spec = GridSpec(3, (0, 0, 0), (2, 2, 2))
        pts = spec.corner_points()
        assert pts.shape == (27, 3)
        np.testing.assert_array_equal(pts[0], (0, 0, 0))
        np.testing.assert_array_equal(pts[1], (1, 0, 0))   # x moves first
        np.testing.assert_array_equal(pts[3], (0, 1, 0))
        np.testing.assert_array_equal(pts[9], (0, 0, 1))

    def test_cell_index_round_trip(self):
        spec = GridSpec(7)
        cells = np.arange(spec.n_cells)
        ijk = spec.cell_origin_ijk(cells)
        np.testing.assert_array_equal(spec.cell_linear_index(ijk), cells)


class TestSampleGrid:
    def test_full_plane_patch_n3(self):
        # patch covering [-1,1]^2 at z=0: corners on the top/bottom faces sit
        # exactly one unit above or below the sheet
        field = RectanglePatchUdf(1.0, -1.0, (-1.0, 1.0), 0.0)
        samples = sample_grid(field, GridSpec(3))
        assert samples.shape == (3, 3, 3)
        np.testing.assert_allclose(samples[:, :, 0], 1.0)
        np.testing.assert_allclose(samples[:, :, 2], 1.0)
        np.testing.assert_allclose(samples[:, :, 1], 0.0)

    def test_sphere_center_value(self):
        samples = sample_grid(SphereShellUdf(0.5), GridSpec(3))
        assert samples[1, 1, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_matches_direct_eval(self, name):
        field = FAMILIES[name]
        spec = GridSpec(9, (-1.01, -0.99, -1.0), (0.99, 1.01, 1.0))
        samples = sample_grid(field, spec)
        pts = spec.corner_points()
        n = spec.resolution
        # corner_points runs x fastest; samples are indexed [i, j, k]
        u = field.eval(pts).reshape(n, n, n).transpose(2, 1, 0)
        g = field.grad_x(pts).reshape(n, n, n, 3).transpose(2, 1, 0, 3)
        assert_bitwise(samples, u)
        assert_bitwise(lattice_gradients(field, spec), g)

    def test_thread_count_does_not_change_results(self):
        field = SphereShellUdf(0.5)
        spec = GridSpec(33)                 # 35,937 corners: two chunks
        assert spec.resolution ** 3 > CHUNK
        np.testing.assert_array_equal(sample_grid(field, spec, threads=1),
                                      sample_grid(field, spec, threads=4))
        np.testing.assert_array_equal(lattice_gradients(field, spec, threads=1),
                                      lattice_gradients(field, spec, threads=4))

    def test_thread_env_var_respected_argument_wins(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert resolve_threads(None) == 3
        assert resolve_threads(7) == 7
        monkeypatch.delenv(THREADS_ENV_VAR)
        cores = len(os.sched_getaffinity(0))
        # BLAS unset: it already starts one thread per core
        for name in BLAS_ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        assert resolve_threads(None) == 1
        # one BLAS thread per call leaves every core to a sampling worker
        for name in BLAS_ENV_VARS:
            monkeypatch.setenv(name, "1")
            assert resolve_threads(None) == cores
            monkeypatch.setenv(name, str(cores))
            assert resolve_threads(None) == 1
            monkeypatch.delenv(name)
        # OPENBLAS_NUM_THREADS is read before OMP_NUM_THREADS
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(cores))
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert resolve_threads(None) == 1
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert resolve_threads(None) == 3
        assert resolve_threads(10 ** 6) == 10 ** 6

    def test_mesh_udf_open_cylinder_properties(self):
        # garment-like open tube sampled densely: distances stay
        # non-negative and the gradient is unit length off the surface
        field = MeshUdf(primitives.open_cylinder(radius=0.6, segments=36, rings=10))
        spec = GridSpec(64)
        samples = sample_grid(field, spec)
        assert (samples >= 0).all()
        off = samples > 1e-3
        norms = np.linalg.norm(lattice_gradients(field, spec)[off], axis=-1)
        assert np.abs(norms - 1).max() < 1e-6

    def test_values_only_sampler_agrees(self):
        # the values-only pass gives the values of a value-and-gradient pass
        field = SphereShellUdf(0.5)
        spec = GridSpec(17)
        np.testing.assert_array_equal(sample_grid(field, spec),
                                      eager_sample_grid(field, spec, CHUNK)[0])

    @pytest.mark.parametrize("sampler", [
        sample_grid,
        lambda f, spec: sample_band(f, spec, -np.inf, spec.cell_diagonal),
    ], ids=["sample_grid", "sample_band"])
    def test_non_finite_value_raises_naming_corner(self, sampler):
        data = random_mlp(hidden=(4,), encoding_order=2, seed=0).to_dict()
        data["biases"][-1][0] = float("nan")
        with pytest.raises(ValueError,
                           match=r"non-finite value at corner \(-1, -1, -1\)"):
            sampler(MlpUdf.from_dict(data), GridSpec(5))

    @pytest.mark.parametrize("d_max", [None, 0.2], ids=["plain", "dmax"])
    @pytest.mark.parametrize("layer", [0, -1], ids=["hidden", "output"])
    def test_nan_bias_raises_from_values_pass(self, layer, d_max):
        field = random_mlp(hidden=(8, 8), encoding_order=2, latent_dim=2,
                           d_max=d_max, seed=0)
        field.biases[layer][0] = np.nan
        if layer == 0:
            field.weights[1][:, 0] = 1.0      # the NaN unit reaches the output
        with pytest.raises(NonFiniteFieldError, match="non-finite value at corner"):
            sample_grid(field, GridSpec(5))

    @pytest.mark.parametrize("sampler", [
        sample_grid,
        lambda f, spec: sample_band(f, spec, 0.0, 0.1),
    ], ids=["grid", "band"])
    @pytest.mark.parametrize("k", [5, 31])
    def test_non_finite_in_later_block_names_first_corner(self, sampler, k):
        # relu(x) + 1e300 relu(1e300 (z - z0)): finite up to z0, infinite
        # above it, so the first such corner in x-fastest order is (-1, -1, z_k)
        spec = GridSpec(33)
        z = spec.axis_coords(2)
        z0 = 0.5 * (z[k - 1] + z[k])
        field = MlpUdf([np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1e300]]),
                        np.array([[1.0, 1e300]])],
                       [np.array([0.0, -1e300 * z0]), np.zeros(1)], encoding_order=0)
        first = k * 33 ** 2
        assert 33 ** 3 > CHUNK and first % CHUNK >= VALUE_BLOCK
        with np.errstate(over="ignore"):
            assert np.isinf(field.eval((-1.0, -1.0, z[k])))
            assert np.isfinite(field.eval((1.0, 1.0, z[k - 1])))
            with pytest.raises(NonFiniteFieldError, match=re.escape(
                    f"non-finite value at corner (-1, -1, {z[k]:.6g})")):
                sampler(field, spec)


class Recording(UdfField):
    """x + 2y + 3z, recording the first point of each query; NaN at the
    points listed in ``nan_at``."""

    def __init__(self, nan_at=()):
        self.calls = []
        self.nan_at = np.array(nan_at, dtype=float).reshape(-1, 3)

    def _query(self, pts, grad, sens):
        self.calls.append(tuple(pts[0]))
        u = pts @ np.array([1.0, 2.0, 3.0])
        u[(pts[:, None, :] == self.nan_at).all(axis=2).any(axis=1)] = np.nan
        return u, np.tile([1.0, 2.0, 3.0], (len(pts), 1)) if grad else None, None


def counting_threads(monkeypatch, limit=8):
    """The threads ``_evaluate`` starts, through a stand-in ``threading``
    module that refuses to start more than ``limit``."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            assert len(started) < limit, f"more than {limit} helper threads"
            started.append(self)
            super().start()
    monkeypatch.setattr(grid, "threading",
                        types.SimpleNamespace(Thread=Counted, Lock=threading.Lock))
    return started


class TestWorkerLoop:
    """The calling thread and its helpers evaluate every chunk once, start
    no thread without a whole chunk, and hand a chunk's exception on
    unchanged."""

    SPEC = GridSpec(41)                     # 68,921 corners: 3 chunks

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_every_chunk_runs_once(self, threads, monkeypatch):
        started = counting_threads(monkeypatch)
        field, spec = Recording(), self.SPEC
        n = spec.resolution
        assert n ** 3 // CHUNK == 2
        u = sample_grid(field, spec, threads=threads)
        corners = spec.corner_points()
        firsts = [tuple(corners[s]) for s in range(0, n ** 3, CHUNK)]
        assert len(firsts) == 3
        assert sorted(field.calls) == sorted(firsts)
        # two whole chunks and a partial one: at most one helper
        assert len(started) == min(threads, 2) - 1
        assert_bitwise(u, sample_grid(Recording(), spec, threads=1))

    def test_many_chunks_many_workers_stress(self, monkeypatch):
        # 8-point chunks and more workers than cores, switching threads
        # every microsecond: a chunk handed out twice or never would show
        monkeypatch.setattr(grid, "CHUNK", 8)
        pts = np.random.default_rng(2).uniform(-1, 1, (8 * 300 + 3, 3))
        field = Recording()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            u, g = _evaluate(field, len(pts), lambda s, e: pts[s:e], 8, True, "point")
        finally:
            sys.setswitchinterval(interval)
        assert sorted(field.calls) == sorted(map(tuple, pts[::8]))
        assert_bitwise(u, pts @ np.array([1.0, 2.0, 3.0]))
        assert (g == [1.0, 2.0, 3.0]).all()

    @pytest.mark.parametrize("n_pts, helpers", [(CHUNK + 5, 0), (2 * CHUNK, 1),
                                                 (2 * CHUNK + 5, 1)])
    def test_huge_worker_count_starts_a_helper_per_whole_chunk(self, n_pts, helpers,
                                                               monkeypatch):
        started = counting_threads(monkeypatch, limit=1)
        pts = np.random.default_rng(0).uniform(-1, 1, (n_pts, 3))
        field = Recording()
        u, _ = _evaluate(field, len(pts), lambda s, e: pts[s:e], 10 ** 6, False, "point")
        assert len(started) == helpers
        assert len(field.calls) == -(-n_pts // CHUNK)
        assert_bitwise(u, pts @ np.array([1.0, 2.0, 3.0]))

    def test_helper_exception_reaches_caller_unchanged(self, monkeypatch):
        counting_threads(monkeypatch)
        boom = RuntimeError("raised in a helper")
        helper_ran = threading.Event()
        main = threading.get_ident()

        class FailsOffMainThread(Recording):
            def _query(self, pts, grad, sens):
                if threading.get_ident() == main:
                    # the caller holds its chunk until the helper has run one
                    assert helper_ran.wait(10)
                    return super()._query(pts, grad, sens)
                helper_ran.set()
                raise boom

        pts = np.zeros((2 * CHUNK, 3))
        with pytest.raises(RuntimeError) as info:
            _evaluate(FailsOffMainThread(), len(pts), lambda s, e: pts[s:e], 2,
                      False, "point")
        assert info.value is boom

    def test_first_chunk_in_order_wins_over_first_to_fail(self, monkeypatch):
        # chunk 3 fails first, while chunk 2, handed out before it, still runs
        counting_threads(monkeypatch)
        errors = {1: RuntimeError("chunk 2"), 2: RuntimeError("chunk 3")}
        later_failed = threading.Event()

        class FailsOutOfOrder(Recording):
            def _query(self, pts, grad, sens):
                chunk = int(pts[0, 0])
                if chunk == 2:
                    later_failed.set()
                    raise errors[2]
                if chunk == 1:
                    assert later_failed.wait(10)
                    raise errors[1]
                return super()._query(pts, grad, sens)

        pts = np.zeros((3 * CHUNK, 3))
        pts[:, 0] = np.repeat([0.0, 1.0, 2.0], CHUNK)      # x is the chunk
        with pytest.raises(RuntimeError) as info:
            _evaluate(FailsOutOfOrder(), len(pts), lambda s, e: pts[s:e], 3, False, "point")
        assert info.value is errors[1]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_first_failing_chunk_is_raised(self, threads):
        # points beyond COORD_LIMIT in chunks 2 and 3 (at their rows 5 and 7):
        # chunk 2's refusal is raised at every worker count
        field = MeshUdf(primitives.square_patch(side=1.0, z=0.0))
        pts = np.random.default_rng(1).uniform(-1, 1, (2 * CHUNK + 100, 3))
        pts[CHUNK + 5, 1] = 2 * COORD_LIMIT
        pts[2 * CHUNK + 7, 0] = np.inf
        with pytest.raises(ValueError, match=r"^query point 5 is not finite or exceeds"):
            _evaluate(field, len(pts), lambda s, e: pts[s:e], threads, True, "point")

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_first_non_finite_corner_is_named(self, threads):
        # NaN in chunks 3 and 2; the one in chunk 2 comes first in x-fastest order
        spec = self.SPEC
        corners = spec.corner_points()
        first, second = corners[CHUNK + 17], corners[2 * CHUNK + 3]
        with pytest.raises(NonFiniteFieldError, match=re.escape(
                "non-finite value at corner ({:.6g}, {:.6g}, {:.6g})".format(*first))):
            sample_grid(Recording([second, first]), spec, threads=threads)


def garment_like_mesh():
    """Open tube, a disk above it and a two-layer flap below it."""
    parts = [primitives.open_cylinder(0.45, -0.55, 0.25, 16, 4),
             primitives.disk(0.3, 0.45, 16),
             primitives.parallel_patches(0.5, -0.8, -0.77, 2)]
    offsets = np.cumsum([0] + [p.n_vertices for p in parts[:-1]])
    return TriMesh(np.vstack([p.vertices for p in parts]),
                   np.vstack([p.faces + o for p, o in zip(parts, offsets)]))


def oracle_fields():
    garment = MeshUdf(garment_like_mesh())
    fields = {
        "plane": TranslatedPlaneUdf(0.17),
        "sphere": SphereShellUdf(0.45),
        "patch": RectanglePatchUdf(0.4, -0.5, (-0.45, 0.55), 0.08),
        "cylinder": OpenCylinderUdf(0.55, (-0.5, 0.4)),
        "garment": garment,
        "translated-garment": TranslatedMeshUdf(garment, (0.03, -0.05, 0.02)),
        "wavy-patch": wavy_patch_mlp(2),
    }
    for seed in (1, 2, 3):
        for latent in (0, 4):
            for d_max in (None, 0.45):
                net = random_mlp(hidden=(16, 16), encoding_order=3, latent_dim=latent,
                                 d_max=d_max, seed=seed)
                name = f"mlp-{seed}" + "-latent" * bool(latent) + "-dmax" * bool(d_max)
                fields[name] = net.with_latent([0.3, -0.2, 0.1, 0.25][:latent])
    return fields


ORACLE_FIELDS = oracle_fields()


class TestGradientsOnDemand:
    """``sample_grid`` evaluates values only, and extraction evaluates
    gradients at the corners it signs; both are the bits of the eager
    one-pass sampler."""

    @pytest.mark.parametrize("name", list(ORACLE_FIELDS))
    def test_dense_extraction_matches_eager_sampler(self, name):
        field, spec = ORACLE_FIELDS[name], generic_spec(33)
        mesh, stats = extract_mesh_detailed(field, spec, samples=sample_grid(field, spec))
        ref_mesh, ref_stats = extract_mesh_detailed(
            field, spec, samples=eager_sample_grid(field, spec, CHUNK)[0])
        assert mesh.n_faces > 0
        assert_same_mesh(mesh, ref_mesh)
        for key in EXTRACT_COUNTERS:
            assert getattr(stats, key) == getattr(ref_stats, key), key

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("name", ["sphere", "garment", "mlp-1-latent-dmax",
                                      "wavy-patch"])
    def test_whole_lattice_gradients_match_eager_sampler(self, name, threads):
        field, spec = ORACLE_FIELDS[name], generic_spec(33)
        assert spec.resolution ** 3 > CHUNK
        ref_u, ref_g = eager_sample_grid(field, spec, CHUNK)
        assert_bitwise(sample_grid(field, spec, threads=threads), ref_u)
        assert_bitwise(lattice_gradients(field, spec, threads), ref_g)
        ids = np.array([0, 5, 1000, 33 ** 3 - 1])
        assert_bitwise(_sample_corners(field, spec, threads, True, ids)[1],
                       ref_g.transpose(2, 1, 0, 3).reshape(-1, 3)[ids])


LIPSCHITZ_FAMILIES = [name for name, field in FAMILIES.items()
                      if field.lipschitz is not None]
EXTRACT_COUNTERS = ("total_cells", "candidate_cells", "culled_cells",
                    "skipped_no_anchor", "skipped_no_crossing",
                    "triangulated_cells", "edge_disagreements")


def assert_same_mesh(a, b):
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.faces.tobytes() == b.faces.tobytes()


class NanFarSphere(SphereShellUdf):
    """A 1-Lipschitz sphere whose values turn NaN far from the surface."""

    def _query(self, pts, grad, sens):
        u, g, s = super()._query(pts, grad, sens)
        return np.where(np.linalg.norm(pts, axis=1) > 0.9, np.nan, u), g, s


class CountingSphere(SphereShellUdf):
    """A sphere that declares no bound and counts the points it answers."""

    lipschitz = None

    def __init__(self, radius):
        super().__init__(radius)
        self.value_points = self.grad_points = 0

    def _query(self, pts, grad, sens):
        if grad:
            self.grad_points += len(pts)
        else:
            self.value_points += len(pts)
        return super()._query(pts, grad, sens)


# a cull band, an isolevel band and a band above the lattice spacing
BANDS = [(-np.inf, GridSpec(33).cell_diagonal), (0.02, 0.02), (0.3, 0.4)]


def flat_values(field, spec):
    """Exact corner values in x-fastest order, by dense sampling."""
    return sample_grid(field, spec).transpose(2, 1, 0).ravel()


def cell_corner_ids(spec, cells):
    """(m, 8) x-fastest ids of the corners of cells, in CORNER_OFFSETS order."""
    return spec.corner_linear_index(spec.cell_origin_ijk(cells)[:, None, :]
                                    + CORNER_OFFSETS)


class TestSampleBand:
    def test_families_declare_unit_bound(self):
        assert LIPSCHITZ_FAMILIES == ["mesh", "mesh-dmax", "translated-mesh", "plane",
                                      "sphere", "patch", "cylinder"]
        assert FAMILIES["mlp"].lipschitz is None
        assert all(FAMILIES[name].lipschitz == 1.0 for name in LIPSCHITZ_FAMILIES)

    @pytest.mark.parametrize("make_spec", [GridSpec, generic_spec], ids=["dyadic", "generic"])
    @pytest.mark.parametrize("n", [17, 33, 50])
    @pytest.mark.parametrize("name", LIPSCHITZ_FAMILIES)
    def test_certified_paths_match_dense(self, name, n, make_spec):
        field, spec = FAMILIES[name], make_spec(n)
        mesh, stats = extract_mesh_detailed(field, spec)
        dense_mesh, dense_stats = extract_mesh_detailed(field, spec,
                                                        samples=sample_grid(field, spec))
        assert_same_mesh(mesh, dense_mesh)
        for key in EXTRACT_COUNTERS:
            assert getattr(stats, key) == getattr(dense_stats, key), key
        assert stats.corner_source == "lipschitz"
        assert stats.corners_evaluated <= n ** 3

        # the default eps, and one wide enough that blocks are certified
        # below it
        dense_values = sample_grid(field, spec)
        for eps in (0.55 * float(spec.step.max()), 0.2):
            dense_shell = mesh_signed_grid(dense_values - eps, spec)
            assert_same_mesh(inflate_mesh(field, spec, eps), dense_shell)

    def test_exact_wherever_band_is_not_ruled_out(self):
        field, spec = SphereShellUdf(0.5), generic_spec(33)
        exact = flat_values(field, spec)
        for lower, upper in BANDS:
            cells, u8, _, evaluated = sample_band(field, spec, lower, upper)
            assert (np.diff(cells) > 0).all()
            corner_ids = cell_corner_ids(spec, cells)
            assert evaluated == len(np.unique(corner_ids)) < spec.resolution ** 3
            assert_bitwise(u8, exact[corner_ids])

    @pytest.mark.parametrize("band", BANDS, ids=["cull", "isolevel", "wide"])
    @pytest.mark.parametrize("make_field", [SphereShellUdf, CountingSphere],
                             ids=["bounded", "whole-lattice"])
    def test_cells_left_out_lie_outside_band(self, make_field, band):
        field, spec, (lower, upper) = make_field(0.5), generic_spec(33), band
        cells, u8, _, _ = sample_band(field, spec, lower, upper)
        rest = np.setdiff1d(np.arange(spec.n_cells), cells)
        rest8 = flat_values(field, spec)[cell_corner_ids(spec, rest)]
        above, below = (rest8 > upper).all(axis=1), (rest8 < lower).all(axis=1)
        assert (above | below).all()
        assert above.any()
        # a band above the lattice spacing leaves cells out below it too
        assert below.any() == (lower == 0.3)

    def test_thread_count_does_not_change_certified_values(self):
        spec = generic_spec(129)
        a_cells, a, _, evaluated = sample_band(SphereShellUdf(0.5), spec, 0.01, 0.01,
                                               threads=1)
        b_cells, b, _, _ = sample_band(SphereShellUdf(0.5), spec, 0.01, 0.01, threads=4)
        assert evaluated > CHUNK
        np.testing.assert_array_equal(a_cells, b_cells)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("make_spec", [GridSpec, generic_spec], ids=["dyadic", "generic"])
    @pytest.mark.parametrize("n", [17, 33, 50])
    @pytest.mark.parametrize("name", LIPSCHITZ_FAMILIES)
    def test_bounded_cells_cover_dense_cells(self, name, n, make_spec):
        # every cell the dense path culls in, or inflation meshes, is handed
        # over by the bounded producer
        field, spec = FAMILIES[name], make_spec(n)
        dense = sample_grid(field, spec)

        def ids(mask):
            return np.flatnonzero(mask.transpose(2, 1, 0).ravel())

        diag = spec.cell_diagonal
        cells, _, _, _ = sample_band(field, spec, -np.inf, diag)
        assert np.isin(ids(cell_corner_sums(dense) / 8.0 <= diag), cells).all()
        for eps in (0.55 * float(spec.step.max()), 0.2):
            cells, _, _, _ = sample_band(field, spec, eps, eps)
            inside = cell_corner_sums((dense - eps < 0).astype(float))
            active = ids((inside > 0) & (inside < 8))
            assert len(active) and np.isin(active, cells).all()

    @pytest.mark.parametrize("make_spec", [GridSpec, generic_spec], ids=["dyadic", "generic"])
    @pytest.mark.parametrize("n", [17, 33])
    @pytest.mark.parametrize("make_field", [
        lambda: random_mlp(hidden=(16, 16), encoding_order=3, seed=1),
        lambda: CountingSphere(0.45),
    ], ids=["mlp", "sphere-without-bound"])
    def test_whole_lattice_producer_matches_dense(self, make_field, n, make_spec):
        field, spec = make_field(), make_spec(n)
        mesh, stats = extract_mesh_detailed(field, spec)
        dense_mesh, dense_stats = extract_mesh_detailed(field, spec,
                                                        samples=sample_grid(field, spec))
        assert stats.corner_source == "dense"
        assert mesh.n_faces > 0
        assert_same_mesh(mesh, dense_mesh)
        for key in EXTRACT_COUNTERS:
            assert getattr(stats, key) == getattr(dense_stats, key), key

    @pytest.mark.parametrize("run", [
        lambda f, spec: extract_mesh_detailed(f, spec),
        lambda f, spec: inflate_mesh(f, spec),
    ], ids=["extract", "inflate"])
    def test_nan_far_from_surface_raises(self, run):
        with pytest.raises(NonFiniteFieldError, match="non-finite value at block centre"):
            run(NanFarSphere(0.5), GridSpec(33))

    @pytest.mark.parametrize("n", [9, 33])
    def test_field_without_bound_evaluates_every_corner(self, n):
        spec = generic_spec(n)
        field = CountingSphere(0.5)
        mesh, stats = extract_mesh_detailed(field, spec)
        assert field.value_points == stats.corners_evaluated == n ** 3
        assert stats.corner_source == "dense"
        # gradients only at the corners of candidate cells
        assert 0 < field.grad_points < n ** 3
        dense_mesh, _ = extract_mesh_detailed(field, spec, samples=sample_grid(field, spec))
        assert_same_mesh(mesh, dense_mesh)

        field.value_points = 0
        inflate_mesh(field, spec)
        assert field.value_points == n ** 3

    def test_mlp_evaluates_every_corner(self):
        spec = GridSpec(17)
        _, stats = extract_mesh_detailed(FAMILIES["mlp"], spec)
        assert stats.corners_evaluated == 17 ** 3
        assert stats.corner_source == "dense"
        assert "no Lipschitz bound" in stats.summary()


def candidate_cells(values, spec, cull_factor):
    """Cells of an [i, j, k] value lattice that pass the cull, as
    extraction selects them: the band below the cull distance, then the
    mean-corner test."""
    cells, u8 = _lattice_band(values, -np.inf, cull_factor * spec.cell_diagonal)
    return cells[_cull(u8, spec, cull_factor)]


class TestCandidateCells:
    def test_far_cell_excluded(self):
        spec = GridSpec(3)
        values = np.full((3, 3, 3), 10 * spec.cell_diagonal)
        assert len(candidate_cells(values, spec, 1.0)) == 0

    def test_zero_cell_included(self):
        spec = GridSpec(3)
        assert len(candidate_cells(np.zeros((3, 3, 3)), spec, 1.0)) == spec.n_cells

    def test_plane_crossing_cells_all_candidates(self):
        # every cell straddling the plane must survive culling
        field = TranslatedPlaneUdf(0.1)
        spec = GridSpec(64)
        cand = set(candidate_cells(sample_grid(field, spec), spec, 1.0).tolist())
        zs = spec.axis_coords(2)
        k_cross = np.flatnonzero((zs[:-1] <= 0.1) & (zs[1:] > 0.1))[0]
        m = spec.resolution - 1
        for i in range(m):
            for j in range(m):
                assert i + m * (j + m * k_cross) in cand

    def test_monotone_in_cull_factor(self):
        field = SphereShellUdf(0.5)
        spec = GridSpec(17)
        values = sample_grid(field, spec)
        small = set(candidate_cells(values, spec, 0.5).tolist())
        large = set(candidate_cells(values, spec, 2.0).tolist())
        assert small <= large

    def test_no_sphere_crossing_cell_culled_at_factor_one(self):
        # any cell the zero set touches has all corners within one diagonal
        # of it, so its mean corner distance cannot exceed the diagonal
        field = SphereShellUdf(0.5)
        spec = GridSpec(33, (-1.0037,) * 3, (0.9963,) * 3)
        cand = set(candidate_cells(sample_grid(field, spec), spec, 1.0).tolist())
        pts = spec.corner_points()
        signed = (np.linalg.norm(pts, axis=1) - 0.5).reshape(
            (spec.resolution,) * 3, order="F")
        neg = cell_corner_sums((signed < 0).astype(float))
        crossing = np.flatnonzero(
            ((neg > 0) & (neg < 8)).transpose(2, 1, 0).ravel())
        assert set(crossing.tolist()) <= cand

    def test_rejects_nonpositive_factor(self):
        spec = GridSpec(5)
        with pytest.raises(ValueError, match="cull_factor must be positive"):
            extract_mesh_detailed(SphereShellUdf(0.5), spec, cull_factor=0.0,
                                  samples=sample_grid(SphereShellUdf(0.5), spec))
        with pytest.raises(ValueError, match="cull_factor must be positive"):
            extract_mesh_detailed(SphereShellUdf(0.5), spec, cull_factor=0.0)


class TestGridDump:
    def test_round_trip(self, tmp_path):
        field = SphereShellUdf(0.5)
        spec = GridSpec(9, (-0.9, -1.0, -1.1), (1.1, 1.0, 0.9))
        samples = sample_grid(field, spec)
        base = str(tmp_path / "grid")
        data_path, meta_path = dump_grid(samples, spec, base)
        values, spec_back = load_grid_dump(base)
        assert spec_back == spec
        np.testing.assert_allclose(values, samples, atol=1e-6)

    def test_dump_is_float32_x_fastest(self, tmp_path):
        field = TranslatedPlaneUdf(0.0)
        spec = GridSpec(3, (0, 0, 0), (2, 2, 2))
        samples = sample_grid(field, spec)
        base = str(tmp_path / "grid")
        dump_grid(samples, spec, base)
        raw = np.fromfile(base + ".f32", dtype="<f4")
        assert raw.size == 27
        # first 9 values cover the z=0 sheet: distance 0 everywhere
        np.testing.assert_array_equal(raw[:9], 0.0)
        np.testing.assert_array_equal(raw[9:18], 1.0)
