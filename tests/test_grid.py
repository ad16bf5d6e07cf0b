import numpy as np
import pytest

from udfmesh import (GridSpec, MeshUdf, MlpUdf, OpenCylinderUdf,
                     RectanglePatchUdf, SphereShellUdf, TranslatedMeshUdf, TranslatedPlaneUdf,
                     candidate_cells, dump_grid, load_grid_dump, primitives,
                     random_mlp, sample_grid, sample_grid_values)


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
        assert samples.u.size == 27
        np.testing.assert_allclose(samples.u[:, :, 0], 1.0)
        np.testing.assert_allclose(samples.u[:, :, 2], 1.0)
        np.testing.assert_allclose(samples.u[:, :, 1], 0.0)

    def test_sphere_center_value(self):
        samples = sample_grid(SphereShellUdf(0.5), GridSpec(3))
        assert samples.u[1, 1, 1] == pytest.approx(0.5)

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
        assert_bitwise(samples.u, u)
        assert_bitwise(samples.g, g)
        assert_bitwise(sample_grid_values(field, spec), u)

    def test_thread_count_does_not_change_results(self):
        field = SphereShellUdf(0.5)
        spec = GridSpec(17)
        a = sample_grid(field, spec, threads=1)
        b = sample_grid(field, spec, threads=4)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.g, b.g)

    def test_thread_env_var_respected_argument_wins(self, monkeypatch):
        from udfmesh.grid import THREADS_ENV_VAR, resolve_threads
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert resolve_threads(None) == 3
        assert resolve_threads(7) == 7
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert resolve_threads(None) == 1

    def test_mesh_udf_open_cylinder_properties(self):
        # garment-like open tube sampled densely: distances stay
        # non-negative and the gradient is unit length off the surface
        field = MeshUdf(primitives.open_cylinder(radius=0.6, segments=36, rings=10))
        spec = GridSpec(64)
        samples = sample_grid(field, spec)
        assert (samples.u >= 0).all()
        off = samples.u > 1e-3
        norms = np.linalg.norm(samples.g[off], axis=-1)
        assert np.abs(norms - 1).max() < 1e-6

    def test_values_only_sampler_agrees(self):
        field = SphereShellUdf(0.5)
        spec = GridSpec(17)
        np.testing.assert_array_equal(sample_grid_values(field, spec),
                                      sample_grid(field, spec).u)

    @pytest.mark.parametrize("sampler", [sample_grid, sample_grid_values])
    def test_non_finite_value_raises_naming_corner(self, sampler):
        data = random_mlp(hidden=(4,), encoding_order=2, seed=0).to_dict()
        data["biases"][-1][0] = float("nan")
        with pytest.raises(ValueError,
                           match=r"non-finite value at corner \(-1, -1, -1\)"):
            sampler(MlpUdf.from_dict(data), GridSpec(5))


class TestCandidateCells:
    def synthetic_samples(self, u_value, spec):
        n = spec.resolution
        u = np.full((n, n, n), float(u_value))
        g = np.zeros((n, n, n, 3))
        g[..., 2] = 1.0
        from udfmesh import GridSamples
        return GridSamples(spec, u, g)

    def test_far_cell_excluded(self):
        spec = GridSpec(3)
        samples = self.synthetic_samples(10 * spec.cell_diagonal, spec)
        assert len(candidate_cells(samples, spec, 1.0)) == 0

    def test_zero_cell_included(self):
        spec = GridSpec(3)
        samples = self.synthetic_samples(0.0, spec)
        assert len(candidate_cells(samples, spec, 1.0)) == spec.n_cells

    def test_plane_crossing_cells_all_candidates(self):
        # every cell straddling the plane must survive culling
        field = TranslatedPlaneUdf(0.1)
        spec = GridSpec(64)
        samples = sample_grid(field, spec)
        cand = set(candidate_cells(samples, spec, 1.0).tolist())
        zs = spec.axis_coords(2)
        k_cross = np.flatnonzero((zs[:-1] <= 0.1) & (zs[1:] > 0.1))[0]
        m = spec.resolution - 1
        for i in range(m):
            for j in range(m):
                assert i + m * (j + m * k_cross) in cand

    def test_monotone_in_cull_factor(self):
        field = SphereShellUdf(0.5)
        spec = GridSpec(17)
        samples = sample_grid(field, spec)
        small = set(candidate_cells(samples, spec, 0.5).tolist())
        large = set(candidate_cells(samples, spec, 2.0).tolist())
        assert small <= large

    def test_no_sphere_crossing_cell_culled_at_factor_one(self):
        # any cell the zero set touches has all corners within one diagonal
        # of it, so its mean corner distance cannot exceed the diagonal
        field = SphereShellUdf(0.5)
        spec = GridSpec(33, (-1.0037,) * 3, (0.9963,) * 3)
        samples = sample_grid(field, spec)
        cand = set(candidate_cells(samples, spec, 1.0).tolist())
        pts = spec.corner_points()
        signed = (np.linalg.norm(pts, axis=1) - 0.5).reshape(
            (spec.resolution,) * 3, order="F")
        from udfmesh.grid import cell_corner_sums
        neg = cell_corner_sums((signed < 0).astype(float))
        crossing = np.flatnonzero(
            ((neg > 0) & (neg < 8)).transpose(2, 1, 0).ravel())
        assert set(crossing.tolist()) <= cand

    def test_rejects_nonpositive_factor(self):
        field = SphereShellUdf(0.5)
        samples = sample_grid(field, GridSpec(5))
        with pytest.raises(ValueError):
            candidate_cells(samples, cull_factor=0.0)


class TestGridDump:
    def test_round_trip(self, tmp_path):
        field = SphereShellUdf(0.5)
        spec = GridSpec(9, (-0.9, -1.0, -1.1), (1.1, 1.0, 0.9))
        samples = sample_grid(field, spec)
        base = str(tmp_path / "grid")
        data_path, meta_path = dump_grid(samples, base)
        values, spec_back = load_grid_dump(base)
        assert spec_back == spec
        np.testing.assert_allclose(values, samples.u, atol=1e-6)

    def test_dump_is_float32_x_fastest(self, tmp_path):
        field = TranslatedPlaneUdf(0.0)
        spec = GridSpec(3, (0, 0, 0), (2, 2, 2))
        samples = sample_grid(field, spec)
        base = str(tmp_path / "grid")
        dump_grid(samples, base)
        raw = np.fromfile(base + ".f32", dtype="<f4")
        assert raw.size == 27
        # first 9 values cover the z=0 sheet: distance 0 everywhere
        np.testing.assert_array_equal(raw[:9], 0.0)
        np.testing.assert_array_equal(raw[9:18], 1.0)
