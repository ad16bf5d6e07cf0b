import numpy as np
import pytest

from udfmesh import (GridSpec, MeshUdf, SphereShellUdf, TriMesh, chamfer,
                     evaluate_pair, extract_mesh, image_consistency,
                     inflate_mesh, normal_consistency, primitives,
                     sample_surface)

from conftest import generic_spec
from oracles import brute_chamfer


class TestSampleSurface:
    def test_quadrant_density_uniform(self, unit_patch_mesh):
        pts, _, _, _ = sample_surface(unit_patch_mesh, 100000, seed=4)
        for sx in (-1, 1):
            for sy in (-1, 1):
                frac = ((np.sign(pts[:, 0]) == sx)
                        & (np.sign(pts[:, 1]) == sy)).mean()
                assert abs(frac - 0.25) < 0.02 * 0.25 + 0.005

    def test_single_triangle_barycentric_validity(self):
        tri = TriMesh(np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0.0]]),
                      np.array([[0, 1, 2]]))
        pts, normals, faces, bary = sample_surface(tri, 5000, seed=1)
        assert (faces == 0).all()
        assert np.all(bary >= 0) and np.allclose(bary.sum(axis=1), 1.0)
        assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 1] >= 0)
        assert np.all(pts[:, 0] + pts[:, 1] <= 2 + 1e-12)
        np.testing.assert_allclose(np.abs(normals[:, 2]), 1.0)

    def test_fixed_seed_reproducible(self, unit_patch_mesh):
        a = sample_surface(unit_patch_mesh, 1000, seed=9)[0]
        b = sample_surface(unit_patch_mesh, 1000, seed=9)[0]
        np.testing.assert_array_equal(a, b)

    def test_area_weighting(self):
        # two triangles with areas 4:1 split samples about 80/20
        verts = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0],
                          [3, 0, 0], [4, 0, 0], [3, 1, 0.0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        _, _, faces, _ = sample_surface(mesh, 50000, seed=2)
        assert abs((faces == 0).mean() - 0.8) < 0.01

    def test_empty_mesh_rejected(self):
        from udfmesh import empty_mesh
        with pytest.raises(ValueError):
            sample_surface(empty_mesh(), 10)


class TestChamfer:
    def test_identical_sets_zero(self, rng):
        a = rng.uniform(-1, 1, (500, 3))
        assert chamfer(a, a) == 0.0

    def test_hand_computed_pair(self):
        assert chamfer(np.array([[0.0, 0, 0]]), np.array([[0.0, 0, 1]])) == 2.0

    def test_matches_brute_force_exactly(self, rng):
        for trial in range(3):
            a = rng.normal(size=(100, 3))
            b = rng.normal(size=(100, 3))
            assert chamfer(a, b) == brute_chamfer(a, b)

    def test_symmetric(self, rng):
        a = rng.normal(size=(80, 3))
        b = rng.normal(size=(60, 3))
        assert chamfer(a, b) == chamfer(b, a)


class TestNormalConsistency:
    def test_identical_sets_100(self, rng):
        pts = rng.uniform(-1, 1, (400, 3))
        n = rng.normal(size=(400, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        assert normal_consistency(pts, n, pts, n) == pytest.approx(100.0)

    def test_perpendicular_planes_zero(self, rng):
        pts = rng.uniform(-1, 1, (300, 3))
        nz = np.tile([0.0, 0, 1], (300, 1))
        nx = np.tile([1.0, 0, 0], (300, 1))
        assert normal_consistency(pts, nz, pts, nx) == pytest.approx(0.0)

    def test_orientation_flip_invariant(self, rng):
        pts = rng.uniform(-1, 1, (300, 3))
        n = rng.normal(size=(300, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        flip = np.where(rng.random(300)[:, None] < 0.5, -1.0, 1.0)
        base = normal_consistency(pts, n, pts + 0.001, n)
        flipped = normal_consistency(pts, n * flip, pts + 0.001, n)
        assert flipped == pytest.approx(base)
        assert normal_consistency(pts, n, pts, -n) == pytest.approx(100.0)


class TestImageConsistency:
    def test_identity_is_near_perfect(self):
        mesh = extract_mesh(SphereShellUdf(0.5), generic_spec(33))
        assert image_consistency(mesh, mesh) >= 99.5

    def test_identity_patch(self):
        mesh = primitives.square_patch(side=1.0, z=0.05, subdivisions=8)
        assert image_consistency(mesh, mesh) >= 99.5

    @pytest.mark.filterwarnings("ignore:view .*silhouettes empty")
    def test_disjoint_silhouettes_score_zero(self):
        # two far-apart tiny sheets seen from cameras around their joint
        # bounding box never overlap in any view
        a = primitives.square_patch(side=0.05, z=0.0, center=(-2.0, -2.0))
        b = primitives.square_patch(side=0.05, z=0.0, center=(2.0, 2.0))
        assert image_consistency(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_inflated_patch_scores_below_identity(self):
        spec = GridSpec(33)
        patch = primitives.square_patch(side=1.0, z=0.05, subdivisions=4)
        field = MeshUdf(patch)
        shell = inflate_mesh(field, spec, eps=2 * 0.55 * float(spec.step[0]))
        identity = image_consistency(patch, patch)
        inflated = image_consistency(shell, patch)
        assert inflated < identity


class TestInflation:
    def test_watertight_at_default_eps(self):
        spec = GridSpec(65)
        field = MeshUdf(primitives.square_patch(side=1.0, z=0.05))
        shell = inflate_mesh(field, spec)
        assert shell.is_watertight()

    def test_small_eps_breaks_the_shell(self):
        # below half a step the corner lattice captures the iso-band only in
        # patches, or not at all: the shell loses whole regions of the
        # surface. Marching cubes output itself stays closed, so the damage
        # shows up as uncovered surface, not as border edges.
        spec = GridSpec(65)
        step = float(spec.step[0])
        patch_field = MeshUdf(primitives.square_patch(side=1.0, z=0.05))
        broken = inflate_mesh(patch_field, spec, eps=0.3 * step)
        good = inflate_mesh(patch_field, spec, eps=0.55 * step)
        assert broken.is_empty()          # flat sheet: capture is all-or-nothing
        assert good.is_watertight()

        # curved surface: capture fails patchily, leaving visible gaps
        sspec = generic_spec(65)
        sphere_shell = inflate_mesh(SphereShellUdf(0.5), sspec,
                                    eps=0.2 * float(sspec.step[0]))
        sphere = primitives.uv_sphere(0.5, segments=64, rings=32)
        probe = sample_surface(sphere, 20000, seed=0)[0]
        gaps = MeshUdf(sphere_shell).eval(probe) > sspec.cell_diagonal
        assert gaps.mean() > 0.002
        assert sphere_shell.is_watertight()   # yet topologically closed

    def test_inflation_chd_grows_with_eps(self):
        spec = GridSpec(65)
        field = MeshUdf(primitives.square_patch(side=1.0, z=0.05))
        patch = primitives.square_patch(side=1.0, z=0.05, subdivisions=8)
        step = float(spec.step[0])
        chds = []
        for factor in (0.55, 1.1, 2.2):
            shell = inflate_mesh(field, spec, eps=factor * step)
            a = sample_surface(shell, 20000, seed=0)[0]
            b = sample_surface(patch, 20000, seed=1)[0]
            chds.append(chamfer(a, b))
        assert chds[0] < chds[1] < chds[2]

    def test_requires_positive_eps(self):
        field = MeshUdf(primitives.square_patch())
        with pytest.raises(ValueError):
            inflate_mesh(field, GridSpec(17), eps=0.0)


def with_vertex(mesh, value):
    verts = mesh.vertices.copy()
    verts[1, 1] = value
    return mesh.with_vertices(verts)


@pytest.mark.parametrize("value", [np.nan, np.inf])
class TestNonFiniteMeshes:
    """A mesh with a non-finite vertex is refused where it is built, naming
    the vertex, so no metric is ever handed one."""

    def test_sample_surface_rejects(self, value):
        with pytest.raises(ValueError, match="vertex 1 is not finite"):
            sample_surface(with_vertex(primitives.square_patch(subdivisions=2), value), 100)

    def test_image_consistency_rejects(self, value):
        good = primitives.square_patch(subdivisions=2)
        with pytest.raises(ValueError, match="vertex 1 is not finite"):
            image_consistency(with_vertex(good, value), good, size=16)

    def test_evaluate_pair_rejects(self, value):
        good = primitives.square_patch(subdivisions=2)
        with pytest.raises(ValueError, match="vertex 1 is not finite"):
            evaluate_pair(good, with_vertex(good, value), n_samples=100, image_size=16)


class TestEvaluatePair:
    def test_report_fields_and_ranges(self):
        mesh = extract_mesh(SphereShellUdf(0.5), generic_spec(17))
        report = evaluate_pair(mesh, mesh, n_samples=2000, seed=3)
        assert report.chd >= 0
        assert 0 <= report.ic <= 100
        assert 0 <= report.nc <= 100
        assert report.nc > 99
        assert report.chd_x1000 == pytest.approx(report.chd * 1e3)
        d = report.to_dict()
        assert set(d) >= {"chd", "chd_x1000", "ic", "nc", "timings"}
