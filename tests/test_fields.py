from collections import Counter

import numpy as np
import pytest

from udfmesh import (MeshUdf, MlpUdf, OpenCylinderUdf, RectanglePatchUdf,
                     SphereShellUdf, TranslatedMeshUdf, TranslatedPlaneUdf,
                     parametric_field, primitives, random_mlp)
from udfmesh.distance import FANOUT, MeshDistanceIndex

from oracles import sweep_mesh_distance


def all_parametric_fields():
    return [
        TranslatedPlaneUdf(0.17),
        SphereShellUdf(0.45),
        RectanglePatchUdf(0.4, -0.5, (-0.45, 0.55), 0.08),
        OpenCylinderUdf(0.55, (-0.5, 0.4)),
    ]


class TestMeshUdf:
    def test_point_above_patch_interior(self, unit_patch_field):
        assert unit_patch_field.eval((0.25, 0.25, 0.3)) == pytest.approx(0.3)

    def test_point_past_patch_edge(self):
        # patch spanning [0,1]^2 so the nearest point to (1.5, 0, 0) is (1, 0, 0)
        mesh = primitives.square_patch(side=1.0, z=0.0, center=(0.5, 0.5))
        field = MeshUdf(mesh)
        assert field.eval((1.5, 0.0, 0.0)) == pytest.approx(0.5)

    def test_point_on_surface(self, unit_patch_field):
        assert unit_patch_field.eval((0.1, -0.2, 0.0)) == pytest.approx(0.0, abs=1e-12)
        # bitwise hit on a mesh vertex is exactly zero
        assert unit_patch_field.eval((-0.5, -0.5, 0.0)) == 0.0

    def test_gradient_above_and_below(self, unit_patch_field):
        assert np.allclose(unit_patch_field.grad_x((0.25, 0.25, 0.3)), (0, 0, 1))
        assert np.allclose(unit_patch_field.grad_x((0.25, 0.25, -0.3)), (0, 0, -1))

    def test_zero_distance_gradient_degenerate(self, unit_patch_field):
        x = (0.1, 0.1, 0.0)
        assert np.allclose(unit_patch_field.grad_x(x), 0.0)

    def test_closest_point_lies_on_mesh(self, unit_patch_field, rng):
        pts = rng.uniform(-1, 1, (200, 3))
        cp = unit_patch_field.closest_point(pts)
        assert np.all(cp[:, 2] == 0.0)
        assert cp[:, 0].min() >= -0.5 and cp[:, 0].max() <= 0.5

    def test_tree_path_matches_brute_force(self, rng):
        # cylinder has enough triangles for the box hierarchy to prune
        mesh = primitives.open_cylinder(segments=24, rings=6)
        index = MeshDistanceIndex(mesh.vertices, mesh.faces)
        assert mesh.n_faces > FANOUT
        pts = rng.uniform(-1, 1, (500, 3))
        d_tree, cp_tree = index.query(pts)
        d_brute, cp_brute = sweep_mesh_distance(mesh.vertices, mesh.faces, pts)
        np.testing.assert_array_equal(d_tree, d_brute)
        # ties go to the lowest face index, as in the sweep
        np.testing.assert_array_equal(cp_tree, cp_brute)

    def test_clamp(self, unit_patch_field, rng):
        field = MeshUdf(unit_patch_field.mesh, d_max=0.2)
        pts = rng.uniform(-1, 1, (500, 3))
        assert np.all(field.eval(pts) <= 0.2 + 1e-15)


class TestParametricFamilies:
    @pytest.mark.parametrize("field", all_parametric_fields(),
                             ids=lambda f: type(f).__name__)
    def test_non_negative(self, field, rng):
        pts = rng.uniform(-1, 1, (10000, 3))
        assert np.all(field.eval(pts) >= 0)

    @pytest.mark.parametrize("field", all_parametric_fields(),
                             ids=lambda f: type(f).__name__)
    def test_eikonal_away_from_surface(self, field, rng):
        pts = rng.uniform(-1, 1, (10000, 3))
        u = field.eval(pts)
        keep = u > 1e-3
        norms = np.linalg.norm(field.grad_x(pts[keep]), axis=1)
        assert np.abs(norms - 1).max() < 1e-6

    @pytest.mark.parametrize("field", all_parametric_fields(),
                             ids=lambda f: type(f).__name__)
    def test_sensitivity_matches_finite_differences(self, field, rng):
        pts = rng.uniform(-1, 1, (2000, 3))
        u = field.eval(pts)
        pts = pts[u > 0.05]
        sens = field.param_sensitivity(pts)
        h = 1e-6
        for c in range(field.param_dim):
            params = field.params.copy()
            params[c] += h
            up = field.with_params(params).eval(pts)
            params[c] -= 2 * h
            um_ = field.with_params(params).eval(pts)
            fd = (up - um_) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert (np.abs(sens[:, c] - fd) / denom).max() < 1e-4

    def test_sphere_sensitivity_closed_form(self, rng):
        field = SphereShellUdf(0.5)
        pts = rng.uniform(-1, 1, (500, 3))
        r = np.linalg.norm(pts, axis=1)
        pts = pts[np.abs(r - 0.5) > 1e-6]
        r = np.linalg.norm(pts, axis=1)
        expect = -np.sign(r - 0.5)
        np.testing.assert_allclose(field.param_sensitivity(pts)[:, 0], expect)

    def test_translated_mesh_sensitivity_is_negative_gradient(self, unit_patch_field, rng):
        field = TranslatedMeshUdf(unit_patch_field, (0.1, -0.2, 0.05))
        pts = rng.uniform(-1, 1, (300, 3))
        sens = field.param_sensitivity(pts)
        grad_at_base = unit_patch_field.grad_x(pts - field.offset)
        np.testing.assert_allclose(sens, -grad_at_base)

    def test_mesh_field_has_no_parameters(self, unit_patch_field):
        assert unit_patch_field.param_dim == 0
        assert unit_patch_field.param_sensitivity((0.1, 0.1, 0.3)).shape == (0,)

    def test_factory(self):
        assert isinstance(parametric_field("sphere", [0.4]), SphereShellUdf)
        assert isinstance(parametric_field("plane", [0.1]), TranslatedPlaneUdf)
        assert isinstance(parametric_field("patch", []), RectanglePatchUdf)
        assert isinstance(parametric_field("cylinder", [0.5]), OpenCylinderUdf)
        with pytest.raises(ValueError, match="unknown field family"):
            parametric_field("torus", [])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build,name", [
    (lambda: SphereShellUdf(NAN), "radius"),
    (lambda: SphereShellUdf(INF), "radius"),
    (lambda: OpenCylinderUdf(NAN), "radius"),
    (lambda: OpenCylinderUdf(0.5, (-0.5, INF)), "z_range"),
    (lambda: RectanglePatchUdf(NAN), "x_max"),
    (lambda: RectanglePatchUdf(0.5, -INF), "x_min"),
    (lambda: RectanglePatchUdf(0.5, -0.5, (NAN, 0.5)), "y_range"),
    (lambda: RectanglePatchUdf(0.5, -0.5, (-0.5, 0.5), INF), "z0"),
    (lambda: TranslatedPlaneUdf(NAN), "offset"),
    (lambda: TranslatedMeshUdf(MeshUdf(primitives.square_patch(1.0)), (0, NAN, 0)),
     "offset"),
    (lambda: parametric_field("sphere", [NAN]), "radius"),
], ids=["sphere-nan", "sphere-inf", "cylinder-nan", "cylinder-z-range", "patch-nan",
        "patch-x-min", "patch-y-range", "patch-z0", "plane", "translated-mesh",
        "factory"])
def test_non_finite_shape_parameter_rejected(build, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build()


class TestSinglePassQuery:
    def test_eval_grad_runs_shared_work_once(self, monkeypatch, unit_patch_field, rng):
        calls = Counter()

        def count(cls, name):
            original = getattr(cls, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(cls, name, counted)

        count(MlpUdf, "_forward")
        count(MeshDistanceIndex, "query")
        pts = rng.uniform(-1, 1, (50, 3))
        random_mlp(hidden=(8,), latent_dim=2, seed=0).eval_grad(pts)
        assert calls == {"_forward": 1}
        TranslatedMeshUdf(unit_patch_field, (0.1, -0.2, 0.05)).eval_grad(pts)
        assert calls == {"_forward": 1, "query": 1}


class TestMlpNonNegativity:
    def test_non_negative_everywhere(self, rng):
        field = random_mlp(hidden=(16, 16), latent_dim=4, seed=3)
        pts = rng.uniform(-1, 1, (10000, 3))
        assert np.all(field.eval(pts) >= 0)

    def test_clamp(self, rng):
        field = random_mlp(hidden=(16,), d_max=0.25, seed=5)
        pts = rng.uniform(-1, 1, (2000, 3))
        assert np.all(field.eval(pts) <= 0.25)
