from collections import Counter

import numpy as np
import pytest

from udfmesh import (GridSpec, MeshUdf, MlpUdf, OpenCylinderUdf, RectanglePatchUdf,
                     SphereShellUdf, TranslatedMeshUdf, TranslatedPlaneUdf, TriMesh,
                     UdfField, diffgeom, assemble_jacobian, directional_gradcheck,
                     extract_mesh, fit_point_cloud, image_consistency, primitives,
                     random_mlp, remove_spurious_facets, render, smooth_borders,
                     vertex_normals)
from udfmesh.diffgeom import DEFAULT_ALPHA, gradcheck_csv, outward_vectors, vertex_rows
from udfmesh.mlp import encoded_dim
from udfmesh.postprocess import default_prune_tol

from conftest import generic_spec
from oracles import (three_call_assemble_jacobian, two_eval_outward_vectors,
                     unique_extract_mesh_detailed)
from test_corner_table import bench_garment


class DiskPatchUdf(UdfField):
    """Exact distance to a flat disk: closed-form open-surface field."""

    def __init__(self, radius=0.55, z0=0.05):
        self.radius, self.z0 = radius, z0

    def _query(self, pts, grad, sens):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        dr = np.maximum(rho - self.radius, 0.0)
        dz = pts[:, 2] - self.z0
        d = np.hypot(dr, dz)
        if not grad:
            return d, None, None
        g = np.zeros_like(pts)
        ok = d > 0
        radial = np.zeros((len(pts), 2))
        np.divide(pts[:, :2], rho[:, None], out=radial, where=rho[:, None] > 0)
        g[ok, :2] = radial[ok] * (dr[ok] / d[ok])[:, None]
        g[ok, 2] = dz[ok] / d[ok]
        return d, g, None


def wavy_plane_net(latent_dim=4, order=2, amplitude=0.05):
    """Distance-like network |x3 - amplitude*sin(pi*x1) - w.z| built by hand.

    Stays within ~1% of unit gradient norm, so it behaves like the learned
    distance fields the derivative formulas assume, while exercising the
    Fourier features, the rectifier pair and the latent pathway.
    """
    d = encoded_dim(order)
    w_lat = np.array([0.2, -0.15, 0.1, 0.05])[:latent_dim]
    row = np.zeros(d + latent_dim)
    row[2] = 1.0              # raw x3
    row[3] = -amplitude       # sin(pi * x1)
    row[d:] = -w_lat
    w0 = np.vstack([row, -row])
    w1 = np.array([[1.0, 1.0]])
    net = MlpUdf([w0, w1], [np.zeros(2), np.zeros(1)], order, latent_dim)
    return net, w_lat


class TestVertexNormals:
    def test_flat_patch_normal_is_z(self, unit_patch_mesh):
        n = vertex_normals(unit_patch_mesh)
        np.testing.assert_allclose(np.abs(n[:, 2]), 1.0, atol=1e-12)

    def test_single_face_vertex_uses_face_normal(self):
        tri = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]]),
                      np.array([[0, 1, 2]]))
        np.testing.assert_allclose(np.abs(vertex_normals(tri)[0]), (0, 0, 1))

    def test_cylinder_vertex_normals_radial(self):
        mesh = extract_mesh(um_cyl := __import__("udfmesh").OpenCylinderUdf(0.6),
                            generic_spec(65))
        n = vertex_normals(mesh)
        v = mesh.vertices
        on_wall = np.abs(v[:, 2]) < 0.4    # away from the tube's open ends
        radial = v[on_wall, :2] / np.linalg.norm(v[on_wall, :2], axis=1,
                                                 keepdims=True)
        cos = np.abs(np.einsum("ij,ij->i", n[on_wall, :2], radial))
        assert np.degrees(np.arccos(np.clip(cos, -1, 1))).max() < 2.0

    def test_orientation_insensitive(self, unit_patch_mesh):
        flipped = TriMesh(unit_patch_mesh.vertices.copy(),
                          unit_patch_mesh.faces[:, ::-1].copy())
        a = vertex_normals(unit_patch_mesh)
        b = vertex_normals(flipped)
        np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-12)


class TestOutwardVectors:
    def half_plane_mesh(self, flip=False):
        """Sheet in z = 0 occupying x <= 0 (x >= 0 when flipped); the border
        along x = 0 has a mid-edge vertex at (0, 0.3, 0)."""
        mesh = primitives.square_patch(side=0.6, z=0.0, center=(-0.3, 0.3),
                                       subdivisions=2)
        if flip:
            v = mesh.vertices.copy()
            v[:, 0] *= -1
            mesh = TriMesh(v, mesh.faces.copy())
        return mesh

    @staticmethod
    def mid_border_vertex(mesh, x):
        hit = np.flatnonzero((mesh.vertices[:, 0] == x)
                             & (np.abs(mesh.vertices[:, 1] - 0.3) < 1e-12))
        assert len(hit) == 1
        return int(hit[0])

    def test_half_plane_outward_is_plus_x(self):
        mesh = self.half_plane_mesh()
        field = RectanglePatchUdf(0.0, -2.0, (-2.0, 2.0), 0.0)
        o, resolved = outward_vectors(mesh, field)
        v = self.mid_border_vertex(mesh, 0.0)
        assert resolved[v]
        np.testing.assert_allclose(np.abs(o[v]), (1, 0, 0), atol=1e-12)
        np.testing.assert_allclose(o[v], (1, 0, 0), atol=1e-12)

    def test_mirrored_patch_outward_is_minus_x(self):
        mesh = self.half_plane_mesh(flip=True)

        class MirroredPatch(UdfField):
            def _query(self, pts, grad, sens):
                q = pts.copy()
                q[:, 0] = np.clip(q[:, 0], 0.0, 2.0)
                q[:, 1] = np.clip(q[:, 1], -2.0, 2.0)
                q[:, 2] = 0.0
                g = np.zeros_like(pts) if grad else None
                return np.linalg.norm(pts - q, axis=1), g, None

        o, resolved = outward_vectors(mesh, MirroredPatch())
        v = self.mid_border_vertex(mesh, 0.0)
        assert resolved[v]
        np.testing.assert_allclose(o[v], (-1, 0, 0), atol=1e-12)

    def test_disk_border_outward_radial_within_5_degrees(self):
        mesh = primitives.disk(radius=0.55, z=0.05, segments=72)
        field = DiskPatchUdf(radius=0.55, z0=0.05)
        o, resolved = outward_vectors(mesh, field)
        border = mesh.border_vertex_mask()
        assert resolved[border].all()
        v = mesh.vertices[border]
        rho = np.hypot(v[:, 0], v[:, 1])
        radial = np.zeros_like(v)
        radial[:, 0] = v[:, 0] / rho
        radial[:, 1] = v[:, 1] / rho
        cos = np.einsum("ij,ij->i", o[border], radial)
        assert np.degrees(np.arccos(np.clip(cos, -1, 1))).max() < 5.0

    def test_degenerate_cross_product_unresolved(self):
        # zero-area sliver: face normal parallel to the border edge
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]])
        mesh = TriMesh(verts, np.array([[0, 1, 2]]))
        o, resolved = outward_vectors(mesh, TranslatedPlaneUdf(0.0))
        assert not resolved.any()


def derivative(field, v, direction, border=False, alpha=DEFAULT_ALPHA):
    """Full 3 x C derivative of one vertex: its direction times its row."""
    direction = np.asarray(direction, float)
    row = vertex_rows(field, np.asarray(v, float).reshape(1, 3), direction.reshape(1, 3),
                      np.array([border]), alpha)[0]
    return np.outer(direction, row)


class TestDerivativeRows:
    def test_translated_plane_vertex_tracks_parameter(self):
        field = TranslatedPlaneUdf(0.1)
        d = derivative(field, (0.3, -0.2, 0.1), (0, 0, 1.0))
        np.testing.assert_allclose(d, [[0], [0], [1.0]])

    def test_sphere_vertex_moves_radially(self):
        field = SphereShellUdf(0.5)
        v = np.array([0.0, 0.0, 0.5])
        d = derivative(field, v, (0, 0, 1.0))
        np.testing.assert_allclose(d, [[0], [0], [1.0]])
        v = np.array([0.5, 0.0, 0.0])
        d = derivative(field, v, (1.0, 0, 0))
        np.testing.assert_allclose(d, [[1.0], [0], [0]])

    def test_sign_invariance_exact(self, rng):
        field = SphereShellUdf(0.45)
        for _ in range(20):
            v = rng.normal(size=3)
            v = 0.45 * v / np.linalg.norm(v)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            a = derivative(field, v, n)
            b = derivative(field, v, -n)
            np.testing.assert_array_equal(a, b)

    def test_border_row_extends_with_parameter(self):
        field = RectanglePatchUdf(0.3, -0.5, (-0.5, 0.5), 0.0)
        v = np.array([0.3, 0.1, 0.0])
        o = np.array([1.0, 0.0, 0.0])
        d = derivative(field, v, o, border=True)
        np.testing.assert_allclose(d, [[1.0], [0], [0]], atol=1e-12)

    def test_border_row_zero_for_distant_parameter(self):
        # probing the +y border: the moving +x edge is far away, so the
        # parameter cannot move these vertices
        field = RectanglePatchUdf(0.3, -0.5, (-0.5, 0.5), 0.0)
        v = np.array([-0.1, 0.5, 0.0])
        o = np.array([0.0, 1.0, 0.0])
        d = derivative(field, v, o, border=True)
        np.testing.assert_array_equal(d, np.zeros((3, 1)))

    def test_locality_zero_sensitivity_means_zero_row(self):
        # the movable +x edge is far outside the alpha-ball of an interior
        # vertex, so its row vanishes identically
        field = RectanglePatchUdf(0.3, -0.5, (-0.5, 0.5), 0.0)
        v = np.array([-0.2, 0.1, 0.0])
        d = derivative(field, v, (0, 0, 1.0), alpha=1e-2)
        np.testing.assert_array_equal(d, np.zeros((3, 1)))

    def test_raising_field_ahead_shrinks_surface(self):
        # one descent step on the border loss direction: increasing the
        # field past the border must pull the border inward, so the row
        # must point along +o for the widening parameter
        field = RectanglePatchUdf(0.3, -0.5, (-0.5, 0.5), 0.0)
        v = np.array([0.3, 0.0, 0.0])
        o = np.array([1.0, 0.0, 0.0])
        row = derivative(field, v, o, border=True)[:, 0]
        assert row @ o > 0


class TestAssembleJacobian:
    def test_shapes_and_classification(self):
        field = RectanglePatchUdf(0.4, -0.4, (-0.4, 0.4), 0.05)
        spec = GridSpec(33)
        mesh = extract_mesh(field, spec)
        jac = assemble_jacobian(mesh, field)
        assert jac.rows.shape == (mesh.n_vertices, 1)
        assert jac.directions.shape == (mesh.n_vertices, 3)
        assert len(jac.is_border) == mesh.n_vertices
        np.testing.assert_allclose(np.linalg.norm(jac.directions, axis=1), 1.0,
                                   atol=1e-9)
        assert jac.is_border.sum() > 0
        # border rows live only on border-edge vertices
        assert not jac.is_border[~mesh.border_vertex_mask()].any()

    def test_no_border_flag_uses_interior_rule_everywhere(self):
        field = RectanglePatchUdf(0.4, -0.4, (-0.4, 0.4), 0.05)
        mesh = extract_mesh(field, GridSpec(33))
        jac = assemble_jacobian(mesh, field, use_border_formula=False)
        assert not jac.is_border.any()

    def test_zero_param_field_empty_rows(self, unit_patch_field):
        mesh = extract_mesh(MeshUdf(primitives.square_patch(side=1.0, z=0.05)),
                            GridSpec(17))
        jac = assemble_jacobian(mesh, MeshUdf(primitives.square_patch(side=1.0,
                                                                      z=0.05)))
        assert jac.rows.shape == (mesh.n_vertices, 0)
        assert jac.param_gradient(np.zeros((mesh.n_vertices, 3))).shape == (0,)


class CountingField(UdfField):
    """Wraps a field and counts its ``eval`` and ``param_sensitivity`` calls."""

    def __init__(self, field):
        self.field, self.param_dim, self.calls = field, field.param_dim, Counter()

    def eval(self, x):
        self.calls["eval"] += 1
        return self.field.eval(x)

    def param_sensitivity(self, x):
        self.calls["param_sensitivity"] += 1
        return self.field.param_sensitivity(x)


def test_one_field_query_per_probe_set():
    field = RectanglePatchUdf(0.4, -0.5, (-0.45, 0.55), 0.08)
    mesh = smooth_borders(extract_mesh(field, generic_spec(17)))
    counted = CountingField(field)
    jac = assemble_jacobian(mesh, counted)
    assert jac.is_border.any() and not jac.is_border.all()
    assert counted.calls == {"eval": 1, "param_sensitivity": 1}


def old_path_fields():
    return {
        "plane": TranslatedPlaneUdf(0.07),
        "sphere": SphereShellUdf(0.45),
        "patch": RectanglePatchUdf(0.4, -0.5, (-0.45, 0.55), 0.08),
        "cylinder": OpenCylinderUdf(0.55, (-0.5, 0.4)),
        "translated-garment": TranslatedMeshUdf(MeshUdf(bench_garment()), (0.03, -0.02, 0.01)),
    }


def assert_matches_old_path(mesh, field, atol=0.0):
    """Stacked probes against the old path's separate queries: bitwise, or
    within ``atol`` for the rows of a field whose batch changes its bits."""
    for alpha in (DEFAULT_ALPHA, 0.2):
        o, resolved = outward_vectors(mesh, field, alpha)
        o_ref, resolved_ref = two_eval_outward_vectors(mesh, field, alpha)
        assert o.tobytes() == o_ref.tobytes()
        assert resolved.tobytes() == resolved_ref.tobytes()
        for use_border in (True, False):
            jac = assemble_jacobian(mesh, field, alpha, use_border)
            directions, rows, is_border = three_call_assemble_jacobian(
                mesh, field, alpha, use_border)
            assert jac.directions.tobytes() == directions.tobytes()
            assert jac.is_border.tobytes() == is_border.tobytes()
            assert jac.rows.shape == rows.shape
            if atol:
                np.testing.assert_allclose(jac.rows, rows, rtol=0, atol=atol)
            else:
                assert jac.rows.tobytes() == rows.tobytes()


@pytest.mark.filterwarnings("ignore:.*border vertices join")
@pytest.mark.parametrize("res", [17, 33])
@pytest.mark.parametrize("name", list(old_path_fields()))
def test_jacobian_matches_old_path(name, res):
    field = old_path_fields()[name]
    spec = generic_spec(res)
    mesh = smooth_borders(remove_spurious_facets(extract_mesh(field, spec), field,
                                                 default_prune_tol(spec)))
    assert not mesh.is_empty()
    assert_matches_old_path(mesh, field)


@pytest.mark.filterwarnings("ignore:.*border vertices join")
def test_mlp_jacobian_matches_old_path_within_tolerance():
    # the reverse pass runs over a different batch, so BLAS may round the
    # stacked rows differently
    net = random_mlp(hidden=(16, 16), encoding_order=2, latent_dim=2, seed=3)
    net = net.with_params([0.3, -0.2])
    spec = generic_spec(33)
    mesh = smooth_borders(remove_spurious_facets(extract_mesh(net, spec), net,
                                                 default_prune_tol(spec)))
    assert not mesh.is_empty()
    assert_matches_old_path(mesh, net, atol=1e-15)


class TestDirectionalGradcheck:
    def test_translated_plane_passes_both_eps(self):
        field = TranslatedPlaneUdf(0.07)
        spec = GridSpec(33)
        for eps in (1e-3, 1e-4):
            rep = directional_gradcheck(field, spec, np.array([1.0]), eps=eps)
            assert rep.passed
            assert rep.n_checked > 500

    def test_sphere_passes_at_fine_grid(self):
        field = SphereShellUdf(0.45)
        spec = generic_spec(97)
        for eps in (1e-3, 1e-4):
            rep = directional_gradcheck(field, spec, np.array([1.0]), eps=eps)
            assert rep.passed

    def test_absurd_alpha_fails(self):
        # alpha far beyond the validity window probes the wrong side of the
        # field and the predicted rates collapse; the same check passes at
        # the default alpha, so the probe distance is what fails it
        field = RectanglePatchUdf(0.3, -0.5, (-0.5, 0.5), 0.05)
        spec, delta = generic_spec(17), np.array([1.0])
        rep = directional_gradcheck(field, spec, delta, eps=1e-3)
        assert rep.passed and rep.n_checked == 59
        rep = directional_gradcheck(field, spec, delta, eps=1e-3, alpha=10.0)
        assert not rep.passed
        v, predicted, measured = rep.worst
        assert v == 31 and measured == 0.0
        assert predicted == pytest.approx(0.177, abs=1e-3)

    def test_step_below_parameter_resolution_raises(self):
        # eps * delta vanishes against the radius: no vertex could move, so
        # a pass would say nothing
        field = SphereShellUdf(0.45)
        with pytest.raises(ValueError, match="leaves the parameters unchanged"):
            directional_gradcheck(field, generic_spec(17), np.array([1.0]), eps=1e-300)

    def test_predicted_rates_probe_at_alpha(self):
        # the rates checked are those assemble_jacobian gives at the alpha
        # passed, not at the default probe distance
        net = random_mlp(hidden=(16, 16), encoding_order=2, latent_dim=2, seed=3)
        spec, delta = generic_spec(17), np.array([0.6, 0.8])
        mesh0 = remove_spurious_facets(extract_mesh(net, spec), net, default_prune_tol(spec))
        rep = directional_gradcheck(net, spec, delta, alpha=0.2)
        checked = [rec[0] for rec in rep.records]
        assert len(checked) == rep.n_checked > 0
        rates = assemble_jacobian(mesh0, net, 0.2).rows @ delta
        np.testing.assert_array_equal([rec[1] for rec in rep.records], rates[checked])
        assert not np.array_equal((assemble_jacobian(mesh0, net).rows @ delta)[checked],
                                  rates[checked])

    def test_csv_has_one_row_per_check(self):
        field = TranslatedPlaneUdf(0.07)
        rep = directional_gradcheck(field, GridSpec(17), np.array([1.0]))
        lines = gradcheck_csv(rep.records).strip().splitlines()
        assert len(lines) == rep.n_checked + 1

    def test_mlp_latent_code_twenty_directions(self, rng):
        net, w_lat = wavy_plane_net()
        spec = GridSpec(48)
        for _ in range(20):
            delta = rng.normal(size=4)
            delta /= np.linalg.norm(delta)
            rep = directional_gradcheck(net, spec, delta, eps=1e-3)
            assert rep.passed
            assert rep.n_checked > 1000


class TestFitPointCloud:
    def test_translated_plane_converges(self):
        rng = np.random.default_rng(11)
        targets = np.column_stack([rng.uniform(-0.8, 0.8, (200, 2)),
                                   np.full(200, 0.1)])
        # init off the lattice planes so the first extraction is non-empty
        res = fit_point_cloud(TranslatedPlaneUdf(0.005), targets, GridSpec(33),
                              iters=50, lr=0.01, seed=0)
        assert abs(res.params[0] - 0.1) < 1e-3

    def test_sphere_radius_converges(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(200, 3))
        targets = 0.4 * v / np.linalg.norm(v, axis=1, keepdims=True)
        res = fit_point_cloud(SphereShellUdf(0.6), targets, generic_spec(65),
                              iters=100, lr=0.005, seed=0)
        assert abs(res.params[0] - 0.4) < 1e-3
        # loss trend: down by an order of magnitude
        losses = [t[1] for t in res.trace]
        assert losses[-1] < 0.1 * losses[0]

    @pytest.mark.filterwarnings("ignore:.*border vertices join")
    def test_border_gradients_extend_patch_ablation(self):
        rng = np.random.default_rng(3)
        targets = np.column_stack([rng.uniform(-0.5, 0.45, 300),
                                   rng.uniform(-0.5, 0.5, 300),
                                   np.full(300, 0.05)])
        init = RectanglePatchUdf(0.2, -0.5, (-0.5, 0.5), 0.05)
        spec = GridSpec(65)
        kwargs = dict(iters=60, lr=0.01, seed=0)
        with_border = fit_point_cloud(init, targets, spec, **kwargs)
        without = fit_point_cloud(init, targets, spec,
                                  use_border_formula=False, **kwargs)
        assert with_border.params[0] > without.params[0] + 0.05
        assert with_border.trace[-1][1] < without.trace[-1][1]

    def test_empty_extraction_logged_and_skipped(self):
        rng = np.random.default_rng(1)
        targets = rng.uniform(-0.5, 0.5, (20, 3))
        # radius far outside the domain: nothing to extract, so the fit
        # stops at the first iteration instead of repeating the same skip
        res = fit_point_cloud(SphereShellUdf(9.0), targets, GridSpec(9),
                              iters=3, lr=0.01)
        assert res.events == [(0, "empty mesh, fit stopped")]
        assert res.params[0] == 9.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected_naming_it(self, bad):
        targets = np.zeros((5, 3))
        targets[3, 1] = bad
        with pytest.raises(ValueError, match=r"target point 3 is not finite"):
            fit_point_cloud(SphereShellUdf(0.5), targets, GridSpec(9), iters=1)

    def test_trace_csv_format(self):
        rng = np.random.default_rng(2)
        targets = np.column_stack([rng.uniform(-0.5, 0.5, (30, 2)),
                                   np.full(30, 0.05)])
        # z = 0 is a lattice plane of GridSpec(17), whose extraction is
        # empty; the shifted lattice gives two real iterations
        res = fit_point_cloud(TranslatedPlaneUdf(0.0), targets, generic_spec(17),
                              iters=2, lr=0.01)
        lines = res.trace_csv().strip().splitlines()
        assert lines[0] == "iter,chamfer,reg,total"
        assert len(lines) == 3
        assert np.isfinite([float(v) for v in ",".join(lines[1:]).split(",")]).all()

    def test_regularizer_shrinks_parameter(self):
        rng = np.random.default_rng(4)
        targets = np.column_stack([rng.uniform(-0.8, 0.8, (100, 2)),
                                   np.full(100, 0.1)])
        free = fit_point_cloud(TranslatedPlaneUdf(0.005), targets, GridSpec(17),
                               iters=40, lr=0.01, lambda_reg=0.0, seed=0)
        tied = fit_point_cloud(TranslatedPlaneUdf(0.005), targets, GridSpec(17),
                               iters=40, lr=0.01, lambda_reg=0.5, seed=0)
        assert abs(tied.params[0]) < abs(free.params[0])
        assert tied.trace[-1][2] > 0


def cylinder_fit():
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.0, 2 * np.pi, 400)
    target = np.column_stack([0.45 * np.cos(theta), 0.45 * np.sin(theta),
                              rng.uniform(-0.6, 0.6, 400)])
    return (OpenCylinderUdf(0.6, (-0.6, 0.6)), target,
            GridSpec(65, (-1.0037,) * 3, (0.9963,) * 3), dict(iters=20, lr=0.01))


def sphere_fit():
    v = np.random.default_rng(7).normal(size=(200, 3))
    return (SphereShellUdf(0.6), 0.4 * v / np.linalg.norm(v, axis=1, keepdims=True),
            generic_spec(33), dict(iters=10, lr=0.005))


def patch_fit():
    rng = np.random.default_rng(3)
    target = np.column_stack([rng.uniform(-0.5, 0.45, 300), rng.uniform(-0.5, 0.5, 300),
                              np.full(300, 0.05)])
    return (RectanglePatchUdf(0.2, -0.5, (-0.5, 0.5), 0.05), target, GridSpec(33),
            dict(iters=10, lr=0.01))


def mlp_latent_fit():
    net, w_lat = wavy_plane_net()
    rng = np.random.default_rng(5)
    xy = rng.uniform(-0.7, 0.7, (200, 2))
    target = np.column_stack([xy, 0.05 * np.sin(np.pi * xy[:, 0]) + 0.08])
    return net, target, generic_spec(33), dict(iters=8, lr=0.02, adaptive=True)


@pytest.mark.filterwarnings("ignore:.*border vertices join")
@pytest.mark.parametrize("make", [cylinder_fit, sphere_fit, patch_fit, mlp_latent_fit],
                         ids=["cylinder", "sphere", "patch", "mlp-latent"])
def test_fit_matches_sort_based_extraction(monkeypatch, make):
    field, target, spec, kwargs = make()
    fit = fit_point_cloud(field, target, spec, **kwargs)
    monkeypatch.setattr(diffgeom, "extract_mesh",
                        lambda f, s: unique_extract_mesh_detailed(f, s)[0])
    ref = fit_point_cloud(field, target, spec, **kwargs)
    assert len(fit.trace) == kwargs["iters"] and not fit.events
    assert fit.params.tobytes() == ref.params.tobytes()
    assert np.array(fit.trace).tobytes() == np.array(ref.trace).tobytes()


@pytest.mark.filterwarnings("ignore:.*border vertices join")
def test_face_normals_once_per_fit_iteration(face_cross_log):
    field, target, spec, kwargs = patch_fit()
    fit = fit_point_cloud(field, target, spec, iters=3, lr=0.01)
    assert len(fit.trace) == 3 and not fit.events
    # one mesh per iteration, each one's cross products computed once
    assert len(face_cross_log) == 3
    assert len({id(mesh) for mesh in face_cross_log}) == 3


@pytest.mark.filterwarnings("ignore:.*border vertices join")
def test_fit_and_scores_run_through_the_public_stages(monkeypatch):
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("sample_surface", "assemble_jacobian", "vertex_normals",
                 "outward_vectors"):
        counting(diffgeom, name)
    counting(render, "render_view")
    field, target, spec, kwargs = patch_fit()
    fit = fit_point_cloud(field, target, spec, iters=3, lr=0.01)
    assert len(fit.trace) == 3 and not fit.events
    assert calls == {"sample_surface": 3, "assemble_jacobian": 3,
                     "vertex_normals": 3, "outward_vectors": 3}
    calls.clear()
    mesh = extract_mesh(field, spec)
    image_consistency(mesh, primitives.square_patch(side=1.0), 32)
    assert calls == {"render_view": 16}
