import numpy as np
import pytest

from udfmesh import (GridSamples, GridSpec, SphereShellUdf,
                     TranslatedPlaneUdf, candidate_cells, extract_mesh,
                     extract_mesh_detailed, mesh_signed_grid, pseudo_sign_cell,
                     sample_grid, triangulate_cell, write_obj)
from udfmesh.extract import SKIP_NO_ANCHOR, SKIP_NO_CROSSING, _mesh_cells

from conftest import generic_spec
from oracles import signed_marching_cubes, unique_weld, vertex_sets_match


def single_cell_samples(u_corners, g_corners):
    """1-cell grid over [0,1]^3 with prescribed corner data (table order)."""
    spec = GridSpec(2, (0, 0, 0), (1, 1, 1))
    from udfmesh.mc_tables import CORNER_OFFSETS
    u = np.zeros((2, 2, 2))
    g = np.zeros((2, 2, 2, 3))
    for c, (i, j, k) in enumerate(CORNER_OFFSETS):
        u[i, j, k] = u_corners[c]
        g[i, j, k] = g_corners[c]
    return GridSamples(spec, u, g), spec


def slab_cell(step=1.0, plane_z=0.5):
    """Cell crossed by the plane z = plane_z; corners 0-3 below, 4-7 above."""
    u = [plane_z] * 4 + [step - plane_z] * 4
    g = [(0, 0, -1)] * 4 + [(0, 0, 1)] * 4
    return single_cell_samples(u, g)


class TestPseudoSignCell:
    def test_opposing_gradients_get_opposite_signs(self):
        samples, _ = slab_cell()
        cell = pseudo_sign_cell(samples, 0)
        assert cell.skipped is None
        assert cell.anchor == 0
        assert (cell.values[:4] > 0).all()      # anchor side
        assert (cell.values[4:] < 0).all()
        np.testing.assert_allclose(np.abs(cell.values), samples.u.ravel()[0] * 0 + 0.5)

    def test_forced_anchor_above_flips_signs(self):
        samples, _ = slab_cell()
        cell = pseudo_sign_cell(samples, 0, force_anchor=4)
        assert (cell.values[4:] > 0).all()
        assert (cell.values[:4] < 0).all()

    def test_parallel_gradients_no_crossing(self):
        samples, _ = single_cell_samples([0.3] * 8, [(0, 0, 1)] * 8)
        cell = pseudo_sign_cell(samples, 0)
        assert cell.skipped == SKIP_NO_CROSSING
        assert (cell.values >= 0).all()

    def test_all_gradients_weak_skips_cell(self):
        samples, _ = single_cell_samples([0.3] * 8, [(0, 0, 0.1)] * 8)
        cell = pseudo_sign_cell(samples, 0, grad_norm_min=0.3)
        assert cell.skipped == SKIP_NO_ANCHOR
        assert cell.values is None

    def test_anchor_prefers_largest_norm_then_lowest_index(self):
        g = [(0, 0, 1)] * 8
        g[3] = (0, 0, 2.0)
        g[6] = (0, 0, 2.0)
        samples, _ = single_cell_samples([0.1] * 8, g)
        assert pseudo_sign_cell(samples, 0).anchor == 3

    def test_pseudo_magnitudes_equal_distances(self):
        samples, _ = slab_cell(plane_z=0.3)
        cell = pseudo_sign_cell(samples, 0)
        np.testing.assert_array_equal(np.abs(cell.values),
                                      [0.3] * 4 + [0.7] * 4)


class RaisingField(SphereShellUdf):
    """A field that fails every query."""

    def _query(self, pts, grad, sens):
        raise AssertionError("given gradients were re-queried from the field")


class TestGivenGradients:
    """Gradients given to ``GridSamples`` win over its field: they are
    gathered, never evaluated again."""

    def test_pseudo_sign_cell_reads_given_gradients(self):
        samples, spec = slab_cell(plane_z=0.3)
        given = GridSamples(spec, samples.u, samples.g, field=RaisingField(0.5))
        cell = pseudo_sign_cell(given, 0)
        assert cell.anchor == 0
        np.testing.assert_array_equal(cell.values, [0.3] * 4 + [-0.7] * 4)
        ids = np.arange(8)
        np.testing.assert_array_equal(given.gradients(ids),
                                      samples.g.transpose(2, 1, 0, 3).reshape(8, 3))

    def test_extraction_reads_given_gradients(self):
        spec = generic_spec(17)
        dense = sample_grid(SphereShellUdf(0.5), spec)
        ref_mesh, ref_stats = extract_mesh_detailed(SphereShellUdf(0.5), spec,
                                                    samples=dense)
        field = RaisingField(0.5)
        given = GridSamples(spec, dense.u, dense.g, field=field)
        mesh, stats = extract_mesh_detailed(field, spec, samples=given)
        assert mesh.n_faces > 0
        assert mesh.vertices.tobytes() == ref_mesh.vertices.tobytes()
        assert mesh.faces.tobytes() == ref_mesh.faces.tobytes()
        assert stats.triangulated_cells == ref_stats.triangulated_cells

    def test_prescribed_gradients_drive_extraction(self):
        # the slab cell's signs come from its prescribed gradients alone
        samples, spec = slab_cell(plane_z=0.25)
        field = RaisingField(0.5)
        mesh, stats = extract_mesh_detailed(
            field, spec, samples=GridSamples(spec, samples.u, samples.g, field=field))
        assert stats.triangulated_cells == 1
        np.testing.assert_allclose(mesh.vertices[:, 2], 0.25)

    def test_samples_need_gradients_or_a_field(self):
        spec = GridSpec(2)
        with pytest.raises(ValueError, match="gradients or a field"):
            GridSamples(spec, np.zeros((2, 2, 2)))


class TestTriangulateCell:
    def test_slab_crossing_at_exact_plane_height(self):
        samples, spec = slab_cell(plane_z=0.5)
        cell = pseudo_sign_cell(samples, 0)
        tris = triangulate_cell(cell, spec)
        assert len(tris) == 2
        np.testing.assert_allclose(tris[..., 2], 0.5)

    def test_single_negative_corner_one_triangle(self):
        g = [(0, 0, 1)] * 8
        g[6] = (0, 0, -1)        # one corner on the other side
        samples, spec = single_cell_samples([0.2] * 8, g)
        cell = pseudo_sign_cell(samples, 0)
        tris = triangulate_cell(cell, spec)
        assert len(tris) == 1

    def test_equal_magnitudes_interpolate_midpoint(self):
        samples, spec = slab_cell(plane_z=0.5)
        cell = pseudo_sign_cell(samples, 0)
        tris = triangulate_cell(cell, spec)
        # u equal on both corners of every cut edge: t = 0.5 exactly
        assert set(np.round(tris[..., 2].ravel(), 15).tolist()) == {0.5}

    def test_skipped_cell_triangulates_empty(self):
        samples, spec = single_cell_samples([0.3] * 8, [(0, 0, 0.1)] * 8)
        cell = pseudo_sign_cell(samples, 0, grad_norm_min=0.3)
        assert triangulate_cell(cell, spec).shape == (0, 3, 3)

    def test_single_cell_wrappers_reproduce_extract_mesh(self):
        field = SphereShellUdf(0.5)
        spec = generic_spec(17)
        samples = sample_grid(field, spec)
        mesh = extract_mesh(field, spec, samples=samples)
        tris = [triangulate_cell(pseudo_sign_cell(samples, int(c)), spec)
                for c in candidate_cells(samples, spec)]
        np.testing.assert_array_equal(np.concatenate(tris),
                                      mesh.vertices[mesh.faces])


class TestAnchorInvariance:
    def test_well_conditioned_cells_anchor_independent(self):
        field = SphereShellUdf(0.5)
        spec = generic_spec(17)
        samples = sample_grid(field, spec)
        checked = 0
        for cell_idx in candidate_cells(samples, spec)[:600]:
            base = pseudo_sign_cell(samples, int(cell_idx))
            if base.skipped is not None:
                continue
            norms_ok = True
            partitions = []
            tris = []
            for a in range(8):
                cell = pseudo_sign_cell(samples, int(cell_idx), force_anchor=a)
                partitions.append(cell.values < 0)
                tris.append(triangulate_cell(cell, spec))
            # sign partition must agree up to global flip to compare
            same = all(np.array_equal(partitions[0], p)
                       or np.array_equal(partitions[0], ~p) for p in partitions)
            if not (norms_ok and same):
                continue
            checked += 1
            ref = np.sort(tris[0].reshape(-1, 3), axis=0)
            for t in tris[1:]:
                np.testing.assert_allclose(np.sort(t.reshape(-1, 3), axis=0),
                                           ref, atol=1e-12)
        assert checked > 100


class TestWeld:
    def test_adjacent_slab_cells_share_edge_vertices(self):
        # two cells side by side crossed by the same plane: welding the
        # shared-edge vertices leaves a crack-free strip
        field = TranslatedPlaneUdf(0.13)
        spec = GridSpec(3, (0, 0, 0), (2, 2, 2))
        mesh = extract_mesh(field, spec)
        assert mesh.n_faces == 8
        assert mesh.n_vertices == 9    # 3x3 lattice of cut vertical edges
        assert mesh.is_edge_manifold()
        np.testing.assert_allclose(mesh.vertices[:, 2], 0.13)

    def test_single_cell_vertex_count_equals_cut_edges(self):
        samples, spec = slab_cell()
        cell = pseudo_sign_cell(samples, 0)
        mesh, vertex_ids, disagreements = _mesh_cells(spec, np.array([0]), cell.values[None])
        ref_ids = unique_weld(spec, spec.cell_origin_ijk(np.array([0])), cell.values[None])[1]
        assert mesh.n_vertices == len(ref_ids) == 4
        np.testing.assert_array_equal(vertex_ids, ref_ids)
        assert disagreements == 0

    def test_shared_edge_positions_bitwise_identical(self):
        # mesh every crossing cell on its own: a lattice edge cut by several
        # cells gets bitwise the same vertex from each of them
        field = SphereShellUdf(0.5)
        spec = generic_spec(17)
        samples = sample_grid(field, spec)
        edge_ids, positions = [], []
        for c in candidate_cells(samples, spec):
            cell = pseudo_sign_cell(samples, int(c))
            if cell.skipped is not None:
                continue
            mesh, vertex_ids, _ = _mesh_cells(spec, np.array([c]), cell.values[None])
            np.testing.assert_array_equal(
                vertex_ids,
                unique_weld(spec, spec.cell_origin_ijk(np.array([c])), cell.values[None])[1])
            edge_ids.append(vertex_ids)    # the vertex order
            positions.append(mesh.vertices)
        ids, pos = np.concatenate(edge_ids), np.concatenate(positions)
        order = np.argsort(ids, kind="stable")
        ids, pos = ids[order], pos[order]
        shared = np.flatnonzero(np.diff(ids) == 0)
        assert len(shared) > 100
        np.testing.assert_array_equal(pos[shared], pos[shared + 1])

    def test_manifold_edges_everywhere_on_open_sheet(self):
        # domain-clipped plane sheet: every non-border edge joins two faces
        mesh = extract_mesh(TranslatedPlaneUdf(0.07), GridSpec(33))
        edges, counts = mesh.edges_with_counts()
        assert counts.max() == 2
        assert (counts == 1).sum() == len(mesh.border_edges())


class TestExtractMesh:
    def test_plane_sheet_exactly_flat(self):
        # linear exact field: every interpolated vertex lands on the plane
        z0 = 0.05
        spec = GridSpec(65)
        mesh, stats = extract_mesh_detailed(TranslatedPlaneUdf(z0), spec)
        assert not mesh.is_empty()
        assert np.abs(mesh.vertices[:, 2] - z0).max() < 1e-6 * spec.step[2]
        assert len(mesh.border_edges()) > 0    # clipped at the domain walls
        assert stats.triangulated_cells > 0

    def test_mesh_patch_open_sheet_stays_near_surface(self):
        # bounded sheet at a height off the lattice planes: rim cells
        # overshoot a little, but after pruning every vertex stays within
        # the facet tolerance of the true patch
        from udfmesh import MeshUdf, primitives, remove_spurious_facets
        field = MeshUdf(primitives.square_patch(side=1.0, z=0.05))
        spec = GridSpec(65)
        mesh = extract_mesh(field, spec)
        tol = 0.5 * spec.cell_diagonal
        pruned = remove_spurious_facets(mesh, field, tol)
        assert not pruned.is_empty()
        assert len(pruned.border_edges()) > 0
        assert field.eval(pruned.vertices).max() <= tol

    def test_sphere_watertight_euler_two(self):
        field = SphereShellUdf(0.5)
        mesh = extract_mesh(field, generic_spec(65))
        assert mesh.is_watertight()
        assert mesh.euler_characteristic() == 2

    def test_matches_signed_marching_cubes_plane(self):
        spec = GridSpec(33)
        field = TranslatedPlaneUdf(0.1)
        ours = extract_mesh(field, spec)
        pts = spec.corner_points()
        signed = (pts[:, 2] - 0.1).reshape([spec.resolution] * 3, order="F")
        overts, ofaces = signed_marching_cubes(np.ascontiguousarray(signed), spec)
        assert ours.n_faces == len(ofaces)
        assert vertex_sets_match(ours.vertices, overts)

    def test_matches_signed_marching_cubes_sphere(self):
        spec = generic_spec(33)
        field = SphereShellUdf(0.5)
        ours = extract_mesh(field, spec)
        pts = spec.corner_points()
        signed = (np.linalg.norm(pts, axis=1) - 0.5).reshape(
            [spec.resolution] * 3, order="F")
        overts, ofaces = signed_marching_cubes(np.ascontiguousarray(signed), spec)
        assert ours.n_faces == len(ofaces)
        assert vertex_sets_match(ours.vertices, overts)

    def test_no_surface_in_domain_returns_empty(self):
        field = SphereShellUdf(10.0)
        mesh = extract_mesh(field, GridSpec(9))
        assert mesh.is_empty()

    def test_stats_account_for_every_cell(self):
        field = SphereShellUdf(0.5)
        spec = generic_spec(33)
        _, stats = extract_mesh_detailed(field, spec)
        assert stats.candidate_cells + stats.culled_cells == stats.total_cells
        assert (stats.triangulated_cells + stats.skipped_no_anchor
                + stats.skipped_no_crossing) == stats.candidate_cells
        assert "cells" in stats.summary()

    def test_thread_count_invariant_output(self, tmp_path):
        field = SphereShellUdf(0.5)
        spec = generic_spec(33)
        paths = []
        for t in (1, 4):
            mesh = extract_mesh(field, spec, threads=t)
            p = tmp_path / f"out_{t}.obj"
            write_obj(mesh, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_exact_corner_hits_are_quarantined_not_silent(self):
        # the half-unit sphere on the default lattice passes exactly through
        # six corners; those singular contacts surface as diagnosed
        # disagreements and local cracks near the poles, nowhere else
        field = SphereShellUdf(0.5)
        spec = GridSpec(33)
        samples = sample_grid(field, spec)
        assert int((samples.u == 0).sum()) == 6
        mesh, stats = extract_mesh_detailed(field, spec, samples=samples)
        assert stats.edge_disagreements > 0
        be = mesh.border_edges()
        assert len(be) > 0
        mids = 0.5 * (mesh.vertices[be[:, 0]] + mesh.vertices[be[:, 1]])
        hits = np.array([[0.5, 0, 0], [-0.5, 0, 0], [0, 0.5, 0],
                         [0, -0.5, 0], [0, 0, 0.5], [0, 0, -0.5]])
        from scipy.spatial import cKDTree
        assert cKDTree(hits).query(mids)[0].max() < 2 * spec.cell_diagonal


class TestSignedGrid:
    def test_sphere_inflation_shell_closed(self):
        field = SphereShellUdf(0.5)
        spec = generic_spec(33)
        from udfmesh import sample_grid_values
        values = sample_grid_values(field, spec)
        eps = 0.55 * float(spec.step.max())
        mesh = mesh_signed_grid(values - eps, spec)
        assert mesh.is_watertight()
        # vertices straddle both sides of the true surface by about eps
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert r.min() < 0.5 - 0.5 * eps
        assert r.max() > 0.5 + 0.5 * eps
        assert np.abs(r - 0.5).max() <= eps + spec.cell_diagonal

    def test_nan_corner_counts_as_outside(self):
        # a NaN corner is not negative, so it triangulates like a positive one
        spec = GridSpec(3)
        values = np.full((3, 3, 3), -1.0)
        positive = values.copy()
        positive[1, 1, 1] = 1.0
        values[1, 1, 1] = np.nan
        with np.errstate(invalid="ignore"):
            mesh = mesh_signed_grid(values, spec)
        assert mesh.n_faces == 8
        np.testing.assert_array_equal(mesh.faces, mesh_signed_grid(positive, spec).faces)
