import numpy as np
import pytest

from udfmesh import (GridSpec, SphereShellUdf, TranslatedPlaneUdf, extract_mesh,
                     extract_mesh_detailed, mesh_signed_grid, sample_grid, write_obj)
from udfmesh import mc_tables
from udfmesh.extract import _mesh_cells, _pseudo_sign
from udfmesh.grid import (NonFiniteFieldError, _corner_table, _cull, _lattice_band,
                          _sample_corners)

from conftest import generic_spec
from oracles import signed_marching_cubes, unique_weld, vertex_sets_match

# the one cell of a 2^3 lattice over [0,1]^3
CELL_SPEC = GridSpec(2, (0, 0, 0), (1, 1, 1))


def sign_cell(u8, g8, grad_norm_min=0.3, anchor=None):
    """One cell's corner values and gradients (table order) through the
    signing kernel: (signed values, anchor), or (None, None) when no
    corner has a usable gradient."""
    s, a, has_anchor = _pseudo_sign(np.asarray(u8, float)[None],
                                    np.asarray(g8, float)[None], grad_norm_min, anchor)
    return (s[0], int(a[0])) if has_anchor[0] else (None, None)


def cell_triangles(spec, cell, s):
    """Triangles of one signed cell as (n, 3, 3) vertex positions."""
    mesh = _mesh_cells(spec, s[None], *_corner_table(spec, np.array([cell])))[0]
    return mesh.vertices[mesh.faces]


def slab_cell(step=1.0, plane_z=0.5):
    """Cell crossed by the plane z = plane_z; corners 0-3 below, 4-7 above,
    as (values, gradients) in table order."""
    u = [plane_z] * 4 + [step - plane_z] * 4
    g = [(0, 0, -1)] * 4 + [(0, 0, 1)] * 4
    return u, g


def candidates(field, spec):
    """The candidate cells of a dense lattice with their corner values and
    field gradients, as extraction reads them: (cells, u8, g8)."""
    cells, u8 = _lattice_band(sample_grid(field, spec), -np.inf, spec.cell_diagonal)
    keep = _cull(u8, spec, 1.0)
    cells, u8 = cells[keep], u8[keep]
    ids, index = _corner_table(spec, cells)
    return cells, u8, _sample_corners(field, spec, None, True, ids)[1][index]


class TestPseudoSignCell:
    def test_opposing_gradients_get_opposite_signs(self):
        u, g = slab_cell()
        s, anchor = sign_cell(u, g)
        assert (s < 0).any()                 # a crossing: not skipped
        assert anchor == 0
        assert (s[:4] > 0).all()             # anchor side
        assert (s[4:] < 0).all()
        np.testing.assert_allclose(np.abs(s), 0.5)

    def test_forced_anchor_above_flips_signs(self):
        s, _ = sign_cell(*slab_cell(), anchor=4)
        assert (s[4:] > 0).all()
        assert (s[:4] < 0).all()

    def test_parallel_gradients_no_crossing(self):
        s, _ = sign_cell([0.3] * 8, [(0, 0, 1)] * 8)
        assert s is not None                 # anchored, but nothing to cut
        assert (s >= 0).all()

    def test_all_gradients_weak_skips_cell(self):
        s, anchor = sign_cell([0.3] * 8, [(0, 0, 0.1)] * 8, grad_norm_min=0.3)
        assert s is None and anchor is None

    def test_anchor_prefers_largest_norm_then_lowest_index(self):
        g = [(0, 0, 1)] * 8
        g[3] = (0, 0, 2.0)
        g[6] = (0, 0, 2.0)
        assert sign_cell([0.1] * 8, g)[1] == 3

    def test_pseudo_magnitudes_equal_distances(self):
        s, _ = sign_cell(*slab_cell(plane_z=0.3))
        np.testing.assert_array_equal(np.abs(s), [0.3] * 4 + [0.7] * 4)


def test_edge_tables_derive_from_corner_offsets():
    # the tables as they were written out by hand
    np.testing.assert_array_equal(mc_tables.EDGE_CORNERS_LOW_HIGH, [
        (0, 1), (1, 2), (3, 2), (0, 3), (4, 5), (5, 6), (7, 6), (4, 7),
        (0, 4), (1, 5), (2, 6), (3, 7)])
    np.testing.assert_array_equal(mc_tables.EDGE_AXIS, [0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2])
    np.testing.assert_array_equal(mc_tables.EDGE_BASE, [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1), (1, 0, 1),
        (0, 1, 1), (0, 0, 1), (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    for table in (mc_tables.EDGE_CORNERS_LOW_HIGH, mc_tables.EDGE_AXIS, mc_tables.EDGE_BASE):
        assert table.dtype == np.int64


class TestTriangulateCell:
    def test_slab_crossing_at_exact_plane_height(self):
        s, _ = sign_cell(*slab_cell(plane_z=0.5))
        tris = cell_triangles(CELL_SPEC, 0, s)
        assert len(tris) == 2
        np.testing.assert_allclose(tris[..., 2], 0.5)

    def test_single_negative_corner_one_triangle(self):
        g = [(0, 0, 1)] * 8
        g[6] = (0, 0, -1)        # one corner on the other side
        s, _ = sign_cell([0.2] * 8, g)
        assert len(cell_triangles(CELL_SPEC, 0, s)) == 1

    def test_equal_magnitudes_interpolate_midpoint(self):
        s, _ = sign_cell(*slab_cell(plane_z=0.5))
        tris = cell_triangles(CELL_SPEC, 0, s)
        # u equal on both corners of every cut edge: t = 0.5 exactly
        assert set(np.round(tris[..., 2].ravel(), 15).tolist()) == {0.5}

    def test_skipped_cell_triangulates_empty(self):
        # a cell without an anchor never reaches the case table, and a
        # signed cell without a crossing gives no triangles
        s, _ = sign_cell([0.3] * 8, [(0, 0, 0.1)] * 8, grad_norm_min=0.3)
        assert s is None
        s, _ = sign_cell([0.3] * 8, [(0, 0, 1)] * 8)
        assert cell_triangles(CELL_SPEC, 0, s).shape == (0, 3, 3)

    def test_single_cell_wrappers_reproduce_extract_mesh(self):
        # signing and triangulating the candidates one cell at a time gives
        # the faces of the batched extraction, in order
        field = SphereShellUdf(0.5)
        spec = generic_spec(17)
        mesh = extract_mesh_detailed(field, spec, samples=sample_grid(field, spec))[0]
        tris = []
        for c, u, g in zip(*candidates(field, spec)):
            s, _ = sign_cell(u, g)
            if s is not None:
                tris.append(cell_triangles(spec, c, s))
        np.testing.assert_array_equal(np.concatenate(tris),
                                      mesh.vertices[mesh.faces])


class TestAnchorInvariance:
    def test_well_conditioned_cells_anchor_independent(self):
        field = SphereShellUdf(0.5)
        spec = generic_spec(17)
        checked = 0
        for c, u, g in list(zip(*candidates(field, spec)))[:600]:
            base, _ = sign_cell(u, g)
            if base is None or not (base < 0).any():
                continue
            partitions = []
            tris = []
            for a in range(8):
                s, _ = sign_cell(u, g, anchor=a)
                partitions.append(s < 0)
                tris.append(cell_triangles(spec, c, s))
            # sign partition must agree up to global flip to compare
            if not all(np.array_equal(partitions[0], p)
                       or np.array_equal(partitions[0], ~p) for p in partitions):
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
        s, _ = sign_cell(*slab_cell())
        spec = CELL_SPEC
        mesh, vertex_ids, disagreements = _mesh_cells(spec, s[None],
                                                      *_corner_table(spec, np.array([0])))
        ref_ids = unique_weld(spec, spec.cell_origin_ijk(np.array([0])), s[None])[1]
        assert mesh.n_vertices == len(ref_ids) == 4
        np.testing.assert_array_equal(vertex_ids, ref_ids)
        assert disagreements == 0

    def test_shared_edge_positions_bitwise_identical(self):
        # mesh every crossing cell on its own: a lattice edge cut by several
        # cells gets bitwise the same vertex from each of them
        field = SphereShellUdf(0.5)
        spec = generic_spec(17)
        edge_ids, positions = [], []
        for c, u, g in zip(*candidates(field, spec)):
            s, _ = sign_cell(u, g)
            if s is None or not (s < 0).any():
                continue
            mesh, vertex_ids, _ = _mesh_cells(spec, s[None], *_corner_table(spec, np.array([c])))
            np.testing.assert_array_equal(
                vertex_ids,
                unique_weld(spec, spec.cell_origin_ijk(np.array([c])), s[None])[1])
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
            mesh = extract_mesh_detailed(field, spec, threads=t)[0]
            p = tmp_path / f"out_{t}.obj"
            write_obj(mesh, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize("shape", [(17, 17, 16), (17, 17, 17, 3), (4913,)],
                             ids=["short-axis", "with-gradients", "flat"])
    def test_samples_must_be_the_value_lattice(self, shape):
        with pytest.raises(ValueError, match=r"do not fit a 17\^3 lattice"):
            extract_mesh_detailed(SphereShellUdf(0.5), GridSpec(17),
                                  samples=np.zeros(shape))

    def test_exact_corner_hits_are_quarantined_not_silent(self):
        # the half-unit sphere on the default lattice passes exactly through
        # six corners; those singular contacts surface as diagnosed
        # disagreements and local cracks near the poles, nowhere else
        field = SphereShellUdf(0.5)
        spec = GridSpec(33)
        samples = sample_grid(field, spec)
        assert int((samples == 0).sum()) == 6
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
        values = sample_grid(field, spec)
        eps = 0.55 * float(spec.step.max())
        mesh = mesh_signed_grid(values - eps, spec)
        assert mesh.is_watertight()
        # vertices straddle both sides of the true surface by about eps
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert r.min() < 0.5 - 0.5 * eps
        assert r.max() > 0.5 + 0.5 * eps
        assert np.abs(r - 0.5).max() <= eps + spec.cell_diagonal

    def test_non_finite_corner_is_named(self):
        # a NaN corner is neither inside nor outside: the lattice is refused
        # at entry, naming the corner, before any edge is cut next to it
        spec = GridSpec(3)
        values = np.full((3, 3, 3), -1.0)
        assert mesh_signed_grid(values, spec).is_empty()
        values[1, 1, 1] = np.nan
        with pytest.raises(NonFiniteFieldError, match=r"^values hold a non-finite value "
                           r"at corner \[1, 1, 1\] \(0, 0, 0\)"):
            mesh_signed_grid(values, spec)
