import numpy as np
import pytest

from udfmesh import (GridSpec, MeshUdf, SphereShellUdf, TranslatedPlaneUdf,
                     TriMesh, extract_mesh, primitives,
                     remove_spurious_facets, smooth_borders)

from conftest import generic_spec


def strip_mesh(zigzag=0.0, segments=2):
    """Quad strip along x, split into triangles; the bottom border can
    zig-zag by +-zigzag on alternating interior vertices."""
    n = segments + 1
    bottom = np.column_stack([
        np.arange(n, dtype=float),
        np.where(np.arange(n) % 2 == 1, zigzag, 0.0),
        np.zeros(n),
    ])
    bottom[0, 1] = bottom[-1, 1] = 0.0
    top = bottom.copy()
    top[:, 1] = 1.0
    verts = np.vstack([bottom, top])
    faces = []
    for i in range(segments):
        faces.append((i, i + 1, n + i + 1))
        faces.append((i, n + i + 1, n + i))
    return TriMesh(verts, np.array(faces, dtype=np.int64))


class TestRemoveSpuriousFacets:
    def test_near_face_kept(self):
        field = TranslatedPlaneUdf(0.0)
        mesh = strip_mesh()
        out = remove_spurious_facets(mesh, field, tol=0.1)
        assert out.n_faces == mesh.n_faces

    def test_face_with_one_far_vertex_removed(self):
        field = TranslatedPlaneUdf(0.0)
        mesh = strip_mesh()
        verts = mesh.vertices.copy()
        verts[2, 2] = 1.0    # strip corner lifted well past the tol
        mesh = mesh.with_vertices(verts)
        out = remove_spurious_facets(mesh, field, tol=0.1)
        assert out.n_faces == mesh.n_faces - 1   # only the face touching it
        assert out.n_vertices == mesh.n_vertices - 1   # orphan dropped

    def test_all_vertices_within_tol_none_removed(self, rng):
        field = SphereShellUdf(0.5)
        mesh = extract_mesh(field, generic_spec(17))
        out = remove_spurious_facets(mesh, field, tol=0.5 * np.sqrt(3) * 2 / 16)
        assert out.n_faces == mesh.n_faces

    def test_two_parallel_patches_bridges_pruned(self):
        # the classic failure: cells between two sheets see opposing
        # gradients and emit facets that belong to neither sheet
        spec = GridSpec(65)
        step = float(spec.step[2])
        z_lo = 0.05
        z_hi = z_lo + 3 * step
        scene = primitives.parallel_patches(1.0, z_lo, z_hi)
        field = MeshUdf(scene)
        mesh = extract_mesh(field, spec)

        mid = 0.5 * (z_lo + z_hi)
        def bridging(m):
            face_z = m.vertices[m.faces][:, :, 2]
            return ((np.abs(face_z - mid) < step).all(axis=1)).sum()

        assert bridging(mesh) > 0
        pruned = remove_spurious_facets(mesh, field, tol=0.5 * spec.cell_diagonal)
        assert bridging(pruned) == 0

    def test_idempotent(self):
        field = TranslatedPlaneUdf(0.0)
        mesh = strip_mesh()
        verts = mesh.vertices.copy()
        verts[5, 2] = 0.4
        mesh = mesh.with_vertices(verts)
        once = remove_spurious_facets(mesh, field, tol=0.1)
        twice = remove_spurious_facets(once, field, tol=0.1)
        np.testing.assert_array_equal(once.vertices, twice.vertices)
        np.testing.assert_array_equal(once.faces, twice.faces)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            remove_spurious_facets(strip_mesh(), TranslatedPlaneUdf(0.0), 0.0)


class TestSmoothBorders:
    def test_straight_border_stretch_is_fixed(self):
        # a border vertex whose two neighbors are collinear with it does not
        # move; only the strip corners (curved border) round off
        mesh = strip_mesh(zigzag=0.0, segments=8)
        out = smooth_borders(mesh, steps=1)
        straight = list(range(1, 8))            # interior bottom vertices
        np.testing.assert_allclose(out.vertices[straight],
                                   mesh.vertices[straight], atol=1e-15)

    def zigzag_deviation(self, mesh, idx):
        """Max deviation of the chain from its least-squares line in y."""
        x = mesh.vertices[idx, 0]
        y = mesh.vertices[idx, 1]
        coef = np.polyfit(x, y, 1)
        return np.abs(y - np.polyval(coef, x)).max()

    def test_zigzag_amplitude_strictly_decreases(self):
        # uneven jags, so no single smoothing step annihilates them exactly
        mesh = strip_mesh(zigzag=0.0, segments=24)
        jags = np.where(np.arange(25) % 2 == 1, 0.3, -0.1)
        jags *= 1.0 + 0.3 * np.sin(np.arange(25))
        verts = mesh.vertices.copy()
        verts[1:24, 1] += jags[1:24]
        mesh = mesh.with_vertices(verts)
        chain = list(range(6, 19))   # straight stretch away from the corners
        amp = self.zigzag_deviation(mesh, chain)
        current = mesh
        for _ in range(5):
            current = smooth_borders(current, steps=1)
            new_amp = self.zigzag_deviation(current, chain)
            assert new_amp < amp
            amp = new_amp

    def test_closed_mesh_identity(self):
        field = SphereShellUdf(0.5)
        mesh = extract_mesh(field, generic_spec(17))
        assert mesh.is_watertight()
        out = smooth_borders(mesh, steps=5)
        np.testing.assert_array_equal(out.vertices, mesh.vertices)

    def test_interior_vertices_and_faces_untouched(self):
        field = TranslatedPlaneUdf(0.07)
        mesh = extract_mesh(field, GridSpec(17))
        out = smooth_borders(mesh, steps=5)
        np.testing.assert_array_equal(out.faces, mesh.faces)
        interior = ~mesh.border_vertex_mask()
        np.testing.assert_array_equal(out.vertices[interior],
                                      mesh.vertices[interior])
        # the sheet is planar, so smoothing must keep it planar
        np.testing.assert_allclose(out.vertices[:, 2], 0.07, atol=1e-12)

    def test_connectivity_matches_pair_unique_and_carries_over(self):
        mesh = extract_mesh(TranslatedPlaneUdf(0.07), GridSpec(17))
        edges, counts = mesh.edges_with_counts()
        pairs = np.sort(mesh.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        ref_edges, ref_counts = np.unique(pairs, axis=0, return_counts=True)
        np.testing.assert_array_equal(edges, ref_edges)
        np.testing.assert_array_equal(counts, ref_counts)
        # smoothing keeps the faces, so it hands on the cached edges
        assert smooth_borders(mesh, steps=2).edges_with_counts()[0] is edges

    def test_border_junctions_frozen(self):
        # bowtie: center vertex carries four border edges and must not move
        verts = np.array([
            [-1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0],
            [1.0, -1.0, 0.0], [1.0, 1.0, 0.0],
        ])
        faces = np.array([[0, 2, 1], [3, 4, 2]])
        mesh = TriMesh(verts, faces)
        counts = np.bincount(mesh.border_edges().ravel(), minlength=5)
        assert counts[2] == 4
        out = smooth_borders(mesh, steps=3)
        np.testing.assert_array_equal(out.vertices[2], verts[2])
