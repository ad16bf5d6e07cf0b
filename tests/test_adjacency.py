"""Cached mesh adjacency and the array paths that read it, checked bitwise
against the per-vertex and per-edge loop references in ``oracles``."""

import warnings

import numpy as np
import pytest

import udfmesh.diffgeom as diffgeom
from udfmesh import (GridSpec, MeshUdf, OpenCylinderUdf, RectanglePatchUdf,
                     SphereShellUdf, TranslatedMeshUdf, TranslatedPlaneUdf,
                     TriMesh, assemble_jacobian, empty_mesh, extract_mesh,
                     outward_vectors, primitives, random_mlp,
                     remove_spurious_facets, smooth_borders, vertex_normals)

from conftest import generic_spec
from oracles import loop_outward_vectors, loop_smooth_borders, loop_vertex_normals

JUNCTION = "ignore:.*border vertices join"


def garment() -> TriMesh:
    """Open tube, a disk above it and a two-layer flap below it."""
    parts = [primitives.open_cylinder(0.45, -0.55, 0.25, 16, 4),
             primitives.disk(0.3, 0.45, 16),
             primitives.parallel_patches(0.5, -0.8, -0.77, 2)]
    verts, faces, base = [], [], 0
    for part in parts:
        verts.append(part.vertices)
        faces.append(part.faces + base)
        base += part.n_vertices
    return TriMesh(np.concatenate(verts), np.concatenate(faces))


def extracted_fields():
    net = random_mlp(hidden=(16, 16), encoding_order=3, latent_dim=4,
                     d_max=0.45, seed=3)
    clothes = MeshUdf(garment())
    return {
        "cylinder": OpenCylinderUdf(0.55, (-0.5, 0.4)),
        "sphere": SphereShellUdf(0.45),
        "patch": RectanglePatchUdf(0.4, -0.5, (-0.45, 0.55), 0.08),
        "garment": clothes,
        "garment-dmax": MeshUdf(clothes.mesh, d_max=0.2),
        "translated-garment": TranslatedMeshUdf(clothes, (0.03, -0.02, 0.01)),
        "mlp": random_mlp(hidden=(16, 16), encoding_order=3, seed=4),
        "mlp-latent-dmax": net.with_params([0.3, -0.2, 0.1, 0.25]),
    }


FIELDS = extracted_fields()


def hand_built():
    """(mesh, field) pairs that hit the edge cases of the adjacency rules."""
    plane = TranslatedPlaneUdf(0.0)
    tri = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]])
    return {
        # centre vertex carries four border edges
        "bowtie": TriMesh([[-1, -1, 0], [-1, 1, 0], [0, 0, 0], [1, -1, 0],
                           [1, 1, 0.0]], [[0, 2, 1], [3, 4, 2]]),
        # face normal vanishes, so no outward vector resolves
        "sliver": TriMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]], [[0, 1, 2]]),
        "single-face": TriMesh(tri, [[0, 1, 2]]),
        "faceless-vertex": TriMesh(np.vstack([tri, [[5, 5, 5.0]]]), [[0, 1, 2]]),
        # vertex 3's only face has zero area: the first-face fallback
        "zero-area-only-face": TriMesh(
            np.vstack([tri, [[3, 0, 0], [4, 0, 0.0]]]),
            [[0, 1, 2], [1, 3, 4]]),
        "closed-sphere": primitives.uv_sphere(0.5, 12, 6),
        "empty": empty_mesh(),
    }, plane


def loop_jacobian(monkeypatch, mesh, field):
    """``assemble_jacobian`` with the loop oracles in place of
    ``vertex_normals`` and ``outward_vectors``; fails unless it called them."""
    calls = []

    def normals(mesh):
        calls.append("normals")
        return loop_vertex_normals(mesh)

    def outward(mesh, field, alpha):
        calls.append("outward")
        return loop_outward_vectors(mesh, field, alpha)

    with monkeypatch.context() as m:
        m.setattr(diffgeom, "vertex_normals", normals)
        m.setattr(diffgeom, "outward_vectors", outward)
        jac = assemble_jacobian(mesh, field)
    if mesh.n_vertices:
        assert "normals" in calls
    if mesh.border_vertex_mask().any():
        assert "outward" in calls
    return jac


def assert_same_adjacency_outputs(monkeypatch, mesh, field):
    assert vertex_normals(mesh).tobytes() == loop_vertex_normals(mesh).tobytes()
    o, resolved = outward_vectors(mesh, field)
    o_ref, resolved_ref = loop_outward_vectors(mesh, field, diffgeom.DEFAULT_ALPHA)
    assert o.tobytes() == o_ref.tobytes()
    assert resolved.tobytes() == resolved_ref.tobytes()
    for steps in (0, 1, 5):
        smoothed = smooth_borders(mesh, steps=steps, weight=0.5)
        assert (smoothed.vertices.tobytes()
                == loop_smooth_borders(mesh, steps, 0.5).tobytes())
        np.testing.assert_array_equal(smoothed.faces, mesh.faces)
    jac = assemble_jacobian(mesh, field)
    ref = loop_jacobian(monkeypatch, mesh, field)
    assert jac.rows.tobytes() == ref.rows.tobytes()
    assert jac.directions.tobytes() == ref.directions.tobytes()
    assert jac.is_border.tobytes() == ref.is_border.tobytes()


@pytest.mark.filterwarnings(JUNCTION)
@pytest.mark.parametrize("pruned", [False, True], ids=["raw", "pruned"])
@pytest.mark.parametrize("shift", [0.0, 0.0037], ids=["dyadic", "generic"])
@pytest.mark.parametrize("name", list(FIELDS))
def test_extracted_meshes_match_loop_references(monkeypatch, name, shift, pruned):
    field = FIELDS[name]
    spec = generic_spec(17, shift)
    mesh = extract_mesh(field, spec)
    if pruned and not mesh.is_empty():
        mesh = remove_spurious_facets(mesh, field, 0.5 * spec.cell_diagonal)
    assert_same_adjacency_outputs(monkeypatch, mesh, field)


@pytest.mark.filterwarnings(JUNCTION)
@pytest.mark.parametrize("name", list(hand_built()[0]))
def test_hand_built_meshes_match_loop_references(monkeypatch, name):
    meshes, plane = hand_built()
    assert_same_adjacency_outputs(monkeypatch, meshes[name], plane)


def test_hand_built_edge_cases_read_as_documented():
    meshes, plane = hand_built()
    assert not vertex_normals(meshes["faceless-vertex"])[3].any()
    assert not vertex_normals(meshes["zero-area-only-face"])[3].any()
    assert not outward_vectors(meshes["sliver"], plane)[1].any()
    assert not outward_vectors(meshes["closed-sphere"], plane)[1].any()
    with pytest.warns(UserWarning, match="^1 border vertices join 3"):
        outward_vectors(meshes["bowtie"], plane)


class TestTriMeshTables:
    def test_vertex_faces_lists_faces_in_face_order(self):
        mesh = extract_mesh(SphereShellUdf(0.45), generic_spec(17))
        fidx, start = mesh.vertex_faces()
        assert start[0] == 0 and start[-1] == 3 * mesh.n_faces
        for v in range(0, mesh.n_vertices, 7):
            faces = fidx[start[v]:start[v + 1]]
            np.testing.assert_array_equal(
                faces, np.flatnonzero((mesh.faces == v).any(axis=1)))

    def test_border_table_of_a_strip(self):
        # two triangles sharing edge (1, 2); four border edges
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]],
                       [[0, 1, 2], [1, 3, 2]])
        count, nbrs, face = mesh.border_table()
        np.testing.assert_array_equal(count, [2, 2, 2, 2])
        # border edges in order: (0, 1), (0, 2), (1, 3), (2, 3)
        np.testing.assert_array_equal(nbrs, [[1, 2], [0, 3], [0, 3], [1, 2]])
        np.testing.assert_array_equal(face, [0, 0, 0, 1])

    def test_tables_are_cached(self):
        mesh = primitives.square_patch(side=1.0, subdivisions=2)
        table = mesh.border_table()
        assert mesh.border_table() is table
        assert mesh.vertex_faces() is mesh.vertex_faces()
        assert TriMesh(mesh.vertices, mesh.faces).border_table() is not table

    def test_border_table_built_again_is_the_same(self):
        # the first build takes the face-to-edge map out of the cache; a
        # second build of the table (two threads missing the cache at
        # once) makes it again
        mesh = garment()
        table = mesh.border_table()
        del mesh._cache["border"]
        again = mesh.border_table()
        assert again is not table
        for a, b in zip(again, table):
            np.testing.assert_array_equal(a, b)

    def test_face_normals_are_read_only_and_follow_moved_vertices(self):
        mesh = primitives.square_patch(side=1.0, subdivisions=2)
        cross, unit = mesh.face_normals(normalize=False), mesh.face_normals()
        assert mesh.face_normals(normalize=False) is cross
        assert mesh.face_normals() is unit
        for a in (cross, unit):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
        verts = mesh.vertices.copy()
        verts[:, 2] += 0.5 * verts[:, 0] ** 2
        mesh = mesh.with_vertices(verts)
        fresh = TriMesh(mesh.vertices.copy(), mesh.faces)
        assert not np.array_equal(mesh.face_normals(), unit)
        for normalize in (False, True):
            assert (mesh.face_normals(normalize).tobytes()
                    == fresh.face_normals(normalize).tobytes())

    def test_moved_copies_share_connectivity_but_not_normals(self):
        mesh = extract_mesh(FIELDS["patch"], generic_spec(17))
        mesh.face_normals()             # cached on the source mesh
        smoothed = smooth_borders(mesh, steps=5)
        moved = np.any(smoothed.vertices != mesh.vertices, axis=1)
        assert (moved & mesh.border_vertex_mask()).any()
        warped = mesh.with_vertices(mesh.vertices * [1.0, 1.0, 2.0] + 0.1)
        for copy in (smoothed, warped):
            assert copy.border_table() is mesh.border_table()
            np.testing.assert_array_equal(copy.faces, mesh.faces)
            fresh = TriMesh(copy.vertices, mesh.faces)
            for normalize in (False, True):
                assert (copy.face_normals(normalize).tobytes()
                        == fresh.face_normals(normalize).tobytes())
        with pytest.raises(ValueError, match="one position per vertex"):
            mesh.with_vertices(np.vstack([mesh.vertices, [[0.0, 0.0, 0.0]]]))

    def test_empty_and_closed_meshes(self):
        count, nbrs, face = empty_mesh().border_table()
        assert count.shape == (0,) and nbrs.shape == (0, 2) and face.shape == (0,)
        closed = primitives.uv_sphere(0.5, 12, 6)
        count, nbrs, face = closed.border_table()
        assert not count.any()
        assert (nbrs == -1).all() and (face == -1).all()

    def test_select_faces_matches_unique_reindex(self):
        mesh = extract_mesh(SphereShellUdf(0.45), generic_spec(17))
        # an orphan vertex the selection must drop as well
        mesh = TriMesh(np.vstack([mesh.vertices, [[9.0, 9.0, 9.0]]]), mesh.faces)
        rng = np.random.default_rng(4)
        for p in (0.0, 0.01, 0.5, 1.0):
            keep = rng.random(mesh.n_faces) < p
            faces = mesh.faces[keep]
            used = np.unique(faces)
            remap = np.full(mesh.n_vertices, -1)
            remap[used] = np.arange(len(used))
            sub = mesh.select_faces(keep)
            assert sub.vertices.tobytes() == mesh.vertices[used].tobytes()
            np.testing.assert_array_equal(sub.faces, remap[faces])
