"""The box-hierarchy distance index against the face sweep.

Distances and closest points must be bitwise those of
``oracles.sweep_mesh_distance``, which visits the faces in order and keeps
the first of equally close ones, and the region-first kernel must be
bitwise the kernel that builds every region's candidate.
"""

import warnings

import numpy as np
import pytest

from udfmesh import MeshUdf, TranslatedMeshUdf, TriMesh, distance, primitives
from udfmesh.distance import MeshDistanceIndex, closest_point_on_triangles

from oracles import settle_closest_points, sweep_mesh_distance
from test_adjacency import garment


def zero_area_mesh() -> TriMesh:
    """A strip of faces plus a repeated-vertex face and a collinear one."""
    strip = primitives.square_patch(1.0, 0.1, subdivisions=3)
    verts = np.vstack([strip.vertices, [[0.2, -0.3, 0.4], [0.6, 0.1, 0.4],
                                        [-0.2, -0.7, 0.4]]])
    n = strip.n_vertices
    faces = np.vstack([strip.faces, [[n, n, n + 1], [n, n + 1, n + 2]]])
    return TriMesh(verts, faces)


def duplicated_face_mesh() -> TriMesh:
    """A tube whose faces 3 and 40 reappear at the end: one copy as is,
    one with its corners rotated."""
    tube = primitives.open_cylinder(0.5, -0.4, 0.4, 12, 3)
    f = tube.faces
    return TriMesh(tube.vertices, np.vstack([f, f[3], np.roll(f[40], 1)]))


MESHES = {
    "patch": primitives.square_patch(1.0, 0.0),
    "cylinder": primitives.open_cylinder(radius=0.6, segments=36, rings=10),
    "garment": garment(),
    "duplicated-face": duplicated_face_mesh(),
    "zero-area-face": zero_area_mesh(),
}


def probe_points(mesh: TriMesh, rng) -> np.ndarray:
    """Random, vertex, edge-midpoint, centroid, on-surface, far and
    near-axis points."""
    tri = mesh.vertices[mesh.faces]
    bary = rng.dirichlet(np.ones(3), len(tri))
    axis = np.column_stack([rng.normal(0, 1e-3, (200, 2)), rng.uniform(-0.7, 0.7, 200)])
    axis[:20, :2] = 0.0
    return np.vstack([
        rng.uniform(-1.2, 1.2, (1500, 3)),
        mesh.vertices,
        0.5 * (tri + np.roll(tri, 1, axis=1)).reshape(-1, 3),
        tri.mean(axis=1),
        np.einsum("fk,fkj->fj", bary, tri),
        rng.normal(0, 1, (100, 3)) * np.array([[1e2], [1e4], [1e6], [1e-1]]).repeat(25, 0),
        axis,
    ])


def assert_bitwise(actual, expected):
    for a, e in zip(actual, expected):
        assert a.shape == e.shape
        assert a.tobytes() == e.tobytes()


@pytest.mark.parametrize("name", MESHES)
def test_index_matches_face_sweep_bitwise(name, rng):
    mesh = MESHES[name]
    pts = probe_points(mesh, rng)
    index = MeshDistanceIndex(mesh.vertices, mesh.faces)
    assert_bitwise(index.query(pts), sweep_mesh_distance(mesh.vertices, mesh.faces, pts))


def test_exact_ties_go_to_the_lowest_face():
    # two sheets at z = -0.5 and z = +0.5: every point of z = 0 is equally
    # close to both, so the sheet listed first supplies the closest point
    low = primitives.square_patch(2.0, -0.5, subdivisions=4)
    high = primitives.square_patch(2.0, 0.5, subdivisions=4)
    g = np.linspace(-0.9, 0.9, 19)
    pts = np.column_stack([np.repeat(g, 19), np.tile(g, 19), np.zeros(361)])
    for first, second in ((low, high), (high, low)):
        verts = np.vstack([first.vertices, second.vertices])
        faces = np.vstack([first.faces, second.faces + first.n_vertices])
        d, cp = MeshDistanceIndex(verts, faces).query(pts)
        assert len(faces) > distance.FANOUT
        np.testing.assert_array_equal(d, 0.5)
        np.testing.assert_array_equal(cp[:, 2], first.vertices[0, 2])


def test_batch_split_invariance(monkeypatch, rng):
    # near-axis points make every face of the tube survive, so small
    # BATCH and PAIRS force many batches and pair-list splits; a SETTLE
    # below a point's 720 pairs makes every such point a slice of its own,
    # and one above it cuts slices between points
    mesh = MESHES["cylinder"]
    pts = probe_points(mesh, rng)
    index = MeshDistanceIndex(mesh.vertices, mesh.faces)
    whole = index.query(pts)
    cuts = [0, 1, 8, 700, 701, 2900, len(pts)]
    pieces = [index.query(pts[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert_bitwise(whole, [np.concatenate(p) for p in zip(*pieces)])
    monkeypatch.setattr(distance, "BATCH", 97)
    monkeypatch.setattr(distance, "PAIRS", 600)
    assert_bitwise(index.query(pts), whole)
    for settle in (1, 1000, 10 ** 9):
        monkeypatch.setattr(distance, "SETTLE", settle)
        assert_bitwise(index.query(pts), whole)


def test_region_first_kernel_matches_settle_all_regions(rng):
    n = 60000
    pts = rng.normal(size=(n, 3))
    tri = rng.normal(size=(n, 3, 3))
    k = n // 6
    tri[:k, 1] = tri[:k, 0]                                   # repeated vertex
    tri[k:2 * k, 2] = 0.5 * (tri[k:2 * k, 0] + tri[k:2 * k, 1])  # collinear
    tri[2 * k:3 * k] = tri[2 * k:3 * k, :1] + 1e-9 * rng.normal(size=(k, 3, 3))
    tri[3 * k:3 * k + 100] = 0.0                              # a point
    pts[4 * k:5 * k] = tri[4 * k:5 * k, 0]                    # on a vertex
    pts[5 * k:] = np.einsum("nk,nkj->nj", rng.dirichlet(np.ones(3), n - 5 * k),
                            tri[5 * k:])                      # on the face
    assert_bitwise([closest_point_on_triangles(pts, tri)],
                   [settle_closest_points(pts, tri)])


@pytest.mark.parametrize("name", ["patch", "cylinder"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_raise_one_error(name, bad):
    mesh = MESHES[name]
    field = MeshUdf(mesh)
    pts = np.zeros((10, 3))
    pts[6, 1] = bad
    pts[8, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"query point 6 is not finite"):
            field.eval(pts)
        # a translated field hands its shifted points to the same check; a
        # non-finite offset is rejected when the field is built
        with pytest.raises(ValueError, match=r"query point 2 is not finite"):
            TranslatedMeshUdf(field, (0.0, 0.1, 0.0)).eval_grad(pts[4:])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vertex_rejected_at_build(bad):
    # the mesh refuses the vertex, so no MeshUdf is built on one
    mesh = MESHES["cylinder"]
    vertices = mesh.vertices.copy()
    vertices[5, 2] = bad
    vertices[9, 0] = np.nan
    with pytest.raises(ValueError, match=r"^vertex 5 is not finite"):
        MeshUdf(TriMesh(vertices, mesh.faces))
