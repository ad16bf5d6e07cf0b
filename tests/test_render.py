"""The batched z-buffer against the per-face loop it replaced.

Every render must match ``oracles.loop_render_view`` byte for byte: image
consistency is compared against recorded values to 1e-9, so a single
pixel that changes hands changes the score.
"""

import numpy as np
import pytest

from udfmesh import TriMesh, empty_mesh, primitives
from udfmesh.render import _CHUNK_PAIRS, render_view, scene_cameras

from oracles import loop_render_view

EYE = np.array([0.3, -0.2, -3.0])
TARGET = np.zeros(3)
SIZES = (16, 97, 256)


def assert_same_render(mesh, eye, target, size):
    sil, nrm = render_view(mesh, eye, target, size)
    ref_sil, ref_nrm = loop_render_view(mesh, eye, target, size)
    assert sil.dtype == ref_sil.dtype and sil.shape == ref_sil.shape
    assert nrm.dtype == ref_nrm.dtype and nrm.shape == ref_nrm.shape
    assert sil.tobytes() == ref_sil.tobytes()
    assert nrm.tobytes() == ref_nrm.tobytes()
    return sil, nrm


def garment(cyl, disk_segments, patch_subdivisions):
    """Open tube, a disk above it and a two-layer flap below it."""
    parts = [primitives.open_cylinder(0.45, -0.55, 0.25, *cyl),
             primitives.disk(0.3, 0.45, disk_segments),
             primitives.parallel_patches(0.5, -0.8, -0.77, patch_subdivisions)]
    offsets = np.cumsum([0] + [m.n_vertices for m in parts[:-1]])
    return TriMesh(np.vstack([m.vertices for m in parts]),
                   np.vstack([m.faces + o for m, o in zip(parts, offsets)]))


def score_pair(variant):
    """A jittered 8.6k-face garment and a clean 1.8k-face one."""
    pred = garment((64, 52), 64, 22)
    jitter = np.random.default_rng(1000 + variant).normal(0.0, 0.002, pred.vertices.shape)
    return TriMesh(pred.vertices + jitter, pred.faces), garment((32, 24), 32, 8)


def soup(rng, n, spread=1.0):
    """Random triangles around the origin, then exact duplicates and
    reversed-winding copies of some of them at random places in the list,
    so equal depths meet both inside one batch and across batches."""
    verts = rng.uniform(-spread, spread, (3 * n, 3))
    faces = np.arange(3 * n).reshape(n, 3)
    dup = faces[rng.choice(n, n // 4, replace=False)]
    rev = faces[rng.choice(n, n // 4, replace=False)][:, [0, 2, 1]]
    faces = np.vstack([faces, dup, rev])
    return TriMesh(verts, faces[rng.permutation(len(faces))])


def test_score_pair_garments_all_views():
    pred, gt = score_pair(3)
    cams, target = scene_cameras(pred, gt)
    for eye in cams:
        for mesh in (pred, gt):
            sil, _ = assert_same_render(mesh, eye, target, 256)
            assert sil.any()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", range(4))
def test_soup_with_duplicates_and_reversed_copies(size, seed):
    mesh = soup(np.random.default_rng(seed), 300, spread=1.5)
    assert_same_render(mesh, EYE, TARGET, size)


@pytest.mark.parametrize("size", SIZES)
def test_tie_goes_to_lowest_face(size):
    # a face and its reversed-winding copy reach bitwise equal 1/depth at
    # most pixels, and there the lower index must keep the pixel; rounding
    # splits the other pixels about evenly, so under a last-face-wins rule
    # the first face would show on well under half of them
    tri = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.2], [0.0, 1.0, -0.1]])
    for faces in ([[0, 1, 2], [0, 2, 1]], [[0, 2, 1], [0, 1, 2]]):
        mesh = TriMesh(tri, faces)
        sil, nrm = assert_same_render(mesh, EYE, TARGET, size)
        shows_first = (nrm[sil] == mesh.face_normals()[0]).all(axis=1)
        assert shows_first.mean() > 0.75


@pytest.mark.parametrize("size", SIZES)
def test_faces_behind_the_eye_are_dropped(size):
    rng = np.random.default_rng(7)
    mesh = soup(rng, 120, spread=1.5)
    verts = mesh.vertices.copy()
    # a third of the vertices go behind the eye
    behind = rng.random(len(verts)) < 0.33
    verts[behind, 2] = rng.uniform(-6.0, -3.5, behind.sum())
    mesh = TriMesh(verts, mesh.faces)
    assert_same_render(mesh, EYE, TARGET, size)
    all_behind = TriMesh(verts[behind], np.arange(3 * (behind.sum() // 3)).reshape(-1, 3))
    sil, _ = assert_same_render(all_behind, EYE, TARGET, size)
    assert not sil.any()


@pytest.mark.parametrize("size", SIZES)
def test_zero_area_faces(size):
    rng = np.random.default_rng(11)
    mesh = soup(rng, 80)
    v = mesh.vertices
    n = mesh.n_vertices
    # a repeated vertex, three collinear points and a sliver far under
    # 1e-14 square pixels, mixed in with ordinary faces
    extra = np.array([v[0], v[0], v[1],
                      [0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-22, 0.0]])
    faces = np.vstack([mesh.faces[:40], n + np.arange(9).reshape(3, 3), mesh.faces[40:]])
    assert_same_render(TriMesh(np.vstack([v, extra]), faces), EYE, TARGET, size)


@pytest.mark.parametrize("size", SIZES)
def test_off_screen_faces(size):
    rng = np.random.default_rng(5)
    mesh = soup(rng, 60)
    far = mesh.vertices + np.array([8.0, 0.0, 0.0])
    verts = np.vstack([mesh.vertices, far])
    faces = np.vstack([mesh.faces + mesh.n_vertices, mesh.faces])
    assert_same_render(TriMesh(verts, faces), EYE, TARGET, size)
    sil, _ = assert_same_render(TriMesh(far, mesh.faces), EYE, TARGET, size)
    assert not sil.any()


@pytest.mark.parametrize("size", (256, 512))
def test_face_larger_than_a_batch(size):
    big = np.array([[-9.0, -9.0, 0.5], [9.0, -9.0, 0.5], [0.0, 9.0, 0.5]])
    mesh = soup(np.random.default_rng(2), 200)
    verts = np.vstack([mesh.vertices, big])
    n = mesh.n_vertices
    big_face = np.array([[n, n + 1, n + 2]])
    faces = np.vstack([mesh.faces[:100], big_face, mesh.faces[100:], big_face[:, [0, 2, 1]]])
    sil, _ = assert_same_render(TriMesh(verts, faces), EYE, TARGET, size)
    assert sil.sum() > _CHUNK_PAIRS
    sil, _ = assert_same_render(TriMesh(big, [[0, 1, 2]]), EYE, TARGET, size)
    assert sil.all()


@pytest.mark.parametrize("size", SIZES)
def test_empty_mesh(size):
    sil, nrm = assert_same_render(empty_mesh(), EYE, TARGET, size)
    assert not sil.any() and not nrm.any()
