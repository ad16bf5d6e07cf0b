"""The batched z-buffer against the per-face loop it replaced.

Every render must match ``oracles.loop_render_view`` byte for byte: image
consistency is compared against recorded values to 1e-9, so a single
pixel that changes hands changes the score. The fill evaluates only each
face's column spans, so the spans are also checked directly: a pixel the
pass test accepts but a span leaves out could belong to a face that loses
the pixel anyway, and no render would show it.
"""

import numpy as np
import pytest

from udfmesh import TriMesh, empty_mesh, evaluate_pair, image_consistency, primitives
from udfmesh.render import (VFOV_DEG, _CHUNK_PAIRS, _column_spans, _drawn_faces,
                            render_view, scene_cameras)

from oracles import loop_render_view

EYE = np.array([0.3, -0.2, -3.0])
TARGET = np.zeros(3)
# looking along +z from here, camera x is world -x and camera y is world y,
# so pixel coordinates can be placed exactly (see ``screen_mesh``)
AXIS_EYE = np.array([0.0, 0.0, -3.0])
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


@pytest.mark.parametrize("size", SIZES)
def test_far_vertex_right_of_the_image_draws_like_its_mirror(size):
    # two vertices on the centre column and one 1e150 to the side, which
    # projects past the int64 pixel range; camera x is world -x, so world
    # x = -1e150 lies right of the image. The pixel geometry is exactly
    # mirrored, so the two faces fill mirrored pixels.
    near = [[0.0, -0.4, 0.0], [0.0, 0.5, 0.3]]
    sils = []
    for x in (1e150, -1e150):
        mesh = TriMesh(np.array([[x, 0.1, 0.2], *near]), np.array([[0, 1, 2]]))
        sil, _ = assert_same_render(mesh, AXIS_EYE, TARGET, size)
        sils.append(sil)
    left, right = sils
    assert right.any()
    assert right.tobytes() == left[::-1].tobytes()


def test_face_normals_computed_once_per_mesh(face_cross_log):
    pred, gt = soup(np.random.default_rng(7), 60), soup(np.random.default_rng(8), 50)
    score = image_consistency(pred, gt, 97)
    assert len(face_cross_log) == 2
    assert face_cross_log[0] is pred and face_cross_log[1] is gt
    assert 0.0 < score <= 100.0
    # sampling, the cameras' centroids and the renders share one pass too
    pred, gt = soup(np.random.default_rng(7), 60), soup(np.random.default_rng(8), 50)
    evaluate_pair(pred, gt, n_samples=500, image_size=32)
    assert len(face_cross_log) == 4
    assert face_cross_log[2] is pred and face_cross_log[3] is gt


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


@pytest.mark.parametrize("bad", (1e154, 1e300, np.inf, -np.inf, np.nan))
def test_huge_and_non_finite_vertices(bad):
    # vertices whose projections overflow or are not numbers render as the
    # loop renders them, without an error
    mesh = soup(np.random.default_rng(3), 80)
    for axis in range(3):
        verts = mesh.vertices.copy()
        verts[::7, axis] = bad
        with np.errstate(all="ignore"):
            assert_same_render(TriMesh(verts, mesh.faces), EYE, TARGET, 97)


@pytest.mark.parametrize("size", SIZES)
def test_empty_mesh(size):
    sil, nrm = assert_same_render(empty_mesh(), EYE, TARGET, size)
    assert not sil.any() and not nrm.any()


# -- column spans -----------------------------------------------------------

def assert_spans_hold_passing_pixels(mesh, eye, target, size):
    """Every pixel of a drawn face's clipped box that passes the loop's
    pass test lies in that face's column span. Returns the number of
    passing pixels and of span pixels."""
    face, count, per_face = _drawn_faces(mesh, eye, target, size, VFOV_DEG)
    x0, x1, y0, y1, p0x, p0y, v0x, v0y, v1x, v1y, den = per_face[:11]
    gx, dx, ylo, rows = _column_spans(*per_face[:11])
    nx = x1 - x0 + 1
    assert len(gx) == nx.sum()
    first = np.cumsum(nx) - nx
    passing_total = 0
    for i in range(len(face)):
        xs = np.arange(x0[i], x1[i] + 1)
        cols = slice(first[i], first[i] + nx[i])
        assert (gx[cols] == xs).all()
        assert (dx[cols] == xs - p0x[i]).all()
        # the box and pass test of oracles.loop_render_view
        gxx, gyy = np.meshgrid(xs, np.arange(y0[i], y1[i] + 1), indexing="ij")
        ddx = gxx - p0x[i]
        ddy = gyy - p0y[i]
        w1 = (ddx * v1y[i] - ddy * v1x[i]) / den[i]
        w2 = (ddy * v0x[i] - ddx * v0y[i]) / den[i]
        w0 = 1.0 - w1 - w2
        passing = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        lo = ylo[cols, None]
        in_span = (gyy >= lo) & (gyy < lo + rows[cols, None])
        missed = np.argwhere(passing & ~in_span)
        assert not len(missed), (f"face {face[i]}: passing pixels outside the span at "
                                 f"{(xs[0] + missed[:5, 0]).tolist()}, rows "
                                 f"{(y0[i] + missed[:5, 1]).tolist()}")
        passing_total += passing.sum()
    return passing_total, rows.sum()


def screen_mesh(px, depth, size, faces=None):
    """Triangles seen from ``AXIS_EYE`` whose vertices project to the pixel
    coordinates ``px`` (V, 2) at camera depths ``depth`` (V,): each camera
    coordinate is stepped float by float until the renderer's projection
    lands on its target, which it does exactly for most targets."""
    px = np.asarray(px, float)
    depth = np.broadcast_to(np.asarray(depth, float), px.shape[:1])
    depth = (depth + AXIS_EYE[2]) - AXIS_EYE[2]  # what the renderer reads back
    focal = 1.0 / np.tan(np.radians(VFOV_DEG) / 2.0)
    d = depth[:, None]
    cam = ((px + 0.5) / (0.5 * size) - 1.0) * d / focal
    for _ in range(4):
        got = (cam * focal / d + 1.0) * 0.5 * size - 0.5
        cam = cam + (px - got) * d / (0.5 * size * focal)
    for _ in range(64):
        got = (cam * focal / d + 1.0) * 0.5 * size - 0.5
        cam = np.where(got < px, np.nextafter(cam, np.inf),
                       np.where(got > px, np.nextafter(cam, -np.inf), cam))
    verts = np.column_stack([-cam[:, 0], cam[:, 1], depth + AXIS_EYE[2]])
    if faces is None:
        faces = np.arange(len(px)).reshape(-1, 3)
    return TriMesh(verts, faces)


def slivers(rng, size, n=80):
    """Nearly collinear triangles: two vertices on pixel centres and the
    third a tiny step off the line through them, so pixel centres lie on
    an edge of a face whose doubled screen area is just above the 1e-14
    cut-off."""
    steps = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [2, 1], [1, 3], [-3, 2], [4, -1]])
    d = steps[rng.integers(0, len(steps), n)] * rng.integers(1, max(size // 8, 2), (n, 1))
    p0 = rng.integers(-2, size + 2, (n, 2)).astype(float)
    off = 10.0 ** rng.uniform(-14, -12, (n, 1)) / np.hypot(*d.T)[:, None]
    p2 = p0 + rng.uniform(0.1, 0.9, (n, 1)) * d + off * np.column_stack([-d[:, 1], d[:, 0]])
    px = np.stack([p0, p0 + d, p2], axis=1).reshape(-1, 2)
    return screen_mesh(px, 2.0, size)


def axis_aligned(rng, size, n=60):
    """Right triangles with exactly horizontal and vertical edges on pixel
    centres and half-pixel lines, and the same shapes tipped by 1e-13 to
    1e-6 px so the edges are only nearly axis-aligned."""
    corner = rng.integers(-2, size + 2, (n, 2)) + 0.5 * rng.integers(0, 2, (n, 1))
    w = rng.integers(1, max(size // 3, 2), (n, 2)) * rng.choice([-1, 1], (n, 2))
    p0 = corner
    p1 = corner + np.column_stack([w[:, 0], np.zeros(n)])
    p2 = corner + np.column_stack([np.zeros(n), w[:, 1]])
    tri = np.stack([p0, p1, p2], axis=1)
    tip = tri.copy()
    tip[:, 1, 1] += 10.0 ** rng.uniform(-13, -6, n) * rng.choice([-1, 1], n)
    tip[:, 2, 0] += 10.0 ** rng.uniform(-13, -6, n) * rng.choice([-1, 1], n)
    px = np.vstack([tri, tip]).reshape(-1, 2)
    return screen_mesh(px, 2.0, size)


def pixel_centres(rng, size, n=40):
    """Triangles with every vertex on a pixel centre, so edges run through
    pixel centres and w == 0 there; each is half of a quad whose other half
    shares the diagonal at the same depth, some reach past the border."""
    quad = rng.integers(-3, size + 3, (n, 4, 2)).astype(float)
    px = quad.reshape(-1, 2)
    faces = (4 * np.arange(n)[:, None, None] + np.array([[0, 1, 2], [0, 2, 3]])).reshape(-1, 3)
    return screen_mesh(px, 2.0, size, faces)


def border_clipped(rng, size, n=40):
    """Triangles reaching far past one or more image borders."""
    px = rng.uniform(-3 * size, 4 * size, (3 * n, 2))
    return screen_mesh(px, rng.uniform(1.5, 2.5, 3 * n), size)


def larger_than_batch(rng, size):
    """One face covering the whole image over a few ordinary ones."""
    big = np.array([[-size, -size], [3 * size, -size], [-size, 3 * size]], float)
    small = rng.uniform(0, size, (3 * 6, 2))
    px = np.vstack([small[:9], big, small[9:]])
    depth = np.r_[np.full(9, 1.5), np.full(3, 2.0), np.full(9, 2.5)]
    return screen_mesh(px, depth, size)


def near_eye(rng, size, n=12):
    """Faces with one vertex 1e-8 in front of the eye and off to the side,
    so it projects to about 1e8-1e11 px and the face crosses the image."""
    verts, faces = [], []
    for i in range(n):
        far = np.column_stack([rng.uniform(-0.6, 0.6, (2, 2)), [-1.0, -0.8]])
        near = np.r_[rng.uniform(-1e-3, 1e-3, 2) + rng.choice([-0.3, 0.3], 2), 0.0]
        near[2] = -3.0 + 10.0 ** rng.uniform(-8.5, -7.5)
        verts += [far[0], far[1], near]
        faces.append([3 * i, 3 * i + 1, 3 * i + 2] if i % 2 else [3 * i, 3 * i + 2, 3 * i + 1])
    return TriMesh(np.array(verts), np.array(faces))


def far_vertices(rng, size):
    """Faces with one vertex projecting 1e20 to 1e300 px left of or below
    the image, so some span bounds overflow and those faces keep their
    whole box on that side."""
    verts, faces = [], []
    for far in (1e20, 1e150, 1e300):
        near = rng.uniform(-0.6, 0.6, (2, 2))
        base = len(verts)
        verts += [[far, 0.3, -1.0], [0.1, -far, -1.1], [far, -far / 2, -1.0],
                  [*near[0], -1.2], [*near[1], -0.9]]
        for v in range(base, base + 3):
            faces += [[v, base + 3, base + 4], [v, base + 4, base + 3]]
    return TriMesh(np.array(verts), np.array(faces))


ADVERSARIAL = {"slivers": slivers, "axis-aligned": axis_aligned,
               "pixel-centres": pixel_centres, "border-clipped": border_clipped,
               "larger-than-batch": larger_than_batch, "near-eye": near_eye,
               "far-vertices": far_vertices}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_spans_hold_every_passing_pixel(case, size):
    mesh = ADVERSARIAL[case](np.random.default_rng(size), size)
    with np.errstate(over="ignore", invalid="ignore"):
        passing, _ = assert_spans_hold_passing_pixels(mesh, AXIS_EYE, TARGET, size)
    assert passing > 0


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_renders_match_the_loop(case, size):
    mesh = ADVERSARIAL[case](np.random.default_rng(size), size)
    with np.errstate(over="ignore", invalid="ignore"):
        sil, _ = assert_same_render(mesh, AXIS_EYE, TARGET, size)
    assert sil.any()


def test_adversarial_cases_reach_their_edge_conditions():
    # rounding skips some pixel centres: at a power-of-two size only in
    # the division by depth, at 97 px also in the multiplication by size
    for size, share in ((16, 0.9), (97, 0.6), (256, 0.9)):
        mesh = pixel_centres(np.random.default_rng(size), size)
        _, _, per_face = _drawn_faces(mesh, AXIS_EYE, TARGET, size, VFOV_DEG)
        p0 = np.column_stack(per_face[4:6])
        assert np.isin(p0, np.arange(-3, size + 3)).mean() > share
    size = 256
    rng = np.random.default_rng(size)
    _, _, per_face = _drawn_faces(slivers(rng, size), AXIS_EYE, TARGET, size, VFOV_DEG)
    assert (np.abs(per_face[10]) < 1e-12).sum() >= 5
    _, _, per_face = _drawn_faces(axis_aligned(rng, size), AXIS_EYE, TARGET, size, VFOV_DEG)
    v0x, v0y, v1x, v1y = per_face[6:10]
    assert ((v0y == 0) & (v1x == 0)).sum() >= 20
    assert ((v0y != 0) & (np.abs(v0y) < 1e-5)).sum() >= 20
    _, _, per_face = _drawn_faces(near_eye(rng, size), AXIS_EYE, TARGET, size, VFOV_DEG)
    x0, x1 = per_face[:2]
    span = np.abs(np.column_stack([per_face[6], per_face[8]])).max(axis=1)
    assert (span > 1e7).all() and ((x0 == 0) | (x1 == size - 1)).all()
    big = larger_than_batch(rng, size)
    _, count, _ = _drawn_faces(big, AXIS_EYE, TARGET, size, VFOV_DEG)
    assert count.max() > _CHUNK_PAIRS


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", range(4))
def test_soup_spans_hold_every_passing_pixel(size, seed):
    mesh = soup(np.random.default_rng(seed), 300, spread=1.5)
    assert_spans_hold_passing_pixels(mesh, EYE, TARGET, size)


def test_score_pair_spans_are_tight():
    # the spans are the point of the fill: on the score-pair garments they
    # hold the passing pixels and almost nothing else
    pred, gt = score_pair(0)
    cams, target = scene_cameras(pred, gt)
    for eye in cams[::3]:
        for mesh in (pred, gt):
            passing, span = assert_spans_hold_passing_pixels(mesh, eye, target, 256)
            assert passing <= span <= 1.01 * passing
