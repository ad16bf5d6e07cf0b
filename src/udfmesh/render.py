"""Minimal z-buffer rasterizer producing silhouettes and face-normal maps.

Cameras sit at the 8 vertices of the scene bounding box scaled by 1.5 about
its center, look at the surface centroid, and use a 45-degree vertical
field of view at square aspect. Visibility uses screen-space barycentric
fill with a 1/depth buffer; each covered pixel stores the face normal of
the winning triangle (flat shading, orientation as emitted).

A pixel goes to the face with the largest interpolated 1/depth there, and
among equal values to the lowest face index: the result of drawing the
faces in order and replacing a pixel only on a strictly larger 1/depth.
Faces with a vertex at or behind the eye, an empty clipped pixel box or a
near-zero screen area are not drawn. The fill is edge-function
rasterization (Pineda 1988) run in batches of consecutive faces whose
clipped bounding boxes hold about 2^15 pixels together, so memory stays
flat however large the mesh is. In each column of its box a face is
evaluated only over a span of rows: each edge function is affine in the
row once the column is fixed, so each edge bounds the rows from one side.
The bounds are widened by a margin relative to the magnitudes in the
pass test (``_SPAN_EPS``), larger than what rounding in that test and in
the bounds themselves can shift an edge by, so each span holds every
pixel the test can accept; a bound that is not finite leaves the face its
whole box on that side. The pass test and the depth rule are those
of the per-face loop, so the spans change no pixel, only the number of
pixels evaluated.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .mesh import TriMesh

IMAGE_SIZE = 256
VFOV_DEG = 45.0
# clipped-box pixels per batch of consecutive faces: large enough to
# amortise numpy call overhead, small enough to keep peak memory flat
_CHUNK_PAIRS = 1 << 15
# Span margin, relative to the magnitudes that enter the pass test. With
# u = 2^-53, a pixel the pass test accepts satisfies every edge inequality
# of the triangle dilated by 6u(|den| + A1 + A2) in edge-function units,
# where A1 and A2 are the sums of the absolute products in the numerators
# of w1 and w2, bounded over the clipped box. Evaluating a span bound
# h + c * dx in floats is off by at most 11u(|p0y| + |K / b| + |c| max|dx|).
# 2^-40 = 8192u covers both with room to spare.
_SPAN_EPS = 2.0 ** -40


def cuboid_cameras(bounds_min, bounds_max, scale: float = 1.5) -> np.ndarray:
    """Eight camera positions: scaled bounding-box corners."""
    lo = np.asarray(bounds_min, dtype=np.float64)
    hi = np.asarray(bounds_max, dtype=np.float64)
    center = 0.5 * (lo + hi)
    half = np.maximum(0.5 * (hi - lo), 1e-3) * scale
    corners = np.array([(sx, sy, sz)
                        for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                       dtype=np.float64)
    return center + corners * half


def scene_cameras(a: TriMesh, b: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """The eight cameras around the joint bounds of two meshes, and the
    look-at target between their centroids."""
    lo = np.minimum(a.bounds()[0], b.bounds()[0])
    hi = np.maximum(a.bounds()[1], b.bounds()[1])
    return cuboid_cameras(lo, hi), 0.5 * (a.centroid() + b.centroid())


def look_at(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rows are the camera frame: right, up, forward."""
    forward = target - eye
    forward = forward / np.linalg.norm(forward)
    up_hint = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up_hint)
    if np.linalg.norm(right) < 1e-9:
        up_hint = np.array([0.0, 1.0, 0.0])
        right = np.cross(forward, up_hint)
    right = right / np.linalg.norm(right)
    up = np.cross(right, forward)
    return np.stack([right, up, forward])


def render_view(mesh: TriMesh, eye, target, size: int = IMAGE_SIZE,
                vfov_deg: float = VFOV_DEG) -> tuple[np.ndarray, np.ndarray]:
    """Render one view; returns (silhouette bool (H,W), normal map (H,W,3))."""
    if mesh.is_empty():
        return np.zeros((size, size), dtype=bool), np.zeros((size, size, 3))

    face, count, per_face = _drawn_faces(mesh, eye, target, size, vfov_deg)
    ends = np.cumsum(count)
    zbuf = np.zeros(size * size)
    winner = np.full(size * size, -1)
    start = 0
    while start < len(face):
        # consecutive faces up to _CHUNK_PAIRS box pixels; a larger face alone
        stop = max(int(np.searchsorted(ends, ends[start] - count[start] + _CHUNK_PAIRS,
                                       side="right")), start + 1)
        _fill_chunk(zbuf, winner, size, start, *(a[start:stop] for a in per_face))
        start = stop

    # an uncovered pixel (winner -1) takes the zero row at the end
    table = np.vstack([mesh.face_normals()[face], np.zeros((1, 3))])
    normals = np.take(table, winner, axis=0).reshape(size, size, 3)
    return (winner >= 0).reshape(size, size), normals


def _drawn_faces(mesh, eye, target, size, vfov_deg):
    """The faces to draw, in order, with the pixel count of each one's
    clipped box and the per-face columns ``_fill_chunk`` reads."""
    frame = look_at(np.asarray(eye, float), np.asarray(target, float))
    cam = (mesh.vertices - eye) @ frame.T
    focal = 1.0 / np.tan(np.radians(vfov_deg) / 2.0)

    front = cam[:, 2][mesh.faces] > 1e-9
    face = np.flatnonzero(front[:, 0] & front[:, 1] & front[:, 2])
    tri_cam = cam[mesh.faces[face]]
    depths = tri_cam[..., 2]

    # NDC in [-1, 1], then pixel centers
    ndc = tri_cam[..., :2] * focal / depths[..., None]
    px = (ndc + 1.0) * 0.5 * size - 0.5
    inv_z = 1.0 / depths

    # clipped pixel box, edge vectors and doubled signed area
    # (clamped in float first: a projection past the int64 range would cast
    # to INT_MIN)
    p0, p1, p2 = px[:, 0], px[:, 1], px[:, 2]
    lo = np.floor(np.clip(np.minimum(np.minimum(p0, p1), p2), 0, size)).astype(int)
    hi = np.ceil(np.clip(np.maximum(np.maximum(p0, p1), p2), -1, size - 1)).astype(int)
    v0 = p1 - p0
    v1 = p2 - p0
    den = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
    keep = np.flatnonzero((hi[:, 0] >= lo[:, 0]) & (hi[:, 1] >= lo[:, 1])
                          & ~(np.abs(den) < 1e-14))
    x0, y0, x1, y1, p0x, p0y, v0x, v0y, v1x, v1y = (
        a[keep] for a in (*lo.T, *hi.T, *p0.T, *v0.T, *v1.T))
    count = (x1 - x0 + 1) * (y1 - y0 + 1)
    per_face = (x0, x1, y0, y1, p0x, p0y, v0x, v0y, v1x, v1y, den[keep], *inv_z[keep].T)
    return face[keep], count, per_face


def _column_spans(x0, x1, y0, y1, p0x, p0y, v0x, v0y, v1x, v1y, den):
    """Every column ``gx`` of every face's clipped box, face by face, with
    ``dx = gx - p0x`` and the rows ``ylo .. ylo + rows - 1`` that hold every
    pixel of that column the pass test in ``_fill_chunk`` can accept.

    With dy = gy - p0y each pass condition is, up to rounding, an edge
    inequality k*dx + b*dy >= -K. Solved for gy in a column it bounds the
    rows from below where b > 0 and from above where b < 0. K carries the
    ``_SPAN_EPS`` margin, and each bound is widened by the rounding of its
    own evaluation. A bound that is not finite is dropped, which leaves
    the face its whole box on that side."""
    s = np.sign(den)[:, None]
    xm = np.maximum(np.abs(x0 - p0x), np.abs(x1 - p0x))
    ym = np.maximum(np.abs(y0 - p0y), np.abs(y1 - p0y))
    margin = _SPAN_EPS * (np.abs(den) + xm * (np.abs(v0y) + np.abs(v1y))
                          + ym * (np.abs(v0x) + np.abs(v1x)))
    # w0 (the edge opposite p0), w1 and w2 times |den|
    b = s * np.stack([v1x - v0x, -v1x, v0x], axis=1)
    k = s * np.stack([v0y - v1y, v1y, -v0y], axis=1)
    K = np.stack([margin + np.abs(den), margin, margin], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = K / b
        c = -k / b
        slack = _SPAN_EPS * (np.abs(p0y)[:, None] + np.abs(q) + np.abs(c) * xm[:, None])
        lower = p0y[:, None] - q - slack
        upper = p0y[:, None] - q + slack
    # b sums to zero over the three edges, so the edge with the largest b
    # bounds from below, the one with the smallest from above and the
    # middle one either way; a bound that is not finite bounds no row, nor
    # does an edge with b == 0, whose q is infinite
    good = np.isfinite(lower) & np.isfinite(upper) & np.isfinite(c)
    lower = np.where(good & (b > 0), lower, -np.inf)
    upper = np.where(good & (b < 0), upper, np.inf)
    c = np.where(good, c, 0.0)
    row = 3 * np.arange(len(b))
    top, bottom = b.argmax(axis=1), b.argmin(axis=1)
    mid = np.clip(3 - top - bottom, 0, 2) + row  # top == bottom only where b is NaN
    top += row
    bottom += row

    nx = x1 - x0 + 1
    gx = np.repeat(x0 - np.cumsum(nx) + nx, nx) + np.arange(nx.sum())
    dx = gx - np.repeat(p0x, nx)
    lo_top, lo_mid, hi_mid, hi_bottom, c_top, c_mid, c_bottom = (
        np.repeat(np.take(a, e), nx) for a, e in (
            (lower, top), (lower, mid), (upper, mid), (upper, bottom),
            (c, top), (c, mid), (c, bottom)))
    y0 = np.repeat(y0.astype(float), nx)
    y1 = np.repeat(y1.astype(float), nx)
    mid_dx = c_mid * dx
    ylo = np.clip(np.ceil(np.maximum(lo_top + c_top * dx, lo_mid + mid_dx)), y0, y1 + 1)
    yhi = np.clip(np.floor(np.minimum(hi_bottom + c_bottom * dx, hi_mid + mid_dx)), y0 - 1, y1)
    ylo = ylo.astype(int)
    rows = np.maximum(yhi.astype(int) - ylo + 1, 0)
    return gx, dx, ylo, rows


def _fill_chunk(zbuf, winner, size, start, x0, x1, y0, y1, p0x, p0y, v0x, v0y,
                v1x, v1y, den, iz0, iz1, iz2):
    """Draw consecutive faces into the flat buffers, the first of them at
    index ``start`` of the drawn faces, which is what ``winner`` holds. A
    function of its own, so one chunk's arrays are freed before the next
    chunk allocates its own."""
    gx, dx, ylo, rows = _column_spans(x0, x1, y0, y1, p0x, p0y, v0x, v0y, v1x, v1y, den)
    nx = x1 - x0 + 1
    reps = np.add.reduceat(rows, np.cumsum(nx) - nx)
    # dx * v1y and dx * v0y are the same in every row of a column
    v1y, v0y = np.repeat(v1y, nx), np.repeat(v0y, nx)
    gy = np.repeat(ylo - np.cumsum(rows) + rows, rows) + np.arange(rows.sum())
    pix, dxv1y, dxv0y = (np.repeat(a, rows) for a in (gx * size, dx * v1y, dx * v0y))
    p0y, v0x, v1x, den, iz0, iz1, iz2 = (np.repeat(a, reps)
                                         for a in (p0y, v0x, v1x, den, iz0, iz1, iz2))
    k = np.repeat(np.arange(start, start + len(reps)), reps)

    dy = gy - p0y
    w1 = (dxv1y - dy * v1x) / den
    w2 = (dy * v0x - dxv0y) / den
    w0 = 1.0 - w1 - w2
    inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
    z = (w0 * iz0 + w1 * iz1 + w2 * iz2)[inside]
    pix = (pix + gy)[inside]
    k = k[inside]

    # the largest 1/depth wins a pixel, the lowest face among equals;
    # earlier chunks hold lower faces, so they keep a tie
    old = zbuf[pix]
    np.maximum.at(zbuf, pix, z)
    new = zbuf[pix]
    won = (z == new) & (new > old)
    pix, k = pix[won], k[won]
    winner[pix] = np.iinfo(winner.dtype).max
    np.minimum.at(winner, pix, k)


def normal_map_to_rgb(normals: np.ndarray, silhouette: np.ndarray) -> np.ndarray:
    """Map unit normals to displayable RGB; background stays black."""
    rgb = ((normals + 1.0) * 127.5).clip(0, 255).astype(np.uint8)
    rgb[~silhouette] = 0
    return rgb


def write_png(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 image as an uncompressed-filter RGB PNG."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w = rgb.shape[:2]
    raw = b"".join(b"\x00" + rgb[row].tobytes() for row in range(h))

    def chunk(tag, data):
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data)))

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(chunk(b"IHDR", header))
        fh.write(chunk(b"IDAT", zlib.compress(raw)))
        fh.write(chunk(b"IEND", b""))
