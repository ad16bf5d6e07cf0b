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
rasterization (Pineda 1988) run in batches: every face in front of the eye
expands into the (face, pixel) pairs of its clipped bounding box, and
consecutive faces are evaluated about 2^13 pairs at a time, so memory
stays flat however large the mesh is.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .mesh import TriMesh

IMAGE_SIZE = 256
VFOV_DEG = 45.0
# (face, pixel) pairs per batch: large enough to amortise numpy call
# overhead, small enough to keep peak memory flat
_CHUNK_PAIRS = 1 << 13


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
    sil = np.zeros((size, size), dtype=bool)
    normals = np.zeros((size, size, 3))
    if mesh.is_empty():
        return sil, normals

    face, count, per_face = _drawn_faces(mesh, eye, target, size, vfov_deg)
    ends = np.cumsum(count)
    zbuf = np.zeros(size * size)
    winner = np.full(size * size, -1)
    start = 0
    while start < len(face):
        # consecutive faces up to _CHUNK_PAIRS pairs; a larger face alone
        stop = max(int(np.searchsorted(ends, ends[start] - count[start] + _CHUNK_PAIRS,
                                       side="right")), start + 1)
        _fill_chunk(zbuf, winner, size, per_face, start, stop, count[start:stop])
        start = stop

    hit = winner >= 0
    sil.reshape(-1)[hit] = True
    normals.reshape(-1, 3)[hit] = mesh.face_normals()[face[winner[hit]]]
    return sil, normals


def _drawn_faces(mesh, eye, target, size, vfov_deg):
    """The faces to draw, in order, with the pixel count of each one's
    clipped box and the per-face columns ``_fill_chunk`` reads."""
    frame = look_at(np.asarray(eye, float), np.asarray(target, float))
    cam = (mesh.vertices - eye) @ frame.T
    focal = 1.0 / np.tan(np.radians(vfov_deg) / 2.0)

    tri_cam = cam[mesh.faces]
    depths = tri_cam[..., 2]
    face = np.flatnonzero((depths > 1e-9).all(axis=1))
    tri_cam = tri_cam[face]
    depths = depths[face]

    # NDC in [-1, 1], then pixel centers
    ndc = tri_cam[..., :2] * focal / depths[..., None]
    px = (ndc + 1.0) * 0.5 * size - 0.5
    inv_z = 1.0 / depths

    # clipped pixel box, edge vectors and doubled signed area
    lo = np.maximum(np.floor(px.min(axis=1)).astype(int), 0)
    hi = np.minimum(np.ceil(px.max(axis=1)).astype(int), size - 1)
    v0 = px[:, 1] - px[:, 0]
    v1 = px[:, 2] - px[:, 0]
    den = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
    keep = (hi >= lo).all(axis=1) & ~(np.abs(den) < 1e-14)
    ny = hi[keep, 1] - lo[keep, 1] + 1
    count = (hi[keep, 0] - lo[keep, 0] + 1) * ny
    per_face = (ny, lo[keep, 0], lo[keep, 1],
                px[keep, 0, 0], px[keep, 0, 1], v0[keep, 0], v0[keep, 1],
                v1[keep, 0], v1[keep, 1], den[keep],
                inv_z[keep, 0], inv_z[keep, 1], inv_z[keep, 2])
    return face[keep], count, per_face


def _fill_chunk(zbuf, winner, size, per_face, start, stop, reps):
    """Draw faces start..stop-1 into the flat buffers; ``winner`` holds
    indices into ``per_face``. A function of its own, so one chunk's
    arrays are freed before the next chunk allocates its own."""
    (ny, x0, y0, p0x, p0y, v0x, v0y, v1x, v1y, den,
     iz0, iz1, iz2) = (np.repeat(a[start:stop], reps) for a in per_face)
    k = np.repeat(np.arange(start, stop), reps)
    # each face's pixels in its box, row by row as meshgrid(indexing="ij")
    ix, iy = np.divmod(np.arange(len(k)) - np.repeat(np.cumsum(reps) - reps, reps), ny)
    gx = x0 + ix
    gy = y0 + iy

    dx = gx - p0x
    dy = gy - p0y
    w1 = (dx * v1y - dy * v1x) / den
    w2 = (dy * v0x - dx * v0y) / den
    w0 = 1.0 - w1 - w2
    inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
    z = (w0 * iz0 + w1 * iz1 + w2 * iz2)[inside]
    pix = (gx * size + gy)[inside]
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
