"""Minimal z-buffer rasterizer producing silhouettes and face-normal maps.

Cameras sit at the 8 vertices of the scene bounding box scaled by 1.5 about
its center, look at the surface centroid, and use a 45-degree vertical
field of view at square aspect. Visibility uses screen-space barycentric
fill with a 1/depth buffer; each covered pixel stores the face normal of
the winning triangle (flat shading, orientation as emitted).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .mesh import TriMesh

IMAGE_SIZE = 256
VFOV_DEG = 45.0


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

    frame = look_at(np.asarray(eye, float), np.asarray(target, float))
    cam = (mesh.vertices - eye) @ frame.T
    focal = 1.0 / np.tan(np.radians(vfov_deg) / 2.0)

    tri_cam = cam[mesh.faces]
    depths = tri_cam[..., 2]
    ok = (depths > 1e-9).all(axis=1)
    if not ok.any():
        return sil, normals

    # NDC in [-1, 1], then pixel centers
    ndc = tri_cam[..., :2] * focal / depths[..., None]
    px = (ndc + 1.0) * 0.5 * size - 0.5
    inv_z = 1.0 / depths

    face_normals = mesh.face_normals()
    zbuf = np.zeros((size, size))

    for f in np.flatnonzero(ok):
        p = px[f]
        lo = np.floor(p.min(axis=0)).astype(int)
        hi = np.ceil(p.max(axis=0)).astype(int)
        x0, y0 = np.maximum(lo, 0)
        x1, y1 = np.minimum(hi, size - 1)
        if x1 < x0 or y1 < y0:
            continue
        xs = np.arange(x0, x1 + 1)
        ys = np.arange(y0, y1 + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")

        v0 = p[1] - p[0]
        v1 = p[2] - p[0]
        den = v0[0] * v1[1] - v0[1] * v1[0]
        if abs(den) < 1e-14:
            continue
        dx = gx - p[0, 0]
        dy = gy - p[0, 1]
        w1 = (dx * v1[1] - dy * v1[0]) / den
        w2 = (dy * v0[0] - dx * v0[1]) / den
        w0 = 1.0 - w1 - w2
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        if not inside.any():
            continue
        z = w0 * inv_z[f, 0] + w1 * inv_z[f, 1] + w2 * inv_z[f, 2]
        closer = inside & (z > zbuf[gx, gy])
        if not closer.any():
            continue
        gi, gj = gx[closer], gy[closer]
        zbuf[gi, gj] = z[closer]
        sil[gi, gj] = True
        normals[gi, gj] = face_normals[f]
    return sil, normals


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
