"""Unsigned distance fields: the query interface and concrete families.

Every field answers three batched queries at arbitrary 3D points:

* ``eval``              -- non-negative distance to the surface
* ``grad_x``            -- spatial gradient of that distance
* ``param_sensitivity`` -- derivative of the distance w.r.t. each of the
                           field's ``param_dim`` shape parameters

plus ``eval_grad`` for value and gradient together. All of them go through
the one method a family implements, ``_query``, which does the shared work
(closest point, radial parts, network pass) once per call.

Exact distance functions (``MeshUdf``, clamped or not, its translation and
the analytic families) declare ``lipschitz = 1.0``; see ``UdfField``.

Fields are immutable after construction and safe to query from multiple
threads. Points where the distance is exactly zero have an undefined
gradient; those return a zero vector.
"""

from __future__ import annotations

import numpy as np

from .distance import MeshDistanceIndex
from .mesh import TriMesh


def _finite(**params) -> None:
    """Reject a non-finite shape parameter, naming it."""
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()}")


def _clamp(d_max) -> float | None:
    """A clamp distance: None for no clamp, else a finite positive float, so
    a clamped field stays a non-negative distance."""
    if d_max is None:
        return None
    d_max = float(d_max)
    if not (np.isfinite(d_max) and d_max > 0):
        raise ValueError(f"d_max must be finite and positive, got {d_max}")
    return d_max


def _as_points(x) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=np.float64)
    single = pts.ndim == 1
    return pts.reshape(-1, 3), single


class UdfField:
    """Base class; subclasses implement the batched ``_query``.

    ``lipschitz`` is a bound L with |u(p) - u(q)| <= L |p - q| everywhere.
    Lattice sampling uses it to skip regions the bound proves far from the
    surface, so declare only a true bound: one that is too small silently
    drops surface. None, the default, means every corner is evaluated.
    """

    param_dim: int = 0
    lipschitz: float | None = None

    def eval(self, x) -> np.ndarray:
        pts, single = _as_points(x)
        u = self._query(pts, grad=False, sens=False)[0]
        return u[0] if single else u

    def grad_x(self, x) -> np.ndarray:
        pts, single = _as_points(x)
        g = self._query(pts, grad=True, sens=False)[1]
        return g[0] if single else g

    def param_sensitivity(self, x) -> np.ndarray:
        pts, single = _as_points(x)
        if self.param_dim == 0:
            s = np.zeros((len(pts), 0))
        else:
            s = self._query(pts, grad=False, sens=True)[2]
        return s[0] if single else s

    def eval_grad(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Value and spatial gradient from one query."""
        pts, single = _as_points(x)
        u, g, _ = self._query(pts, grad=True, sens=False)
        return (u[0], g[0]) if single else (u, g)

    def _query(self, pts: np.ndarray, grad: bool, sens: bool):
        """Distances at ``(n, 3)`` points as ``(u, g, s)``.

        ``u`` has shape (n,). ``g`` is the (n, 3) spatial gradient when
        ``grad`` is set and ``s`` the (n, param_dim) parameter sensitivity
        when ``sens`` is set; each is None otherwise. ``sens`` is only
        requested when ``param_dim > 0``.
        """
        raise NotImplementedError


class MeshUdf(UdfField):
    """Exact Euclidean distance to a reference triangle mesh."""

    param_dim = 0
    lipschitz = 1.0

    def __init__(self, mesh: TriMesh, d_max: float | None = None):
        self.mesh = mesh
        self.d_max = _clamp(d_max)
        self.index = MeshDistanceIndex(mesh.vertices, mesh.faces)

    def closest_point(self, x) -> np.ndarray:
        pts, single = _as_points(x)
        _, cp = self.index.query(pts)
        return cp[0] if single else cp

    def _query(self, pts, grad, sens):
        d, cp = self.index.query(pts)
        g = None
        if grad:
            g = np.zeros_like(pts)
            # distances at rounding scale are on-surface hits; their direction
            # would be pure noise
            ok = d[:, None] > 1e-12 * max(1.0, self.index.max_spread)
            np.divide(pts - cp, d[:, None], out=g, where=ok)
            if self.d_max is not None:
                g[d >= self.d_max] = 0.0
        if self.d_max is not None:
            d = np.minimum(d, self.d_max)
        return d, g, None


class TranslatedPlaneUdf(UdfField):
    """Distance to the plane z = t; the single parameter is the offset t."""

    param_dim = 1
    lipschitz = 1.0

    def __init__(self, offset: float = 0.0):
        _finite(offset=offset)
        self.offset = float(offset)

    def _query(self, pts, grad, sens):
        dz = pts[:, 2] - self.offset
        g = s = None
        if grad:
            g = np.zeros_like(pts)
            g[:, 2] = np.sign(dz)
        if sens:
            s = -np.sign(dz)[:, None]
        return np.abs(dz), g, s

    def with_params(self, params) -> "TranslatedPlaneUdf":
        return TranslatedPlaneUdf(params[0])

    @property
    def params(self) -> np.ndarray:
        return np.array([self.offset])


class SphereShellUdf(UdfField):
    """Distance to the origin-centered sphere of radius r; parameter is r."""

    param_dim = 1
    lipschitz = 1.0

    def __init__(self, radius: float = 0.5):
        _finite(radius=radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def _query(self, pts, grad, sens):
        r = np.linalg.norm(pts, axis=1)
        sign = np.sign(r - self.radius)
        g = s = None
        if grad:
            g = np.zeros_like(pts)
            np.divide(pts, r[:, None], out=g, where=r[:, None] > 0)
            g = g * sign[:, None]
        if sens:
            s = -sign[:, None]
        return np.abs(r - self.radius), g, s

    def with_params(self, params) -> "SphereShellUdf":
        return SphereShellUdf(params[0])

    @property
    def params(self) -> np.ndarray:
        return np.array([self.radius])


class RectanglePatchUdf(UdfField):
    """Distance to an axis-aligned rectangle in the plane z = z0.

    The rectangle spans [x_min, x_max] x [y_min, y_max]; the movable +x
    border x_max is the single shape parameter, so widening the patch is a
    one-parameter family with a genuine open border.
    """

    param_dim = 1
    lipschitz = 1.0

    def __init__(self, x_max: float = 0.5, x_min: float = -0.5,
                 y_range=(-0.5, 0.5), z0: float = 0.0):
        _finite(x_max=x_max, x_min=x_min, y_range=y_range, z0=z0)
        if x_max <= x_min:
            raise ValueError("x_max must exceed x_min")
        if y_range[1] <= y_range[0]:
            raise ValueError("y_range must increase")
        self.x_max = float(x_max)
        self.x_min = float(x_min)
        self.y_range = (float(y_range[0]), float(y_range[1]))
        self.z0 = float(z0)

    def _query(self, pts, grad, sens):
        q = pts.copy()
        q[:, 0] = np.clip(pts[:, 0], self.x_min, self.x_max)
        q[:, 1] = np.clip(pts[:, 1], self.y_range[0], self.y_range[1])
        q[:, 2] = self.z0
        diff = pts - q
        d = np.linalg.norm(diff, axis=1)
        g = s = None
        if grad:
            g = np.zeros_like(pts)
            np.divide(diff, d[:, None], out=g, where=d[:, None] > 0)
        if sens:
            s = np.zeros((len(pts), 1))
            # only points clamped to the moving border respond to it
            ok = (pts[:, 0] > self.x_max) & (d > 0)
            s[ok, 0] = -diff[ok, 0] / d[ok]
        return d, g, s

    def with_params(self, params) -> "RectanglePatchUdf":
        return RectanglePatchUdf(params[0], self.x_min, self.y_range, self.z0)

    @property
    def params(self) -> np.ndarray:
        return np.array([self.x_max])


class OpenCylinderUdf(UdfField):
    """Distance to a capless cylinder shell around the z axis; parameter is
    the radius."""

    param_dim = 1
    lipschitz = 1.0

    def __init__(self, radius: float = 0.6, z_range=(-0.6, 0.6)):
        _finite(radius=radius, z_range=z_range)
        if radius <= 0:
            raise ValueError("radius must be positive")
        if z_range[1] <= z_range[0]:
            raise ValueError("z_range must increase")
        self.radius = float(radius)
        self.z_range = (float(z_range[0]), float(z_range[1]))

    def _query(self, pts, grad, sens):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        dz = np.maximum.reduce([self.z_range[0] - pts[:, 2],
                                pts[:, 2] - self.z_range[1],
                                np.zeros(len(pts))])
        dr = rho - self.radius
        inside_band = dz == 0
        d = np.where(inside_band, np.abs(dr), np.hypot(dr, dz))
        ok = d > 0
        g = s = None
        if grad:
            radial = np.zeros_like(pts)
            np.divide(pts[:, :2], rho[:, None], out=radial[:, :2], where=rho[:, None] > 0)
            g = np.zeros_like(pts)
            zsign = np.sign(pts[:, 2] - np.clip(pts[:, 2], *self.z_range))
            g[ok] = radial[ok] * (dr[ok] / d[ok])[:, None]
            g[ok, 2] = zsign[ok] * dz[ok] / d[ok]
        if sens:
            s = np.zeros((len(pts), 1))
            s[ok, 0] = -dr[ok] / d[ok]
        return d, g, s

    def with_params(self, params) -> "OpenCylinderUdf":
        return OpenCylinderUdf(params[0], self.z_range)

    @property
    def params(self) -> np.ndarray:
        return np.array([self.radius])


class TranslatedMeshUdf(UdfField):
    """A mesh UDF rigidly translated by an offset vector t (3 parameters)."""

    param_dim = 3
    lipschitz = 1.0

    def __init__(self, base: MeshUdf, offset=(0.0, 0.0, 0.0)):
        self.base = base
        self.offset = np.array(offset, dtype=np.float64).reshape(3)
        _finite(offset=self.offset)

    def _query(self, pts, grad, sens):
        # d/dt u_base(x - t) = -grad u_base(x - t)
        u, g, _ = self.base._query(pts - self.offset, grad or sens, False)
        return u, g if grad else None, -g if sens else None

    def with_params(self, params) -> "TranslatedMeshUdf":
        return TranslatedMeshUdf(self.base, params)

    @property
    def params(self) -> np.ndarray:
        return self.offset.copy()


PARAMETRIC_FAMILIES = {
    "plane": TranslatedPlaneUdf,
    "sphere": SphereShellUdf,
    "patch": RectanglePatchUdf,
    "cylinder": OpenCylinderUdf,
}


def parametric_field(family: str, params) -> UdfField:
    """Build a parametric field from a family name and parameter list:
    the family's default shape for no parameters, else exactly
    ``param_dim`` of them."""
    try:
        cls = PARAMETRIC_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(PARAMETRIC_FAMILIES))
        raise ValueError(f"unknown field family {family!r} (expected one of: {known})")
    params = [float(p) for p in np.atleast_1d(params)]
    if not params:
        return cls()
    if len(params) != cls.param_dim:
        raise ValueError(f"family {family!r} takes {cls.param_dim} parameter(s), "
                         f"got {len(params)}")
    return cls().with_params(params)
