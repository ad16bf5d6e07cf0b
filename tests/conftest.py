import sys

import numpy as np
import pytest

from udfmesh import GridSpec, MeshUdf, TriMesh, primitives


@pytest.fixture
def unit_patch_mesh():
    """Unit square sheet in the z = 0 plane, two triangles."""
    return primitives.square_patch(side=1.0, z=0.0)


@pytest.fixture
def unit_patch_field(unit_patch_mesh):
    return MeshUdf(unit_patch_mesh)


@pytest.fixture
def face_cross_log(monkeypatch):
    """The meshes whose face cross products get computed, one entry per
    computation: ``np.cross`` calls made from ``TriMesh.face_normals``."""
    log = []
    cross = np.cross

    def counted(*args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code is TriMesh.face_normals.__code__:
            log.append(caller.f_locals["self"])
        return cross(*args, **kwargs)
    monkeypatch.setattr(np, "cross", counted)
    return log


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def generic_spec(resolution: int, shift: float = 0.0037) -> GridSpec:
    """Lattice shifted off the dyadic grid so analytic surfaces like the
    half-unit sphere never pass exactly through corners."""
    return GridSpec(resolution, (-1 + shift,) * 3, (1 + shift,) * 3)


def wavy_patch_mlp(seed: int) -> "MlpUdf":
    """A 3x128 rectifier network over encoding order 5 and an 8-entry latent
    code whose first units compute |x3 - 0.05 sin(pi x1) - 0.03 cos(2 pi x2)
    - w.z| clipped to the square |x1|, |x2| <= 0.5; the other units are
    random filler with zero output weight, so a pass costs what a dense
    network of this size costs."""
    from udfmesh import MlpUdf
    order, latent, hidden = 5, 8, 128
    rng = np.random.default_rng(seed)
    n_in = 3 * (1 + 2 * order) + latent
    w = rng.normal(0.0, 0.02, latent)
    sizes = [n_in, hidden, hidden, hidden]
    weights = [rng.normal(0.0, np.sqrt(2.0 / sizes[i]), (sizes[i + 1], sizes[i]))
               for i in range(3)]
    biases = [rng.normal(0.0, 0.1, sizes[i + 1]) for i in range(3)]
    W1, W2, W3 = weights
    s = np.zeros(n_in)
    s[2], s[3], s[13] = 1.0, -0.05, -0.03
    s[3 * (1 + 2 * order):] = -w
    W1[:6] = 0.0
    W1[0], W1[1] = s, -s
    W1[2, 0], W1[3, 0], W1[4, 1], W1[5, 1] = 1.0, -1.0, 1.0, -1.0
    biases[0][:6] = 0.0
    W2[:3] = 0.0
    W2[0, [0, 1]] = 1.0
    W2[1, [2, 3]], W2[1, [0, 1]] = 1.0, -1.0
    W2[2, [4, 5]] = 1.0
    biases[1][:3] = 0.0, -0.5, 0.0
    W3[:2] = 0.0
    W3[0, [0, 1]] = 1.0
    W3[1, 2], W3[1, [0, 1]] = 1.0, -1.0
    biases[2][:2] = 0.0, -0.5
    W4 = np.zeros((1, hidden))
    W4[0, :2] = 1.0
    return MlpUdf(weights + [W4], biases + [np.zeros(1)], order, latent,
                  rng.normal(0.0, 1.0, latent))
