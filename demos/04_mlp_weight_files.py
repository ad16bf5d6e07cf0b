"""Evaluate and mesh a network-backed field from a serialized weight file.

Weight files are plain JSON: layer sizes, row-major matrices, biases, the
Fourier encoding order and the latent width. The evaluator runs its own
forward and reverse passes in numpy, so spatial gradients and latent
sensitivities come out of the same weights. Here the network is built by
hand to behave like a distance field (|x3 - 0.05 sin(pi x1) - w.z|) so
its zero set is a gently wavy sheet the latent code can translate.
"""

import numpy as np

import udfmesh as um
from udfmesh.mlp import encoded_dim

order, latent_dim = 2, 4
d = encoded_dim(order)
w_lat = np.array([0.2, -0.15, 0.1, 0.05])
row = np.zeros(d + latent_dim)
row[2] = 1.0          # raw x3 feature
row[3] = -0.05        # sin(pi * x1) feature
row[d:] = -w_lat
net = um.MlpUdf(weights=[np.vstack([row, -row]), [[1.0, 1.0]]],
                biases=[np.zeros(2), np.zeros(1)],
                encoding_order=order, latent_dim=latent_dim)
net.save("wavy_net.json")
print("wrote wavy_net.json; layer sizes:", net.layer_sizes)

# reload with a latent code and mesh the zero set
z = np.array([0.3, 0.0, -0.2, 0.1])
field = um.MlpUdf.from_file("wavy_net.json", latent=z)
spec = um.GridSpec(65)
mesh = um.extract_mesh(field, spec)
print(f"meshed zero set: {mesh.n_faces} faces; expected height offset "
      f"w.z = {w_lat @ z:+.4f}, mean vertex x3 = {mesh.vertices[:, 2].mean():+.4f}")

# reverse-mode latent sensitivities agree with re-extraction
delta = np.array([1.0, 0, 0, 0])
report = um.directional_gradcheck(field, spec, delta, eps=1e-3)
print(f"gradcheck along z[0]: passed={report.passed}, "
      f"{report.n_checked} vertices, max rate error {report.max_error:.2e}")

# raw corner distances can be exported for offline runs
values = um.sample_grid(field, spec)
paths = um.dump_grid(values, spec, "wavy_grid")
print("dumped corner distances to", " and ".join(paths))
