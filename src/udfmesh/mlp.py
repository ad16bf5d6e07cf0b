"""Fully-connected UDF evaluator loaded from serialized weights.

Weight files are JSON with keys ``encoding_order``, ``layer_sizes``,
``weights`` (row-major matrices, one row per output unit), ``biases``,
``latent_dim`` and ``d_max``. Input coordinates pass through a Fourier
feature map before the first layer: for each coordinate x the features are
[x] followed by [sin(2^k pi x), cos(2^k pi x)] for k = 0..order-1, sines of
all three coordinates before cosines within each octave. An optional latent
code is appended after the encoded coordinates. Hidden layers use the
rectifier; the final scalar passes through an absolute value (and an
optional clamp at ``d_max``) so the field is a valid unsigned distance.

Spatial gradients and latent sensitivities come from a hand-rolled
reverse-mode pass over the same weights.

A values-only query runs in row blocks of ``VALUE_BLOCK`` points, so each
layer's activations stay cache-sized however many points the query has;
each block writes its slice of one result array, and the values are bitwise
those of one pass over the whole query. Gradient and sensitivity queries
run as one pass: OpenBLAS hands the small products of a narrow network's
reverse pass to another kernel, so blocking them would change their bits.
"""

from __future__ import annotations

import json

import numpy as np

from .fields import UdfField


class WeightFileError(ValueError):
    pass


def encoded_dim(order: int) -> int:
    return 3 * (1 + 2 * order)


def positional_encoding(pts: np.ndarray, order: int) -> np.ndarray:
    feats = [pts]
    for k in range(order):
        w = (2.0 ** k) * np.pi
        feats.append(np.sin(w * pts))
        feats.append(np.cos(w * pts))
    return np.concatenate(feats, axis=1)


def _encoding_jacobian_apply(enc: np.ndarray, order: int, grad_enc: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. encoded features back to the raw coordinates,
    reading the sines and cosines from the encoding ``enc`` itself."""
    g = grad_enc[:, 0:3].copy()
    col = 3
    for k in range(order):
        w = (2.0 ** k) * np.pi
        g += grad_enc[:, col:col + 3] * (w * enc[:, col + 3:col + 6])
        col += 3
        g += grad_enc[:, col:col + 3] * (-w * enc[:, col - 3:col])
        col += 3
    return g


VALUE_BLOCK = 512             # rows per block of a values-only query


class MlpUdf(UdfField):
    """Rectifier MLP over Fourier-encoded coordinates plus a latent code."""

    def __init__(self, weights, biases, encoding_order: int = 5,
                 latent_dim: int = 0, latent=None, d_max: float | None = None):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64).reshape(-1) for b in biases]
        self.encoding_order = int(encoding_order)
        self.latent_dim = int(latent_dim)
        self.d_max = None if d_max is None else float(d_max)
        self.param_dim = self.latent_dim
        if latent is None:
            latent = np.zeros(self.latent_dim)
        # copy: fields are immutable, so never alias caller arrays
        self.latent = np.array(latent, dtype=np.float64).reshape(-1)
        self._validate()

    def _validate(self):
        if len(self.weights) != len(self.biases):
            raise WeightFileError("weights and biases count differ")
        if not self.weights:
            raise WeightFileError("network has no layers")
        expected_in = encoded_dim(self.encoding_order) + self.latent_dim
        if self.weights[0].shape[1] != expected_in:
            raise WeightFileError(
                f"layer 0 expects {self.weights[0].shape[1]} inputs but the "
                f"encoding convention (order {self.encoding_order}, latent "
                f"{self.latent_dim}) produces {expected_in}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise WeightFileError(f"layer {i}: weight matrix must be 2-D")
            if b.shape[0] != w.shape[0]:
                raise WeightFileError(
                    f"layer {i}: bias length {b.shape[0]} != output size {w.shape[0]}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise WeightFileError(
                    f"layer {i}: input size {w.shape[1]} does not match "
                    f"layer {i - 1} output size {self.weights[i - 1].shape[0]}")
        if self.weights[-1].shape[0] != 1:
            raise WeightFileError("final layer must produce a single scalar")
        if len(self.latent) != self.latent_dim:
            raise WeightFileError(
                f"latent code length {len(self.latent)} != latent_dim {self.latent_dim}")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def with_latent(self, latent) -> "MlpUdf":
        return MlpUdf(self.weights, self.biases, self.encoding_order,
                      self.latent_dim, latent, self.d_max)

    # alias so fitting code can treat any parametric field uniformly
    def with_params(self, params) -> "MlpUdf":
        return self.with_latent(params)

    @property
    def params(self) -> np.ndarray:
        return self.latent.copy()

    # -- forward / reverse ---------------------------------------------------

    def _forward(self, pts: np.ndarray, keep: bool):
        """One forward pass: ``(raw, enc, acts)``, the network output before
        the absolute value, the encoded coordinates and, with ``keep``, the
        output of every layer (rectified for hidden layers; None without
        ``keep``, so a values-only pass holds one layer at a time).

        Biases and rectifiers apply in place. A rectified activation is
        positive exactly where its pre-activation is, so the kept layers
        give the reverse pass and ``hidden_sign_pattern`` their masks.
        """
        enc = positional_encoding(pts, self.encoding_order)
        if self.latent_dim:
            lat = np.broadcast_to(self.latent, (len(pts), self.latent_dim))
            h = np.concatenate([enc, lat], axis=1)
        else:
            h = enc
        acts = [] if keep else None
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            if keep:
                acts.append(h)
        return h[:, 0], enc, acts

    def _query(self, pts, grad, sens):
        """``UdfField._query``. Values alone run the encoding, the layers,
        the absolute value and the clamp in row blocks of ``VALUE_BLOCK``
        points, each written into its slice of one ``u``. The last block
        takes the remainder, so no block is shorter than ``VALUE_BLOCK``
        unless the whole query is, and a query of any size holds one block's
        activations at a time. A row of a forward product gets the same bits
        at every block size, so the values are those of one whole pass.
        Gradient and sensitivity queries run as one pass: OpenBLAS sends
        small products, such as those of a 16- or 32-wide network's reverse
        pass over a block, to another kernel, whose bits differ.
        """
        if not (grad or sens):
            u = np.empty(len(pts))
            edges = [*range(0, max(len(pts) // VALUE_BLOCK, 1) * VALUE_BLOCK,
                            VALUE_BLOCK), len(pts)]
            for s, e in zip(edges[:-1], edges[1:]):
                block = u[s:e]
                np.abs(self._forward(pts[s:e], keep=False)[0], out=block)
                if self.d_max is not None:
                    np.minimum(block, self.d_max, out=block)
            return u, None, None

        raw, enc, acts = self._forward(pts, keep=True)
        u = np.abs(raw)
        clamped = None
        if self.d_max is not None:
            clamped = u >= self.d_max
            u = np.minimum(u, self.d_max)

        # reverse pass: gradient of u w.r.t. the network input
        delta = np.sign(raw)[:, None]
        if clamped is not None:
            delta = np.where(clamped[:, None], 0.0, delta)
        for i in range(len(self.weights) - 1, 0, -1):
            delta = delta @ self.weights[i]
            delta *= acts[i - 1] > 0
        grad_in = delta @ self.weights[0]
        enc_cols = encoded_dim(self.encoding_order)
        g = s = None
        if grad:
            g = _encoding_jacobian_apply(enc, self.encoding_order, grad_in[:, :enc_cols])
        if sens:
            s = grad_in[:, enc_cols:].copy()
        return u, g, s

    def hidden_sign_pattern(self, pts) -> np.ndarray:
        """Concatenated rectifier on/off pattern plus the output sign.

        Finite differences are only trustworthy where this pattern is
        constant across the probe points (the network is piecewise linear).
        """
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
        acts = self._forward(pts, keep=True)[2]
        return np.concatenate([a > 0 for a in acts], axis=1)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "encoding_order": self.encoding_order,
            "layer_sizes": self.layer_sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "latent_dim": self.latent_dim,
            "d_max": self.d_max,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, data: dict, latent=None) -> "MlpUdf":
        for key in ("encoding_order", "layer_sizes", "weights", "biases", "latent_dim"):
            if key not in data:
                raise WeightFileError(f"weight file missing field {key!r}")
        net = cls(data["weights"], data["biases"], data["encoding_order"],
                  data["latent_dim"], latent, data.get("d_max"))
        sizes = [int(s) for s in data["layer_sizes"]]
        if net.layer_sizes != sizes:
            raise WeightFileError(
                f"declared layer_sizes {sizes} do not match weight shapes {net.layer_sizes}")
        return net

    @classmethod
    def from_file(cls, path, latent=None) -> "MlpUdf":
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_dict(data, latent)


def random_mlp(hidden=(32, 32), encoding_order: int = 5, latent_dim: int = 0,
               d_max: float | None = None, seed: int = 0,
               weight_scale: float | None = None) -> MlpUdf:
    """Small random network for experiments; He-style scaling by default."""
    rng = np.random.default_rng(seed)
    sizes = [encoded_dim(encoding_order) + latent_dim, *hidden, 1]
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        scale = weight_scale if weight_scale is not None else np.sqrt(2.0 / sizes[i])
        weights.append(rng.normal(0.0, scale, size=(sizes[i + 1], sizes[i])))
        biases.append(rng.normal(0.0, 0.1, size=sizes[i + 1]))
    return MlpUdf(weights, biases, encoding_order, latent_dim, None, d_max)
