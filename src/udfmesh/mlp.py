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

The encoding is computed once per distinct coordinate value, not once per
point (``_feature_table``): lattice corners have only N distinct values per
axis, and every query gathers its rows from one small table of sines and
cosines. Values match on their bit patterns, so the gathered features are
bitwise those of evaluating the map at every coordinate.

A values-only query runs in row blocks of ``VALUE_BLOCK`` points, so each
layer's activations stay cache-sized however many points the query has;
each block writes its slice of one result array, and the values are bitwise
those of one pass over the whole query. One feature table serves each
window of ``TABLE_WINDOW`` rows, and the blocks reuse one input buffer and
two layer buffers. Gradient and sensitivity queries run as one pass:
OpenBLAS hands the small products of a narrow network's reverse pass to
another kernel, so blocking them would change their bits.
"""

from __future__ import annotations

import json

import numpy as np

from .fields import UdfField, _clamp, _finite


class WeightFileError(ValueError):
    pass


def encoded_dim(order: int) -> int:
    return 3 * (1 + 2 * order)


def _feature_table(pts: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Fourier features of each distinct coordinate of ``pts``, as
    ``(table, inv)``: ``table`` is (1 + 2 order, m), with rows [v] and then
    [sin(2^k pi v), cos(2^k pi v)] for k = 0..order-1 over the m distinct
    values v, and ``inv`` has the shape of ``pts`` and holds the column of
    each coordinate.

    Coordinates are taken as float64 and matched on their int64 bit
    patterns, so -0.0 and +0.0 stay apart and NaN payloads are kept: each
    value gets the bits of the features of its own coordinate. A lattice
    has few distinct coordinates, so each sine and cosine is evaluated once
    instead of once per corner.
    """
    flat = np.ascontiguousarray(pts, dtype=np.float64).ravel()
    keys, inv = np.unique(flat.view(np.int64), return_inverse=True)
    v = keys.view(np.float64)
    table = np.empty((1 + 2 * order, len(v)))
    table[0] = v
    for k in range(order):
        wv = ((2.0 ** k) * np.pi) * v
        np.sin(wv, out=table[1 + 2 * k])
        np.cos(wv, out=table[2 + 2 * k])
    return table, inv.reshape(np.shape(pts))


def positional_encoding(pts: np.ndarray, order: int) -> np.ndarray:
    """The (n, encoded_dim(order)) float64 features of (n, 3) points,
    gathered from ``_feature_table``: column 3 r + c holds table row r of
    coordinate c. One table row at a time, so no (rows, n, 3) temporary is
    made."""
    table, inv = _feature_table(pts, order)
    enc = np.empty((len(inv), len(table), inv.shape[1]))
    for r, row in enumerate(table):
        enc[:, r] = row[inv]
    return enc.reshape(len(inv), len(table) * inv.shape[1])


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
TABLE_WINDOW = 2048           # rows per feature table of a values-only query,
                              # a whole number of blocks


class MlpUdf(UdfField):
    """Rectifier MLP over Fourier-encoded coordinates plus a latent code."""

    def __init__(self, weights, biases, encoding_order: int = 5,
                 latent_dim: int = 0, latent=None, d_max: float | None = None):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64).reshape(-1) for b in biases]
        self.encoding_order = int(encoding_order)
        self.latent_dim = int(latent_dim)
        self.d_max = _clamp(d_max)
        self.param_dim = self.latent_dim
        if latent is None:
            latent = np.zeros(self.latent_dim)
        # copy: fields are immutable, so never alias caller arrays
        self.latent = np.array(latent, dtype=np.float64).reshape(-1)
        self._validate()
        _finite(latent=self.latent)

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

    def _forward(self, x: np.ndarray, keep: bool, out=None):
        """The layers over the network input ``x`` (rows, encoded + latent):
        ``(raw, acts)``, the network output before the absolute value and,
        with ``keep``, the output of every layer (rectified for hidden
        layers; None without ``keep``, so a values-only pass holds one
        layer at a time).

        Biases and rectifiers apply in place. A rectified activation is
        positive exactly where its pre-activation is, so the kept layers
        give the reverse pass and ``hidden_sign_pattern`` their masks.
        ``out`` is a pair of flat buffers: layer i's product then goes into
        a C-contiguous (rows, width) view of ``out[i % 2]``, not a new array.
        """
        acts = [] if keep else None
        last = len(self.weights) - 1
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if out is None:
                h = h @ w.T
            else:
                dest = out[i % 2][:len(x) * len(w)].reshape(len(x), len(w))
                h = np.matmul(h, w.T, out=dest)
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            if keep:
                acts.append(h)
        return h[:, 0], acts

    def _encode(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(enc, x)``: the encoded coordinates and the network input, the
        encoding followed by the latent code."""
        enc = positional_encoding(pts, self.encoding_order)
        if not self.latent_dim:
            return enc, enc
        lat = np.broadcast_to(self.latent, (len(pts), self.latent_dim))
        return enc, np.concatenate([enc, lat], axis=1)

    def _values(self, pts: np.ndarray) -> np.ndarray:
        """Values alone, in row blocks of ``VALUE_BLOCK`` points, each written
        into its slice of one ``u``. The last block takes the remainder, so
        no block is shorter than ``VALUE_BLOCK`` unless the whole query is.
        Each window of ``TABLE_WINDOW`` rows, whole blocks, gets one feature
        table. Each block gathers its encoded rows into one preallocated
        input whose latent columns are written once, and its layers write
        into two reused buffers, so a query of any size holds one block's
        activations and allocates nothing per block but the gather.
        """
        n, order = len(pts), self.encoding_order
        u = np.empty(n)
        edges = [*range(0, max(n // VALUE_BLOCK, 1) * VALUE_BLOCK, VALUE_BLOCK), n]
        rows = edges[-1] - edges[-2]             # the last block is the longest
        cols = encoded_dim(order)
        x = np.empty((rows, cols + self.latent_dim))
        x[:, cols:] = self.latent
        width = max(len(w) for w in self.weights)
        out = (np.empty(rows * width), np.empty(rows * width))
        per_window = TABLE_WINDOW // VALUE_BLOCK
        for first in range(0, len(edges) - 1, per_window):
            win = edges[first:first + per_window + 1]
            table, inv = _feature_table(pts[win[0]:win[-1]], order)
            for s, e in zip(win[:-1], win[1:]):
                xb = x[:e - s]
                xb[:, :cols].reshape(e - s, 1 + 2 * order, 3)[...] = \
                    table[:, inv[s - win[0]:e - win[0]]].transpose(1, 0, 2)
                block = u[s:e]
                np.abs(self._forward(xb, False, out)[0], out=block)
                if self.d_max is not None:
                    np.minimum(block, self.d_max, out=block)
        return u

    def _query(self, pts, grad, sens):
        """``UdfField._query``. Values alone run in row blocks
        (``_values``); a row of a forward product gets the same bits at
        every block size, so the values are those of one whole pass.
        Gradient and sensitivity queries run as one pass: OpenBLAS sends
        small products, such as those of a 16- or 32-wide network's reverse
        pass over a block, to another kernel, whose bits differ.

        Either way each distinct coordinate is encoded once. Coordinates
        match on their int64 bit patterns, not their values: == would merge
        -0.0 with +0.0 (whose sines differ in sign) and never match a NaN,
        while bit patterns give every coordinate the bits of its own direct
        encoding. A values-only query builds one table per window of
        ``TABLE_WINDOW`` rows rather than one per query: scattered points
        have up to 3 distinct values each, so a whole-query table of a
        32,768-point chunk would hold several MB where a window's holds
        about half a MB, and a lattice window still repeats each value
        across many rows.
        """
        if not (grad or sens):
            return self._values(pts), None, None

        enc, x = self._encode(pts)
        raw, acts = self._forward(x, keep=True)
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
        acts = self._forward(self._encode(pts)[1], keep=True)[1]
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
