"""Fully-connected UDF evaluator loaded from serialized weights.

Weight files are JSON with keys ``encoding_order``, ``layer_sizes``,
``weights`` (row-major matrices, one row per output unit), ``biases``,
``latent_dim`` and ``d_max``. Input coordinates pass through a Fourier
feature map before the first layer: for each coordinate x the features are
[x] followed by [sin(2^k pi x), cos(2^k pi x)] for k = 0..order-1, sines of
all three coordinates before cosines within each octave. An optional latent
code is appended after the encoded coordinates; it is the field's
parameter vector, and ``with_params`` gives the same network with another
code. Hidden layers use the rectifier; the final scalar passes through an
absolute value (and an optional clamp at ``d_max``) so the field is a
valid unsigned distance.

Spatial gradients and latent sensitivities come from a hand-rolled
reverse-mode pass over the same weights.

The encoding is computed once per distinct coordinate value, not once per
point (``_feature_table``): lattice corners have only N distinct values per
axis, and every query gathers its rows from one small table of sines and
cosines. Values match on their bit patterns, so the gathered features are
bitwise those of evaluating the map at every coordinate.

Every query runs one forward pass, in cache-sized row blocks of
``VALUE_BLOCK`` points with one feature table per ``TABLE_WINDOW`` rows,
bitwise one pass over the whole query. Gradients and sensitivities then
run one reverse pass over the whole query, which reads nothing of the
forward layers but their signs, one byte per hidden unit (``MlpUdf._query``
gives the reasons for both).
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


VALUE_BLOCK = 512             # rows per block of a query's forward pass
TABLE_WINDOW = 2048           # rows per feature table of a query, a whole
                              # number of blocks


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
        for i, w in enumerate(self.weights):
            if w.ndim != 2:
                raise WeightFileError(f"layer {i}: weight matrix must be 2-D")
        expected_in = encoded_dim(self.encoding_order) + self.latent_dim
        if self.weights[0].shape[1] != expected_in:
            raise WeightFileError(
                f"layer 0 expects {self.weights[0].shape[1]} inputs but the "
                f"encoding convention (order {self.encoding_order}, latent "
                f"{self.latent_dim}) produces {expected_in}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
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

    def with_params(self, params) -> "MlpUdf":
        """The same network with the latent code ``params``."""
        return MlpUdf(self.weights, self.biases, self.encoding_order,
                      self.latent_dim, params, self.d_max)

    @property
    def params(self) -> np.ndarray:
        return self.latent.copy()

    # -- forward / reverse ---------------------------------------------------

    def _forward(self, x: np.ndarray, out, masks=None) -> np.ndarray:
        """The network output before the absolute value, over the network
        input ``x`` (rows, encoded + latent).

        ``out`` is a pair of flat buffers: layer i's product goes into a
        C-contiguous (rows, width) view of ``out[i % 2]``, not a new array.
        Biases and rectifiers apply in place. With ``masks``, one (rows,
        width) bool array per hidden layer, each hidden layer writes where
        its pre-activation is positive, which is where the rectified
        activation is: all the reverse pass reads of the forward layers.
        """
        last = len(self.weights) - 1
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            dest = out[i % 2][:len(x) * len(w)].reshape(len(x), len(w))
            h = np.matmul(h, w.T, out=dest)
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
                if masks is not None:
                    np.greater(h, 0.0, out=masks[i])
        return h[:, 0]

    def _query(self, pts, grad, sens):
        """``UdfField._query``: one forward pass in row blocks of
        ``VALUE_BLOCK`` points, then, for gradients and sensitivities, one
        reverse pass over the whole query.

        The last block takes the remainder, so no block is shorter than
        ``VALUE_BLOCK`` unless the whole query is. Each window of
        ``TABLE_WINDOW`` rows, whole blocks, gets one feature table; each
        block gathers its encoded rows into an input whose latent columns
        are written once, and its layers write into two reused buffers, so
        the forward pass holds one block's activations. A values-only query
        reuses one block-sized input; a gradient or sensitivity query keeps
        the whole input, whose sines and cosines the encoding Jacobian
        reads, and one bool mask per hidden layer.

        A row of a forward product gets the same bits at every block size,
        so blocks change no output bits. The reverse pass is not blocked:
        OpenBLAS sends small products, such as those of a 16- or 32-wide
        network's reverse pass over a block, to another kernel, whose bits
        differ. It needs no float activations, so running it whole costs
        only two reused whole-query product buffers.

        Coordinates match on their int64 bit patterns, not their values: ==
        would merge -0.0 with +0.0 (whose sines differ in sign) and never
        match a NaN, while bit patterns give every coordinate the bits of
        its own direct encoding. A table per window rather than per query:
        scattered points have up to 3 distinct values each, so a
        whole-query table of a 32,768-point chunk would hold several MB
        where a window's holds about half a MB, and a lattice window still
        repeats each value across many rows.
        """
        n, order = len(pts), self.encoding_order
        back = grad or sens
        edges = [*range(0, max(n // VALUE_BLOCK, 1) * VALUE_BLOCK, VALUE_BLOCK), n]
        rows = edges[-1] - edges[-2]             # the last block is the longest
        cols = encoded_dim(order)
        x = np.empty((n if back else rows, cols + self.latent_dim))
        x[:, cols:] = self.latent
        width = max(len(w) for w in self.weights)
        out = (np.empty(rows * width), np.empty(rows * width))
        masks = [np.empty((n, len(w)), dtype=bool) for w in self.weights[:-1]] if back else None
        raw = np.empty(n)
        per_window = TABLE_WINDOW // VALUE_BLOCK
        for first in range(0, len(edges) - 1, per_window):
            win = edges[first:first + per_window + 1]
            table, inv = _feature_table(pts[win[0]:win[-1]], order)
            for s, e in zip(win[:-1], win[1:]):
                xb = x[s:e] if back else x[:e - s]
                xb[:, :cols].reshape(e - s, 1 + 2 * order, 3)[...] = \
                    table[:, inv[s - win[0]:e - win[0]]].transpose(1, 0, 2)
                raw[s:e] = self._forward(xb, out, [m[s:e] for m in masks] if back else None)
        u = np.abs(raw)
        if self.d_max is not None:
            np.minimum(u, self.d_max, out=u)
        if not back:
            return u, None, None

        # reverse pass: gradient of u w.r.t. the network input, zero where
        # the clamp holds u at d_max. As in the forward pass, products go
        # into C-contiguous views of two reused flat buffers; each mask is
        # dropped once applied, and the second buffer is made after the first
        # drop
        delta = np.sign(raw)[:, None]
        if self.d_max is not None:
            delta = np.where((u >= self.d_max)[:, None], 0.0, delta)
        width = max(w.shape[1] for w in self.weights)
        bufs = []
        for step, w in enumerate(reversed(self.weights)):
            if step < 2:
                bufs.append(np.empty(n * width))
            dest = bufs[step % 2][:n * w.shape[1]].reshape(n, w.shape[1])
            delta = np.matmul(delta, w, out=dest)
            if masks:
                delta *= masks.pop()
        grad_in = delta
        g = _encoding_jacobian_apply(x[:, :cols], order, grad_in[:, :cols]) if grad else None
        return u, g, grad_in[:, cols:].copy() if sens else None

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
        """A missing field, or one of the wrong type, raises
        ``WeightFileError`` naming it."""
        if not isinstance(data, dict):
            raise WeightFileError(f"weight file holds a {type(data).__name__}, not an object")
        value = {}
        for key, read in _FILE_FIELDS.items():
            if key not in data and key != "d_max":
                raise WeightFileError(f"weight file missing field {key!r}")
            try:
                value[key] = read(data.get(key))
            except (TypeError, ValueError, OverflowError) as exc:
                raise WeightFileError(f"weight file field {key!r}: {exc}") from None
        sizes = value.pop("layer_sizes")
        net = cls(latent=latent, **value)
        if net.layer_sizes != sizes:
            raise WeightFileError(
                f"declared layer_sizes {sizes} do not match weight shapes {net.layer_sizes}")
        return net

    @classmethod
    def from_file(cls, path, latent=None) -> "MlpUdf":
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_dict(data, latent)


def _arrays(value) -> list[np.ndarray]:
    return [np.asarray(a, dtype=np.float64) for a in value]


# the fields of a weight file, each with the reader of its type
_FILE_FIELDS = {
    "encoding_order": int, "layer_sizes": lambda v: [int(s) for s in v],
    "weights": _arrays, "biases": _arrays, "latent_dim": int, "d_max": _clamp,
}


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
