import json
import tracemalloc

import numpy as np
import pytest

from udfmesh import GridSpec, MlpUdf, WeightFileError, random_mlp
from udfmesh.grid import CHUNK, sample_grid
from udfmesh.mlp import TABLE_WINDOW, VALUE_BLOCK, _feature_table, encoded_dim

from conftest import wavy_patch_mlp
from oracles import (allocating_hidden_sign_pattern, allocating_mlp_query,
                     direct_positional_encoding, eager_sample_grid, scripted_mlp_forward)


def zero_network(final_bias: float, encoding_order: int = 2) -> MlpUdf:
    d = encoded_dim(encoding_order)
    return MlpUdf(
        weights=[np.zeros((4, d)), np.zeros((1, 4))],
        biases=[np.zeros(4), np.array([final_bias])],
        encoding_order=encoding_order,
    )


def abs_x0_network() -> MlpUdf:
    """Hand-built net computing |x0|: relu(x0) + relu(-x0) through the raw
    coordinate feature."""
    order = 2
    d = encoded_dim(order)
    w0 = np.zeros((2, d))
    w0[0, 0] = 1.0   # raw x0 feature is column 0
    w0[1, 0] = -1.0
    w1 = np.array([[1.0, 1.0]])
    return MlpUdf([w0, w1], [np.zeros(2), np.zeros(1)], encoding_order=order)


class TestForward:
    def test_zero_weights_yield_final_bias(self, rng):
        field = zero_network(final_bias=-0.7)
        pts = rng.uniform(-1, 1, (50, 3))
        np.testing.assert_allclose(field.eval(pts), 0.7)

    def test_hand_built_abs_x0(self):
        field = abs_x0_network()
        assert field.eval((0.3, 0.0, 0.0)) == pytest.approx(0.3)
        assert field.eval((-0.25, 0.4, -0.9)) == pytest.approx(0.25)

    def test_matches_independent_scripted_forward(self, rng, tmp_path):
        field = random_mlp(hidden=(8, 8), encoding_order=3, latent_dim=0,
                           d_max=0.9, seed=11)
        path = tmp_path / "net.json"
        field.save(path)
        data = json.load(open(path))
        reloaded = MlpUdf.from_file(path)
        for p in rng.uniform(-1, 1, (20, 3)):
            expect = scripted_mlp_forward(data, tuple(p))
            assert reloaded.eval(p) == pytest.approx(expect, rel=1e-12)


class TestGradients:
    def finite_difference_grad(self, field, pts, h=1e-4):
        g = np.empty_like(pts)
        for axis in range(3):
            hi, lo = pts.copy(), pts.copy()
            hi[:, axis] += h
            lo[:, axis] -= h
            g[:, axis] = (field.eval(hi) - field.eval(lo)) / (2 * h)
        return g

    def smooth_probe_mask(self, field, pts, h):
        """Points whose +-h probes stay on one linear piece of the network."""
        ref = allocating_hidden_sign_pattern(field, pts)
        ok = np.ones(len(pts), dtype=bool)
        for axis in range(3):
            for sign in (1, -1):
                q = pts.copy()
                q[:, axis] += sign * h
                ok &= (allocating_hidden_sign_pattern(field, q) == ref).all(axis=1)
        return ok

    def test_grad_x_matches_finite_differences(self, rng):
        field = random_mlp(hidden=(16, 16), encoding_order=4, seed=2)
        pts = rng.uniform(-1, 1, (300, 3))
        h = 1e-4
        pts = pts[(field.eval(pts) > 0.05) & self.smooth_probe_mask(field, pts, h)]
        assert len(pts) > 100
        g = field.grad_x(pts)
        fd = self.finite_difference_grad(field, pts, h)
        rel = np.linalg.norm(g - fd, axis=1) / np.linalg.norm(fd, axis=1)
        assert rel.max() < 1e-3

    def test_grad_exact_on_all_active_network(self, rng):
        # large positive biases keep every unit on: the net is smooth, so
        # the comparison isolates the encoding jacobian and the backward pass
        field = random_mlp(hidden=(12,), encoding_order=5, seed=9,
                           weight_scale=0.05)
        field.biases[0][:] = 5.0
        pts = rng.uniform(-1, 1, (100, 3))
        pts = pts[field.eval(pts) > 0.05]
        g = field.grad_x(pts)
        fd = self.finite_difference_grad(field, pts)
        rel = np.linalg.norm(g - fd, axis=1) / np.linalg.norm(fd, axis=1)
        assert rel.max() < 1e-3

    def test_latent_sensitivity_matches_finite_differences(self, rng):
        field = random_mlp(hidden=(16,), encoding_order=3, latent_dim=6, seed=7)
        field = field.with_params(rng.normal(size=6) * 0.3)
        pts = rng.uniform(-1, 1, (200, 3))
        pts = pts[field.eval(pts) > 0.05]
        sens = field.param_sensitivity(pts)
        h = 1e-4
        fd = np.empty_like(sens)
        stable = np.ones(len(pts), dtype=bool)
        ref = allocating_hidden_sign_pattern(field, pts)
        for c in range(6):
            z = field.latent.copy()
            z[c] += h
            up_field = field.with_params(z)
            z[c] -= 2 * h
            dn_field = field.with_params(z)
            stable &= (allocating_hidden_sign_pattern(up_field, pts) == ref).all(axis=1)
            stable &= (allocating_hidden_sign_pattern(dn_field, pts) == ref).all(axis=1)
            fd[:, c] = (up_field.eval(pts) - dn_field.eval(pts)) / (2 * h)
        assert stable.sum() > 50
        denom = np.maximum(np.abs(fd[stable]), 1e-9)
        assert (np.abs(sens[stable] - fd[stable]) / denom).max() < 1e-3


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# networks with and without a latent code and a d_max clamp, and the
# benchmark's 3x128 wavy patch
ORACLE_NETS = {
    "plain": lambda: random_mlp(hidden=(16, 16), encoding_order=4, seed=2),
    "latent": lambda: random_mlp(hidden=(16, 12), encoding_order=3, latent_dim=5,
                                 seed=4).with_params([0.3, -0.1, 0.2, 0.05, -0.4]),
    "dmax": lambda: random_mlp(hidden=(16, 16), encoding_order=5, d_max=0.2, seed=5),
    "latent-dmax": lambda: random_mlp(hidden=(8, 8, 8), encoding_order=2, latent_dim=3,
                                      d_max=0.3, seed=6).with_params([0.2, 0.1, -0.3]),
    "wavy-patch": lambda: wavy_patch_mlp(1),
}

# query sizes on either side of the value pass's block edges, up to a chunk
B = VALUE_BLOCK
EDGE_SIZES = [1, B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, CHUNK - 1, CHUNK]


# lattice corners: few distinct coordinates, each repeated across many rows;
# 35,937 corners, more than a chunk
LATTICE = GridSpec(33, (-1.0037,) * 3, (0.9963,) * 3)
# query sizes on either side of the block edges and the feature-table windows
W = TABLE_WINDOW
LATTICE_SIZES = sorted({*EDGE_SIZES, W - 1, W, W + 1, 2 * W + 1})
NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0123], dtype=np.int64).view(np.float64)[0]
COORDINATE_SETS = {
    "repeated": np.random.default_rng(1).uniform(-1, 1, 7),
    "signed-zeros": np.array([0.0, -0.0, 0.25, -0.25]),
    "non-finite": np.array([0.0, -0.0, 1 / 3, np.nan, NAN_PAYLOAD, np.inf, -np.inf]),
}


def assert_queries_bitwise(field, pts):
    """Every query of ``field`` at ``pts`` byte for byte against the
    allocating pass, which encodes every coordinate directly."""
    u, g, s, _ = allocating_mlp_query(field, pts, True, True)
    assert_bitwise(field.eval(pts), u)
    assert_bitwise(field.grad_x(pts), g)
    ug = field.eval_grad(pts)
    assert_bitwise(ug[0], u)
    assert_bitwise(ug[1], g)
    if field.param_dim:
        assert_bitwise(field.param_sensitivity(pts), s)


def traced_peak(query, pts) -> int:
    """The ``tracemalloc`` peak of one call ``query(pts)``, after a warm-up."""
    query(pts[:10])
    tracemalloc.start()
    try:
        query(pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kept_masks(field, pts, monkeypatch) -> np.ndarray:
    """The rectifier masks the forward pass of ``field.eval_grad(pts)``
    keeps for the reverse pass, as one (n, hidden units) array."""
    kept = []
    forward = MlpUdf._forward

    def spy(self, x, out, masks=None):
        kept.append(masks)
        return forward(self, x, out, masks)
    monkeypatch.setattr(MlpUdf, "_forward", spy)
    field.eval_grad(pts)
    return np.concatenate([np.concatenate(block, axis=1) for block in kept])


class TestInPlacePass:
    """The in-place forward pass and the reverse pass that reads the
    encoding's sines and cosines give the bits of the allocating pass."""

    @pytest.mark.parametrize("name", list(ORACLE_NETS))
    def test_queries_match_allocating_pass(self, name, rng):
        field = ORACLE_NETS[name]()
        pts = rng.uniform(-1, 1, (2000, 3))
        u, g, s, _ = allocating_mlp_query(field, pts, True, True)
        assert_bitwise(field.eval(pts), u)
        assert_bitwise(field.grad_x(pts), g)
        ug = field.eval_grad(pts)
        assert_bitwise(ug[0], u)
        assert_bitwise(ug[1], g)
        if field.param_dim:
            assert_bitwise(field.param_sensitivity(pts), s)
        if field.d_max is not None:
            clamped = u == field.d_max
            assert 0 < clamped.sum() < len(pts)
            assert (g[clamped] == 0).all()

    @pytest.mark.parametrize("name", list(ORACLE_NETS))
    def test_hidden_sign_pattern_matches_allocating_pass(self, name, rng, monkeypatch):
        # the reverse pass reads the forward layers only through these masks;
        # two blocks (512 and 513 rows), so the masks span a block edge
        field = ORACLE_NETS[name]()
        pts = rng.uniform(-1, 1, (2 * B + 1, 3))
        masks = kept_masks(field, pts, monkeypatch)
        assert masks.shape == (2 * B + 1, sum(field.layer_sizes[1:-1]))
        np.testing.assert_array_equal(masks, allocating_hidden_sign_pattern(field, pts)[:, :-1])

    @pytest.mark.parametrize("n", EDGE_SIZES)
    @pytest.mark.parametrize("name", list(ORACLE_NETS))
    def test_block_edges_match_allocating_pass(self, name, n, rng):
        assert_queries_bitwise(ORACLE_NETS[name](), rng.uniform(-1, 1, (n, 3)))

    def test_values_pass_holds_one_block(self, rng):
        # a whole-chunk pass of the 3x128 network keeps two 32 MB activations
        # alive (72 MB traced); row blocks keep under 1.5 MB, and one feature
        # table per 2,048-row window of scattered points adds about 1.3 MB
        assert traced_peak(wavy_patch_mlp(1).eval, rng.uniform(-1, 1, (CHUNK, 3))) < 4 * 2 ** 20

    def test_lattice_values_pass_holds_one_block(self):
        # a chunk of lattice corners has few distinct coordinates, so its
        # feature tables are small; the layer buffers set the peak
        assert traced_peak(wavy_patch_mlp(1).eval, LATTICE.corner_points()[:CHUNK]) < 4 * 2 ** 20

    @pytest.mark.parametrize("query", ["eval_grad", "param_sensitivity"])
    def test_reverse_pass_keeps_masks_not_activations(self, query, rng):
        # a reverse pass that kept every float layer of a whole chunk would
        # trace 179 MB; the blocked forward pass keeps only the input and one
        # byte per hidden unit and row, so the reverse pass's own deltas set
        # the peak (88 MB)
        field = wavy_patch_mlp(1)
        pts = rng.uniform(-1, 1, (CHUNK, 3))
        assert traced_peak(getattr(field, query), pts) < 100 * 2 ** 20

    @pytest.mark.parametrize("query", ["eval_grad", "param_sensitivity"])
    def test_reverse_pass_reuses_two_buffers(self, query, rng):
        # two reused (n, 128) product buffers, each mask dropped once applied
        # and the second buffer made after the first mask is dropped: 84.4 MiB
        # traced, against 88.3 MiB for a new product array per layer. The
        # bound adds 2.6 MiB, about 10 float (n,) arrays of a chunk
        field = wavy_patch_mlp(1)
        pts = rng.uniform(-1, 1, (CHUNK, 3))
        assert traced_peak(getattr(field, query), pts) < 87 * 2 ** 20

    def test_nan_bias_propagates_as_before(self, rng):
        field = random_mlp(hidden=(8, 8), encoding_order=2, latent_dim=2,
                           d_max=0.4, seed=3)
        field.biases[1][2] = np.nan
        pts = rng.uniform(-1, 1, (100, 3))
        u, g, s, _ = allocating_mlp_query(field, pts, True, True)
        assert np.isnan(u).all()
        assert_bitwise(field.eval(pts), u)
        assert_bitwise(field.grad_x(pts), g)
        assert_bitwise(field.param_sensitivity(pts), s)


class TestFeatureTable:
    """Queries that encode each distinct coordinate once give the bits of
    the direct encoding, on lattice corners and on repeated, signed-zero and
    non-finite coordinates."""

    @pytest.mark.parametrize("n", LATTICE_SIZES)
    @pytest.mark.parametrize("name", list(ORACLE_NETS))
    def test_lattice_corners_match_allocating_pass(self, name, n):
        # start mid-row, so windows and blocks cut lattice rows
        assert_queries_bitwise(ORACLE_NETS[name](), LATTICE.corner_points()[37:37 + n])

    @pytest.mark.parametrize("kind", list(COORDINATE_SETS))
    @pytest.mark.parametrize("name", list(ORACLE_NETS))
    def test_repeated_coordinates_match_allocating_pass(self, name, kind, rng):
        pts = rng.choice(COORDINATE_SETS[kind], (2 * W + 1, 3))
        with np.errstate(invalid="ignore"):
            assert_queries_bitwise(ORACLE_NETS[name](), pts)

    @pytest.mark.parametrize("layout", ["contiguous", "strided-rows", "strided-columns"])
    @pytest.mark.parametrize("order", [0, 1, 5])
    def test_positional_encoding_matches_direct_encoding(self, order, layout, rng):
        pts = np.concatenate([LATTICE.corner_points()[:1500],
                              rng.choice(COORDINATE_SETS["non-finite"], (500, 3)),
                              rng.uniform(-1, 1, (500, 3))])
        if layout == "strided-rows":
            pts = np.repeat(pts, 2, axis=0)[::2]
        elif layout == "strided-columns":
            pts = np.repeat(pts, 2, axis=1)[:, ::2]
        assert pts.flags.c_contiguous == (layout == "contiguous")
        with np.errstate(invalid="ignore"):
            table, inv = _feature_table(pts, order)
            # column 3 r + c holds table row r of coordinate c
            enc = table[:, inv].transpose(1, 0, 2).reshape(len(pts), -1)
            assert enc.shape == (len(pts), encoded_dim(order))
            assert_bitwise(enc, direct_positional_encoding(pts, order))

    @pytest.mark.parametrize("name", list(ORACLE_NETS))
    def test_sample_grid_matches_eager_pass(self, name):
        field = ORACLE_NETS[name]()
        assert_bitwise(sample_grid(field, LATTICE), eager_sample_grid(field, LATTICE, CHUNK)[0])


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        field = random_mlp(hidden=(8,), encoding_order=5, latent_dim=3,
                           d_max=0.5, seed=1)
        path = tmp_path / "net.json"
        field.save(path)
        back = MlpUdf.from_file(path, latent=[0.1, -0.2, 0.3])
        pts = rng.uniform(-1, 1, (20, 3))
        ref = field.with_params([0.1, -0.2, 0.3])
        np.testing.assert_allclose(back.eval(pts), ref.eval(pts))

    def test_layer_shape_mismatch_names_layer(self):
        d = encoded_dim(2)
        with pytest.raises(WeightFileError, match="layer 1"):
            MlpUdf(weights=[np.zeros((4, d)), np.zeros((1, 5))],
                   biases=[np.zeros(4), np.zeros(1)], encoding_order=2)

    def test_bias_mismatch_names_layer(self):
        d = encoded_dim(2)
        with pytest.raises(WeightFileError, match="layer 0"):
            MlpUdf(weights=[np.zeros((4, d))], biases=[np.zeros(3)],
                   encoding_order=2)

    def test_encoding_convention_mismatch_fails_loudly(self):
        # net built for order 2 but declared order 3 in the file
        field = random_mlp(hidden=(4,), encoding_order=2, seed=0)
        data = field.to_dict()
        data["encoding_order"] = 3
        with pytest.raises(WeightFileError, match="encoding convention"):
            MlpUdf.from_dict(data)

    def test_declared_layer_sizes_checked(self, tmp_path):
        field = random_mlp(hidden=(4,), encoding_order=2, seed=0)
        data = field.to_dict()
        data["layer_sizes"] = [99, 4, 1]
        path = tmp_path / "bad.json"
        json.dump(data, open(path, "w"))
        with pytest.raises(WeightFileError, match="layer_sizes"):
            MlpUdf.from_file(path)

    def test_missing_field_rejected(self):
        with pytest.raises(WeightFileError, match="missing field"):
            MlpUdf.from_dict({"weights": [], "biases": []})
