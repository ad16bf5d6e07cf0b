"""The corner table, the gradient gather and the weld against the
sort-based paths they replace (``tests/oracles.py``), bitwise."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from udfmesh import (GridSpec, MeshUdf, OpenCylinderUdf, SphereShellUdf, TriMesh,
                     extract_mesh_detailed, inflate_mesh, primitives, random_mlp,
                     sample_grid)
from udfmesh.extract import DEFAULT_GRAD_NORM_MIN, _mesh_cells, _pseudo_sign
from udfmesh.grid import _corner_subtable, _corner_table, _cull, _sample_corners, sample_band

from conftest import generic_spec
from oracles import (unique_cell_gradients, unique_corner_table,
                     unique_extract_mesh_detailed, unique_inflate_mesh, unique_weld)

BENCH_BOX = ((-1.0037,) * 3, (0.9963,) * 3)


def bench_spec(n):
    return GridSpec(n, *BENCH_BOX)


def bench_garment():
    """Open tube, a disk above it and a two-layer flap below it."""
    parts = [primitives.open_cylinder(0.45, -0.55, 0.25, 16, 4),
             primitives.disk(0.3, 0.45, 16),
             primitives.parallel_patches(0.5, -0.8, -0.77, 2)]
    base = np.cumsum([0] + [p.n_vertices for p in parts[:-1]])
    return TriMesh(np.vstack([p.vertices for p in parts]),
                   np.vstack([p.faces + b for p, b in zip(parts, base)]))


def cell_subsets(spec, rng):
    """Sorted cell lists: none, one, the cells on the lattice's max faces,
    random subsets of three densities and every cell."""
    m = spec.resolution - 1
    every = np.arange(spec.n_cells)
    ijk = spec.cell_origin_ijk(every)
    subsets = {"empty": every[:0], "first": every[:1], "last": every[-1:],
               "one": np.sort(rng.choice(every, 1)),
               "max-faces": every[(ijk == m - 1).any(axis=1)], "all": every}
    for p in (0.05, 0.3, 0.8):
        subsets[f"random-{p}"] = every[rng.random(len(every)) < p]
    return subsets


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def assert_same_mesh(a, b):
    assert_bitwise(a.vertices, b.vertices)
    assert_bitwise(a.faces, b.faces)


def counters(stats):
    out = dataclasses.asdict(stats)
    del out["timings"]
    return out


@pytest.mark.parametrize("n", [2, 3, 17, 65])
def test_corner_table_matches_unique(n):
    spec = generic_spec(n)
    rng = np.random.default_rng(n)
    for name, cells in cell_subsets(spec, rng).items():
        table = _corner_table(spec, cells)
        ref = unique_corner_table(spec, cells)
        assert_bitwise(table[0], ref[0])
        np.testing.assert_array_equal(table[1], ref[1], err_msg=name)
        assert table[1].shape == (len(cells), 8)
        for p in (0.0, 0.4, 1.0):
            keep = rng.random(len(cells)) < p
            sub, sub_ref = _corner_subtable(table, keep), unique_corner_table(spec, cells[keep])
            assert_bitwise(sub[0], sub_ref[0])
            np.testing.assert_array_equal(sub[1], sub_ref[1], err_msg=name)


@pytest.mark.parametrize("n", [2, 3, 33])
@pytest.mark.parametrize("field", [SphereShellUdf(0.45), random_mlp((16, 16), 3, seed=2)],
                         ids=["bounded", "whole-lattice"])
def test_sample_band_hands_on_its_table(field, n):
    spec = generic_spec(n)
    for lower, upper in ((-np.inf, spec.cell_diagonal), (0.05, 0.05)):
        cells, u8, (ids, index), _ = sample_band(field, spec, lower, upper)
        ref_ids, ref_index = unique_corner_table(spec, cells)
        assert_bitwise(ids, ref_ids)
        np.testing.assert_array_equal(index, ref_index)
        values = _sample_corners(field, spec, None, False, ids)[0]
        assert_bitwise(u8, values[index])


@pytest.mark.parametrize("n", [3, 65])
def test_gradient_gather_matches_unique(n):
    field, spec = SphereShellUdf(0.5), generic_spec(n)
    rng = np.random.default_rng(7)
    gradients = lambda ids: _sample_corners(field, spec, None, True, ids)[1]  # noqa: E731
    for name, cells in cell_subsets(spec, rng).items():
        keep = rng.random(len(cells)) < 0.5
        ids, index = _corner_subtable(_corner_table(spec, cells), keep)
        ref = unique_cell_gradients(gradients, spec, spec.cell_origin_ijk(cells[keep]))
        assert_bitwise(gradients(ids)[index], ref)


@pytest.mark.parametrize("n", [2, 3, 9, 17])
def test_weld_matches_unique(n):
    # independent random signed values per cell: the cells sharing an edge
    # place its vertex differently, so this also pins down which cell
    # computes it, and the signs disagree on many shared edges
    spec = generic_spec(n)
    rng = np.random.default_rng(100 + n)
    every = _corner_table(spec, np.arange(spec.n_cells))
    seen = 0
    for name, cells in cell_subsets(spec, rng).items():
        for zeros in (False, True):
            s = rng.uniform(-1.0, 1.0, (len(cells), 8))
            if zeros:
                s[rng.random(s.shape) < 0.2] = 0.0
                s[rng.random(s.shape) < 0.1] = -0.0
            mesh, vertex_ids, disagreements = _mesh_cells(spec, s, *_corner_table(spec, cells))
            ref, ref_ids, ref_disagreements = unique_weld(spec, spec.cell_origin_ijk(cells), s)
            assert_same_mesh(mesh, ref)
            assert_bitwise(vertex_ids, ref_ids)
            assert disagreements == ref_disagreements, name
            # the rows of a table of every cell: the same corners, other ranks
            wide, wide_ids, wide_disagreements = _mesh_cells(spec, s, every[0], every[1][cells])
            assert_same_mesh(wide, ref)
            assert_bitwise(wide_ids, ref_ids)
            assert wide_disagreements == ref_disagreements, name
            seen += disagreements
    assert (seen > 0) == (n > 2)      # a lone cell shares no edge


def signed_candidates(field, spec):
    """The cells extraction welds: (s, tight, band), their signed corner
    values, their own corner table, and their rows of the corner table that
    ``sample_band`` handed on."""
    _, u8, (band_ids, band_index), _ = sample_band(field, spec, -np.inf, spec.cell_diagonal)
    keep = _cull(u8, spec, 1.0)
    ids, index = _corner_subtable((band_ids, band_index), keep)
    g8 = _sample_corners(field, spec, None, True, ids)[1][index]
    s, _, has_anchor = _pseudo_sign(u8[keep], g8, DEFAULT_GRAD_NORM_MIN)
    return s, (ids, index[has_anchor]), (band_ids, band_index[keep][has_anchor])


def extraction_cases():
    garment = MeshUdf(bench_garment())
    mlp = random_mlp(hidden=(16, 16), encoding_order=3, latent_dim=4, seed=5)
    cases = [(f"cylinder-{r}", OpenCylinderUdf(r, (-0.6, 0.6)), bench_spec(65))
             for r in (0.6, 0.55, 0.5, 0.47, 0.45)]
    cases += [("sphere-33", SphereShellUdf(0.45), generic_spec(33)),
              ("sphere-dyadic-33", SphereShellUdf(0.5), GridSpec(33)),
              ("sphere-2", SphereShellUdf(0.3), GridSpec(2, (-0.5,) * 3, (0.5,) * 3)),
              ("sphere-3", SphereShellUdf(0.3), generic_spec(3)),
              ("garment-33", garment, bench_spec(33)),
              ("garment-65", garment, bench_spec(65)),
              ("mlp-17", mlp, generic_spec(17)),
              ("mlp-33", mlp.with_params([0.3, -0.2, 0.1, 0.25]), generic_spec(33))]
    return cases


@pytest.mark.parametrize("name,field,spec", extraction_cases(),
                         ids=[c[0] for c in extraction_cases()])
def test_extraction_matches_unique_paths(name, field, spec):
    branches = [{}, {"samples": sample_grid(field, spec)}]
    for kwargs in branches:
        mesh, stats = extract_mesh_detailed(field, spec, **kwargs)
        ref, ref_stats = unique_extract_mesh_detailed(field, spec, **kwargs)
        assert_same_mesh(mesh, ref)
        assert counters(stats) == counters(ref_stats)
    for eps in (0.55 * float(spec.step.max()), 0.1):
        assert_same_mesh(inflate_mesh(field, spec, eps), unique_inflate_mesh(field, spec, eps))


@pytest.mark.parametrize("name,field,spec", extraction_cases(),
                         ids=[c[0] for c in extraction_cases()])
def test_weld_reads_the_band_table(name, field, spec):
    s, tight, band = signed_candidates(field, spec)
    mesh, vertex_ids, disagreements = _mesh_cells(spec, s, *tight)
    wide, wide_ids, wide_disagreements = _mesh_cells(spec, s, *band)
    assert_same_mesh(wide, mesh)
    assert_bitwise(wide_ids, vertex_ids)
    assert wide_disagreements == disagreements


def test_weld_memory_per_signed_cell():
    # the traced peak of the weld, its output included, is about 470 B per
    # signed cell of the bench garment at 129^3
    spec = bench_spec(129)
    s, (ids, index), _ = signed_candidates(MeshUdf(bench_garment()), spec)
    _mesh_cells(spec, s[:10], ids, index[:10])
    tracemalloc.start()
    try:
        mesh = _mesh_cells(spec, s, ids, index)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_faces > 0
    assert peak <= 600 * len(s)
