"""Hostile inputs and the outcome each one gets.

Every case names what it feeds in and what must come out: a ``ValueError``
whose message names the bad argument (for a value lattice, the
``NonFiniteFieldError`` that ``sample_grid`` raises, naming the corner), or,
at the command line, exit code 2 with one ``error:`` line and no traceback.
Inputs come from seeded numpy generators.
"""

import dataclasses
import re
import struct

import numpy as np
import pytest

from udfmesh import (GridSpec, MeshUdf, MlpUdf, OpenCylinderUdf, RectanglePatchUdf,
                     SphereShellUdf, TranslatedMeshUdf, TriMesh, assemble_jacobian,
                     directional_gradcheck, evaluate_pair, extract_mesh,
                     extract_mesh_detailed, fit_point_cloud, inflate_mesh,
                     mesh_signed_grid, parametric_field, primitives, random_mlp,
                     remove_spurious_facets, sample_grid, sample_surface, smooth_borders,
                     write_ply)
from udfmesh import diffgeom, extract, metrics
from udfmesh.distance import COORD_LIMIT
from udfmesh.fields import PARAMETRIC_FAMILIES
from udfmesh.grid import THREADS_ENV_VAR, NonFiniteFieldError, resolve_threads

from test_cli import faceless_obj, patch_obj, run
from test_io import MALFORMED_PLY, malformed_ply

NAN, INF = float("nan"), float("inf")


def soup(seed, n_faces=20):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (3 * n_faces, 3)), rng.permutation(3 * n_faces).reshape(-1, 3)


# -- TriMesh -------------------------------------------------------------------

@pytest.mark.parametrize("bad", [NAN, INF, -INF])
@pytest.mark.parametrize("seed", [0, 1])
def test_non_finite_vertex_is_named(seed, bad):
    verts, faces = soup(seed)
    row = np.random.default_rng(seed).integers(len(verts))
    verts[row, seed % 3] = bad
    with pytest.raises(ValueError, match=rf"^vertex {row} is not finite"):
        TriMesh(verts, faces)
    good = TriMesh(soup(seed)[0], faces)
    with pytest.raises(ValueError, match=rf"^vertex {row} is not finite"):
        good.with_vertices(verts)


@pytest.mark.parametrize("index,message", [(-1, "negative face index"),
                                           (60, "face index out of range")])
def test_bad_face_index(index, message):
    verts, faces = soup(2)
    faces[7, 1] = index
    with pytest.raises(ValueError, match=message):
        TriMesh(verts, faces)


def test_mesh_arrays_refuse_writes():
    verts, faces = soup(3)
    mesh = TriMesh(verts, faces)
    for name in ("vertices", "faces"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(mesh, name)[0, 0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mesh, name, getattr(mesh, name).copy())
    # the caller's writeable arrays were copied, so writing them leaves the
    # mesh as built; read-only faces are shared, not copied
    verts[0, 0], faces[0] = 9.0, faces[1]
    assert mesh.vertices[0, 0] != 9.0 and (mesh.faces[0] != faces[0]).any()
    moved = mesh.with_vertices(mesh.vertices + 1.0)
    assert np.shares_memory(moved.faces, mesh.faces)


# -- mesh distances ------------------------------------------------------------

@pytest.mark.parametrize("big", [1e200, -1e76, 2 * COORD_LIMIT])
def test_vertex_whose_squares_overflow_is_named(big):
    sphere = primitives.uv_sphere()
    verts = sphere.vertices.copy()
    verts[17, 1] = big
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=r"^vertex 17 is not finite or exceeds 1e\+75"):
            MeshUdf(TriMesh(verts, sphere.faces))


def test_scaled_mesh_whose_squares_overflow_is_named():
    sphere = primitives.uv_sphere()
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=r"^vertex 0 is not finite or exceeds"):
            MeshUdf(TriMesh(sphere.vertices * 1e200, sphere.faces))


@pytest.mark.parametrize("big", [1e200, -1e76, 2 * COORD_LIMIT])
def test_query_point_whose_squares_overflow_is_named(big):
    field = MeshUdf(primitives.uv_sphere())
    pts = np.random.default_rng(4).uniform(-1, 1, (5, 3))
    pts[3, 2] = big
    with np.errstate(all="raise"):
        for query in (field.eval, field.eval_grad):
            with pytest.raises(ValueError, match=r"^query point 3 is not finite or exceeds"):
                query(pts)


def test_coordinates_at_the_limit_stay_finite():
    # a mesh and queries spanning the whole allowed range: every product of
    # the closest-point walk stays finite, and the distances are those of
    # the unit-scale sphere, scaled
    sphere = primitives.uv_sphere()
    pts = np.random.default_rng(5).uniform(-1, 1, (200, 3))
    pts[0] = (1.0, 1.0, -1.0)
    with np.errstate(all="raise"):
        u = MeshUdf(TriMesh(sphere.vertices * COORD_LIMIT, sphere.faces)).eval(pts * COORD_LIMIT)
    np.testing.assert_allclose(u / COORD_LIMIT, MeshUdf(sphere).eval(pts), rtol=1e-12)


# -- field families ------------------------------------------------------------

FAMILIES = sorted(PARAMETRIC_FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_family_non_finite_parameter(family):
    with pytest.raises(ValueError, match="must be finite"):
        parametric_field(family, [NAN])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("count", [2, 3])
def test_family_wrong_arity(family, count):
    with pytest.raises(ValueError, match=rf"{family!r} takes 1 parameter.*got {count}"):
        parametric_field(family, np.full(count, 0.4))


@pytest.mark.parametrize("build,message", [
    (lambda: OpenCylinderUdf(0.5, (0.6, -0.6)), "z_range must increase"),
    (lambda: OpenCylinderUdf(0.5, (0.2, 0.2)), "z_range must increase"),
    (lambda: RectanglePatchUdf(0.5, -0.5, (0.5, -0.5)), "y_range must increase"),
    (lambda: RectanglePatchUdf(-0.5, 0.5), "x_max must exceed x_min"),
], ids=["cylinder-z", "cylinder-z-empty", "patch-y", "patch-x"])
def test_family_reversed_range(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# -- clamps and latent codes --------------------------------------------------

@pytest.mark.parametrize("d_max", [-1.0, 0.0, NAN, INF], ids=["negative", "zero", "nan", "inf"])
@pytest.mark.parametrize("build", [
    lambda d: MeshUdf(primitives.square_patch(), d_max=d),
    lambda d: TranslatedMeshUdf(MeshUdf(primitives.square_patch(), d_max=d), (0.1, 0, 0)),
    lambda d: random_mlp(hidden=(4,), encoding_order=2, d_max=d),
], ids=["mesh", "translated-mesh", "mlp"])
def test_clamp_must_be_finite_and_positive(build, d_max):
    # a negative clamp made every value negative, a NaN one every value NaN
    with pytest.raises(ValueError, match="^d_max must be finite and positive"):
        build(d_max)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_mlp_latent_must_be_finite(bad):
    net = random_mlp(hidden=(4,), encoding_order=2, latent_dim=3, seed=1)
    latent = [0.1, bad, 0.2]
    with pytest.raises(ValueError, match="^latent must be finite"):
        net.with_latent(latent)
    with pytest.raises(ValueError, match="^latent must be finite"):
        net.with_params(latent)
    with pytest.raises(ValueError, match="^latent must be finite"):
        MlpUdf.from_dict(net.to_dict(), latent)


# -- value lattices ------------------------------------------------------------

SPEC17 = GridSpec(17, (-1.0037,) * 3, (0.9963,) * 3)


def sphere_lattice():
    return sample_grid(SphereShellUdf(0.5), SPEC17)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_samples_non_finite_corner_is_named(bad):
    # NaN on a z-line and at a corner before it in [i, j, k] order; the
    # first in x-fastest order is [8, 8, 0]. The cells around such corners
    # were culled without a word, taking the mesh from 560 to 536 faces
    values = sphere_lattice()
    assert extract_mesh_detailed(SphereShellUdf(0.5), SPEC17, samples=values)[0].n_faces == 560
    values[8, 8, :] = bad
    values[3, 8, 8] = bad
    with pytest.raises(NonFiniteFieldError, match=r"^samples hold a non-finite value at "
                       r"corner \[8, 8, 0\] \(-0.0037, -0.0037, -1.0037\)"):
        extract_mesh_detailed(SphereShellUdf(0.5), SPEC17, samples=values)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_signed_lattice_non_finite_corner_is_named(bad):
    values = sphere_lattice() - 0.05
    values[5, 2, 9] = bad
    values[15, 1, 9] = bad
    with pytest.raises(NonFiniteFieldError, match=r"^values hold a non-finite value at "
                       r"corner \[15, 1, 9\]"):
        mesh_signed_grid(values, SPEC17)


@pytest.mark.parametrize("shape", [(17, 17, 16), (17, 17, 17, 3), (4913,)],
                         ids=["short-axis", "with-gradients", "flat"])
def test_signed_lattice_shape(shape):
    with pytest.raises(ValueError, match=r"^values of shape .* do not fit a 17\^3 lattice"):
        mesh_signed_grid(np.zeros(shape), SPEC17)


# -- extraction, fitting and smoothing arguments ------------------------------

def untouched(*args, **kwargs):
    raise AssertionError("ran work before refusing an argument")


@pytest.mark.parametrize("name,value", [
    ("cull_factor", NAN), ("cull_factor", INF), ("cull_factor", -1.0),
    ("grad_norm_min", NAN), ("grad_norm_min", INF), ("grad_norm_min", -0.1),
])
def test_extraction_argument_is_refused_before_sampling(name, value, monkeypatch):
    monkeypatch.setattr(extract, "sample_band", untouched)
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        extract_mesh_detailed(SphereShellUdf(0.5), SPEC17, **{name: value})


@pytest.mark.parametrize("name,value", [
    ("iters", 0), ("iters", -3), ("n_surface", 0), ("seed", -1),
    ("lr", NAN), ("lr", -0.5), ("lr", 0.0), ("lr", INF),
    ("lambda_reg", NAN), ("lambda_reg", -1.0), ("lambda_reg", INF),
    ("alpha", 0.0), ("alpha", -1.0), ("alpha", NAN),
])
def test_fit_argument_is_refused_before_extraction(name, value, monkeypatch):
    monkeypatch.setattr(diffgeom, "extract_mesh", untouched)
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        fit_point_cloud(SphereShellUdf(0.5), np.zeros((4, 3)), SPEC17, **{name: value})


@pytest.mark.parametrize("name,value", [("eps", 0.0), ("eps", NAN), ("eps", -1e-3),
                                        ("alpha", 0.0), ("alpha", -1.0), ("alpha", INF)])
def test_gradcheck_argument_is_refused_before_extraction(name, value, monkeypatch):
    monkeypatch.setattr(diffgeom, "extract_mesh", untouched)
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        directional_gradcheck(SphereShellUdf(0.5), SPEC17, np.ones(1), **{name: value})


@pytest.mark.parametrize("eps", [NAN, INF, -0.1])
def test_inflation_isolevel_is_refused(eps):
    # a NaN or infinite eps met no cell and returned an empty shell
    with pytest.raises(ValueError, match=r"^eps must be positive and finite"):
        inflate_mesh(SphereShellUdf(0.5), SPEC17, eps)


@pytest.mark.parametrize("alpha", [0.0, -1.0, NAN, INF])
def test_jacobian_probe_distance_is_refused(alpha):
    with pytest.raises(ValueError, match=r"^alpha must be positive and finite"):
        assemble_jacobian(primitives.square_patch(), SphereShellUdf(0.5), alpha)


@pytest.mark.parametrize("name,value", [("steps", -2), ("weight", NAN), ("weight", 7.0),
                                        ("weight", -0.5)])
def test_smoothing_argument_is_refused(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        smooth_borders(primitives.square_patch(), **{name: value})


@pytest.mark.parametrize("tol", [NAN, INF])
def test_prune_tolerance_is_refused(tol):
    # a NaN tolerance dropped every face of the 560-face sphere without a word
    mesh = extract_mesh(SphereShellUdf(0.5), SPEC17)
    with pytest.raises(ValueError, match=r"^tol must be positive and finite"):
        remove_spurious_facets(mesh, SphereShellUdf(0.5), tol)


# -- scoring arguments ---------------------------------------------------------

@pytest.mark.parametrize("name,value", [("n_samples", 0), ("n_samples", -5), ("seed", -1),
                                        ("image_size", 0), ("image_size", -3)])
def test_scoring_argument_is_refused_before_sampling(name, value, monkeypatch):
    # n_samples=0 ended in "chamfer requires non-empty point sets", seed=-1 in
    # numpy's own message, image_size=0 in IC 0 after eight warnings
    monkeypatch.setattr(metrics, "sample_surface", untouched)
    patch = primitives.square_patch()
    with pytest.raises(ValueError, match=rf"^{name} must be at least"):
        evaluate_pair(patch, patch, **{name: value})


@pytest.mark.parametrize("name,value", [("n", 0), ("n", -1), ("seed", -1)])
def test_surface_sampling_argument_is_refused(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be at least"):
        sample_surface(primitives.square_patch(), **{"n": 10, name: value})


# -- worker counts -------------------------------------------------------------

@pytest.mark.parametrize("threads", [0, -4, 2.5, "2", np.float64(3.0)])
def test_thread_count_argument_is_refused(threads, monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    with pytest.raises(ValueError, match=r"^threads must be an integer of at least 1, "
                       r"got " + re.escape(repr(threads))):
        resolve_threads(threads)
    with pytest.raises(ValueError, match=r"^threads must be an integer"):
        sample_grid(SphereShellUdf(0.5), SPEC17, threads=threads)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", " "])
def test_thread_count_variable_is_refused(value, monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, value)
    with pytest.raises(ValueError, match=rf"^{THREADS_ENV_VAR} must be an integer of at "
                       r"least 1, got " + re.escape(repr(value))):
        resolve_threads()
    # an argument wins over the variable, so the variable is not read
    assert resolve_threads(np.int64(2)) == 2


def test_huge_thread_count_is_kept():
    # only resolved here: sampling with it starts one helper per whole chunk
    # beyond the first, and no more (tests/test_grid.py::TestWorkerLoop)
    assert resolve_threads(10 ** 6) == 10 ** 6


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
@pytest.mark.parametrize("command", [
    lambda tmp: ["mesh", "--family", "sphere", "--params", "0.5", "--res", "9",
                 "--out", tmp / "o.obj"],
    lambda tmp: ["gradcheck", "--family", "sphere", "--params", "0.5", "--res", "9"],
], ids=["mesh", "gradcheck"])
def test_cli_refuses_thread_variable(command, value, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(THREADS_ENV_VAR, value)
    assert run(*command(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {THREADS_ENV_VAR} must be an integer of at least 1, "
                                f"got {value!r}"]


# -- command line --------------------------------------------------------------

def obj_with_face(tmp_path, face):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf " + " ".join(map(str, face)) + "\n")
    return path


def ply_with_face(tmp_path, face):
    path = tmp_path / "bad.ply"
    write_ply(primitives.square_patch(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-13] + struct.pack("<Biii", 3, *face))
    return path


def empty_xyz(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("")
    return path


@pytest.mark.parametrize("argv", [
    lambda tmp: ["metrics", "--pred", obj_with_face(tmp, (1, 2, 4)), "--gt", patch_obj(tmp)],
    lambda tmp: ["metrics", "--pred", obj_with_face(tmp, (1, -5, 3)), "--gt", patch_obj(tmp)],
    lambda tmp: ["metrics", "--pred", patch_obj(tmp), "--gt", ply_with_face(tmp, (0, 1, 7))],
    lambda tmp: ["mesh", "--mesh", ply_with_face(tmp, (0, -1, 2)), "--res", "9",
                 "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", "--family", "patch", "--params", "0.5,-0.5,-0.4", "--res", "9",
                 "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", "--family", "cylinder", "--params", "0.5,0.1", "--res", "9",
                 "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", "--mesh", patch_obj(tmp), "--clamp", "-1", "--res", "9",
                 "--out", tmp / "o.obj"],
    *[lambda tmp, case=case: ["metrics", "--pred", malformed_ply(tmp, case),
                              "--gt", patch_obj(tmp)] for case in sorted(MALFORMED_PLY)],
    lambda tmp: ["mesh", "--mesh", faceless_obj(tmp), "--res", "9", "--out", tmp / "o.obj"],
    lambda tmp: ["fit-pc", "--family", "sphere", "--params", "0.5", "--res", "9",
                 "--target", empty_xyz(tmp)],
], ids=["obj-face-out-of-range", "obj-face-negative", "ply-face-out-of-range",
        "ply-face-negative", "patch-arity", "cylinder-arity", "negative-clamp",
        *(f"ply-{case}" for case in sorted(MALFORMED_PLY)), "faceless-mesh-field",
        "fit-empty-target"])
@pytest.mark.filterwarnings("error")
def test_cli_exits_2_with_one_error_line(argv, tmp_path, capsys):
    # a warning would reach stderr as a second line, so it fails the case;
    # --clamp is named only when it was given
    args = [str(a) for a in argv(tmp_path)]
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert [line.startswith("error:") for line in err.splitlines()] == [True]
    assert "Traceback" not in err
    assert ("--clamp" in err) == ("--clamp" in args)
