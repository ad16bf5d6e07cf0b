"""Hostile inputs and the outcome each one gets.

Every case names what it feeds in and what must come out: a ``ValueError``
whose message names the bad argument, or, at the command line, exit code 2
with one ``error:`` line and no traceback. Inputs come from seeded numpy
generators.
"""

import dataclasses
import struct

import numpy as np
import pytest

from udfmesh import (OpenCylinderUdf, RectanglePatchUdf, TriMesh,
                     parametric_field, primitives, write_ply)
from udfmesh.fields import PARAMETRIC_FAMILIES

from test_cli import patch_obj, run

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
], ids=["obj-face-out-of-range", "obj-face-negative", "ply-face-out-of-range",
        "ply-face-negative", "patch-arity", "cylinder-arity"])
def test_cli_exits_2_with_one_error_line(argv, tmp_path, capsys):
    assert run(*argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert [line.startswith("error:") for line in err.splitlines()] == [True]
    assert "Traceback" not in err
