import json
import re
import struct
import warnings

import numpy as np
import pytest

from udfmesh import (MeshUdf, SphereShellUdf, dump_grid, extract_mesh, load_grid_dump,
                     primitives, read_mesh, read_obj, read_ply, read_xyz, sample_grid,
                     write_obj, write_ply, write_xyz)
from udfmesh.grid import GridSpec
from udfmesh.io import MeshFormatError
from udfmesh.mesh import empty_mesh

from conftest import generic_spec
from oracles import struct_write_ply
from test_corner_table import bench_garment, bench_spec


# a binary PLY of the UV sphere, broken five ways; none of them may escape
# the reader as anything but a MeshFormatError naming the file
MALFORMED_PLY = {
    "face-data-short": lambda blob: blob[:-5],
    "vertex-data-short": lambda blob: blob[:blob.index(b"end_header\n") + 111],
    "vertex-count-not-integer": lambda blob: re.sub(rb"element vertex \d+",
                                                    b"element vertex x", blob),
    "blank-header-line": lambda blob: blob.replace(b"property double y\n",
                                                   b"property double y\n\n"),
    "face-count-missing": lambda blob: re.sub(rb"element face \d+", b"element face", blob),
}


def malformed_ply(tmp_path, case):
    path = tmp_path / f"{case}.ply"
    write_ply(primitives.uv_sphere(), path)
    path.write_bytes(MALFORMED_PLY[case](path.read_bytes()))
    return path


def ply_with_vertex_properties(path, vertices, faces, types):
    """A binary PLY whose vertex element has one property per entry of
    ``types``: the first three are x, y, z and hold ``vertices``, the rest
    hold 7."""
    names = ["x", "y", "z"] + [f"extra{i}" for i in range(len(types) - 3)]
    record = np.dtype([(n, {"float": "<f4", "double": "<f8"}[t])
                       for n, t in zip(names, types)])
    rows = np.full(len(vertices), 7, record)
    for axis, name in enumerate("xyz"):
        rows[name] = vertices[:, axis]
    header = (f"ply\nformat binary_little_endian 1.0\nelement vertex {len(vertices)}\n"
              + "".join(f"property {t} {n}\n" for t, n in zip(types, names))
              + f"element face {len(faces)}\nproperty list uchar int vertex_indices\n"
              "end_header\n")
    packed = b"".join(struct.pack("<Biii", 3, *map(int, f)) for f in faces)
    path.write_bytes(header.encode("ascii") + rows.tobytes() + packed)


@pytest.fixture
def sphere_mesh():
    return extract_mesh(SphereShellUdf(0.5), generic_spec(17))


class TestObj:
    def test_round_trip_within_ascii_precision(self, sphere_mesh, tmp_path):
        path = tmp_path / "m.obj"
        write_obj(sphere_mesh, path)
        back = read_obj(path)
        assert back.n_vertices == sphere_mesh.n_vertices
        np.testing.assert_array_equal(back.faces, sphere_mesh.faces)
        assert np.abs(back.vertices - sphere_mesh.vertices).max() < 1e-6

    def test_polygon_faces_fan_triangulated(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = read_obj(path)
        assert mesh.n_faces == 2

    def test_slash_indices_supported(self, tmp_path):
        path = tmp_path / "tex.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
        assert read_obj(path).n_faces == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_vertex_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 {value} 0\nf 1 2 3\n")
        with pytest.raises(MeshFormatError, match="bad.obj:3: .*vertex 3 is not finite"):
            read_obj(path)

    @pytest.mark.parametrize("text,line", [
        ("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n", "2: .*vertex 2 has 2 coordinates"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 \xff\nf 1 2 3\n", "3: "),
    ], ids=["two-coordinates", "not-utf8"])
    def test_bad_vertex_line_names_file_and_line(self, text, line, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(MeshFormatError, match=r"bad\.obj:" + line):
            read_obj(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 zebra\n")
        with pytest.raises(MeshFormatError, match="bad.obj:2"):
            read_obj(path)


class TestPly:
    def test_round_trip_exact(self, sphere_mesh, tmp_path):
        path = tmp_path / "m.ply"
        write_ply(sphere_mesh, path)
        back = read_ply(path)
        np.testing.assert_array_equal(back.vertices, sphere_mesh.vertices)
        np.testing.assert_array_equal(back.faces, sphere_mesh.faces)

    def test_obj_and_ply_agree_after_load(self, sphere_mesh, tmp_path):
        obj_path = tmp_path / "m.obj"
        ply_path = tmp_path / "m.ply"
        write_obj(sphere_mesh, obj_path)
        write_ply(sphere_mesh, ply_path)
        a = read_mesh(str(obj_path))
        b = read_mesh(str(ply_path))
        np.testing.assert_array_equal(a.faces, b.faces)
        assert np.abs(a.vertices - b.vertices).max() < 1e-6

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_vertex_rejected(self, sphere_mesh, tmp_path, value):
        path = tmp_path / "bad.ply"
        write_ply(sphere_mesh, path)
        # overwrite y of vertex 5 in the double-precision vertex block
        blob = bytearray(path.read_bytes())
        at = blob.index(b"end_header\n") + len(b"end_header\n") + (5 * 3 + 1) * 8
        blob[at:at + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(MeshFormatError, match="bad.ply: vertex 5 is not finite"):
            read_ply(path)

    @pytest.mark.parametrize("mesh", [
        lambda: primitives.uv_sphere(),
        lambda: empty_mesh(),
        lambda: extract_mesh(MeshUdf(bench_garment()), bench_spec(65)),
    ], ids=["uv-sphere", "empty", "garment-65"])
    def test_write_matches_struct_encoder(self, mesh, tmp_path):
        mesh = mesh()
        write_ply(mesh, tmp_path / "a.ply")
        struct_write_ply(mesh, tmp_path / "b.ply")
        assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()
        back = read_ply(tmp_path / "a.ply")
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        assert back.faces.tobytes() == mesh.faces.astype(np.int64).tobytes()

    @pytest.mark.parametrize("types", [("float",) * 3, ("double",) * 3 + ("float",) * 2,
                                       ("float", "float", "float", "double")],
                             ids=["float", "double-extra-floats", "float-extra-double"])
    def test_vertex_property_types(self, types, tmp_path):
        patch = primitives.square_patch(side=0.7, z=0.1)
        path = tmp_path / "p.ply"
        ply_with_vertex_properties(path, patch.vertices, patch.faces, types)
        back = read_ply(path)
        dtype = np.float32 if types[0] == "float" else np.float64
        np.testing.assert_array_equal(back.vertices,
                                      patch.vertices.astype(dtype).astype(np.float64))
        np.testing.assert_array_equal(back.faces, patch.faces)

    @pytest.mark.parametrize("case", sorted(MALFORMED_PLY))
    def test_malformed_file_names_it(self, case, tmp_path):
        with pytest.raises(MeshFormatError, match=rf"^\S*{case}\.ply: "):
            read_ply(malformed_ply(tmp_path, case))

    @pytest.mark.parametrize("edit,message", [
        (lambda b: b.replace(b"element face 2", b"element face -2"), "and -2 faces"),
        (lambda b: b.replace(b"property double z\n", b""),
         "vertex properties 'double double'"),
        (lambda b: b.replace(b"property double z", b"property uchar z"), "are not x, y, z"),
        (lambda b: b.replace(b"format binary_little_endian", b"format ascii"),
         "little-endian"),
        (lambda b: b.replace(b"end_header\n", b""), "unterminated PLY header"),
    ], ids=["negative-count", "two-properties", "uchar-property", "ascii", "no-end-header"])
    def test_unsupported_header_names_file(self, edit, message, tmp_path):
        path = tmp_path / "bad.ply"
        write_ply(primitives.square_patch(), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(MeshFormatError, match=r"^\S*bad\.ply: .*" + re.escape(message)):
            read_ply(path)

    def test_first_non_triangle_face_is_named(self, tmp_path):
        # a quad as face 1 of 2: the record before it is aligned, so it is
        # refused by its own index
        path = tmp_path / "quad.ply"
        write_ply(primitives.square_patch(), path)
        blob = path.read_bytes()
        quad = bytes([4]) + np.array([0, 1, 2, 3], "<i4").tobytes()
        path.write_bytes(blob[:-13] + quad)
        with pytest.raises(MeshFormatError, match=r"quad\.ply: face 1 has 4 vertices"):
            read_ply(path)

    def test_not_a_ply_rejected(self, tmp_path):
        path = tmp_path / "fake.ply"
        path.write_bytes(b"OFF\n1 2 3\n")
        with pytest.raises(MeshFormatError, match="not a PLY"):
            read_ply(path)


class TestXyz:
    def test_round_trip(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, (50, 3))
        path = tmp_path / "pts.xyz"
        write_xyz(pts, path)
        back = read_xyz(path)
        assert np.abs(back - pts).max() < 1e-9

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1.0 2.0\n3.0 4.0\n")
        with pytest.raises(MeshFormatError, match="3 columns"):
            read_xyz(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_point_rejected(self, tmp_path, value):
        path = tmp_path / "bad.xyz"
        path.write_text(f"1.0 2.0 3.0\n1.0 {value} 3.0\n")
        with pytest.raises(MeshFormatError, match="bad.xyz: point 1 is not finite"):
            read_xyz(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1.0 2.0 x\n")
        with pytest.raises(MeshFormatError):
            read_xyz(path)

    @pytest.mark.parametrize("text", ["", "# x y z\n", "\n\n"],
                             ids=["empty", "comment", "blank"])
    def test_no_points_refused_without_warning(self, text, tmp_path):
        path = tmp_path / "none.xyz"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshFormatError, match=r"none\.xyz: holds no points"):
                read_xyz(path)


class TestGridDump:
    @pytest.mark.parametrize("key", ["resolution", "bounds_min", "bounds_max"])
    def test_missing_sidecar_entry_names_file_and_key(self, key, tmp_path):
        spec = GridSpec(5)
        base = str(tmp_path / "grid")
        dump_grid(sample_grid(SphereShellUdf(0.5), spec), spec, base)
        meta = json.loads(open(base + ".json").read())
        del meta[key]
        with open(base + ".json", "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(ValueError, match=rf"grid\.json: no '{key}' entry"):
            load_grid_dump(base)
