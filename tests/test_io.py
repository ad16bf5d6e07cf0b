import numpy as np
import pytest

from udfmesh import (SphereShellUdf, extract_mesh, read_mesh,
                     read_obj, read_ply, read_xyz, write_obj, write_ply,
                     write_xyz)
from udfmesh.io import MeshFormatError

from conftest import generic_spec


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
