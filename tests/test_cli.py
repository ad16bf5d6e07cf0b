import json

import numpy as np
import pytest

from udfmesh import (load_grid_dump, primitives, random_mlp, read_obj,
                     sample_grid, write_obj, write_xyz)
from udfmesh.cli import build_parser, main
from udfmesh.grid import GridSpec


def run(*argv):
    return main([str(a) for a in argv])


def nan_weights(tmp_path):
    """Weight file whose output bias is NaN, so every corner is non-finite."""
    data = random_mlp(hidden=(4,), encoding_order=2, seed=0).to_dict()
    data["biases"][-1][0] = float("nan")
    wpath = tmp_path / "nan.json"
    with open(wpath, "w") as fh:
        json.dump(data, fh)
    return wpath


def bad_descriptor(tmp_path, text):
    desc = tmp_path / "field.json"
    desc.write_text(text)
    target = tmp_path / "t.xyz"
    write_xyz(np.zeros((4, 3)), target)
    return ["fit-pc", "--field", desc, "--target", target]


def patch_obj(tmp_path):
    path = tmp_path / "patch.obj"
    write_obj(primitives.square_patch(side=1.0, z=0.05), path)
    return path


def non_finite_obj(tmp_path, value):
    path = tmp_path / f"{value}.obj"
    path.write_text(f"v 0 0 0\nv 0 {value} 0\nv 1 0 0\nf 1 2 3\n")
    return path


SPHERE = ["--family", "sphere", "--params", "0.5", "--res", "9"]


@pytest.mark.parametrize("argv", [
    lambda tmp: bad_descriptor(tmp, json.dumps({"weights": "missing.json"})),
    lambda tmp: bad_descriptor(tmp, "{not json"),
    lambda tmp: ["mesh-inflate", *SPHERE, "--eps", "-1", "--out", tmp / "o.obj"],
    lambda tmp: ["mesh-inflate", *SPHERE, "--eps", "0", "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", *SPHERE, "--cull-factor", "0", "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", *SPHERE, "--prune-tol", "-1", "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", *SPHERE, "--prune-tol", "0", "--out", tmp / "o.obj"],
    lambda tmp: ["gradcheck", "--family", "plane", "--res", "9", "--eps", "1e-3", "0"],
    lambda tmp: ["metrics", "--pred", patch_obj(tmp), "--gt", patch_obj(tmp),
                 "--samples", "0"],
    lambda tmp: ["metrics", "--pred", non_finite_obj(tmp, "nan"), "--gt", patch_obj(tmp)],
    lambda tmp: ["metrics", "--pred", patch_obj(tmp), "--gt", non_finite_obj(tmp, "inf")],
], ids=["missing-weights", "descriptor-not-json", "eps-negative", "eps-zero",
        "cull-factor-zero", "prune-tol-negative", "prune-tol-zero",
        "gradcheck-eps-zero", "metrics-no-samples", "metrics-nan-vertex",
        "metrics-inf-vertex"])
def test_bad_input_exits_2_with_one_error_line(argv, tmp_path, capsys):
    assert run(*argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert [line.startswith("error:") for line in err.splitlines()] == [True]
    assert "Traceback" not in err


def test_threads_offered_only_where_sampling_reads_it():
    commands = build_parser()._subparsers._group_actions[0].choices
    offered = {name for name, sub in commands.items()
               if any("--threads" in a.option_strings for a in sub._actions)}
    assert offered == {"mesh", "mesh-inflate", "dump-grid"}
    assert set(commands) > offered


class TestMeshCommand:
    def test_family_sphere_watertight(self, tmp_path, capsys):
        out = tmp_path / "sphere.obj"
        code = run("mesh", "--family", "sphere", "--params", "0.5",
                   "--res", "33", "--bounds=-1.004,0.996", "--out", out)
        assert code == 0
        mesh = read_obj(out)
        assert mesh.is_watertight()
        text = capsys.readouterr().out
        assert "candidate" in text and "triangulated" in text

    def test_reference_mesh_source(self, tmp_path):
        ref = tmp_path / "patch.obj"
        write_obj(primitives.square_patch(side=1.0, z=0.05), ref)
        out = tmp_path / "out.obj"
        code = run("mesh", "--mesh", ref, "--res", "33", "--out", out)
        assert code == 0
        mesh = read_obj(out)
        assert len(mesh.border_edges()) > 0

    def test_missing_input_exits_2_naming_path(self, tmp_path, capsys):
        out = tmp_path / "out.obj"
        code = run("mesh", "--mesh", "/nonexistent/thing.obj", "--out", out)
        assert code == 2
        assert "/nonexistent/thing.obj" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code = run("mesh", "--family", "sphere", "--mesh", "x.obj",
                   "--out", tmp_path / "o.obj")
        assert code == 2

    def test_nan_field_aborts_with_location(self, tmp_path, capsys):
        code = run("mesh", "--weights", nan_weights(tmp_path), "--res", "5",
                   "--out", tmp_path / "o.obj")
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_lattice_plane_sheet_empty_output_exits_1(self, tmp_path, capsys):
        # z = 0 is a lattice plane of the default box: every corner on the
        # sheet is an exact zero and no cell sees a crossing
        ref = tmp_path / "patch.obj"
        write_obj(primitives.square_patch(side=1.0, z=0.0), ref)
        out = tmp_path / "out.obj"
        code = run("mesh", "--mesh", ref, "--res", "17", "--out", out)
        assert code == 1
        assert read_obj(out).is_empty()
        err = capsys.readouterr().err
        assert "candidate" in err and "no-crossing" in err and "--bounds" in err

    def test_ply_output(self, tmp_path):
        out = tmp_path / "sphere.ply"
        code = run("mesh", "--family", "sphere", "--params", "0.5",
                   "--res", "17", "--bounds=-1.004,0.996", "--out", out)
        assert code == 0
        from udfmesh import read_ply
        assert not read_ply(out).is_empty()

    def test_thread_flag_does_not_change_output(self, tmp_path):
        outs = []
        for t in ("1", "4"):
            out = tmp_path / f"s{t}.obj"
            assert run("mesh", "--family", "sphere", "--params", "0.5",
                       "--res", "17", "--bounds=-1.004,0.996",
                       "--threads", t, "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestInflateCommand:
    def test_patch_shell_watertight(self, tmp_path):
        ref = tmp_path / "patch.obj"
        write_obj(primitives.square_patch(side=1.0, z=0.05), ref)
        out = tmp_path / "shell.obj"
        code = run("mesh-inflate", "--mesh", ref, "--res", "65", "--out", out)
        assert code == 0
        assert read_obj(out).is_watertight()

    def test_nan_field_exits_2(self, tmp_path, capsys):
        code = run("mesh-inflate", "--weights", nan_weights(tmp_path),
                   "--res", "5", "--out", tmp_path / "o.obj")
        assert code == 2
        assert "non-finite" in capsys.readouterr().err


class TestMetricsCommand:
    def test_report_written(self, tmp_path, capsys):
        mesh = primitives.square_patch(side=1.0, z=0.05, subdivisions=6)
        a = tmp_path / "a.obj"
        write_obj(mesh, a)
        report = tmp_path / "report.json"
        code = run("metrics", "--pred", a, "--gt", a, "--samples", "2000",
                   "--out", report)
        assert code == 0
        data = json.loads(report.read_text())
        assert data["ic"] >= 99.5
        assert data["nc"] > 99
        assert data["chd"] < 1e-3

    def test_missing_mesh_exit_2(self, tmp_path, capsys):
        code = run("metrics", "--pred", "nope.obj", "--gt", "nope.obj")
        assert code == 2

    def test_normal_map_png_dump(self, tmp_path):
        import struct
        mesh = primitives.square_patch(side=1.0, z=0.05, subdivisions=2)
        a = tmp_path / "a.obj"
        write_obj(mesh, a)
        maps = tmp_path / "maps"
        code = run("metrics", "--pred", a, "--gt", a, "--samples", "500",
                   "--dump-normal-maps", maps)
        assert code == 0
        files = sorted(maps.glob("*.png"))
        assert len(files) == 16        # 8 views x {pred, gt}
        blob = files[0].read_bytes()
        assert blob.startswith(b"\x89PNG\r\n\x1a\n")
        w, h = struct.unpack(">II", blob[16:24])
        assert (w, h) == (256, 256)


class TestFitCommand:
    def test_plane_fit_moves_parameter(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        targets = np.column_stack([rng.uniform(-0.8, 0.8, (100, 2)),
                                   np.full(100, 0.1)])
        tpath = tmp_path / "target.xyz"
        write_xyz(targets, tpath)
        desc = tmp_path / "field.json"
        desc.write_text(json.dumps({"family": "plane", "params": [0.005]}))
        trace = tmp_path / "trace.csv"
        code = run("fit-pc", "--field", desc, "--target", tpath,
                   "--iters", "30", "--lr", "0.01", "--res", "17",
                   "--trace", trace)
        assert code == 0
        out = capsys.readouterr().out
        fitted = float(out.split("fitted params:")[1].splitlines()[0])
        assert abs(fitted - 0.1) < 0.02
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,chamfer,reg,total"
        assert len(lines) == 31

    def test_mesh_field_rejected(self, tmp_path, capsys):
        desc = tmp_path / "field.json"
        desc.write_text(json.dumps({"family": "nosuch"}))
        tpath = tmp_path / "t.xyz"
        write_xyz(np.zeros((4, 3)), tpath)
        assert run("fit-pc", "--field", desc, "--target", tpath) == 2


class TestGradcheckCommand:
    def test_plane_family_passes(self, tmp_path, capsys):
        code = run("gradcheck", "--family", "plane", "--params", "0.07",
                   "--res", "17", "--directions", "1")
        assert code == 0
        assert "passed" in capsys.readouterr().out

    def test_absurd_alpha_fails(self, capsys):
        code = run("gradcheck", "--family", "sphere", "--params", "0.45",
                   "--res", "17", "--bounds=-1.004,0.996",
                   "--alpha", "10", "--eps", "1e-3", "--directions", "1")
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_zero_parameter_field_trivially_passes(self, tmp_path, capsys):
        ref = tmp_path / "patch.obj"
        write_obj(primitives.square_patch(side=1.0, z=0.05), ref)
        code = run("gradcheck", "--mesh", ref, "--res", "9")
        assert code == 0
        assert "no parameters" in capsys.readouterr().out

    def test_csv_written(self, tmp_path):
        out = tmp_path / "errors.csv"
        code = run("gradcheck", "--family", "plane", "--params", "0.07",
                   "--res", "9", "--directions", "1", "--out", out)
        assert code == 0
        assert out.read_text().startswith("vertex,predicted,measured")


class TestDumpGridCommand:
    def test_dump_matches_direct_sampling(self, tmp_path):
        base = tmp_path / "grid"
        code = run("dump-grid", "--family", "sphere", "--params", "0.5",
                   "--res", "9", "--out", base)
        assert code == 0
        values, spec = load_grid_dump(str(base))
        from udfmesh import SphereShellUdf
        direct = sample_grid(SphereShellUdf(0.5), spec).u
        assert np.abs(values - direct).max() < 1e-6
