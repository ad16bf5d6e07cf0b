import json
import os
import subprocess
import sys

import numpy as np
import pytest

from udfmesh import (diffgeom, extract_mesh, load_grid_dump, metrics, primitives,
                     random_mlp, read_obj, remove_spurious_facets, sample_grid,
                     write_obj, write_xyz)
from udfmesh.cli import build_parser, main
from udfmesh.extract import DEFAULT_CULL_FACTOR, DEFAULT_GRAD_NORM_MIN
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


def fit_pc(tmp_path, *field_args):
    target = tmp_path / "t.xyz"
    write_xyz(np.zeros((4, 3)), target)
    return ["fit-pc", *field_args, "--target", target]


def not_json(tmp_path):
    path = tmp_path / "net.json"
    path.write_text("{not json")
    return path


def weights_file(tmp_path):
    path = tmp_path / "net.json"
    random_mlp(hidden=(4,), encoding_order=2, seed=0).save(path)
    return path


def patch_obj(tmp_path):
    path = tmp_path / "patch.obj"
    write_obj(primitives.square_patch(side=1.0, z=0.05), path)
    return path


def non_finite_obj(tmp_path, value):
    path = tmp_path / f"{value}.obj"
    path.write_text(f"v 0 0 0\nv 0 {value} 0\nv 1 0 0\nf 1 2 3\n")
    return path


def faceless_obj(tmp_path):
    path = tmp_path / "points.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    return path


SPHERE = ["--family", "sphere", "--params", "0.5", "--res", "9"]


@pytest.mark.parametrize("argv", [
    lambda tmp: fit_pc(tmp, "--weights", tmp / "missing.json"),
    lambda tmp: fit_pc(tmp, "--weights", not_json(tmp)),
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
    lambda tmp: ["mesh", "--family", "sphere", "--params", "nan", "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", *SPHERE, "--clamp", "0.01", "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", "--weights", weights_file(tmp), "--clamp", "0.01", "--res", "9",
                 "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", "--mesh", patch_obj(tmp), "--params", "0.3,7", "--res", "9",
                 "--out", tmp / "o.obj"],
    lambda tmp: ["mesh-inflate", "--mesh", patch_obj(tmp), "--params", "0.3", "--res", "9",
                 "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", *SPHERE, "--threads", "0", "--out", tmp / "o.obj"],
    lambda tmp: ["dump-grid", *SPHERE, "--threads", "-4", "--out", tmp / "g"],
    lambda tmp: [*fit_pc(tmp, *SPHERE), "--surface-samples", "0"],
    lambda tmp: [*fit_pc(tmp, *SPHERE), "--seed", "-1"],
    lambda tmp: ["metrics", "--pred", patch_obj(tmp), "--gt", patch_obj(tmp), "--seed", "-1"],
    lambda tmp: [*fit_pc(tmp, *SPHERE), "--lr", "nan"],
    lambda tmp: [*fit_pc(tmp, *SPHERE), "--lr", "-0.5"],
    lambda tmp: [*fit_pc(tmp, *SPHERE), "--reg", "nan"],
    lambda tmp: [*fit_pc(tmp, *SPHERE), "--iters", "0"],
    lambda tmp: [*fit_pc(tmp, *SPHERE), "--iters", "-3"],
    lambda tmp: [*fit_pc(tmp, *SPHERE), "--alpha", "0"],
    lambda tmp: ["gradcheck", *SPHERE, "--alpha", "-1"],
    lambda tmp: ["gradcheck", *SPHERE, "--directions", "0"],
    lambda tmp: ["gradcheck", *SPHERE, "--directions", "-2"],
    lambda tmp: ["mesh", *SPHERE, "--smooth-weight", "nan", "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", *SPHERE, "--smooth-weight", "7", "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", *SPHERE, "--smooth-steps", "-2", "--out", tmp / "o.obj"],
    lambda tmp: ["mesh", *SPHERE, "--grad-norm-min", "nan", "--out", tmp / "o.obj"],
    lambda tmp: ["metrics", "--pred", faceless_obj(tmp), "--gt", patch_obj(tmp)],
], ids=["missing-weights", "weights-not-json", "eps-negative", "eps-zero",
        "cull-factor-zero", "prune-tol-negative", "prune-tol-zero",
        "gradcheck-eps-zero", "metrics-no-samples", "metrics-nan-vertex",
        "metrics-inf-vertex", "family-param-nan", "clamp-with-family",
        "clamp-with-weights", "params-with-mesh", "inflate-params-with-mesh",
        "threads-zero", "threads-negative", "fit-no-surface-samples", "fit-seed-negative",
        "metrics-seed-negative", "fit-lr-nan", "fit-lr-negative", "fit-reg-nan",
        "fit-no-iters", "fit-iters-negative", "fit-alpha-zero", "gradcheck-alpha-negative",
        "gradcheck-no-directions", "gradcheck-directions-negative", "smooth-weight-nan",
        "smooth-weight-overshoots", "smooth-steps-negative", "grad-norm-min-nan",
        "metrics-faceless"])
def test_bad_input_exits_2_with_one_error_line(argv, tmp_path, capsys):
    assert run(*argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert [line.startswith("error:") for line in err.splitlines()] == [True]
    assert "Traceback" not in err


def test_import_leaves_scipy_unloaded():
    # a fresh interpreter: meshing a family or a network never needs scipy,
    # so importing the package and its command line does not load it
    import udfmesh
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(udfmesh.__file__)))
    code = ("import sys, udfmesh, udfmesh.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_threads_offered_only_where_sampling_reads_it():
    commands = build_parser()._subparsers._group_actions[0].choices
    offered = {name for name, sub in commands.items()
               if any("--threads" in a.option_strings for a in sub._actions)}
    assert offered == {"mesh", "mesh-inflate", "dump-grid"}
    assert set(commands) > offered


def test_defaults_come_from_the_library():
    commands = build_parser()._subparsers._group_actions[0].choices

    def default(command, flag):
        return next(a.default for a in commands[command]._actions
                    if flag in a.option_strings)
    assert default("mesh", "--cull-factor") == DEFAULT_CULL_FACTOR
    assert default("mesh", "--grad-norm-min") == DEFAULT_GRAD_NORM_MIN
    assert default("fit-pc", "--alpha") == diffgeom.DEFAULT_ALPHA
    assert default("gradcheck", "--alpha") == diffgeom.DEFAULT_ALPHA
    assert default("metrics", "--samples") == metrics.DEFAULT_SAMPLES


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
        trace = tmp_path / "trace.csv"
        code = run("fit-pc", "--family", "plane", "--params", "0.005", "--target", tpath,
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
        # a mesh field has no parameters, so fit-pc offers no mesh source
        with pytest.raises(SystemExit) as exc:
            run(*fit_pc(tmp_path, "--mesh", patch_obj(tmp_path)))
        assert exc.value.code == 2
        assert run(*fit_pc(tmp_path, "--family", "nosuch")) == 2


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


# a network with a 2-entry latent code, meshed at 17^3 on a generic box
LATENT_NET = random_mlp(hidden=(16, 16), encoding_order=2, latent_dim=2, seed=3)
LATENT = ["--params", "0.3,-0.2", "--res", "17", "--bounds=-1.0037,0.9963"]
LATENT_SPEC = GridSpec(17, (-1.0037,) * 3, (0.9963,) * 3)


def latent_weights(tmp_path):
    path = tmp_path / "latent.json"
    LATENT_NET.save(path)
    return path


@pytest.mark.parametrize("command,flag", [
    ("mesh", ["--cull-factor", "0.5"]),
    ("mesh", ["--grad-norm-min", "1.2"]),
    ("mesh", ["--prune-tol", "0.01"]),
    ("mesh", ["--no-prune"]),
    ("mesh", ["--smooth-steps", "1"]),
    ("mesh", ["--smooth-weight", "0.2"]),
    ("mesh-inflate", ["--eps", "0.1"]),
    ("mesh-inflate", ["--eps-factor", "1.0"]),
    ("gradcheck", ["--alpha", "0.2"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_tuning_flag_reaches_its_stage(command, flag, tmp_path):
    # a value other than the default changes the bytes written, so the flag
    # is read by the stage it tunes
    argv = [command, "--weights", latent_weights(tmp_path), *LATENT]
    if command == "gradcheck":
        argv += ["--directions", "1", "--eps", "1e-3"]
    written = []
    for extra in ([], flag):
        out = tmp_path / f"out{len(written)}.{'csv' if command == 'gradcheck' else 'obj'}"
        # gradcheck exits 1 when a vertex fails its check, and still writes
        assert run(*argv, *extra, "--out", out) in (0, 1)
        written.append(out.read_bytes())
    assert written[0] != written[1]


def test_no_smoothing_writes_the_pruned_extraction(tmp_path):
    out, ref = tmp_path / "out.obj", tmp_path / "ref.obj"
    assert run("mesh", "--weights", latent_weights(tmp_path), *LATENT,
               "--smooth-steps", "0", "--out", out) == 0
    field = LATENT_NET.with_params([0.3, -0.2])
    write_obj(remove_spurious_facets(extract_mesh(field, LATENT_SPEC), field,
                                     0.5 * LATENT_SPEC.cell_diagonal), ref)
    assert out.read_bytes() == ref.read_bytes()


class TestDumpGridCommand:
    def test_dump_matches_direct_sampling(self, tmp_path):
        base = tmp_path / "grid"
        code = run("dump-grid", "--family", "sphere", "--params", "0.5",
                   "--res", "9", "--out", base)
        assert code == 0
        values, spec = load_grid_dump(str(base))
        from udfmesh import SphereShellUdf
        direct = sample_grid(SphereShellUdf(0.5), spec)
        assert np.abs(values - direct).max() < 1e-6
