"""Command-line front end.

Subcommands: mesh, mesh-inflate, metrics, fit-pc, gradcheck, dump-grid.
Exit codes: 0 success, 1 check failure, 2 usage or input error. The
UDF_MESHER_THREADS environment variable caps sampling workers; the
--threads flag of mesh, mesh-inflate and dump-grid wins over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import diffgeom, io, metrics
from .extract import extract_mesh_detailed
from .fields import MeshUdf, UdfField, parametric_field
from .grid import GridSpec, NonFiniteFieldError, dump_grid, sample_grid_values
from .mlp import MlpUdf
from .postprocess import remove_spurious_facets, smooth_borders

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _add_field_args(p: argparse.ArgumentParser):
    src = p.add_argument_group("field source (pick one)")
    src.add_argument("--mesh", metavar="PATH",
                     help="reference mesh (OBJ/PLY); field is its exact UDF")
    src.add_argument("--weights", metavar="PATH", help="MLP weight file (JSON)")
    src.add_argument("--family", metavar="NAME",
                     help="parametric family: plane, sphere, patch, cylinder")
    src.add_argument("--params", metavar="X[,Y...]",
                     help="parameters for --family or latent code for --weights")
    p.add_argument("--clamp", type=float, default=None, metavar="D",
                   help="clamp field values at D")


def _add_grid_args(p: argparse.ArgumentParser):
    p.add_argument("--res", type=int, default=129,
                   help="lattice corners per axis (129 corners = 128 cells)")
    p.add_argument("--bounds", default="-1,1", metavar="LO,HI",
                   help="cubic region of interest, default -1,1")


def _add_threads_arg(p: argparse.ArgumentParser):
    p.add_argument("--threads", type=int, default=None,
                   help="sampling workers (env UDF_MESHER_THREADS)")


def _parse_params(text):
    if text is None:
        return None
    try:
        return [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"cannot parse --params value {text!r}")


def _build_field(args) -> UdfField:
    sources = [s for s in ("mesh", "weights", "family") if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliError("exactly one of --mesh, --weights, --family is required")
    params = _parse_params(getattr(args, "params", None))
    if args.mesh:
        if not os.path.exists(args.mesh):
            raise CliError(f"mesh file not found: {args.mesh}")
        try:
            ref = io.read_mesh(args.mesh)
        except (io.MeshFormatError, OSError) as exc:
            raise CliError(str(exc))
        return MeshUdf(ref, d_max=getattr(args, "clamp", None))
    if args.weights:
        return _load_weights(args.weights, params)
    return _load_family(args.family, params if params is not None else [])


def _load_weights(path, latent) -> MlpUdf:
    if not os.path.exists(path):
        raise CliError(f"weight file not found: {path}")
    try:
        return MlpUdf.from_file(path, latent)
    except (ValueError, OSError) as exc:
        raise CliError(f"{path}: {exc}")


def _load_family(name, params) -> UdfField:
    try:
        return parametric_field(name, params)
    except (ValueError, IndexError) as exc:
        raise CliError(str(exc))


def _positive(value, flag):
    if not value > 0:
        raise CliError(f"{flag} must be positive, got {value:g}")
    return value


def _build_spec(args) -> GridSpec:
    try:
        lo, hi = (float(x) for x in args.bounds.split(","))
    except ValueError:
        raise CliError(f"cannot parse --bounds value {args.bounds!r}")
    try:
        return GridSpec(args.res, (lo, lo, lo), (hi, hi, hi))
    except ValueError as exc:
        raise CliError(str(exc))


def cmd_mesh(args) -> int:
    field = _build_field(args)
    spec = _build_spec(args)
    cull_factor = _positive(args.cull_factor, "--cull-factor")
    prune_tol = (0.5 * spec.cell_diagonal if args.prune_tol is None
                 else _positive(args.prune_tol, "--prune-tol"))
    t0 = time.perf_counter()
    mesh, stats = extract_mesh_detailed(field, spec, cull_factor,
                                        args.grad_norm_min, threads=args.threads)
    if not args.no_prune and not mesh.is_empty():
        mesh = remove_spurious_facets(mesh, field, prune_tol)
    if not args.no_smooth and not mesh.is_empty():
        mesh = smooth_borders(mesh, steps=args.smooth_steps,
                              weight=args.smooth_weight)
    total = time.perf_counter() - t0
    io.write_mesh(mesh, args.out)
    print(stats.summary())
    print(f"output: {mesh.n_vertices} vertices, {mesh.n_faces} faces, "
          f"{len(mesh.border_edges())} border edges")
    print(f"total: {total:.3f} s -> {args.out}")
    if mesh.is_empty():
        print(f"error: output mesh has no faces ({stats.candidate_cells} candidate "
              f"cells: {stats.skipped_no_anchor} no-valid-anchor, "
              f"{stats.skipped_no_crossing} no-crossing); if the surface lies "
              "on lattice corners, shift --bounds by a fraction of a cell",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_mesh_inflate(args) -> int:
    field = _build_field(args)
    spec = _build_spec(args)
    eps = (_positive(args.eps, "--eps") if args.eps is not None
           else _positive(args.eps_factor, "--eps-factor") * float(spec.step.max()))
    t0 = time.perf_counter()
    mesh = metrics.inflate_mesh(field, spec, eps, threads=args.threads)
    total = time.perf_counter() - t0
    io.write_mesh(mesh, args.out)
    print(f"eps = {eps:.6g}; {mesh.n_vertices} vertices, {mesh.n_faces} faces, "
          f"{len(mesh.border_edges())} border edges")
    print(f"total: {total:.3f} s -> {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    for path in (args.pred, args.gt):
        if not os.path.exists(path):
            raise CliError(f"mesh file not found: {path}")
    try:
        pred = io.read_mesh(args.pred)
        gt = io.read_mesh(args.gt)
    except (io.MeshFormatError, OSError) as exc:
        raise CliError(str(exc))
    _positive(args.samples, "--samples")
    report = metrics.evaluate_pair(pred, gt, args.samples, args.seed)
    if args.dump_normal_maps:
        _dump_normal_maps(pred, gt, args.dump_normal_maps)
    payload = report.to_dict()
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _dump_normal_maps(pred, gt, out_dir):
    from . import render
    os.makedirs(out_dir, exist_ok=True)
    cams, target = render.scene_cameras(pred, gt)
    for k, eye in enumerate(cams):
        for name, mesh in (("pred", pred), ("gt", gt)):
            sil, nrm = render.render_view(mesh, eye, target)
            render.write_png(os.path.join(out_dir, f"{name}_view{k}.png"),
                             render.normal_map_to_rgb(nrm, sil))


def _load_field_descriptor(path) -> UdfField:
    """Field from a JSON descriptor; a weight path is relative to it."""
    if not os.path.exists(path):
        raise CliError(f"field descriptor not found: {path}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (ValueError, OSError) as exc:
        raise CliError(f"{path}: {exc}")
    if isinstance(data, dict) and "weights" in data:
        base = os.path.dirname(os.path.abspath(path))
        return _load_weights(os.path.join(base, data["weights"]), data.get("latent"))
    if isinstance(data, dict) and "family" in data:
        return _load_family(data["family"], data.get("params", []))
    raise CliError(f"{path}: descriptor needs a 'family' or 'weights' key")


def cmd_fit_pc(args) -> int:
    field = _load_field_descriptor(args.field)
    if field.param_dim == 0:
        raise CliError("field has no free parameters to fit")
    if not os.path.exists(args.target):
        raise CliError(f"target point cloud not found: {args.target}")
    try:
        target = io.read_xyz(args.target)
    except io.MeshFormatError as exc:
        raise CliError(str(exc))
    spec = _build_spec(args)
    result = diffgeom.fit_point_cloud(
        field, target, spec, iters=args.iters, lr=args.lr,
        lambda_reg=args.reg, alpha=args.alpha, n_surface=args.surface_samples,
        use_border_formula=not args.no_border_grads, adaptive=args.adaptive,
        seed=args.seed)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(result.trace_csv())
    for it, msg in result.events:
        print(f"iter {it}: {msg}", file=sys.stderr)
    print("fitted params:", " ".join("%.8g" % p for p in result.params))
    print("final loss: %.8g" % result.final_loss)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    field = _build_field(args)
    spec = _build_spec(args)
    for eps in args.eps:
        _positive(eps, "--eps")
    if field.param_dim == 0:
        print("field has no parameters; nothing to check")
        return EXIT_OK
    rng = np.random.default_rng(args.seed)
    worst_overall = None
    all_records = []
    passed = True
    for eps in args.eps:
        for _ in range(args.directions):
            delta = rng.normal(size=field.param_dim)
            delta /= np.linalg.norm(delta)
            report = diffgeom.directional_gradcheck(
                field, spec, delta, eps=eps, alpha=args.alpha)
            all_records.extend(report.records)
            passed &= report.passed
            if report.worst and (worst_overall is None
                                 or report.max_error > worst_overall[0]):
                worst_overall = (report.max_error, report.worst, eps)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(diffgeom.gradcheck_csv(all_records))
    if passed:
        print(f"gradcheck passed ({len(all_records)} vertex checks)")
        return EXIT_OK
    err, (v, pred, meas), eps = worst_overall
    print(f"gradcheck FAILED: vertex {v} predicted {pred:.6g} measured "
          f"{meas:.6g} (rate error {err:.6g} at eps={eps:g})")
    return EXIT_CHECK_FAILED


def cmd_dump_grid(args) -> int:
    field = _build_field(args)
    spec = _build_spec(args)
    values = sample_grid_values(field, spec, threads=args.threads)
    data_path, meta_path = dump_grid(values, spec, args.out)
    print(f"wrote {data_path} and {meta_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udfmesh",
        description="Open-surface meshing and differentiable fitting of "
                    "unsigned distance fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="extract a triangle mesh from a field")
    _add_field_args(p)
    _add_grid_args(p)
    _add_threads_arg(p)
    p.add_argument("--cull-factor", type=float, default=1.0)
    p.add_argument("--grad-norm-min", type=float, default=0.3)
    p.add_argument("--no-prune", action="store_true",
                   help="keep facets the field disowns")
    p.add_argument("--no-smooth", action="store_true",
                   help="skip border smoothing")
    p.add_argument("--prune-tol", type=float, default=None,
                   help="facet pruning distance (default half a cell diagonal)")
    p.add_argument("--smooth-steps", type=int, default=5)
    p.add_argument("--smooth-weight", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output mesh (.obj or .ply)")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("mesh-inflate",
                       help="mesh the eps-isolevel with signed marching cubes")
    _add_field_args(p)
    _add_grid_args(p)
    _add_threads_arg(p)
    p.add_argument("--eps", type=float, default=None,
                   help="isolevel offset (overrides --eps-factor)")
    p.add_argument("--eps-factor", type=float, default=metrics.DEFAULT_EPS_FACTOR,
                   help="eps as a fraction of the grid step")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh_inflate)

    p = sub.add_parser("metrics", help="score a reconstruction against a reference")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--samples", type=int, default=30000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report as JSON")
    p.add_argument("--dump-normal-maps", metavar="DIR",
                   help="write per-view normal maps as PNGs for inspection")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("fit-pc", help="fit field parameters to a point cloud")
    p.add_argument("--field", required=True,
                   help="JSON descriptor: {'family':..., 'params':[...]} or "
                        "{'weights': 'net.json'}")
    p.add_argument("--target", required=True, help="XYZ point cloud")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--reg", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=1e-2)
    p.add_argument("--surface-samples", type=int, default=10000)
    p.add_argument("--no-border-grads", action="store_true",
                   help="use the interior rule everywhere (ablation)")
    p.add_argument("--adaptive", action="store_true",
                   help="adaptive-moment steps instead of plain descent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write the loss trace CSV here")
    _add_grid_args(p)
    p.set_defaults(func=cmd_fit_pc)

    p = sub.add_parser("gradcheck",
                       help="verify vertex derivatives by re-extraction")
    _add_field_args(p)
    _add_grid_args(p)
    p.add_argument("--alpha", type=float, default=1e-2)
    p.add_argument("--eps", type=float, nargs="+", default=[1e-3, 1e-4])
    p.add_argument("--directions", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write per-vertex errors CSV here")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("dump-grid", help="export raw float32 corner distances")
    _add_field_args(p)
    _add_grid_args(p)
    _add_threads_arg(p)
    p.add_argument("--out", required=True,
                   help="base path; writes <base>.f32 and <base>.json")
    p.set_defaults(func=cmd_dump_grid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NonFiniteFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
