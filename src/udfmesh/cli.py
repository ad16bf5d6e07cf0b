"""Command-line front end.

Subcommands: mesh, mesh-inflate, metrics, fit-pc, gradcheck, dump-grid.
Exit codes: 0 success, 1 check failure, 2 usage or input error. The
--threads flag of mesh, mesh-inflate and dump-grid sets the sampling
workers, and wins over the UDF_MESHER_THREADS environment variable, which
also reaches the extractions of fit-pc and gradcheck. Without either, the
workers are the usable cores divided by the threads each BLAS call may
start (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS), and one if neither is
set. Outputs are byte-identical for any worker count; a count below 1 or
not an integer exits 2.

Every numeric flag is checked against its rule (``_FLAG_RULES``: counts
at least 1, --smooth-weight in [0, 1], scales finite, ...) before any work,
and one out of range exits 2 with one line naming it. Every input file
(--mesh, --weights, --pred, --gt, --target) is read through ``_read``: one
that is missing, unreadable or malformed exits 2 with one line naming the
file, as does a metrics input with no surface area to sample.
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
from .grid import GridSpec, NonFiniteFieldError, dump_grid, resolve_threads, sample_grid
from .mlp import MlpUdf
from .postprocess import default_prune_tol, remove_spurious_facets, smooth_borders

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _add_field_args(p: argparse.ArgumentParser, mesh: bool = True):
    """Field-source flags; ``mesh`` off leaves out the mesh source and its
    ``--clamp``, for a command that needs a field with parameters."""
    src = p.add_argument_group("field source (pick one)")
    if mesh:
        src.add_argument("--mesh", metavar="PATH",
                         help="reference mesh (OBJ/PLY); field is its exact UDF")
    src.add_argument("--weights", metavar="PATH", help="MLP weight file (JSON)")
    src.add_argument("--family", metavar="NAME",
                     help="parametric family: plane, sphere, patch, cylinder")
    src.add_argument("--params", metavar="X[,Y...]",
                     help="parameters for --family or latent code for --weights")
    if mesh:
        p.add_argument("--clamp", type=float, default=None, metavar="D",
                       help="clamp the --mesh field at D")


def _add_grid_args(p: argparse.ArgumentParser):
    p.add_argument("--res", type=int, default=129,
                   help="lattice corners per axis (129 corners = 128 cells)")
    p.add_argument("--bounds", default="-1,1", metavar="LO,HI",
                   help="cubic region of interest, default -1,1")


def _add_threads_arg(p: argparse.ArgumentParser):
    p.add_argument("--threads", type=int, default=None,
                   help="sampling workers, at least 1 (default env "
                        "UDF_MESHER_THREADS, else the usable cores divided by "
                        "OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, else 1); "
                        "outputs are byte-identical for any count")


def _check_threads(threads):
    """Refuse the worker count that ``resolve_threads`` refuses, from
    ``--threads`` or, without it, from ``UDF_MESHER_THREADS``."""
    try:
        resolve_threads(threads)
    except ValueError as exc:
        raise CliError(str(exc))


_COUNT = (lambda v: v >= 1, "at least 1")
_INDEX = (lambda v: v >= 0, "at least 0")
_POSITIVE = (lambda v: 0 < v < np.inf, "positive and finite")
_NON_NEGATIVE = (lambda v: 0 <= v < np.inf, "non-negative and finite")

# the rule of every numeric flag, by its destination; --res and --threads
# are checked where they are read
_FLAG_RULES = {
    "samples": _COUNT, "iters": _COUNT, "surface_samples": _COUNT, "directions": _COUNT,
    "seed": _INDEX, "smooth_steps": _INDEX,
    "cull_factor": _POSITIVE, "prune_tol": _POSITIVE, "eps": _POSITIVE,
    "eps_factor": _POSITIVE, "lr": _POSITIVE, "alpha": _POSITIVE, "clamp": _POSITIVE,
    "grad_norm_min": _NON_NEGATIVE, "reg": _NON_NEGATIVE,
    "smooth_weight": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


def _check_flags(args):
    """Refuse a numeric flag value that breaks its rule, naming the flag."""
    for dest, (ok, rule) in _FLAG_RULES.items():
        value = getattr(args, dest, None)
        for v in value if isinstance(value, list) else [value]:
            if v is not None and not ok(v):
                raise CliError(f"--{dest.replace('_', '-')} must be {rule}, got {v:g}")


def _parse_params(text):
    if text is None:
        return None
    try:
        return [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"cannot parse --params value {text!r}")


def _read(read, path, what, *args):
    """``read(path, *args)``; a missing file, or one that cannot be read or
    is refused, is a usage error naming the file."""
    if not os.path.exists(path):
        raise CliError(f"{what} not found: {path}")
    try:
        return read(path, *args)
    except (io.MeshFormatError, OSError) as exc:
        raise CliError(str(exc))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _build_field(args) -> UdfField:
    sources = [s for s in ("mesh", "weights", "family") if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliError("exactly one of --mesh, --weights, --family is required")
    # a flag the chosen source does not read is refused, not dropped
    if sources == ["mesh"] and args.params is not None:
        raise CliError("--params is not read with --mesh")
    if sources != ["mesh"] and getattr(args, "clamp", None) is not None:
        raise CliError("--clamp is read only with --mesh")
    params = _parse_params(args.params)
    if sources == ["mesh"]:
        return _read(lambda p: MeshUdf(io.read_mesh(p), d_max=args.clamp),
                     args.mesh, "mesh file")
    if args.weights:
        return _read(MlpUdf.from_file, args.weights, "weight file", params)
    try:
        return parametric_field(args.family, params or [])
    except ValueError as exc:
        raise CliError(str(exc))


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
    prune_tol = default_prune_tol(spec) if args.prune_tol is None else args.prune_tol
    t0 = time.perf_counter()
    mesh, stats = extract_mesh_detailed(field, spec, args.cull_factor,
                                        args.grad_norm_min, threads=args.threads)
    if not args.no_prune and not mesh.is_empty():
        mesh = remove_spurious_facets(mesh, field, prune_tol)
    if not mesh.is_empty():
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
    eps = args.eps if args.eps is not None else args.eps_factor * float(spec.step.max())
    t0 = time.perf_counter()
    mesh = metrics.inflate_mesh(field, spec, eps, threads=args.threads)
    total = time.perf_counter() - t0
    io.write_mesh(mesh, args.out)
    print(f"eps = {eps:.6g}; {mesh.n_vertices} vertices, {mesh.n_faces} faces, "
          f"{len(mesh.border_edges())} border edges")
    print(f"total: {total:.3f} s -> {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    pred, gt = (_read(io.read_mesh, path, "mesh file") for path in (args.pred, args.gt))
    for path, mesh in ((args.pred, pred), (args.gt, gt)):
        if not mesh.face_areas().sum() > 0:
            raise CliError(f"{path} has no surface area to sample")
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


def cmd_fit_pc(args) -> int:
    field = _build_field(args)
    if field.param_dim == 0:
        raise CliError("field has no free parameters to fit")
    target = _read(io.read_xyz, args.target, "target point cloud")
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
    values = sample_grid(field, spec, threads=args.threads)
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
    p.add_argument("--prune-tol", type=float, default=None,
                   help="facet pruning distance (default half a cell diagonal)")
    p.add_argument("--smooth-steps", type=int, default=5,
                   help="border smoothing steps; 0 turns smoothing off")
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
    _add_field_args(p, mesh=False)
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
    p.add_argument("--alpha", type=float, default=1e-2,
                   help="probe distance of the predicted vertex rates")
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
        _check_flags(args)
        # every command but metrics samples a lattice
        if args.command != "metrics":
            _check_threads(getattr(args, "threads", None))
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NonFiniteFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
