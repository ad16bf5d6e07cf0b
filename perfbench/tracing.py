"""Spans and counters recorded around the library's public calls.

``Tracer.install`` replaces every public function and method of the layer
modules with a wrapper that records a span (name, layer, start, end,
parent) and, for some calls, counts read at the call boundary. Nothing in
the library changes; the wrappers are only installed in a traced run.

A method's layer is the module of the object it runs on, so ``eval`` on an
``MlpUdf`` counts as ``mlp`` even though ``UdfField`` defines it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("grid", "fields", "distance", "mlp", "extract", "postprocess",
          "mesh", "diffgeom", "metrics", "render", "io")

FIELD_QUERIES = {"eval", "grad_x", "param_sensitivity", "eval_grad",
                 "degenerate_gradient_mask", "closest_point"}

# stage metrics: the layer's time inside these calls, nested same-layer
# calls included, calls into other layers excluded
STAGES = {
    "grid.sample_s": {"sample_grid", "sample_grid_values"},
    "grid.cull_s": {"candidate_cells"},
    "postprocess.prune_s": {"remove_spurious_facets"},
    "postprocess.smooth_s": {"smooth_borders"},
    "mesh.edges_s": {"TriMesh.edges_with_counts"},
    "diffgeom.jacobian_s": {"assemble_jacobian"},
    "diffgeom.normals_s": {"vertex_normals"},
    "diffgeom.outward_s": {"outward_vectors"},
    "metrics.sample_s": {"sample_surface"},
    "metrics.nn_s": {"chamfer", "normal_consistency", "nearest_neighbor_sq"},
    "metrics.ic_s": {"image_consistency"},
    "metrics.inflate_s": {"inflate_mesh"},
    "render.view_s": {"render_view"},
    "io.write_s": {"write_obj", "write_ply", "write_mesh", "write_xyz"},
    "io.read_s": {"read_obj", "read_ply", "read_mesh", "read_xyz"},
}

# whole-layer self time under the name the layer's table uses
LAYER_TIMES = {"distance.query_s": "distance", "fields.query_s": "fields",
               "mlp.query_s": "mlp", "extract.s": "extract"}

PER_LAYER = (
    "grid.sample_s", "grid.corners", "grid.useful_corner_ratio", "grid.cull_s",
    "grid.candidate_ratio",
    "distance.query_s", "distance.points", "distance.us_per_point",
    "fields.query_s", "fields.points", "fields.sens_points",
    "mlp.query_s", "mlp.points", "mlp.forward_passes",
    "extract.s", "extract.candidate_cells", "extract.no_anchor_cells",
    "extract.triangulated_ratio", "extract.faces",
    "postprocess.prune_s", "postprocess.faces_pruned", "postprocess.smooth_s",
    "postprocess.border_vertices_moved",
    "mesh.edges_s", "mesh.edges_calls",
    "diffgeom.jacobian_s", "diffgeom.normals_s", "diffgeom.outward_s",
    "diffgeom.probe_points", "diffgeom.junctions", "diffgeom.skipped_iters",
    "metrics.sample_s", "metrics.nn_s", "metrics.ic_s", "metrics.inflate_s",
    "render.view_s", "render.views", "render.faces_per_s",
    "io.write_s", "io.read_s", "io.bytes",
) + tuple(f"{layer}.self_s" for layer in LAYERS) + (
    "trace.untraced_op_s", "trace.traced_op_s", "trace.overhead_s",
    "trace.self_sum_s", "trace.unattributed_s", "trace.coverage", "trace.spans",
)

NAME, LAYER, T0, T1, PARENT, CHILD = range(6)


def _arg(fn_sig, args, kwargs, name):
    return fn_sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.spans = []            # [name, layer, t0, t1, parent, child time]
        self.counts = Counter()
        self._stack = []
        self._cand = []            # (cell indices, resolution) per cull
        self._smoothed = []        # (vertices in, vertices out) per smooth
        self._restore = []         # (owner, attribute, original) per wrapper

    # -- installation ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public callables of every layer module of ``package``."""
        replaced = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = self._wrap(obj, obj.__name__, lambda a, l=layer: l)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
        mlp_cls = package.mlp.MlpUdf
        if "_forward" in vars(mlp_cls):
            forward = mlp_cls._forward

            def counted(*args, **kwargs):
                self.counts["mlp.forward_passes"] += 1
                return forward(*args, **kwargs)
            self._replace(mlp_cls, "_forward", counted)
        # rebind every module-level reference, including the package namespace
        for name, module in list(sys.modules.items()):
            if name == package.__name__ or name.startswith(package.__name__ + "."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced and inspect.isfunction(obj):
                        self._replace(module, attr, replaced[id(obj)])

    def uninstall(self) -> None:
        """Put every original back; spans recorded so far are kept."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, default_layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._replace(cls, attr, self._wrap(
                    obj, attr, self._receiver_layer(default_layer), method=True))
            elif isinstance(obj, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(
                    obj.__func__, attr, self._receiver_layer(default_layer), method=True)))

    @staticmethod
    def _receiver_layer(default):
        def layer_of(args):
            owner = args[0] if isinstance(args[0], type) else type(args[0])
            layer = owner.__module__.rsplit(".", 1)[-1]
            return layer if layer in LAYERS else default
        return layer_of

    def _wrap(self, fn, short, layer_of, method=False):
        sig = inspect.signature(fn)
        hook = self._hook_for(short)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = layer_of(args)
            name = short
            if method:
                owner = args[0] if isinstance(args[0], type) else type(args[0])
                name = f"{owner.__name__}.{short}"
            stack = self._stack
            parent = stack[-1] if stack else -1
            span = [name, layer, 0.0, 0.0, parent, 0.0]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span[T0], span[T1] = t0, t1
                if parent >= 0:
                    self.spans[parent][CHILD] += t1 - t0
            if hook is not None:
                hook(sig, args, kwargs, out, span)
            return out
        return wrapper

    # -- boundary counters -------------------------------------------------------

    def _hook_for(self, short):
        if short in FIELD_QUERIES:
            return self._count_field_query
        return {
            "sample_grid": self._count_corners, "sample_grid_values": self._count_corners,
            "candidate_cells": self._count_candidates,
            "query": self._count_distance_points,
            "extract_mesh_detailed": self._count_extract,
            "remove_spurious_facets": self._count_pruned,
            "smooth_borders": self._count_smoothed,
            "edges_with_counts": self._count_edges,
            "render_view": self._count_render,
        }.get(short, self._count_io if short.startswith(("read_", "write_")) else None)

    def _parent(self, span):
        return self.spans[span[PARENT]] if span[PARENT] >= 0 else None

    def _count_field_query(self, sig, args, kwargs, out, span):
        parent = self._parent(span)
        layer = span[LAYER]
        if parent is not None and parent[LAYER] == layer \
                and parent[NAME].rsplit(".", 1)[-1] in FIELD_QUERIES:
            return                  # a nested query; its caller counted it
        n = len(np.asarray(_arg(sig, args, kwargs, "x"), dtype=float).reshape(-1, 3))
        if layer in ("fields", "mlp"):
            self.counts[f"{layer}.points"] += n
            if span[NAME].endswith(".param_sensitivity") and layer == "fields":
                self.counts["fields.sens_points"] += n
        if parent is not None and parent[LAYER] == "diffgeom" \
                and parent[NAME] != "fit_point_cloud":
            self.counts["diffgeom.probe_points"] += n

    def _count_corners(self, sig, args, kwargs, out, span):
        self.counts["grid.corners"] += _arg(sig, args, kwargs, "spec").resolution ** 3

    def _count_candidates(self, sig, args, kwargs, out, span):
        samples = _arg(sig, args, kwargs, "samples")
        spec = _arg(sig, args, kwargs, "spec") or samples.spec
        self.counts["grid.cells"] += spec.n_cells
        self.counts["grid.candidate_cells"] += len(out)
        self.counts["grid.sampled_corners"] += spec.resolution ** 3
        self._cand.append((np.asarray(out), spec.resolution))

    def _count_distance_points(self, sig, args, kwargs, out, span):
        if span[LAYER] == "distance":
            points = _arg(sig, args, kwargs, "points")
            self.counts["distance.points"] += len(np.asarray(points).reshape(-1, 3))

    def _count_extract(self, sig, args, kwargs, out, span):
        mesh, stats = out
        self.counts["extract.candidate_cells"] += stats.candidate_cells
        self.counts["extract.no_anchor_cells"] += stats.skipped_no_anchor
        self.counts["extract.triangulated_cells"] += stats.triangulated_cells
        self.counts["extract.faces"] += mesh.n_faces

    def _count_pruned(self, sig, args, kwargs, out, span):
        self.counts["postprocess.faces_pruned"] += \
            _arg(sig, args, kwargs, "mesh").n_faces - out.n_faces

    def _count_smoothed(self, sig, args, kwargs, out, span):
        self._smoothed.append((_arg(sig, args, kwargs, "mesh").vertices, out.vertices))

    def _count_edges(self, sig, args, kwargs, out, span):
        self.counts["mesh.edges_calls"] += 1

    def _count_render(self, sig, args, kwargs, out, span):
        self.counts["render.views"] += 1
        self.counts["render.faces"] += _arg(sig, args, kwargs, "mesh").n_faces

    def _count_io(self, sig, args, kwargs, out, span):
        parent = self._parent(span)
        if parent is not None and parent[LAYER] == "io":
            return
        path = _arg(sig, args, kwargs, "path")
        if os.path.exists(path):
            self.counts["io.bytes"] += os.path.getsize(path)

    # -- summary -----------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time of its child spans."""
        return [s[T1] - s[T0] - s[CHILD] for s in self.spans]

    def summary(self, n_ops: int, extra_counts: dict) -> dict:
        """Per-layer metrics, per operation."""
        selfs = self.self_times()
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            children[s[PARENT]].append(i)

        def stage_time(i):
            layer = self.spans[i][LAYER]
            return selfs[i] + sum(stage_time(c) for c in children[i]
                                  if self.spans[c][LAYER] == layer)

        def outermost(i, names):
            # no same-layer caller of this span already counts toward the stage
            p = self.spans[i][PARENT]
            while p >= 0 and self.spans[p][LAYER] == self.spans[i][LAYER]:
                if self.spans[p][NAME] in names:
                    return False
                p = self.spans[p][PARENT]
            return True

        layer_self = Counter()
        for s, t in zip(self.spans, selfs):
            layer_self[s[LAYER]] += t

        out = {}
        for metric, names in STAGES.items():
            out[metric] = sum(stage_time(i) for i, s in enumerate(self.spans)
                              if s[NAME] in names and outermost(i, names))
        for metric, layer in LAYER_TIMES.items():
            out[metric] = layer_self[layer]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]

        c = Counter(self.counts)
        c.update(extra_counts)
        for before, after in self._smoothed:
            c["postprocess.border_vertices_moved"] += int(np.any(before != after, axis=1).sum())
        for key in ("grid.corners", "distance.points", "fields.points", "fields.sens_points",
                    "mlp.points", "mlp.forward_passes", "extract.candidate_cells",
                    "extract.no_anchor_cells", "extract.faces", "postprocess.faces_pruned",
                    "postprocess.border_vertices_moved", "mesh.edges_calls",
                    "diffgeom.probe_points", "diffgeom.junctions", "diffgeom.skipped_iters",
                    "render.views", "io.bytes"):
            out[key] = c[key]
        out["trace.self_sum_s"] = sum(layer_self.values())
        out["trace.spans"] = len(self.spans)
        out = {k: v / n_ops for k, v in out.items()}

        useful = sum(len(_cell_corners(cells, res)) for cells, res in self._cand)
        out["grid.useful_corner_ratio"] = _ratio(useful, c["grid.sampled_corners"])
        out["grid.candidate_ratio"] = _ratio(c["grid.candidate_cells"], c["grid.cells"])
        out["extract.triangulated_ratio"] = _ratio(c["extract.triangulated_cells"],
                                                   c["extract.candidate_cells"])
        out["distance.us_per_point"] = _ratio(1e6 * out["distance.query_s"],
                                              out["distance.points"])
        out["render.faces_per_s"] = _ratio(c["render.faces"], n_ops * out["render.view_s"])
        return out


def _ratio(num, den):
    return float(num) / den if den else 0.0


def _cell_corners(cells, resolution):
    """Distinct lattice corners of the given cells (linear cell indices)."""
    m = resolution - 1
    i, j, k = cells % m, (cells // m) % m, cells // (m * m)
    corners = []
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                corners.append((i + dx) + resolution * ((j + dy) + resolution * (k + dz)))
    return np.unique(np.concatenate(corners)) if len(cells) else np.zeros(0, np.int64)
