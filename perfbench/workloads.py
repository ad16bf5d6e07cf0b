"""The four benchmark workloads.

Each workload has four parts:

* ``build(seed, workdir)`` makes the inputs from the seed, writes them to
  files and returns a JSON-able description. It runs in the parent, outside
  every timed region.
* ``setup(inputs)`` loads the inputs and builds the field. It is what
  ``setup_s`` times, in a fresh interpreter.
* ``op(state)`` is one closed-loop operation. It returns the stage times,
  the counters the library hands back, and the outputs to check.
* ``check(state, out)`` returns the failed output checks of one operation.
  The checks use ``geometry``, not the library code they verify.

``probe`` names the speed-probe parts (``worker.SpeedProbe``) that match
the workload's hot path.

The seed changes only the generated inputs: the garment's sub-cell offset,
the network's filler weights and latent code, the target cloud, and the
jitter of the predicted mesh.
"""

from __future__ import annotations

import json
import os
import re
import time
import warnings

import numpy as np

import geometry

RES = 65
BOX = (-1.0037, 0.9963)       # generic box: no corner lands on a primitive
HERE = os.path.dirname(os.path.abspath(__file__))
IC_RECORD = os.path.join(HERE, "ic_recorded.json")
IC_VARIANTS = 16              # score-pair jitter is drawn from seed % 16
REF_SAMPLES = 20000


def seeded(seed):
    """Generator for any integer seed; negative ones wrap instead of raising."""
    return np.random.default_rng(seed % 2 ** 32)


def grid_spec(um):
    return um.GridSpec(RES, (BOX[0],) * 3, (BOX[1],) * 3)


def concat(um, parts, offset=(0.0, 0.0, 0.0)):
    verts, faces, base = [], [], 0
    for m in parts:
        verts.append(m.vertices)
        faces.append(m.faces + base)
        base += m.n_vertices
    return um.TriMesh(np.vstack(verts) + np.asarray(offset), np.vstack(faces))


def garment(um, cyl=(16, 4), disk_segments=16, patch_subdivisions=2, offset=(0, 0, 0)):
    """Open tube, a disk above it and a two-layer flap below it."""
    P = um.primitives
    return concat(um, [P.open_cylinder(0.45, -0.55, 0.25, *cyl),
                       P.disk(0.3, 0.45, disk_segments),
                       P.parallel_patches(0.5, -0.8, -0.77, patch_subdivisions)],
                  offset)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def mesh_path(um, field, spec, out_path):
    """The ``udfmesh mesh`` pipeline, with default pruning and smoothing."""
    samples = um.sample_grid(field, spec)
    mesh, stats = um.extract_mesh_detailed(field, spec, samples=samples)
    raw_faces = mesh.n_faces
    mesh = um.remove_spurious_facets(mesh, field, 0.5 * spec.cell_diagonal)
    mesh = um.smooth_borders(mesh)
    um.write_obj(mesh, out_path)
    return mesh, stats, raw_faces


def mesh_counters(stats, raw_faces, mesh):
    return {"crack_edges": stats.edge_disagreements,
            "faces_pruned": raw_faces - mesh.n_faces,
            "faces": mesh.n_faces}


# -- mesh-garment ---------------------------------------------------------------

class MeshGarment:
    name = "mesh-garment"
    why = ("mesh path then inflate on the exact UDF of a 160-face open garment: "
           "dense corner sampling through the kd-tree distance query dominates")
    # kd-tree queries and vector arithmetic driven from Python
    probe = ("loop", "vector", "gather")

    def build(self, um, seed, workdir):
        rng = seeded(seed)
        step = (BOX[1] - BOX[0]) / (RES - 1)
        offset = rng.uniform(-0.5, 0.5, 3) * step
        ref = garment(um, offset=offset)
        ref_path = os.path.join(workdir, "garment.obj")
        um.write_obj(ref, ref_path)
        samples = geometry.sample_triangles(ref.vertices, ref.faces, REF_SAMPLES, rng)
        np.save(os.path.join(workdir, "ref_samples.npy"), samples)
        return {"reference": ref_path, "ref_samples": os.path.join(workdir, "ref_samples.npy"),
                "out": os.path.join(workdir, "out.obj"),
                "inflated": os.path.join(workdir, "inflated.obj")}

    def setup(self, um, inputs):
        ref = um.read_mesh(inputs["reference"])
        return {"um": um, "inputs": inputs, "ref": ref,
                "field": um.MeshUdf(ref), "spec": grid_spec(um)}

    def op(self, state):
        um, field, spec, inputs = state["um"], state["field"], state["spec"], state["inputs"]
        (mesh, stats, raw), mesh_s = timed(mesh_path, um, field, spec, inputs["out"])
        t0 = time.perf_counter()
        shell = um.inflate_mesh(field, spec)
        um.write_obj(shell, inputs["inflated"])
        inflate_s = time.perf_counter() - t0
        return {"times": {"mesh_s": mesh_s, "inflate_s": inflate_s},
                "counters": mesh_counters(stats, raw, mesh),
                "mesh": mesh, "shell": shell}

    def check(self, state, out):
        ref, spec, mesh = state["ref"], state["spec"], out["mesh"]
        diag = spec.cell_diagonal
        fails = []
        if mesh.n_faces == 0:
            return ["mesh-garment: empty output"]
        d_out = geometry.point_triangle_distance(mesh.vertices, ref.vertices, ref.faces)
        if d_out.max() > 0.5 * diag:
            fails.append(f"vertex {d_out.max():.4g} from the reference (limit {0.5 * diag:.4g})")
        samples = state.setdefault("ref_samples", np.load(state["inputs"]["ref_samples"]))
        gap = geometry.max_distance_to_mesh(samples, mesh.vertices, mesh.faces, diag)
        if gap > diag:
            fails.append(f"hole: reference sample {gap:.4g} from the output (limit {diag:.4g})")
        if geometry.border_edge_count(mesh.faces) == 0:
            fails.append("output has no border")
        shell = out["shell"]
        if shell.n_faces == 0 or geometry.border_edge_count(shell.faces):
            fails.append("inflated shell is not watertight")
        return fails

    def quality(self, state, out, rng):
        mesh = out["mesh"]
        samples = state.setdefault("ref_samples", np.load(state["inputs"]["ref_samples"]))
        return {"mesh_chd": geometry.chamfer_to_surface(
            mesh.vertices, mesh.faces, samples, REF_SAMPLES, rng)}


# -- mesh-mlp -------------------------------------------------------------------

HIDDEN = 128
ORDER = 5
LATENT = 8


def wavy_patch_network(rng):
    """A 3x128 rectifier network that computes exactly

        max(|x3 - 0.05 sin(pi x1) - 0.03 cos(2 pi x2) - w.z|, |x1| - 0.5, |x2| - 0.5)

    in its first few units per layer. The other units are random filler
    whose outputs carry zero weight, so a pass costs what a dense trained
    network of this size costs. Returns (weights, biases, w).
    """
    n_in = 3 * (1 + 2 * ORDER) + LATENT
    w = rng.normal(0.0, 0.02, LATENT)
    sizes = [n_in, HIDDEN, HIDDEN, HIDDEN]
    weights, biases = [], []
    for i in range(3):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / sizes[i]), (sizes[i + 1], sizes[i])))
        biases.append(rng.normal(0.0, 0.1, sizes[i + 1]))
    W1, W2, W3 = weights
    # layer 1: +-s, +-x1, +-x2; s uses x3, sin(pi x1), cos(2 pi x2), latent
    s = np.zeros(n_in)
    s[2], s[3], s[13] = 1.0, -0.05, -0.03
    s[3 * (1 + 2 * ORDER):] = -w
    W1[:6] = 0.0
    W1[0], W1[1] = s, -s
    W1[2, 0], W1[3, 0], W1[4, 1], W1[5, 1] = 1.0, -1.0, 1.0, -1.0
    biases[0][:6] = 0.0
    # layer 2: a = |s|, relu(|x1| - 0.5 - a), |x2|
    W2[:3] = 0.0
    W2[0, [0, 1]] = 1.0
    W2[1, [2, 3]], W2[1, [0, 1]] = 1.0, -1.0
    W2[2, [4, 5]] = 1.0
    biases[1][:3] = 0.0, -0.5, 0.0
    # layer 3: m = max(a, |x1| - 0.5), relu(|x2| - 0.5 - m); output sums them
    W3[:2] = 0.0
    W3[0, [0, 1]] = 1.0
    W3[1, 2], W3[1, [0, 1]] = 1.0, -1.0
    biases[2][:2] = 0.0, -0.5
    W4 = np.zeros((1, HIDDEN))
    W4[0, :2] = 1.0
    weights.append(W4)
    biases.append(np.zeros(1))
    return weights, biases, w


def wavy_patch_udf(pts, w, z):
    x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
    s = x3 - 0.05 * np.sin(np.pi * x1) - 0.03 * np.cos(2 * np.pi * x2) - float(w @ z)
    return np.maximum.reduce([np.abs(s), np.abs(x1) - 0.5, np.abs(x2) - 0.5])


class MeshMlp:
    name = "mesh-mlp"
    why = ("mesh path on a 3x128 rectifier MLP field (encoding order 5, latent 8): "
           "network passes dominate; no Lipschitz bound and no kd-tree")
    # matrix products and elementwise passes over large activations; the
    # interpreter parts tracked it worse than the raw time did
    probe = ("gather", "matmul")

    def build(self, um, seed, workdir):
        rng = seeded(seed)
        weights, biases, w = wavy_patch_network(rng)
        z = rng.normal(0.0, 1.0, LATENT)
        path = os.path.join(workdir, "net.json")
        um.MlpUdf(weights, biases, ORDER, LATENT).save(path)
        return {"weights": path, "latent": z.tolist(), "w": w.tolist(),
                "out": os.path.join(workdir, "out.obj")}

    def setup(self, um, inputs):
        return {"um": um, "inputs": inputs, "spec": grid_spec(um),
                "field": um.MlpUdf.from_file(inputs["weights"], latent=inputs["latent"])}

    def op(self, state):
        um, field, spec = state["um"], state["field"], state["spec"]
        (mesh, stats, raw), mesh_s = timed(mesh_path, um, field, spec, state["inputs"]["out"])
        return {"times": {"mesh_s": mesh_s},
                "counters": mesh_counters(stats, raw, mesh), "mesh": mesh}

    def check(self, state, out):
        mesh, inputs = out["mesh"], state["inputs"]
        if mesh.n_faces == 0:
            return ["mesh-mlp: empty output"]
        fails = []
        u = wavy_patch_udf(mesh.vertices, np.array(inputs["w"]), np.array(inputs["latent"]))
        limit = 0.5 * state["spec"].cell_diagonal
        if np.abs(u).max() > limit:
            fails.append(f"vertex field value {np.abs(u).max():.4g} (limit {limit:.4g})")
        if geometry.border_edge_count(mesh.faces) == 0:
            fails.append("output has no border")
        return fails

    def quality(self, state, out, rng):
        # the exact surface: points on the patch, where the analytic field is 0
        inputs = state["inputs"]
        xy = rng.uniform(-0.5, 0.5, (REF_SAMPLES, 2))
        height = float(np.array(inputs["w"]) @ np.array(inputs["latent"]))
        zz = (0.05 * np.sin(np.pi * xy[:, 0]) + 0.03 * np.cos(2 * np.pi * xy[:, 1])
              + height)
        ref = np.column_stack([xy, zz])
        mesh = out["mesh"]
        return {"mesh_chd": geometry.chamfer_to_surface(
            mesh.vertices, mesh.faces, ref, REF_SAMPLES, rng)}


# -- fit-cylinder ---------------------------------------------------------------

TARGET_RADIUS = 0.45
FIT_ITERS = 20
FLOOR_FACTOR = 2.0
JUNCTION_RE = re.compile(r"^(\d+) border vertices join 3\+ border edges")


class FitCylinder:
    name = "fit-cylinder"
    why = ("20-iteration radius fit of an open cylinder to 400 points: analytic "
           "queries are cheap, so mesh-side Python (Jacobian, extraction, edges) dominates")
    # mesh-side Python over small and mid-sized arrays
    probe = ("loop", "vector", "gather")

    def build(self, um, seed, workdir):
        rng = seeded(seed)
        theta = rng.uniform(0.0, 2 * np.pi, 400)
        pts = np.column_stack([TARGET_RADIUS * np.cos(theta),
                               TARGET_RADIUS * np.sin(theta),
                               rng.uniform(-0.6, 0.6, 400)])
        path = os.path.join(workdir, "target.xyz")
        um.write_xyz(pts, path)
        return {"target": path}

    def setup(self, um, inputs):
        return {"um": um, "target": um.read_xyz(inputs["target"]), "spec": grid_spec(um),
                "field": um.OpenCylinderUdf(0.6, (-0.6, 0.6))}

    def op(self, state):
        um = state["um"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit, wall = timed(um.fit_point_cloud, state["field"], state["target"],
                              state["spec"], iters=FIT_ITERS, lr=0.01)
        junctions = 0
        for w in caught:
            m = JUNCTION_RE.match(str(w.message))
            if m:
                junctions += int(m.group(1))
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        skipped = sum(1 for _, msg in fit.events if "skipped" in msg)
        return {"times": {"fit_iter_s": wall / FIT_ITERS},
                "counters": {"junctions": junctions, "skipped_iters": skipped,
                             "fit_radius_err": abs(float(fit.params[0]) - TARGET_RADIUS)},
                "fit": fit}

    def check(self, state, out):
        fit, fails = out["fit"], []
        err = abs(float(fit.params[0]) - TARGET_RADIUS)
        if not err < 2e-3:
            fails.append(f"radius {fit.params[0]:.5f}: |r - {TARGET_RADIUS}| = {err:.3g} >= 2e-3")
        loss = np.array([t[3] for t in fit.trace])
        if len(loss) != FIT_ITERS or not np.all(np.isfinite(loss)):
            fails.append("loss trace incomplete or not finite")
        else:
            # descent never goes up. Near its floor the Chamfer loss of 400
            # targets against resampled surface points wanders by 2-30%, so
            # the floor region is anything within FLOOR_FACTOR of the lowest
            # loss, and once there the loss must not climb back out.
            band = FLOOR_FACTOR * loss.min()
            entered = int(np.argmax(loss <= band))
            if np.any(np.diff(loss[:entered + 1]) > 0):
                fails.append(f"loss increased during descent: {loss.tolist()}")
            if np.any(loss[entered:] > band):
                fails.append(f"loss climbed out of its floor region: {loss.tolist()}")
        if fit.events:
            fails.append(f"fit events: {fit.events}")
        return fails

    def quality(self, state, out, rng):
        return {}


# -- score-pair -----------------------------------------------------------------

SCORE_SAMPLES = 30000
SCORE_SIZE = 256


def score_pair_meshes(um, variant):
    """The 8.6k-face jittered prediction and the 1.8k-face clean reference."""
    pred = garment(um, cyl=(64, 52), disk_segments=64, patch_subdivisions=22)
    jitter = np.random.default_rng(1000 + variant).normal(0.0, 0.002, pred.vertices.shape)
    pred = um.TriMesh(pred.vertices + jitter, pred.faces)
    gt = garment(um, cyl=(32, 24), disk_segments=32, patch_subdivisions=8)
    return pred, gt


class ScorePair:
    name = "score-pair"
    why = ("read two meshes and score CHD, NC and IC (30k samples, 256 px, 8 views) "
           "of an 8.6k-face jittered garment against a 1.8k-face clean one: rasterising dominates")
    # a Python loop over faces with tiny numpy calls: the loop alone
    # tracked it best
    probe = ("loop",)

    def build(self, um, seed, workdir):
        variant = seed % IC_VARIANTS
        pred, gt = score_pair_meshes(um, variant)
        paths = {"pred": os.path.join(workdir, "pred.obj"),
                 "gt": os.path.join(workdir, "gt.obj")}
        um.write_obj(pred, paths["pred"])
        um.write_obj(gt, paths["gt"])
        return {**paths, "variant": variant}

    def setup(self, um, inputs):
        return {"um": um, "inputs": inputs,
                "pred": um.read_mesh(inputs["pred"]), "gt": um.read_mesh(inputs["gt"])}

    def op(self, state):
        um, inputs = state["um"], state["inputs"]
        t0 = time.perf_counter()
        pred = um.read_mesh(inputs["pred"])
        gt = um.read_mesh(inputs["gt"])
        report = um.evaluate_pair(pred, gt, SCORE_SAMPLES, 0, SCORE_SIZE)
        score_s = time.perf_counter() - t0
        return {"times": {"score_s": score_s},
                "counters": {"chd": report.chd, "nc": report.nc, "ic": report.ic,
                             **{"timing_" + k: v for k, v in report.timings.items()}},
                "report": report}

    def check(self, state, out):
        um, report, fails = state["um"], out["report"], []
        if "brute" not in state:
            a_pts, a_nrm, _, _ = um.sample_surface(state["pred"], SCORE_SAMPLES, 0)
            b_pts, b_nrm, _, _ = um.sample_surface(state["gt"], SCORE_SAMPLES, 1)
            state["brute"] = geometry.brute_chamfer_nc(a_pts, a_nrm, b_pts, b_nrm)
        chd, nc = state["brute"]
        if not np.isclose(report.chd, chd, rtol=1e-9, atol=0):
            fails.append(f"CHD {report.chd!r} != brute force {chd!r}")
        if not np.isclose(report.nc, nc, rtol=1e-9, atol=0):
            fails.append(f"NC {report.nc!r} != brute force {nc!r}")
        if "ic_recorded" not in state:
            with open(IC_RECORD) as fh:
                state["ic_recorded"] = json.load(fh)["ic"][str(state["inputs"]["variant"])]
        recorded = state["ic_recorded"]
        if not np.isclose(report.ic, recorded, rtol=1e-9, atol=0):
            fails.append(f"IC {report.ic!r} != recorded {recorded!r}")
        return fails

    def quality(self, state, out, rng):
        return {}


WORKLOADS = {w.name: w for w in (MeshGarment(), MeshMlp(), FitCylinder(), ScorePair())}
