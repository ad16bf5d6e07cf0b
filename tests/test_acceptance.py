"""Acceptance suite: one test per shipping criterion, strict tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one status line
per criterion. Criterion 2's 30k-sample Chamfer bound is measured sample to
surface: each side's samples are scored by their exact distance to the
other surface. Sample-to-sample nearest-neighbor distances cannot be used
at this sample count, because two independent 30k samplings of the same
unit patch already measure about 2/(pi*30000) = 2.1e-5, above the bound.
"""

import time

import numpy as np
import pytest

from udfmesh import (GridSpec, MeshUdf, RectanglePatchUdf, SphereShellUdf,
                     TranslatedPlaneUdf, assemble_jacobian, chamfer,
                     directional_gradcheck, extract_mesh, fit_point_cloud,
                     image_consistency, inflate_mesh, normal_consistency,
                     primitives, remove_spurious_facets, sample_surface, smooth_borders)
from udfmesh.cli import main as cli_main
from udfmesh.diffgeom import DEFAULT_ALPHA, vertex_rows

from conftest import generic_spec
from oracles import brute_chamfer, signed_marching_cubes, vertex_sets_match

PATCH_Z = 0.05


def mesh_pipeline(field, spec, smooth=True):
    mesh = extract_mesh(field, spec)
    mesh = remove_spurious_facets(mesh, field, 0.5 * spec.cell_diagonal)
    if smooth:
        mesh = smooth_borders(mesh, steps=5)
    return mesh


def surface_chd(mesh_a, mesh_b, n=30000, seed=0):
    a = sample_surface(mesh_a, n, seed)[0]
    b = sample_surface(mesh_b, n, seed + 1)[0]
    return chamfer(a, b)


def test_criterion_1_signed_mc_equivalence():
    """Pseudo-sign extraction of |plane| and ||x|-0.5| equals an independent
    signed marching cubes: same vertex set (1e-6) and face count, under 5 s."""
    t0 = time.perf_counter()
    checks = []
    for n in (17, 33, 65):
        # plane at a height off the dyadic lattice
        spec = GridSpec(n)
        ours = extract_mesh(TranslatedPlaneUdf(0.1), spec)
        pts = spec.corner_points()
        signed = np.ascontiguousarray(
            (pts[:, 2] - 0.1).reshape(n, n, n, order="F"))
        overts, ofaces = signed_marching_cubes(signed, spec)
        assert ours.n_faces == len(ofaces), f"plane N={n} face count"
        assert vertex_sets_match(ours.vertices, overts), f"plane N={n} vertices"
        checks.append(("plane", n, ours.n_faces))

        # half-unit sphere; the lattice is shifted into generic position so
        # the surface never passes exactly through a corner (exact contact
        # is the one singular configuration, tested separately)
        spec = generic_spec(n)
        field = SphereShellUdf(0.5)
        ours = extract_mesh(field, spec)
        pts = spec.corner_points()
        signed = np.ascontiguousarray(
            (np.linalg.norm(pts, axis=1) - 0.5).reshape(n, n, n, order="F"))
        overts, ofaces = signed_marching_cubes(signed, spec)
        assert ours.n_faces == len(ofaces), f"sphere N={n} face count"
        assert vertex_sets_match(ours.vertices, overts), f"sphere N={n} vertices"
        checks.append(("sphere", n, ours.n_faces))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 runtime {elapsed:.2f} s"
    print(f"\nCRITERION 1: PASS - signed-MC equivalence at N=17/33/65 "
          f"({elapsed:.2f} s, faces {[c[2] for c in checks]})")


def test_criterion_2_open_surface_fidelity():
    """Exact-UDF meshing of an open unit patch at N=129: open output, no
    spurious faces, and a two-sided 30k-sample Chamfer, measured from each
    side's samples to the other surface, below (0.25*step)^2."""
    t0 = time.perf_counter()
    spec = GridSpec(129)
    step = float(spec.step[0])
    gt = primitives.square_patch(side=1.0, z=PATCH_Z, subdivisions=8)
    field = MeshUdf(primitives.square_patch(side=1.0, z=PATCH_Z))
    mesh = mesh_pipeline(field, spec)
    elapsed = time.perf_counter() - t0

    assert len(mesh.border_edges()) > 0, "output must be open"
    tol = 0.5 * spec.cell_diagonal
    assert field.eval(mesh.vertices).max() <= tol, "spurious faces survived"
    assert elapsed < 10.0, f"criterion 2 runtime {elapsed:.2f} s"

    # two-sided Chamfer, sample to surface: accuracy scores extracted
    # samples against the reference surface, completeness scores reference
    # samples against the extracted mesh
    ours_pts = sample_surface(mesh, 30000, 0)[0]
    gt_pts = sample_surface(gt, 30000, 1)[0]
    accuracy = float((MeshUdf(gt).eval(ours_pts) ** 2).mean())
    completeness = float((MeshUdf(mesh).eval(gt_pts) ** 2).mean())
    chd = accuracy + completeness
    bound = (0.25 * step) ** 2

    # context: the library's sample-to-sample Chamfer of the same samples,
    # and the floor two samplings of the *same* surface produce
    sampled = chamfer(ours_pts, gt_pts)
    floor = surface_chd(gt, gt, seed=100)
    print(f"\nCRITERION 2: structure PASS ({elapsed:.2f} s); CHD clause: "
          f"sample-to-surface {chd:.3e} (accuracy {accuracy:.3e}, "
          f"completeness {completeness:.3e}) vs bound {bound:.3e}; "
          f"sample-to-sample {sampled:.3e}, same-surface floor {floor:.3e}")
    assert chd < bound, (
        f"sample-to-surface Chamfer {chd:.3e} (accuracy {accuracy:.3e}, "
        f"completeness {completeness:.3e}) exceeds (0.25*step)^2 = "
        f"{bound:.3e}. Distances are measured to the exact surfaces because "
        f"sample-to-sample Chamfer has a floor of ~2/(pi*30000) = "
        f"{2/(np.pi*30000):.3e} at 30k samples (same-surface {floor:.3e}), "
        f"above the bound.")


def test_criterion_3_inflation_ordering_and_resolution_sweep():
    """Open extraction beats the inflation baseline on Chamfer at N=129 on
    one- and two-patch scenes; across N in {33, 65, 129, 257} our error
    stays roughly flat while inflation's falls with resolution."""
    spec129 = GridSpec(129)

    results = {}
    for name, ref in (
        ("patch", primitives.square_patch(side=1.0, z=PATCH_Z)),
        ("two-patch", primitives.parallel_patches(
            1.0, PATCH_Z, PATCH_Z + 3 * float(spec129.step[2]))),
    ):
        gt = MeshUdf(ref)
        ours = mesh_pipeline(gt, spec129)
        shell = inflate_mesh(gt, spec129)
        assert shell.is_watertight(), f"{name}: inflation must be watertight"
        assert len(ours.border_edges()) > 0, f"{name}: ours must stay open"
        gt_fine = (ref if name == "two-patch"
                   else primitives.square_patch(side=1.0, z=PATCH_Z,
                                                subdivisions=8))
        chd_ours = surface_chd(ours, gt_fine)
        chd_infl = surface_chd(shell, gt_fine)
        assert chd_ours < chd_infl, (
            f"{name}: ours {chd_ours:.3e} !< inflation {chd_infl:.3e}")
        results[name] = (chd_ours, chd_infl)

    # resolution sweep on the single patch
    ref = primitives.square_patch(side=1.0, z=PATCH_Z)
    gt_fine = primitives.square_patch(side=1.0, z=PATCH_Z, subdivisions=8)
    sweep_ours, sweep_infl = [], []
    for n in (33, 65, 129, 257):
        spec = GridSpec(n)
        field = MeshUdf(ref)
        sweep_ours.append(surface_chd(mesh_pipeline(field, spec), gt_fine))
        sweep_infl.append(surface_chd(inflate_mesh(field, spec), gt_fine))

    assert all(a > b for a, b in zip(sweep_infl, sweep_infl[1:])), (
        f"inflation CHD must fall with resolution: {sweep_infl}")
    ours_ratio = max(sweep_ours) / min(sweep_ours)
    infl_ratio = max(sweep_infl) / min(sweep_infl)
    assert ours_ratio < 4.0, f"ours should stay roughly flat: {sweep_ours}"
    assert infl_ratio > 10.0, f"inflation should vary strongly: {sweep_infl}"
    assert all(o < i for o, i in zip(sweep_ours, sweep_infl))
    print(f"\nCRITERION 3: PASS - N=129 CHD ours/inflation: "
          f"patch {results['patch'][0]:.2e}/{results['patch'][1]:.2e}, "
          f"two-patch {results['two-patch'][0]:.2e}/{results['two-patch'][1]:.2e}; "
          f"sweep ours {[f'{v:.1e}' for v in sweep_ours]} "
          f"inflation {[f'{v:.1e}' for v in sweep_infl]}")


def test_criterion_4_derivative_correctness():
    """Probe-based vertex derivatives agree with re-extraction finite
    differences (plane, sphere) and closed-form border rates (half-plane),
    within max(10 % relative, 1e-4 absolute) at eps in {1e-3, 1e-4}."""
    t0 = time.perf_counter()

    plane = TranslatedPlaneUdf(0.07)
    for eps in (1e-3, 1e-4):
        rep = directional_gradcheck(plane, GridSpec(33), np.array([1.0]), eps=eps)
        assert rep.passed and rep.n_checked > 500, (
            f"plane eps={eps}: {rep.worst}")

    sphere = SphereShellUdf(0.45)
    for eps in (1e-3, 1e-4):
        rep = directional_gradcheck(sphere, generic_spec(129),
                                    np.array([1.0]), eps=eps)
        assert rep.passed and rep.n_checked > 5000, (
            f"sphere eps={eps}: worst {rep.worst}, max err {rep.max_error}")

    # half-plane border family: the widening edge moves at unit rate along
    # the outward direction; compare the assembled border rows against that
    # closed form at border vertices riding the moving edge (the extracted
    # border hugs it from just outside, within a cell)
    c0 = 0.3
    field = RectanglePatchUdf(c0, -0.5, (-0.5, 0.5), PATCH_Z)
    spec = GridSpec(129)
    mesh = mesh_pipeline(field, spec, smooth=False)
    jac = assemble_jacobian(mesh, field, alpha=1e-2)
    v = mesh.vertices
    on_moving_edge = (jac.is_border
                      & (v[:, 0] - c0 > -0.5 * jac.alpha)
                      & (v[:, 0] - c0 < 2 * float(spec.step[0]))
                      & (np.abs(v[:, 1]) < 0.4)
                      & (jac.directions[:, 0] > 0.7))
    assert on_moving_edge.sum() > 20
    rate_along_x = (jac.rows[on_moving_edge, 0]
                    * jac.directions[on_moving_edge, 0])
    for eps in (1e-3, 1e-4):
        err = np.abs(eps * rate_along_x - eps * 1.0)
        tol = np.maximum(0.1 * eps, 1e-4)
        assert (err <= tol).all(), (
            f"border eps={eps}: worst displacement error {err.max():.3e}")

    # sign invariance is exact, bit for bit
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.normal(size=3)
        p = 0.45 * p / np.linalg.norm(p)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        interior = np.zeros(1, dtype=bool)
        a = np.outer(n, vertex_rows(sphere, p[None], n[None], interior, DEFAULT_ALPHA)[0])
        b = np.outer(-n, vertex_rows(sphere, p[None], -n[None], interior, DEFAULT_ALPHA)[0])
        assert np.array_equal(a, b)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 4 runtime {elapsed:.2f} s"
    print(f"\nCRITERION 4: PASS - plane/sphere FD gradchecks, border "
          f"closed-form rate, exact sign invariance ({elapsed:.2f} s)")


def test_criterion_5_fitting_convergence_and_border_ablation():
    """Sphere-radius fit reaches the target within 1e-3 in at most 100
    iterations; dropping border gradients leaves the patch-extension fit
    strictly worse."""
    rng = np.random.default_rng(7)
    d = rng.normal(size=(200, 3))
    targets = 0.4 * d / np.linalg.norm(d, axis=1, keepdims=True)
    fit = fit_point_cloud(SphereShellUdf(0.6), targets, generic_spec(65),
                          iters=100, lr=0.005, seed=0)
    err = abs(fit.params[0] - 0.4)
    assert err < 1e-3, f"sphere fit ended at r={fit.params[0]:.5f}"

    rng = np.random.default_rng(3)
    targets = np.column_stack([rng.uniform(-0.5, 0.45, 300),
                               rng.uniform(-0.5, 0.5, 300),
                               np.full(300, PATCH_Z)])
    init = RectanglePatchUdf(0.2, -0.5, (-0.5, 0.5), PATCH_Z)
    spec = GridSpec(65)
    kwargs = dict(iters=60, lr=0.01, seed=0)
    with_border = fit_point_cloud(init, targets, spec, **kwargs)
    without = fit_point_cloud(init, targets, spec,
                              use_border_formula=False, **kwargs)
    assert with_border.trace[-1][1] < without.trace[-1][1], (
        "border gradients must strictly improve the final Chamfer")
    assert with_border.params[0] > without.params[0] + 0.05
    print(f"\nCRITERION 5: PASS - sphere fit |r-0.4|={err:.1e}; ablation "
          f"chamfer {with_border.trace[-1][1]:.4f} (border) vs "
          f"{without.trace[-1][1]:.4f} (no border)")


def test_criterion_6_metric_self_tests():
    """Chamfer matches brute force bitwise on 200-point sets, normal
    consistency ignores orientation, identity image consistency is at
    least 99.5, all inside 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.normal(size=(200, 3))
        b = rng.normal(size=(200, 3))
        assert chamfer(a, b) == brute_chamfer(a, b)

    pts = rng.uniform(-1, 1, (500, 3))
    nrm = rng.normal(size=(500, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    flip = np.where(rng.random(500)[:, None] < 0.5, -1.0, 1.0)
    assert normal_consistency(pts, nrm, pts, nrm * flip) == pytest.approx(100.0)

    patch = primitives.square_patch(side=1.0, z=PATCH_Z, subdivisions=8)
    sphere = extract_mesh(SphereShellUdf(0.5), generic_spec(33))
    ic_patch = image_consistency(patch, patch)
    ic_sphere = image_consistency(sphere, sphere)
    assert ic_patch >= 99.5 and ic_sphere >= 99.5

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 6 runtime {elapsed:.2f} s"
    print(f"\nCRITERION 6: PASS - brute-force chamfer equality, NC flip "
          f"invariance, IC(M,M) = {ic_patch:.2f}/{ic_sphere:.2f} "
          f"({elapsed:.2f} s)")


def test_criterion_7_postprocessing():
    """Bridging facets between two parallel patches vanish under pruning,
    and five smoothing steps strictly reduce border zig-zag."""
    spec = GridSpec(65)
    step = float(spec.step[2])
    z_lo = PATCH_Z
    z_hi = z_lo + 3 * step
    field = MeshUdf(primitives.parallel_patches(1.0, z_lo, z_hi))
    raw = extract_mesh(field, spec)

    mid = 0.5 * (z_lo + z_hi)
    def bridging(m):
        face_z = m.vertices[m.faces][:, :, 2]
        return int((np.abs(face_z - mid) < step).all(axis=1).sum())

    n_before = bridging(raw)
    pruned = remove_spurious_facets(raw, field, 0.5 * spec.cell_diagonal)
    n_after = bridging(pruned)
    assert n_before > 0, "scene must provoke spurious bridging facets"
    assert n_after == 0, f"{n_after} bridging facets survived pruning"

    # 5-step smoothing on a jagged open border strictly lowers deviation
    # from the fitted border line
    from test_postprocess import strip_mesh
    mesh = strip_mesh(zigzag=0.0, segments=24)
    jag = np.where(np.arange(25) % 2 == 1, 0.25, -0.15)
    verts = mesh.vertices.copy()
    verts[1:24, 1] += jag[1:24]
    mesh = mesh.with_vertices(verts)
    chain = np.arange(6, 19)
    def deviation(m):
        x, y = m.vertices[chain, 0], m.vertices[chain, 1]
        coef = np.polyfit(x, y, 1)
        return np.abs(y - np.polyval(coef, x)).max()
    before = deviation(mesh)
    after = deviation(smooth_borders(mesh, steps=5))
    assert after < before
    print(f"\nCRITERION 7: PASS - bridging facets {n_before} -> 0; zig-zag "
          f"deviation {before:.3f} -> {after:.3f} after 5 steps")


def test_criterion_8_determinism_across_thread_counts(tmp_path):
    """The full criterion-2 pipeline writes byte-identical OBJ files for
    1, 4 and max worker threads."""
    import os
    ref_path = tmp_path / "patch.obj"
    from udfmesh import write_obj
    write_obj(primitives.square_patch(side=1.0, z=PATCH_Z), ref_path)

    outputs = []
    n_max = max(os.cpu_count() or 1, 2)
    for threads in (1, 4, n_max):
        out = tmp_path / f"out_{threads}.obj"
        code = cli_main(["mesh", "--mesh", str(ref_path), "--res", "129",
                         "--threads", str(threads), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print(f"\nCRITERION 8: PASS - byte-identical OBJ for threads "
          f"(1, 4, {n_max}), {len(outputs[0])} bytes")
