"""Steadiness self-check: run the benchmark as two sets and compare them.

    python3 perfbench/steady.py --seeds 10 --sets 2
    python3 perfbench/steady.py --seeds 5 --sets 1 --workloads mesh-garment

Every set runs each workload once per seed, each set on its own seeds. For
each workload and end-to-end metric it prints the spread of every set (the
distance between the first and third quartile as a share of the median)
and how far the second set's median moved from the first's, both against
the metric's bound in ``BENCHMARK.json``. A spread must stay within the
bound (the aim is a third of it; ``setup_s`` is exempt) and the medians
must agree within it. Raw results go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench, workload, seed):
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output checks failed:\n{proc.stdout}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # unnormalised operation time, shown beside the registered metrics
    record = json.loads(lines[-2])["record"]
    metrics["op_s"] = record["op_s"]["median"]
    return metrics, wall


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)
    chosen = args.workloads.split(",")

    results = {w: [[] for _ in range(args.sets)] for w in chosen}
    walls = []
    for s in range(args.sets):
        for i in range(args.seeds):
            seed = args.first_seed + s * args.seeds + i
            for w in chosen:
                metrics, wall = run_once(bench, w, seed)
                results[w][s].append(metrics)
                walls.append(wall)
                print(f"set {s} {w:<14} seed {seed:<4} {wall:6.1f} s  "
                      + "  ".join(f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    out_path = os.path.join(ROOT, ".perfbench_out", f"steady-{int(time.time())}.json")
    with open(out_path, "w") as fh:
        json.dump({"args": vars(args), "results": results, "walls": walls}, fh)

    ok = True
    unsteady = []
    print(f"\nrun wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; "
          f"{4 + 22 * len(names)} runs take about {statistics.mean(walls) * (4 + 22 * len(names)):.0f} s")
    print(f"{'workload':<14}{'metric':<14}{'bound':>6}  spreads per set        drift   verdict")
    # the unnormalised operation time is shown for comparison, not judged
    shown = bench["end_to_end"] + [{"name": "op_s", "better": "lower", "bound": 0.25,
                                    "info": True}]
    for w in chosen:
        for m in shown:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in runs] for runs in results[w]]
            spreads = [spread(v) for v in sets] if args.seeds >= 2 else []
            medians = [statistics.median(v) for v in sets]
            worse = 1 if m["better"] == "lower" else -1
            drift = [worse * (md - medians[0]) / medians[0] for md in medians[1:]]
            held = name == "setup_s" or all(sp <= bound for sp in spreads)
            agree = all(d <= bound for d in drift)
            quiet = name == "setup_s" or all(sp <= bound / 3 for sp in spreads)
            verdict = "ok" if held and agree and quiet else (
                "ok, spread above bound/3" if held and agree else "UNSTEADY")
            if m.get("info"):
                verdict = "(not registered)"
            elif verdict == "UNSTEADY":
                ok = False
                unsteady.append(f"{w}/{name}")
            print(f"{w:<14}{name:<14}{bound:>6.2f}  "
                  + " ".join(f"{sp:6.3f}" for sp in spreads).ljust(22)
                  + " ".join(f"{d:+6.3f}" for d in drift).rjust(7) + f"   {verdict}")
    print("\nnot steady: " + (", ".join(unsteady) if unsteady else "none"))
    print(f"raw results: {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
