"""udfmesh benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload mesh-garment --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a source checkout; it imports ``src/udfmesh`` from
there and writes only under ``.perfbench_work/`` (inputs, removed after
the run) and ``.perfbench_out/`` (the last traced run's spans).

Each run builds the seed's inputs, times ``setup_s`` in fresh interpreters,
then measures in one fresh child process: one client issues each operation
after the previous one returns, for ``--seconds`` seconds, and every output
is checked. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def machine_record(seed, blas_threads):
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads,
            "python": sys.version.split()[0], "seed": seed}


def child(args, deadline):
    env = dict(os.environ)
    env.pop("UDF_MESHER_THREADS", None)       # sampling at the library default
    # One BLAS thread. With two, mesh-mlp's matrix products waited on the
    # second core, whose availability on a shared 2-core VM the speed probe
    # (main thread only) cannot see: op_rel of single mesh-mlp operations
    # spread by 0.14 (quartile distance over median) against 0.08 with one.
    env["OPENBLAS_NUM_THREADS"] = "1"
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("child process ran past the deadline and was stopped")
    if proc.returncode != 0:
        raise BenchError(f"child process failed ({proc.returncode}):\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return {"p": p, "value": float(np.percentile(values, p))}
    return None


UNITS = {"distance.us_per_point": "us", "render.faces_per_s": "1/s", "io.bytes": "bytes",
         "peak_rss_mb": "MB", "mesh_chd": "units^2", "fit_radius_err": "units",
         "trace.coverage": "ratio", "op_rel": "ref", "nc": "%", "ic": "%", "chd": "units^2"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def run_workload(name, seed, seconds, trace, deadline):
    um = worker.import_udfmesh()
    wl = workloads.WORKLOADS[name]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = {"workload": name, "seed": seed, **wl.build(um, seed, workdir)}
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic()
            setups.append(child(["--inputs", inputs_path, "--mode", "setup"],
                                deadline)["ready"] - t0)
        res = child(["--inputs", inputs_path, "--mode", "measure",
                     "--seconds", str(seconds), "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res["setup_s"] = setups
    return res


def summarize(name, seed, trace, res):
    """(final metrics, record) for one workload run."""
    ops = res["op_s"]
    record = {"workload": name, "seed": seed, "trace": trace,
              "machine": machine_record(seed, res["blas_threads"]), "ops": res["ops"],
              "op_s": {"median": statistics.median(ops), "n": len(ops),
                       "tail": tail_percentile(ops)},
              "setup_s": {"median": statistics.median(res["setup_s"]),
                          "n": len(res["setup_s"])},
              "peak_rss_mb": res["peak_rss_mb"],
              "error_rate": res["failed_ops"] / res["ops"],
              "failures": res["failures"]}
    for key, vals in res["times"].items():
        record[key] = {"median": statistics.median(vals), "n": len(vals),
                       "tail": tail_percentile(vals)}
    record.update(res["counters"][-1])
    record.update(res["quality"])

    if trace:
        metrics = {k: res["layers"][k] for k in tracing.PER_LAYER}
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        with open(os.path.join(ROOT, ".perfbench_out", f"trace-{name}.json"), "w") as fh:
            json.dump({"workload": name, "seed": seed, "traced_ops": res["traced_ops"],
                       "fields": ["name", "layer", "start", "end", "parent", "child_s"],
                       "spans": res["spans"]}, fh)
    else:
        record["probe_s"] = {"median": statistics.median(res["probe_s"]),
                             "n": sum(res["probe_n"])}
        record["op_rel"] = {"median": statistics.median(res["op_rel"]),
                            "n": len(res["op_rel"]), "tail": tail_percentile(res["op_rel"])}
        metrics = {"op_rel": record["op_rel"]["median"],
                   "setup_s": record["setup_s"]["median"], "peak_rss_mb": record["peak_rss_mb"]}
    return metrics, record


def print_report(record, metrics):
    head = (f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
            f"(closed loop, 1 client, sampling threads=1, "
            f"BLAS threads {record['machine']['blas_threads']}, "
            f"nproc {record['machine']['nproc']})")
    print(head)
    for key in ("op_s", "mesh_s", "inflate_s", "fit_iter_s", "score_s"):
        if key in record:
            t = record[key]
            tail = (f"p{t['tail']['p']} {t['tail']['value']:.4f} s" if t["tail"]
                    else "no tail percentile: fewer than 10 samples beyond p50")
            print(f"  {key:<16}{t['median']:>12.4f} s      median of {t['n']}; {tail}")
    if "op_rel" in metrics:
        print(f"  {'op_rel':<16}{metrics['op_rel']:>12.2f} ref    median of {record['op_rel']['n']} "
              f"operations, each op_s over the median of its speed-probe samples "
              f"({record['probe_s']['n']} samples, median {1e3 * record['probe_s']['median']:.3f} ms)")
    print(f"  {'setup_s':<16}{record['setup_s']['median']:>12.4f} s      "
          f"median of {record['setup_s']['n']} fresh interpreters")
    print(f"  {'peak_rss_mb':<16}{record['peak_rss_mb']:>12.1f} MB")
    for key in ("mesh_chd", "crack_edges", "fit_radius_err", "junctions", "chd", "nc", "ic"):
        if key in record:
            print(f"  {key:<16}{record[key]:>12.6g} {unit_of(key)}")
    print(f"  {'error_rate':<16}{record['error_rate']:>12.6g}        "
          f"{len(record['failures'])} failed checks over {record['ops']} operations")
    for f in record["failures"]:
        print(f"    FAILED: {f}")
    if record["trace"]:
        for key, value in metrics.items():
            print(f"  {key:<34}{value:>14.6g} {unit_of(key)}")
        base = metrics["trace.untraced_op_s"]
        print(f"  layer self time per operation, share of the untraced {base:.4f} s "
              f"(tracing overhead {metrics['trace.overhead_s']:+.4f} s):")
        shares = sorted(((metrics[f"{layer}.self_s"], layer) for layer in tracing.LAYERS),
                        reverse=True)
        for secs, layer in shares:
            if secs > 0:
                print(f"    {layer:<12}{secs:>10.4f} s {100 * secs / base:6.1f}%")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "udfmesh", "__init__.py")):
        print(f"error: no udfmesh sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        metrics, record = summarize(name, args.seed, args.trace, res)
        print_report(record, metrics)
        print(json.dumps({"record": record}))
        total["attempted"] += res["ops"]
        total["failed"] += res["failed_ops"]
        prefix = f"{name}/" if len(names) > 1 else ""
        total["metrics"].update({prefix + k: {"value": v, "unit": unit_of(k)}
                                 for k, v in metrics.items()})
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
