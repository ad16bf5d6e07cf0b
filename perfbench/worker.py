"""One fresh benchmark process.

    python3 perfbench/worker.py --inputs DIR/inputs.json --mode setup
    python3 perfbench/worker.py --inputs DIR/inputs.json --mode measure \
        --seconds 25 --trace 0

``setup`` imports udfmesh, loads the inputs, builds the field, prints the
monotonic clock and exits; the parent times it from process start.
``measure`` then runs closed-loop operations for the given seconds, each
under the workload's speed probe, records the process's peak RSS, checks
every output and prints one JSON line. With ``--trace 1`` each step is an
untraced operation followed by one with the layer wrappers installed, and
no probe runs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_udfmesh():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import udfmesh
    if not os.path.abspath(udfmesh.__file__).startswith(src + os.sep):
        raise ImportError(f"udfmesh was imported from {udfmesh.__file__}, not {src}")
    return udfmesh


def blas_threads():
    """OpenBLAS thread count of the numpy build, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timed_op(wl, state, probe=None):
    """Run one operation. With a probe, the probe samples while it runs and
    the operation's time excludes the probe's own time."""
    if probe is None:
        t0 = time.perf_counter()
        out = wl.op(state)
        out["op_s"] = time.perf_counter() - t0
        return out
    with probe:
        t0 = time.perf_counter()
        out = wl.op(state)
        wall = time.perf_counter() - t0
    out["op_s"] = wall - sum(probe.samples)
    out["probe_s"] = statistics.median(probe.samples)
    out["probe_n"] = len(probe.samples)
    out["op_rel"] = out["op_s"] / out["probe_s"]
    return out


class SpeedProbe:
    """Fixed work, run from a timer signal every ``PERIOD`` seconds while an
    operation runs, so that it sees the machine at the same moments as the
    operation does. It runs no repository code: its time follows only the
    machine's speed, and an operation's time divided by it moves with the
    code exactly as the operation's time does.

    On a shared 2-core VM the machine's speed swung by up to 40% between
    seconds and drifted by up to 30% over tens of minutes, and not by the
    same share for every kind of work. So each workload names the parts
    that match its hot path: an interpreter loop, small vector
    arithmetic, a random gather from a 4 MB table, and small single-thread
    matrix products. A reference timed between operations missed the swings
    inside a multi-second operation and added its own noise. Python runs the
    handler between bytecodes, so a sample waits for a long native call to
    return; the probe's time, 1-3% of an operation's, is subtracted."""

    PERIOD = 0.1

    def __init__(self, parts):
        """``parts``: names among "loop", "vector", "gather", "matmul"."""
        rng = np.random.default_rng(0)
        self.pts = rng.random((2048, 3))
        self.table = rng.random(500_000)
        self.index = rng.integers(0, len(self.table), 50_000)
        self.mat = rng.random((256, 128))
        self.weight = rng.random((128, 128))
        self.parts = [getattr(self, "_" + p) for p in parts]
        self.samples = []
        self._previous = None

    def _loop(self):
        acc = 0.0
        for i in range(20_000):
            acc += (i % 7) * 0.5

    def _vector(self):
        d = self.pts - self.pts[::-1]
        for _ in range(20):
            np.sqrt(np.einsum("ij,ij->i", d, d))

    def _gather(self):
        self.table[self.index].sum()

    def _matmul(self):
        for _ in range(3):
            np.maximum(self.mat @ self.weight, 0.0)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if exc[0] is None and not self.samples:
            raise RuntimeError("the speed probe took no sample during the operation")
        return False


def closed_loop(step, budget):
    """Call ``step`` back to back, at least once, and stop where the run
    ends nearest the budget: before a call that would end more than half
    a call past it."""
    done, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done.append(step())
        t1 = time.perf_counter()
        durations.append(t1 - t0)
        if t1 - start + 0.5 * statistics.median(durations) > budget:
            return done


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    um = import_udfmesh()
    import workloads
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    wl = workloads.WORKLOADS[inputs["workload"]]
    state = wl.setup(um, inputs)
    if args.mode == "setup":
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

        def pair():
            # an untraced and a traced operation back to back, so both see
            # the machine in the same state
            plain = timed_op(wl, state)
            tracer.install(um)
            try:
                return plain, timed_op(wl, state)
            finally:
                tracer.uninstall()
        pairs = closed_loop(pair, args.seconds)
        untraced = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        records = untraced + traced
    else:
        probe = SpeedProbe(wl.probe)
        records = closed_loop(lambda: timed_op(wl, state, probe), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, failed_ops = [], 0
    for r in records:
        fails = wl.check(state, r)
        failures += fails
        failed_ops += bool(fails)
    quality = wl.quality(state, records[-1], workloads.seeded(inputs["seed"]))

    result = {
        "ops": len(records),
        "op_s": [r["op_s"] for r in records],
        "times": {k: [r["times"][k] for r in records] for k in records[0]["times"]},
        "counters": [r["counters"] for r in records],
        "failures": failures,
        "failed_ops": failed_ops,
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
        "quality": quality,
    }
    if tracer is None:
        for key in ("op_rel", "probe_s", "probe_n"):
            result[key] = [r[key] for r in records]
    if tracer is not None:
        n = len(traced)
        extra = {"diffgeom.junctions": sum(r["counters"].get("junctions", 0) for r in traced),
                 "diffgeom.skipped_iters": sum(r["counters"].get("skipped_iters", 0)
                                               for r in traced)}
        layers = tracer.summary(n, extra)
        untraced_s = statistics.median(r["op_s"] for r in untraced)
        traced_s = statistics.median(r["op_s"] for r in traced)
        layers["trace.untraced_op_s"] = untraced_s
        layers["trace.traced_op_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.unattributed_s"] = (statistics.fmean(r["op_s"] for r in traced)
                                          - layers["trace.self_sum_s"])
        layers["trace.coverage"] = layers["trace.self_sum_s"] / untraced_s
        result["layers"] = layers
        result["traced_ops"] = n
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
