"""One workload in its own fresh process: set up, run timed passes, check.

Started by run.py, which pins the BLAS thread pools to one thread.  Prints
one JSON line holding the raw samples; run.py turns them into metrics.

Untraced (`--trace 0`): the workload's PASSES passes, checked, then rounds
of replays of every unit: at least MIN_REPEATS rounds, and more while the
next one would end within `--seconds`.  Each unit keeps its fastest time.
The host this runs on is shared, and its speed swings by a third or more
in phases of seconds to minutes; a unit's fastest time over rounds spread
across the run is what the code costs when nothing else slows it.  When a
whole run falls in a slow phase that is not enough, so every round also
times a fixed reference task at REF_SLOTS points spread over its units,
and run.py divides the workload's time by the reference task's.

Traced (`--trace 1`): the first pass untraced, then the same pass with the
tracer installed.  The traced outputs must equal the untraced ones, unit
by unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import fsum

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

MAX_REPORTED_FAILURES = 20
REF_SLOTS = 300
REF_VALUES = np.linspace(0.1, 1.0, 24)


def reference_task() -> float:
    """A fixed task of the kinds of work the program does, a small numpy
    vector updated in a Python loop and a sort and `fsum` of Python floats,
    that uses no baru code; returns its time (about 0.16 ms)."""
    t0 = time.perf_counter()
    x = np.full(24, 1 / 24)
    for _ in range(40):
        j = int(np.argmax(REF_VALUES / (x + 0.5)))
        x *= 0.9
        x[j] += 0.1
    fsum(sorted((i * 7919) % 101 / 101 for i in range(200)))
    return time.perf_counter() - t0


def run_untraced(workload, seconds: float) -> dict:
    clock = time.perf_counter
    begin = clock()
    best, keys, replays, units, attempted, failures = [], [], [], 0, 0, []
    for k in range(workload.PASSES):
        res = workload.run_pass(k)
        best += res.latencies
        keys += res.keys
        replays += res.replays
        units += res.units
        attempted += len(res.outputs)
        failures += [f"pass {k}: {f}" for f in workload.check(res)]
    round_s = [clock() - begin]
    work_s = [fsum(best)]
    step = max(1, len(replays) // REF_SLOTS)
    ref_best = [float("inf")] * len(range(0, len(replays), step))
    while len(round_s) <= workload.MIN_REPEATS or sum(round_s) + round_s[-1] <= seconds:
        t0 = clock()
        for i, replay in enumerate(replays):
            if i % step == 0:
                ref_best[i // step] = min(ref_best[i // step], reference_task())
            dt, key = replay()
            best[i] = min(best[i], dt)
            if key != keys[i]:
                failures.append(f"unit {i}: round {len(round_s)} gave another output")
        attempted += len(replays)
        round_s.append(clock() - t0)
        work_s.append(fsum(best))
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "best_s": best,
        "ref_s": fsum(ref_best),
        "round_s": round_s,
        "work_s_by_round": work_s,
        "units": units,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }


def _medians(cmd: list[str], env: dict, parse=None, repeats: int = 3) -> list[float]:
    """Runs the command `repeats` times; medians of its wall time in ms, or
    of the values `parse` reads from its stderr."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60, check=True)
        wall = (time.perf_counter() - t0) * 1e3
        samples.append(parse(proc.stderr) if parse else [wall])
    return [statistics.median(col) for col in zip(*samples)]


def _import_times(stderr: str) -> list[float]:
    """Cumulative import times (ms) of numpy and baru from -X importtime."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            name = parts[2].strip()
            if name in ("numpy", "baru"):
                cumulative[name] = int(parts[1]) / 1e3
    return [cumulative["numpy"], cumulative["baru"] - cumulative["numpy"]]


def import_probe() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    (python_ms,) = _medians([sys.executable, "-c", "pass"], env)
    numpy_ms, baru_ms = _medians(
        [sys.executable, "-X", "importtime", "-c", "import baru"], env, _import_times
    )
    return {
        "cli.import.python_ms": python_ms,
        "cli.import.numpy_ms": numpy_ms,
        "cli.import.baru_self_ms": baru_ms,
    }


def run_traced(workload, spans_path: str, seed: int, workdir: str) -> dict:
    import spans
    import workloads

    plain = workload.run_pass(0)
    tracer = spans.Tracer()
    tracer.install((workloads,))
    try:
        traced = workload.run_pass(0, tracer)
    finally:
        tracer.uninstall()
    failures = workload.check(plain) + [
        f"unit {k}: traced output differs from the untraced one"
        for k, (want, got) in enumerate(zip(plain.keys, traced.keys))
        if want != got
    ]
    if len(plain.keys) != len(traced.keys):
        failures.append(f"traced pass ran {len(traced.keys)} units, the untraced one {len(plain.keys)}")

    layers = tracer.layer_metrics()
    layers.update(import_probe())
    attempted = len(plain.outputs) + len(traced.outputs)
    cli, calls = workload, plain
    if workload.name != "cli":
        # The CLI layer is timed on every workload: one untraced, checked
        # cycle of the `cli` workload's calls.
        cli = workloads.Cli(seed, ROOT, workdir)
        calls = cli.run_pass(0)
        failures += [f"cli call {f}" for f in cli.check(calls)]
        attempted += len(calls.outputs)
    for command in spans.COMMANDS:
        lat = [t for (c, _), t in zip(cli.calls, calls.latencies) if c == command]
        layers[f"cli.{command}.ms_p50"] = statistics.median(lat) * 1e3
    layers["trace.overhead_s"] = traced.seconds - plain.seconds
    tracer.save(spans_path)
    return {
        "layers": layers,
        "untraced_pass_s": plain.seconds,
        "traced_pass_s": traced.seconds,
        "spans": len(tracer.start),
        "nash_slowest": tracer.slowest("swf.nash", 3),
        "attempted": attempted,
        "failures": failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, workdir)
        ready = time.monotonic()
        result = {"ready": ready, "numpy": np.__version__, "sizes": workload.sizes()}
        if not args.setup_only:
            if args.trace:
                spans_path = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.npz")
                result.update(run_traced(workload, spans_path, args.seed, workdir))
            else:
                result.update(run_untraced(workload, args.seconds))
            result["failed"] = len(result["failures"])
            result["failures"] = result["failures"][:MAX_REPORTED_FAILURES]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
