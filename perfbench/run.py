"""Benchmark entry point: runs one workload in a fresh single-threaded
process and prints its metrics.

    python3 perfbench/run.py --workload matrix --seed 20240801 --seconds 40 --trace 0

Workloads: matrix, baru-suite, lemmas, cli (see workloads.py).  With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run.  The lines
before it print every metric with its unit.  The full result, with the
machine's provenance, goes to perfbench/out/<workload>-seed<seed>-trace<t>.json.

Set-up is measured from process launch to the worker's first timed
operation (interpreter start, `import baru`, building the inputs); the
run launches the worker SETUP_PROBES times before the measured run and as
many times after it, and reports the median over those and the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 20240801
WORKLOADS = ("matrix", "baru-suite", "lemmas", "cli")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
BLAS_THREADS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
UNITS = {
    "setup_s": "s",
    "work_ref": "ref",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def run_worker(args: argparse.Namespace, env: dict, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Launches the worker in its own session, so that a timeout can stop
    it together with any child it started; returns the launch time and
    the worker's JSON line."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerFailed(f"{args.workload} worker exceeded the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"{args.workload} worker exited with code {proc.returncode}")
    return launched, json.loads(out.decode().strip().splitlines()[-1])


def setup_time(args: argparse.Namespace, env: dict, deadline: float) -> float:
    launched, probe = run_worker(args, env, deadline, setup_only=True)
    return probe["ready"] - launched


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES (nearest rank) with at least ten
    samples beyond it, and which one that is; the maximum when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def end_to_end(setups: list[float], res: dict) -> tuple[dict, dict]:
    """The gated metrics of BENCHMARK.json, and the rest of the result.
    Every unit's time is its fastest over the run's rounds (worker.py).

    `work_ref` is the workload's time over the reference task's, timed in
    the same rounds: the host's slow phases stretch both, so it holds
    where the seconds do not.  The seconds, the throughput and the unit
    latencies are reported beside it but not gated.  Over ten seeds the
    seconds spread by up to 0.37 of their median, and a unit's cost spans a
    factor of a hundred within one workload (a lemma item on one belief or
    on four, a battery trial with or without a Nash solve), so the latency
    median also moves with the seed's draw."""
    lat_ms = [t * 1e3 for t in res["best_s"]]
    tail_ms, tail_pct = tail(lat_ms)
    work_s = math.fsum(res["best_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "work_ref": work_s / res["ref_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {
        "work_s": work_s,
        "throughput": res["units"] / work_s,
        "ref_s": res["ref_s"],
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_tail": tail_ms,
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(lat_ms),
        "setup_samples_s": setups,
        "round_s": res["round_s"],
        "work_s_by_round": res["work_s_by_round"],
        "units": res["units"],
    }
    return metrics, detail


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read directly)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args: argparse.Namespace, env: dict, res: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "blas_threads": {k: env[k] for k in BLAS_THREADS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": res["sizes"],
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "baru", "__init__.py")):
        print(f"perfbench: no baru sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{k: "1" for k in BLAS_THREADS})
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [setup_time(args, env, deadline) for _ in range(probes)]
        launched, res = run_worker(args, env, deadline, setup_only=False)
        setups.append(res["ready"] - launched)
        setups += [setup_time(args, env, deadline) for _ in range(probes)]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        from spans import layer_metric_names, layer_metric_unit

        values = {name: res["layers"][name] for name in layer_metric_names()}
        units = {name: layer_metric_unit(name) for name in values}
        detail = {
            "untraced_pass_s": res["untraced_pass_s"],
            "traced_pass_s": res["traced_pass_s"],
            "spans": res["spans"],
            "nash_slowest": res["nash_slowest"],
        }
    else:
        values, detail = end_to_end(setups, res)
        units = UNITS
    detail["failed_frac"] = res["failed"] / res["attempted"]
    detail["failures"] = res["failures"]
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    summary = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": provenance(args, env, res), **summary, "detail": detail}, fh, indent=1)
        fh.write("\n")

    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:10s} {'failed_frac':48s} {detail['failed_frac']:14.6g} ratio")
    if not args.trace:
        for name, unit in (("work_s", "s"), ("throughput", "units/s"), ("latency_ms_p50", "ms")):
            print(f"{args.workload:10s} {name:48s} {detail[name]:14.6g} {unit}")
        print(
            f"{args.workload:10s} {'latency_ms_tail':48s} {detail['latency_ms_tail']:14.6g} ms"
            f" (p{detail['latency_tail_percentile']:g} of {detail['latency_samples']} samples)"
        )
    for failure in res["failures"]:
        print(f"{args.workload:10s} FAILED {failure}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
