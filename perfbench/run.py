"""Benchmark of the sjdomains verification product.

    python3 perfbench/run.py --workload verify-n1 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a fresh
interpreter (perfbench/worker.py) with sjdomains imported from ./src, one
pass after another (a closed loop with one client); a new pass starts while
fewer than --seconds have passed, and at least one pass is made.

--trace 0 prints the end-to-end metrics: setup_s (median of SETUP_PROBES
fresh imports plus CLI parser builds, after one warm-up), wall_s and
peak_rss_mib (medians over the passes).  --trace 1 makes one plain pass and
one traced pass and prints the per-layer metrics.  The last line of standard
output is one JSON object; the exit code is 0 only when every output check
held.
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
sys.path.insert(0, HERE)

from tracing import LAYERS  # noqa: E402
from workloads import ALL_SUITES, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 175.0     # a run must end within 180 s


def worker_env() -> dict:
    """Environment of a worker: one BLAS thread, str hashing fixed so that
    set iteration order repeats.

    The workloads multiply small matrices, where a second OpenBLAS thread
    only spins: with two threads a verify-n1 pass burned about 16 s of CPU
    in 13.5 s of wall time, with one it took about 10.5 s of each, and its
    time no longer depends on what runs on the other core."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args: list, deadline: float) -> dict:
    """Run worker.py with `args`; return the JSON of its last output line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=worker_env())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setups: list, passes: list) -> dict:
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mib": metric(statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
    }


def per_layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced pass; suite times and report bytes come
    from the plain pass, which carries no tracing overhead."""
    layers = traced["layers"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = metric(layers[layer]["calls"], "count")
        out[f"{layer}.self_s"] = metric(layers[layer]["self_s"], "s")
    samples = layers["quad.mc"]["samples"]
    mc_s = traced["layer_outer_s"].get("quad.mc", 0.0)
    out["quad.mc.samples"] = metric(samples, "count")
    out["quad.mc.samples_per_s"] = metric(samples / mc_s if mc_s else 0.0, "1/s")
    for suite in ALL_SUITES:
        out[f"suite.{suite}.wall_s"] = metric(plain["suite_wall_s"].get(suite, 0.0), "s")
    out["report.bytes"] = metric(plain["report_bytes"], "bytes")
    out["trace.spans"] = metric(sum(agg["calls"] for agg in layers.values()), "count")
    out["trace.overhead_s"] = metric(traced["wall_s"] - plain["wall_s"], "s")
    return out


def per_layer_names() -> list:
    """Names of the per-layer metrics, in output order."""
    empty = {"calls": 0, "self_s": 0.0, "samples": 0}
    plain = {"wall_s": 0.0, "suite_wall_s": {}, "report_bytes": 0}
    traced = {"wall_s": 0.0, "layers": {layer: empty for layer in LAYERS},
              "layer_outer_s": {}}
    return list(per_layer_metrics(plain, traced))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "sjdomains", "__init__.py")):
        print("error: run from the root of an sjdomains checkout (no src/sjdomains here)",
              file=sys.stderr)
        return 2
    pass_args = ["pass", "--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            passes = [call_worker(pass_args, deadline),
                      call_worker(pass_args + ["--trace"], deadline)]
            metrics = per_layer_metrics(*passes)
        else:
            setups = [call_worker(["setup"], deadline)["setup_s"]
                      for _ in range(1 + SETUP_PROBES)][1:]
            passes = []
            stop = time.monotonic() + args.seconds
            while not passes or time.monotonic() < stop:
                passes.append(call_worker(pass_args, deadline))
            metrics = end_to_end_metrics(setups, passes)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = [p for one in passes for p in one["problems"]]
    for one in passes:
        print(f"{args.workload} seed {args.seed}: wall {one['wall_s']:.3f} s, "
              f"{one['attempted']} operations, failed: {', '.join(one['failures']) or 'none'}; "
              f"{len(one['uncounted'])} MC verdicts not counted")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
