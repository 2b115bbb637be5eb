"""One pass of a workload, or one set-up probe, in a fresh interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py pass --workload verify-n1 --seed 0 [--trace]

Run from the root of a checkout: sjdomains is imported from its `src`
directory and nowhere else.  Prints one JSON object on the last line of
standard output.
"""

from __future__ import annotations

# Only modules the interpreter has loaded anyway are imported up front, so
# that a set-up probe counts every import sjdomains itself makes.
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def import_sjdomains(root: str):
    """Import sjdomains and its CLI from <root>/src; refuse any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sjdomains
    from sjdomains import cli  # noqa: F401  (the CLI is part of set-up)
    where = os.path.realpath(sjdomains.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"sjdomains imported from {where}, not from {src}")
    return sjdomains


def probe_setup(root: str) -> float:
    """Seconds to import sjdomains and build the CLI parser (`sjdomains
    --help`, its output discarded)."""
    start = time.perf_counter()
    sj = import_sjdomains(root)
    stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
    try:
        code = sj.cli.main(["--help"])
    finally:
        sys.stdout.close()
        sys.stdout = stdout
    setup_s = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"sjdomains --help exited with {code}")
    return setup_s


def one_pass(root: str, workload: str, seed: int, trace: bool) -> dict:
    import json
    import resource

    sj = import_sjdomains(root)
    sys.path.insert(0, HERE)
    from tracing import Tracer, install
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    out_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}" + ("-traced" if trace else ""))
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer:
        install(tracer, sj)
    start = time.perf_counter()
    outcomes = wl.execute(sj, seed, out_dir)
    wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = wl.check(outcomes)
    result = {
        "wall_s": wall_s,
        "peak_rss_mib": peak_rss_mib,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "problems": tally.problems,
        "uncounted": tally.uncounted,
        "suite_wall_s": {name: o["wall_s"] for name, o in outcomes.items() if "wall_s" in o},
        "report_bytes": sum(os.path.getsize(o["path"]) for o in outcomes.values()
                            if os.path.exists(o["path"])),
    }
    if tracer:
        result["layers"] = tracer.layer_totals()
        result["layer_outer_s"] = tracer.layer_outer_s
        trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        with open(trace_path, "w") as handle:
            json.dump({"workload": workload, "seed": seed, "wall_s": wall_s,
                       "sites": tracer.site_table()}, handle, indent=1)
    return result


def main(argv) -> int:
    root = os.getcwd()
    if argv == ["setup"]:
        print('{"setup_s": %r}' % probe_setup(root))
        return 0
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pass",))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(one_pass(root, args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
