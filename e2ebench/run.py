"""End-to-end benchmark of the coverage library and its HTTP service.

Run from the repository root:

    python3 e2ebench/run.py --workload airbnb-breaker --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced run.  The last line of standard output is the result
JSON; the line before it holds diagnostics (raw timings, probe windows,
plans, machine).  See ``NOTES.md`` for the design.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the repo tracks __pycache__ files

import argparse
import importlib.util
import json
import os
import platform

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
STATE_DIR = os.path.join(HERE, ".state")

WORKLOADS = ("airbnb-breaker", "bluenile-deepdiver", "serve-label-deliver")


def machine() -> dict:
    import numpy

    with open("/proc/meminfo") as handle:
        mem_kb = int(handle.readline().split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def compare_plans(workload: str, plans: list) -> bool:
    """True when ``plans`` differ from the first run's in this checkout."""
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"plans-{workload}.json")
    if not os.path.exists(path):
        with open(path, "w") as handle:
            json.dump(plans, handle)
        return False
    with open(path) as handle:
        return json.load(handle) != plans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from the repo root",
              file=sys.stderr)
        return 2
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [HERE, SRC]

    traced = bool(args.trace)
    if args.workload == "serve-label-deliver":
        from serve import run_serve

        result = run_serve(args.seed, args.seconds, traced, SRC, HERE)
    else:
        from inputs import LIBRARY_WORKLOADS
        from library import run_library

        spec = LIBRARY_WORKLOADS[args.workload]
        result = run_library(spec, args.seed, args.seconds, traced)
    result.plan_changed |= compare_plans(args.workload, result.plans)
    result.emit(traced, machine())
    return 0


if __name__ == "__main__":
    sys.exit(main())
