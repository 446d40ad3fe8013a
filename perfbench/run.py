"""Federation benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload point --seed 1 --seconds 30 --trace 0

Workloads: ``point``, ``semijoin`` and ``bank-mix`` (see README.md).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run.  Every
answer is checked against an independent oracle.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
from workloads import WORKLOADS

UNITS = {**harness.END_TO_END, **harness.TRACE_EXTRAS}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith(".calls_per_op"):
        return "count"
    if name.endswith("bytes_per_call"):
        return "B"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    workload = WORKLOADS[args.workload]
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"# why: {workload.why}")
    for note in out["notes"]:
        print(f"# {note}")
    for name, value in out["report"].items():
        print(f"{name:44s} {value:14.4f} {unit_of(name)}")
    for problem in out["problems"][:20]:
        print(f"WRONG: {problem}")
    correct = not out["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in out["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
