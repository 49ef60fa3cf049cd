"""Command line of the benchmark (run from the repository root).

::

    python -m bench run [--workload W]... [--seed S] [--runs N] [--seconds T]
                        [--trace [0|1]] [--smoke] [--out DIR]
    python -m bench compare BASE.json CHANGE.json
    python -m bench calibrate SET.json... [--traced TRACED.json] [--write PATH]
"""

from __future__ import annotations

import argparse
import json
import sys

from bench import compare as _compare
from bench import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads, print one JSON result per run")
    run.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    run.add_argument("--seed", type=int, default=0, help="seed of the first run's inputs")
    run.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed..seed+runs-1")
    run.add_argument("--seconds", type=float, default=None, help="measured seconds per run")
    run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="record spans and report the per-layer metrics",
    )
    run.add_argument("--smoke", action="store_true", help="tiny inputs and one set-up (tests)")
    run.add_argument(
        "--inject", metavar="FILE", default=None,
        help="Python file run in each workload process before it starts (fault-injection tests)",
    )
    run.add_argument("--out", default=None, help="output directory (default .bench_build/bench)")

    cmp = commands.add_parser("compare", help="compare two results files metric by metric")
    cmp.add_argument("base")
    cmp.add_argument("change")

    cal = commands.add_parser("calibrate", help="summarize repeated sets into bounds")
    cal.add_argument("sets", nargs="+", help="results files of untraced sets")
    cal.add_argument("--traced", default=None, help="results file of a traced set")
    cal.add_argument("--write", default=None, help="write the calibration here (default stdout)")

    args = parser.parse_args(argv)
    if args.command == "run":
        return harness.run(args)
    config = harness.load_benchmark()
    if args.command == "compare":
        rows = _compare.compare(args.base, args.change, config)
        print(_compare.render(rows))
        return 1 if any(r["gated"] and r["verdict"] == "regressed" for r in rows) else 0
    doc = json.dumps(_compare.calibrate(args.sets, args.traced, config), indent=1)
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
