#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload serve-json --seed 1 --seconds 14 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that adds the per-layer metrics, the subtraction
table and ``trace.overhead_ratio``, and writes its spans to
``.perfbench/spans/``.  Every figure is printed as a ``metric`` line;
the last line of standard output is one JSON object, ``{"correct",
"attempted", "failed", "metrics"}``, whose metrics are the ones
``BENCHMARK.json`` lists for the mode.  A failed correctness check
exits with code 1 and prints no numbers; a checkout without the
program's sources exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: test-sized traces and a two-rung ladder",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write the result with its machine fingerprint here "
        "(input to perfbench/compare.py)",
    )
    parser.add_argument(
        "--corrupt-report", action="store_true",
        help="fault injection for the benchmark's own tests: drop one "
        "lease from the first served report before it is checked",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.chdir(ROOT)

    from perfbench import bench, sut
    from perfbench.workloads import WORKLOADS, tiny

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.scale == "tiny":
        workload = tiny(workload)
    workdir = Path(".perfbench") / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        result, tracer = bench.run(
            workload, args.seed, args.seconds, bool(args.trace), workdir,
            SRC, corrupt=args.corrupt_report,
        )
    except bench.CheckFailed as exc:
        print(f"perfbench: correctness check failed on {workload.name}: "
              f"{exc}", file=sys.stderr)
        return 1

    fingerprint = sut.fingerprint()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} scale {args.scale}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for note in result.notes:
        print(note)
    for table in result.tables:
        print(table)
    print(f"ops attempted {result.attempted}, failed {result.failed} "
          f"(failed_op_share {result.failed / result.attempted:.6f})")
    for name, (value, unit, samples) in result.metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (samples {samples})")
    if args.trace:
        spans_dir = Path(".perfbench") / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        path = spans_dir / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans {len(tracer.spans)} written to {path}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    wrong = [m["name"] for m in declared
             if result.metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if wrong:
        print(f"perfbench: metrics not measured in their declared unit: "
              f"{wrong}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": result.metrics[m["name"]][0], "unit": m["unit"]}
        for m in declared
    }
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "trace": args.trace, "scale": args.scale,
            "fingerprint": fingerprint, "metrics": metrics,
        }, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
