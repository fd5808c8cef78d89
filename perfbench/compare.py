#!/usr/bin/env python3
"""Compare two saved benchmark results (``run.py --out``) metric by metric.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Absolute figures (rates, times, bytes, memory) only mean something on
the machine that measured them, so when the two results carry different
machine fingerprints this prints only the unitless ratios and shares and
exits with code 3.  Each line gives the new value as a share of the base.
"""

from __future__ import annotations

import json
import sys

#: Units whose values do not depend on the machine that measured them.
RELATIVE_UNITS = ("ratio", "share", "count")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    if base["workload"] != new["workload"] or base["trace"] != new["trace"]:
        print("compare: results are of different workloads or modes",
              file=sys.stderr)
        return 2
    same_machine = base["fingerprint"] == new["fingerprint"]
    if not same_machine:
        print("compare: machine fingerprints differ; refusing to compare "
              "absolute numbers")
        print(f"  base {json.dumps(base['fingerprint'], sort_keys=True)}")
        print(f"  new  {json.dumps(new['fingerprint'], sort_keys=True)}")
    for name, old in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        if not same_machine and old["unit"] not in RELATIVE_UNITS:
            continue
        value = new["metrics"][name]["value"]
        share = value / old["value"] if old["value"] else float("nan")
        print(f"{name:32} {old['value']:14.6g} -> {value:14.6g} "
              f"{old['unit']:6} (new/base {share:.4f})")
    return 0 if same_machine else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
