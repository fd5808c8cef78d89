"""The repository benchmark: served-lease throughput, latency and cost ratio.

One command, ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, runs one workload from the root of a
source checkout and prints every metric by name with its unit, ending in
one JSON line.  ``BENCHMARK.json`` at the repository root lists the
workloads and metrics; :mod:`perfbench.workloads` holds their shapes.
"""
