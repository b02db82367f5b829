"""Benchmark of greglink: three workloads, their output checks and a traced run.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md``.
"""
