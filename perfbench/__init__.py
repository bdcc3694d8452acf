"""The repository benchmark: measured workloads over the public entry points.

Run one workload with ``python3 perfbench/run.py --workload explore --seed 1
--seconds 20 --trace 0``; see ``perfbench/README.md`` for what each workload
measures and why.
"""
