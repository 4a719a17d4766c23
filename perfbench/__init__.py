"""Benchmark harness for the sweep pipeline and the selection service.

``python3 perfbench/run.py --workload <name> --seed <n>`` runs one
workload; see ``perfbench/README.md`` for the workloads and metrics.
"""
