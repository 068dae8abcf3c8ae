"""Benchmark of the mgvo federation: four workloads on a simulated 3-site VO.

Run ``python3 perfbench/run.py --help``; see README.md in this directory.
"""
