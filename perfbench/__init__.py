"""Benchmark of the qgas package; run it with ``python3 perfbench/run.py``."""
