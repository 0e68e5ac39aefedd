"""Benchmark for the deviceprint pipeline; run `python3 perfbench/run.py`."""
