"""Benchmark of the blocktoeplitz solver; `python3 perfbench/run.py --help`."""
