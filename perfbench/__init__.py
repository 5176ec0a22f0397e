"""The repository benchmark: workloads, passes, drives and output checks.

Entry point: ``python3 perfbench/run.py`` (see README.md in this directory).
"""
