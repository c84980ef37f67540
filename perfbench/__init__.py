"""Benchmark of the city pipeline, the served dashboards and journal
restart; see README.md and run.py."""
