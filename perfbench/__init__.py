"""The repository benchmark: end-to-end and per-layer measurements.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
