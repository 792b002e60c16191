"""The repository's benchmark: two workloads, end-to-end and per-layer
metrics, and output checks.  Run ``python3 perfbench/run.py --help``."""
