"""The repository benchmark: ``python -m bench run|compare|calibrate``.

See ``bench/README.md`` for the workloads, the metrics and their bounds.
"""
