"""The repository's benchmark: ``python3 perfbench/run.py --workload NAME``.

See ``perfbench/README.md`` for the workloads, the metric definitions and
the layer-to-metric map.
"""
