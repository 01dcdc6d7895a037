"""perfbench: the repo's performance benchmark (see ``perfbench/README.md``).

Six named workloads, end-to-end metrics measured with tracing off, and
a separate traced run that splits host time by layer from the outside.
``BENCHMARK.json`` at the repo root is the contract; this package is
everything it points at.
"""
