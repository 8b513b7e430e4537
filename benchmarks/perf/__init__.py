"""Wall-time benchmark of the simulator, end to end and layer by layer.

See ``benchmarks/perf/README.md``.  The simulator's *virtual* results
are gated by ``python -m repro.tools.bench``; this package measures how
fast the simulator itself runs.
"""
