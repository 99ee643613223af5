"""Perf harness: seed-faithful baselines and the races that gate them.

:mod:`perf.baselines` keeps the seed's naive hot paths verbatim;
:mod:`perf.harness` races each optimised path against them and writes
``BENCH_<scenario>.json``.  Run it via ``python benchmarks/run_benchmarks.py``
(see PERFORMANCE.md).
"""
