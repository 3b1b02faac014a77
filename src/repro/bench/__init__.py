"""Hot-path performance benchmarks.

``python -m repro bench`` (or :func:`repro.bench.harness.main`) times the
simulator's tracked hot paths — DES event loop, transport send/deliver,
stats-monitor ingest/extract, DRNN fit and predict — under a
warmup/repeat/median protocol and writes a schema-versioned
``BENCH_*.json``.  See ``docs/performance.md`` for the protocol, the JSON
schema, and the recorded before/after numbers.
"""

from repro.bench.harness import (
    run_benchmarks,
    time_benchmark,
    time_benchmark_pair,
    write_report,
)
from repro.bench.hotpaths import BENCHMARKS, SCALES

__all__ = [
    "BENCHMARKS",
    "SCALES",
    "run_benchmarks",
    "time_benchmark",
    "time_benchmark_pair",
    "write_report",
]
