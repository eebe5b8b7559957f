"""The repository benchmark (see bench/README.md and BENCHMARK.json).

Owns nothing outside this directory: the legacy pytest-benchmark suite in
``benchmarks/`` and the committed ``BENCH_<sha>.json`` files are a separate,
older trajectory.
"""

from typing import Tuple

#: (name, unit, better, bound) of every end-to-end metric.  BENCHMARK.json's
#: ``end_to_end`` list mirrors this table (a harness test checks they agree).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_per_unit_s", "s", "lower", 0.25),
    ("cpu_per_unit_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

#: How long one run measures; BENCHMARK.json's ``run_seconds``.
RUN_SECONDS = 20
