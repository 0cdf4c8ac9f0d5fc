"""Benchmark harness configuration.

Each ``test_bench_*`` file regenerates one of the paper's tables/figures
and prints it.  Here ``REPRO_QUICK`` defaults to on, so the
representative QUICK_SET (15 of the 41 benchmarks) is swept and `pytest
benchmarks/ --benchmark-only` finishes in minutes; ``REPRO_QUICK=0``
sweeps all 41 (as ``results/run_all.py`` does — its full-suite outputs
are committed under ``results/``).  The persistent compile cache
(``REPRO_CACHE_DIR``) makes warm re-runs skip every compile.

These suites assert *shape properties* of deterministic experiment
results, so measurement memoization is sound here: result caching is
enabled (like ``results/run_all.py`` does for itself) and a warm cache
skips the measurement runs too.  The unit tests under ``tests/`` keep it
off — they monkeypatch collectors and host imports.  Export
``REPRO_RESULT_CACHE=0`` to force live measurement.
"""

import os

import pytest

from repro.experiments import ExperimentContext
from repro.obs import env_flag


@pytest.fixture(autouse=True)
def _result_cache(monkeypatch):
    """Turn on measurement memoization for this directory only (an env
    default would leak into ``tests/``, which relies on live runs)."""
    monkeypatch.setenv("REPRO_RESULT_CACHE",
                       os.environ.get("REPRO_RESULT_CACHE", "1"))


def _quick():
    return env_flag("REPRO_QUICK", default=True)


@pytest.fixture(scope="session")
def ctx():
    return ExperimentContext(quick=_quick(), repetitions=1)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1,
                              warmup_rounds=0)
