"""Parallel experiment scheduler: ordering, env wiring, and the
serial-vs-parallel determinism contract (bit-identical results).

Fault-tolerance behavior (retries, timeouts, fault injection, partial
results) is covered separately in ``tests/test_sweep_faults.py``."""

import os

import pytest

from repro.errors import SweepError
from repro.experiments import (
    ExperimentContext, compare_cheerp_emscripten, figure5_opt_levels,
)
from repro.harness.parallel import JOBS_ENV, default_jobs, parallel_map
from repro.suites import all_benchmarks

KEEP = {"gemm", "SHA"}


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _ctx(jobs):
    context = ExperimentContext(quick=True, repetitions=1, jobs=jobs)
    context.benchmarks = lambda: [b for b in all_benchmarks()
                                  if b.name in KEEP]
    return context


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(17))
        assert parallel_map(_square, items, jobs=4) == \
            [x * x for x in items]

    def test_serial_path(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=8) == []

    def test_worker_exception_raises_sweep_error(self):
        """A failing cell no longer aborts the map with the bare worker
        exception: parallel_map raises SweepError carrying the partial
        results (every other cell completed)."""
        with pytest.raises(SweepError) as excinfo:
            parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=2)
        sweep = excinfo.value.sweep
        assert [sweep.values[i] for i in (0, 1, 3)] == [1, 2, 4]
        assert [f.index for f in sweep.failures] == [2]
        assert sweep.failures[0].error == "ValueError"

    def test_jobs_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")
        assert default_jobs() == 1
        monkeypatch.setenv(JOBS_ENV, "7")
        assert default_jobs() == 7
        monkeypatch.setenv(JOBS_ENV, " 3 ")
        assert default_jobs() == 3
        monkeypatch.setenv(JOBS_ENV, "0")          # clamped to serial
        assert default_jobs() == 1
        monkeypatch.setenv(JOBS_ENV, "-2")
        assert default_jobs() == 1
        monkeypatch.setenv(JOBS_ENV, "garbage")
        assert default_jobs() == (os.cpu_count() or 1)
        monkeypatch.delenv(JOBS_ENV)
        assert default_jobs() == (os.cpu_count() or 1)


class TestDeterminism:
    """REPRO_JOBS>1 must produce results byte-identical to serial runs."""

    def test_figure5_bit_identical(self):
        serial = figure5_opt_levels(_ctx(1))
        parallel = figure5_opt_levels(_ctx(3))
        assert parallel["text"] == serial["text"]
        assert parallel["data"] == serial["data"]

    def test_compiler_compare_bit_identical(self):
        serial = compare_cheerp_emscripten(_ctx(1))
        parallel = compare_cheerp_emscripten(_ctx(2))
        assert parallel["text"] == serial["text"]
        assert parallel["summary"] == serial["summary"]
        assert parallel["data"] == serial["data"]

    def test_benchmark_subset_override_survives_fanout(self):
        # The benchmark list is taken from the caller's context even when
        # workers reconstruct their own contexts.
        result = figure5_opt_levels(_ctx(2))
        assert set(result["data"]["wasm"]) == KEEP