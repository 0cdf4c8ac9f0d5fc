"""Fault-tolerant sweep scheduler: failure capture, retries with
deterministic backoff, per-cell timeouts, fault injection, and graceful
degradation of experiment sweeps (partial results + failure report)."""

import os
import time

import pytest

from repro.errors import SweepError
from repro.experiments import ExperimentContext, figure5_opt_levels
from repro.harness.parallel import (
    CELL_TIMEOUT_ENV, CellFailure, FAULT_INJECT_ENV, FaultPlan,
    InjectedFault, RETRIES_ENV, SweepResult, backoff_delay,
    default_cell_timeout, default_retries, run_sweep,
)
from repro.suites import all_benchmarks


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x!r}")


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_spec_string(self):
        plan = FaultPlan("gemm=crash; SHA=flake:2, lu=hang:1")
        assert plan.directives == {"gemm": ("crash", None),
                                   "SHA": ("flake", 2),
                                   "lu": ("hang", 1)}

    def test_spec_roundtrip(self):
        plan = FaultPlan("b=flake:2;a=crash")
        assert FaultPlan(plan.spec()).directives == plan.directives

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULT_INJECT_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULT_INJECT_ENV, "gemm=crash")
        plan = FaultPlan.from_env()
        assert plan and plan.directives == {"gemm": ("crash", None)}

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan("gemm")
        with pytest.raises(ValueError):
            FaultPlan("gemm=explode")
        with pytest.raises(ValueError):
            FaultPlan("gemm=crash:0")

    def test_apply_crash_and_flake_windows(self):
        plan = FaultPlan({"a": "crash", "b": "flake:2"})
        with pytest.raises(InjectedFault):
            plan.apply("a", 1)
        with pytest.raises(InjectedFault):
            plan.apply("a", 99)          # crash has no attempt window
        with pytest.raises(InjectedFault):
            plan.apply("b", 2)
        plan.apply("b", 3)               # flake:2 clears on attempt 3
        plan.apply("unrelated", 1)       # unmatched labels run normally


# ---------------------------------------------------------------------------
# Scheduler: failure capture and retries
# ---------------------------------------------------------------------------


class TestFailureCapture:
    def test_crash_captured_not_propagated(self):
        sweep = run_sweep(_boom, [7], jobs=1, retries=0)
        assert not sweep.ok
        failure = sweep.failures[0]
        assert isinstance(failure, CellFailure)
        assert (failure.index, failure.label) == (0, "0")
        assert failure.error == "ValueError"
        assert "boom 7" in failure.message
        assert "ValueError" in failure.traceback
        assert failure.attempts == 1 and failure.kind == "crash"

    def test_parallel_crash_keeps_other_cells(self):
        sweep = run_sweep(_square, list(range(8)), jobs=3, retries=0,
                          fault_plan=FaultPlan({"3": "crash"}))
        assert [f.index for f in sweep.failures] == [3]
        assert sweep.merged() == [x * x for x in range(8) if x != 3]
        assert sweep.values[3] is None

    def test_traceback_survives_process_boundary(self):
        sweep = run_sweep(_boom, [1, 2], jobs=2, retries=0)
        assert all("ValueError: boom" in f.traceback
                   for f in sweep.failures)

    def test_report_and_raise_if_failed(self):
        sweep = run_sweep(_square, [1, 2], jobs=1, retries=0,
                          fault_plan=FaultPlan({"1": "crash"}))
        assert "1 of 2 cell(s) failed" in sweep.report()
        with pytest.raises(SweepError) as excinfo:
            sweep.raise_if_failed()
        assert excinfo.value.sweep is sweep
        assert excinfo.value.failures == sweep.failures

    def test_clean_sweep_report(self):
        sweep = run_sweep(_square, [1, 2], jobs=1, retries=0)
        assert sweep.ok and "2 cell(s) completed" in sweep.report()
        assert sweep.raise_if_failed() is sweep


class TestRetries:
    def test_flake_recovers_within_budget(self):
        delays = []
        sweep = run_sweep(_square, [1, 2, 3], jobs=2, retries=1,
                          fault_plan=FaultPlan({"2": "flake:1"}),
                          sleep=delays.append)
        assert sweep.ok and sweep.values == [1, 4, 9]
        assert delays == [backoff_delay(1)]

    def test_exhaustion_counts_attempts(self):
        sweep = run_sweep(_boom, [5], jobs=1, retries=3,
                          sleep=lambda _d: None)
        assert sweep.failures[0].attempts == 4

    def test_backoff_schedule_is_deterministic(self):
        delays = []
        run_sweep(_boom, [5], jobs=1, retries=3, sleep=delays.append)
        assert delays == [backoff_delay(1), backoff_delay(2),
                          backoff_delay(3)]
        assert delays == [0.05, 0.1, 0.2]
        # ... and bounded.
        assert backoff_delay(50) == 1.0

    def test_retries_env(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "4")
        assert default_retries() == 4
        monkeypatch.setenv(RETRIES_ENV, "0")
        assert default_retries() == 0
        monkeypatch.setenv(RETRIES_ENV, "-3")       # clamped to no retry
        assert default_retries() == 0
        monkeypatch.setenv(RETRIES_ENV, "garbage")
        assert default_retries() == 1
        monkeypatch.delenv(RETRIES_ENV)
        assert default_retries() == 1


# ---------------------------------------------------------------------------
# Scheduler: timeouts and worker replacement
# ---------------------------------------------------------------------------


class TestTimeouts:
    def test_hung_cell_killed_and_sweep_completes(self):
        start = time.monotonic()
        sweep = run_sweep(_square, [1, 2, 3, 4], jobs=2, retries=0,
                          timeout=1.0, fault_plan=FaultPlan({"1": "hang"}))
        elapsed = time.monotonic() - start
        failure, = sweep.failures
        assert failure.kind == "timeout" and failure.index == 1
        assert sweep.merged() == [1, 9, 16]
        assert elapsed < 30  # killed, not waited out

    def test_hang_then_retry_succeeds(self):
        sweep = run_sweep(_square, [1, 2], jobs=2, retries=1, timeout=1.0,
                          fault_plan=FaultPlan({"0": "hang:1"}),
                          sleep=lambda _d: None)
        assert sweep.ok and sweep.values == [1, 4]

    def test_single_cell_sweep_still_enforces_timeout(self):
        sweep = run_sweep(_square, [5], jobs=4, retries=0, timeout=1.0,
                          fault_plan=FaultPlan({"0": "hang"}))
        assert sweep.failures and sweep.failures[0].kind == "timeout"

    def test_timeout_env(self, monkeypatch):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "2.5")
        assert default_cell_timeout() == 2.5
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "0")
        assert default_cell_timeout() is None
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "-1.5")
        assert default_cell_timeout() is None
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "garbage")
        assert default_cell_timeout() is None
        monkeypatch.delenv(CELL_TIMEOUT_ENV)
        assert default_cell_timeout() is None


class TestWorkerDeath:
    def test_dead_worker_reported_and_replaced(self):
        sweep = run_sweep(_exit_on_two, [1, 2, 3, 4], jobs=2, retries=0)
        failure, = sweep.failures
        assert failure.kind == "lost" and failure.error == "WorkerDied"
        assert sweep.merged() == [1, 3, 4]


def _exit_on_two(x):
    if x == 2:
        os._exit(17)
    return x


# ---------------------------------------------------------------------------
# Determinism: a fault-free sweep is byte-identical to the serial loop
# ---------------------------------------------------------------------------


class TestFaultFreeParity:
    def test_values_match_serial(self):
        items = list(range(23))
        serial = run_sweep(_square, items, jobs=1)
        parallel = run_sweep(_square, items, jobs=4)
        assert serial.ok and parallel.ok
        assert parallel.values == serial.values

    def test_armed_but_unmatched_plan_changes_nothing(self):
        plan = FaultPlan({"no-such-cell": "crash"})
        sweep = run_sweep(_square, list(range(9)), jobs=3, retries=0,
                          fault_plan=plan)
        assert sweep.ok and sweep.values == [x * x for x in range(9)]


# ---------------------------------------------------------------------------
# Experiment-level degradation (the tier-1 smoke test of the issue)
# ---------------------------------------------------------------------------


SMOKE_SET = {"gemm", "SHA"}


def _smoke_ctx(**kwargs):
    ctx = ExperimentContext(quick=True, repetitions=1, **kwargs)
    ctx.benchmarks = lambda: [b for b in all_benchmarks()
                              if b.name in SMOKE_SET]
    return ctx


class TestExperimentDegradation:
    def test_injected_crash_yields_partial_results_and_report(self):
        clean = figure5_opt_levels(_smoke_ctx(jobs=2, retries=0))
        ctx = _smoke_ctx(jobs=2, retries=0,
                         fault_plan=FaultPlan({"gemm": "crash"}))
        result = figure5_opt_levels(ctx)
        # The crashed cell is dropped; every surviving cell is
        # byte-identical to the fault-free run.
        assert set(result["data"]["wasm"]) == {"SHA"}
        for target in result["data"]:
            assert result["data"][target]["SHA"] == \
                clean["data"][target]["SHA"]
        # The failures are recorded with experiment context and reported.
        assert ctx.failures
        assert all(f.label == "gemm" for f in ctx.failures)
        assert all(f.context["experiment"] for f in ctx.failures)
        report = ctx.failure_report()
        assert "gemm" in report and "InjectedFault" in report

    def test_env_armed_injection(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "gemm=crash")
        monkeypatch.setenv(RETRIES_ENV, "0")
        ctx = _smoke_ctx(jobs=2)
        result = figure5_opt_levels(ctx)
        assert set(result["data"]["wasm"]) == {"SHA"}
        assert ctx.failures and ctx.failures[0].label == "gemm"

    def test_total_failure_raises_sweep_error(self):
        ctx = _smoke_ctx(jobs=2, retries=0,
                         fault_plan=FaultPlan({"gemm": "crash",
                                               "SHA": "crash"}))
        with pytest.raises(SweepError) as excinfo:
            figure5_opt_levels(ctx)
        assert len(excinfo.value.failures) == len(SMOKE_SET)

    def test_flaky_cell_is_retried_to_success(self):
        clean = figure5_opt_levels(_smoke_ctx(jobs=2, retries=0))
        ctx = _smoke_ctx(jobs=2, retries=1,
                         fault_plan=FaultPlan({"gemm": "flake:1"}))
        result = figure5_opt_levels(ctx)
        assert not ctx.failures
        assert result["data"] == clean["data"]
        assert result["text"] == clean["text"]
