"""Measurement harness: HTML page construction, timer instrumentation,
the page runner that executes compiled artifacts under a browser profile +
platform and collects DevTools metrics (§3.3–3.4), and the fault-tolerant
process-parallel experiment scheduler."""

from repro.harness.page import HtmlPage
from repro.harness.measurement import Measurement
from repro.harness.parallel import (
    CELL_TIMEOUT_ENV,
    CellFailure,
    FAULT_INJECT_ENV,
    FaultPlan,
    JOBS_ENV,
    RETRIES_ENV,
    SweepResult,
    default_cell_timeout,
    default_jobs,
    default_retries,
    parallel_map,
    run_sweep,
    shutdown_pool,
)
from repro.harness.runner import PageRunner

__all__ = ["CELL_TIMEOUT_ENV", "CellFailure", "FAULT_INJECT_ENV",
           "FaultPlan", "HtmlPage", "JOBS_ENV", "Measurement", "PageRunner",
           "RETRIES_ENV", "SweepResult", "default_cell_timeout",
           "default_jobs", "default_retries", "parallel_map", "run_sweep",
           "shutdown_pool"]
