"""Shared experiment infrastructure: cached compiles, runner helpers, the
parallel scheduler wiring, and the benchmark selections.

Compiles are served by the persistent content-addressed cache
(:mod:`repro.cache`) — the context no longer carries ad-hoc per-kind dict
caches; the cache's memory layer covers the in-process case and its disk
layer makes repeat runs of the whole apparatus near-instant.
"""

from __future__ import annotations

from functools import partial

from repro.compilers import CheerpCompiler, EmscriptenCompiler, LlvmX86Compiler
from repro.env import DESKTOP, MOBILE, chrome_desktop
from repro.errors import SweepError
from repro.harness import PageRunner
from repro.harness.parallel import (
    default_cell_timeout, default_jobs, default_retries, run_sweep,
)
from repro.obs import TraceContext, env_flag, trace_enabled
from repro.suites import all_benchmarks

#: Opt-in flag (``1``/``on``/``true``/``yes``): run experiments on a
#: representative subset (quick CI runs).  Unset or ``0``/``off`` runs the
#: full suite.
QUICK_ENV = "REPRO_QUICK"

#: Representative subset (one per kernel family) for quick runs.
QUICK_SET = [
    "covariance", "gemm", "3mm", "atax", "cholesky", "lu", "trisolv",
    "floyd-warshall", "jacobi-2d", "heat-3d",
    "ADPCM", "AES", "SHA", "DFADD", "MIPS",
]

#: Worker-process context registry: one reconstructed context per spec, so
#: a pool worker builds its compilers once and reuses them across tasks.
_WORKER_CONTEXTS = {}


def health_lines():
    """Cache and scheduler health summarised from the metrics registry
    (``cache.*`` / ``sched.*`` counters), as report-ready text lines."""
    from repro.obs import SCHED, get_registry
    metrics = get_registry().export([SCHED])
    cache = {k.split(".", 1)[1]: v for k, v in metrics.items()
             if k.startswith("cache.")}
    sched = {k.split(".", 1)[1]: v for k, v in metrics.items()
             if k.startswith("sched.")}
    lines = []
    if cache:
        lines.append(
            "cache health: {hits} hit(s) ({memory} memory / {disk} disk), "
            "{misses} miss(es), {stale} stale, {puts} write(s), "
            "{evictions} eviction(s)".format(
                hits=cache.get("hits", 0),
                memory=cache.get("memory_hits", 0),
                disk=cache.get("disk_hits", 0),
                misses=cache.get("misses", 0),
                stale=cache.get("stale", 0),
                puts=cache.get("puts", 0),
                evictions=cache.get("evictions", 0)))
    if sched:
        lines.append(
            "scheduler health: {cells} cell(s), {completed} completed, "
            "{failures} failed, {retries} retried attempt(s), "
            "{timeouts} timeout(s), {lost} lost worker(s)".format(
                cells=sched.get("cells", 0),
                completed=sched.get("completed", 0),
                failures=sched.get("failures", 0),
                retries=sched.get("retries", 0),
                timeouts=sched.get("timeouts", 0),
                lost=sched.get("lost", 0)))
    return lines


def _run_benchmark_task(worker, spec, params, benchmark):
    """Pool entry point: reconstruct the context (once per worker per
    spec) and apply ``worker(ctx, benchmark, **params)``."""
    ctx = _WORKER_CONTEXTS.get(spec)
    if ctx is None:
        quick, repetitions, heap_bytes = spec
        ctx = ExperimentContext(repetitions=repetitions, quick=quick,
                                heap_bytes=heap_bytes, jobs=1)
        _WORKER_CONTEXTS[spec] = ctx
    return worker(ctx, benchmark, **dict(params))


class ExperimentContext:
    """Configuration shared by experiment functions.

    The Cheerp heap is left at 2 MiB for the benchmark pages (the paper
    raises Cheerp's limits with ``-cheerp-linear-heap-size`` where needed,
    §3.2); repetitions default to the paper's five.  ``jobs`` selects the
    parallel scheduler's worker count (default: ``REPRO_JOBS`` or the CPU
    count; 1 = serial).  ``retries``/``cell_timeout``/``fault_plan``
    configure the scheduler's fault tolerance (defaults from
    ``REPRO_RETRIES``, ``REPRO_CELL_TIMEOUT``, ``REPRO_FAULT_INJECT``);
    failed cells accumulate as :class:`~repro.harness.CellFailure`
    records in ``self.failures`` instead of aborting the sweep.
    """

    def __init__(self, repetitions=None, quick=None,
                 heap_bytes=2 * 1024 * 1024, jobs=None, retries=None,
                 cell_timeout=None, fault_plan=None):
        if quick is None:
            quick = env_flag(QUICK_ENV)
        self.quick = quick
        self.repetitions = repetitions if repetitions is not None else \
            (2 if quick else 5)
        self.heap_bytes = heap_bytes
        self.jobs = jobs if jobs is not None else default_jobs()
        self.retries = retries if retries is not None else default_retries()
        self.cell_timeout = cell_timeout if cell_timeout is not None else \
            default_cell_timeout()
        self.fault_plan = fault_plan   # None -> REPRO_FAULT_INJECT
        self.failures = []
        self.cheerp = CheerpCompiler(linear_heap_size=heap_bytes)
        self.emscripten = EmscriptenCompiler()
        self.llvm_x86 = LlvmX86Compiler()

    def benchmarks(self):
        benchmarks = all_benchmarks()
        if self.quick:
            benchmarks = [b for b in benchmarks if b.name in QUICK_SET]
        return benchmarks

    # -- cached compiles (served by repro.cache) ------------------------------

    def wasm(self, benchmark, size="M", opt_level="O2", toolchain=None):
        toolchain = toolchain or self.cheerp
        return toolchain.compile_wasm(benchmark.source,
                                      benchmark.defines(size), opt_level,
                                      benchmark.name)

    def js(self, benchmark, size="M", opt_level="O2"):
        return self.cheerp.compile_js(benchmark.source,
                                      benchmark.defines(size), opt_level,
                                      benchmark.name)

    def x86(self, benchmark, size="M", opt_level="O2"):
        return self.llvm_x86.compile(benchmark.source,
                                     benchmark.defines(size), opt_level,
                                     benchmark.name)

    # -- parallel scheduling --------------------------------------------------

    def map_benchmarks(self, worker, **params):
        """Apply ``worker(ctx, benchmark, **params)`` to every benchmark,
        fanned out across ``self.jobs`` processes, and return
        ``[(benchmark, result), ...]`` in benchmark order — identical to
        what a serial loop would produce.

        Fault-tolerant: a cell that exhausts its retries is dropped from
        the returned pairs (the sweep degrades to the surviving subset,
        still in input order) and its :class:`~repro.harness.CellFailure`
        is appended to ``self.failures`` tagged with the experiment worker
        name.  Only a *total* failure — every cell failed — raises
        :class:`~repro.errors.SweepError` (which still carries the empty
        partial results and the failure report).

        ``worker`` must be a module-level function and ``params`` values
        picklable.  The worker receives an equivalent context (same quick /
        repetitions / heap configuration) reconstructed in its process; the
        benchmark list itself is always taken from *this* context, so
        subset overrides made by callers are honored.
        """
        benchmarks = list(self.benchmarks())
        spec = (self.quick, self.repetitions, self.heap_bytes)
        fn = partial(_run_benchmark_task, worker, spec,
                     tuple(sorted(params.items())))
        # With REPRO_TRACE=1 the sweep runs under one deterministic
        # trace per experiment call: ids derive from the worker name and
        # benchmark list, each cell a ("cell", name) child shipped to
        # its worker process (attempt and engine-phase spans land in the
        # event sink).  Off by default — untraced runs carry no context.
        traces = None
        if trace_enabled():
            experiment = getattr(worker, "__name__", str(worker))
            root = TraceContext.root(
                "experiment", experiment,
                tuple(sorted(params.items())),
                *(b.name for b in benchmarks))
            traces = [root.child("cell", b.name) for b in benchmarks]
        sweep = run_sweep(fn, benchmarks, jobs=self.jobs,
                          retries=self.retries, timeout=self.cell_timeout,
                          labels=[b.name for b in benchmarks],
                          fault_plan=self.fault_plan, traces=traces)
        if sweep.failures:
            experiment = getattr(worker, "__name__", str(worker))
            for failure in sweep.failures:
                failure.context.setdefault("experiment", experiment)
                failure.context.setdefault("params", dict(params))
            self.failures.extend(sweep.failures)
            if len(sweep.failures) == len(benchmarks):
                raise SweepError(sweep)
        failed = sweep.failed_indices()
        return [(benchmark, value)
                for index, (benchmark, value)
                in enumerate(zip(benchmarks, sweep.values))
                if index not in failed]

    def failure_report(self):
        """Text report of every failed cell accumulated by this context's
        sweeps, followed by the cache/scheduler health counters from the
        metrics registry; empty string when everything succeeded."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} failed sweep cell(s):"]
        lines.extend("  " + failure.describe() for failure in self.failures)
        health = health_lines()
        if health:
            lines.append("")
            lines.extend(health)
        return "\n".join(lines)

    # -- runners ---------------------------------------------------------------

    def runner(self, profile=None, platform=None, flags=None):
        return PageRunner(profile or chrome_desktop(),
                          platform or DESKTOP, flags=flags,
                          repetitions=self.repetitions)
