"""Fault-tolerant process-parallel experiment scheduler.

The benchmark × configuration grid is embarrassingly parallel: every
(benchmark, toolchain, opt level, input size, browser profile) cell
compiles and measures independently, and the engines are deterministic, so
fanning the grid out across worker processes must — and does — produce
results identical to serial execution.

A production sweep serving the full 41-benchmark grid cannot afford the
old ``Pool.map`` failure mode, where one crashed or hung worker aborted
the whole map and discarded every completed cell.  :func:`run_sweep` is
the primitive now: an order-preserving map that

* captures per-cell exceptions into structured :class:`CellFailure`
  records (label, error, traceback, attempt count) instead of
  propagating them;
* retries failed attempts up to ``REPRO_RETRIES`` times with a bounded,
  deterministic exponential backoff — the backoff sleeps happen in the
  scheduler between dispatches, never inside a measured cell, so results
  are unaffected by wall-clock timing;
* enforces a per-cell timeout (``REPRO_CELL_TIMEOUT``) on the parallel
  path by killing the hung worker process and spawning a replacement
  (serial in-process execution cannot kill itself; timeouts need
  ``jobs >= 2``);
* degrades gracefully: the returned :class:`SweepResult` merges all
  successful results in input order and carries the failure report.

:func:`parallel_map` keeps the strict list-of-results contract on top:
it raises :class:`~repro.errors.SweepError` — which still carries the
partial results — if any cell ultimately fails.

Determinism contract (unchanged from the ``Pool.map`` era):

* results come back in input order regardless of completion order, so
  merged dicts iterate exactly as the serial loop would insert them;
* workers share the persistent compile cache on disk — writes are atomic
  and idempotent, so racing workers at worst duplicate a compile;
* worker callables must be module-level (picklable); cells are dispatched
  one at a time so the longest-running benchmark never serialises a
  whole chunk.

Execution path: the requested worker count alone picks it.  ``jobs=1``
runs every cell in the calling process; ``jobs >= 2`` runs every cell in
a pool worker, however few cells the sweep has, so a lone cell gets the
same memory cap, crash isolation and ``cell_dispatch`` progress as the
cells of a large sweep.  Both paths share one cell lifecycle (events,
attempt accounting, ``on_result``, closing counters).

Worker lifetime: each process has one worker pool, reused by every
parallel sweep (``run_all.py``'s experiments and the service's sweeps
alike), so a worker keeps what it derived between sweeps: loaded
modules and its artifact cache's memory layer, whose entries carry the
``Derived`` memos (prepared bodies, translator plans and compiled
factories) of the programs it ran.  That layer is capped at
:data:`WORKER_CACHE_MEM` entries unless ``REPRO_CACHE_MEM`` sets a cap,
so the artifacts a worker keeps stay bounded however long it lives.  It
keeps no metric state: each attempt records into an emptied registry
and ships that diff home.  Each task carries its own callable and fault
plan, so sweeps of different ``fn``s share the workers; idle workers
take cells from the head of the queue.  Workers are forked only when a
sweep needs them: a sweep borrows ``min(jobs, cells)`` of them, so the
pool grows to the requested count only once a sweep that large has run.
The pool is pinned to the requested worker count and the ``REPRO_*``
environment it was forked under; a sweep that asks for a different
count, or runs under a different environment, replaces it.  It is
never used across ``fork`` (the owner pid is checked), a worker that
dies, hangs or is still busy when a sweep ends early is killed and
replaced, and :func:`shutdown_pool` stops it (at exit, and from the
service's ``stop``).  A forked worker first neutralizes every socket it
inherited except its task pipe: a serving parent's client connections
and listener, and the other workers' pipes.

Fault injection: a :class:`FaultPlan` (or the ``REPRO_FAULT_INJECT``
environment variable) deterministically crashes, hangs, or flakes
specific cells by label so tests and operational drills can assert the
scheduler's recovery behavior without patching benchmark code.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import stat
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mpc

from repro.cache import get_cache
from repro.errors import SweepError
from repro.obs import (
    SCHED, TraceContext, emit, emit_span, env_float, env_int,
    events_enabled, get_registry, span,
)

#: Environment variable selecting the worker count.  Unset: one worker per
#: CPU.  ``REPRO_JOBS=1``: serial execution in the calling process.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable selecting how many times a failed cell is retried
#: before it is reported as a :class:`CellFailure`.  Default: 1.
RETRIES_ENV = "REPRO_RETRIES"

#: Environment variable bounding one cell attempt, in seconds (float).
#: Unset or ``0``: no timeout.  Enforced on the parallel path only.
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: Environment variable carrying a :class:`FaultPlan` spec, e.g.
#: ``gemm=crash;SHA=flake:2;lu=hang:1``.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: Deterministic backoff schedule: ``base`` seconds doubled per failed
#: attempt, capped at ``cap``.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 1.0

#: An injected hang sleeps this long per nap so a killed worker dies
#: promptly; after ``_HANG_TOTAL_S`` the hang gives up and crashes instead
#: (a guard against hanging forever when no cell timeout is armed).
_HANG_NAP_S = 0.05
_HANG_TOTAL_S = 3600.0

#: Entry cap on a worker's artifact-cache memory layer when
#: ``REPRO_CACHE_MEM`` sets none.  A worker outlives its sweep, so an
#: unbounded layer would keep every artifact and result it ever touched
#: (861 entries per worker over ``serve-mixed``'s cold cells); an evicted
#: entry is still served from disk.
WORKER_CACHE_MEM = 256


def default_jobs():
    """Worker count from ``REPRO_JOBS`` (at least 1), else the CPU
    count."""
    return env_int(JOBS_ENV, default=os.cpu_count() or 1, minimum=1)


def default_retries():
    """Retry budget per cell from ``REPRO_RETRIES`` (at least 0), else
    1."""
    return env_int(RETRIES_ENV, default=1, minimum=0)


def default_cell_timeout():
    """Per-cell timeout in seconds from ``REPRO_CELL_TIMEOUT``, else
    ``None`` (no timeout; so does a value <= 0)."""
    seconds = env_float(CELL_TIMEOUT_ENV)
    return seconds if seconds > 0 else None


def backoff_delay(attempt, base=BACKOFF_BASE_S, cap=BACKOFF_CAP_S):
    """Seconds to wait before re-dispatching after failed ``attempt``
    (1-based).  Purely a function of the attempt number, so retry timing
    is reproducible."""
    return min(cap, base * (2 ** (attempt - 1)))


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class InjectedFault(RuntimeError):
    """The exception raised inside a worker by :class:`FaultPlan` (tests
    and operational fault drills)."""


class FaultPlan:
    """Deterministic per-cell fault injection.

    A plan maps cell *labels* (benchmark names in experiment sweeps,
    stringified indices by default) to directives:

    ``crash[:N]``
        raise :class:`InjectedFault` on every attempt (or the first ``N``).
    ``flake[:N]``
        crash the first ``N`` attempts (default 1), then succeed — the
        transient failure the retry path exists for.
    ``hang[:N]``
        sleep until the cell timeout kills the worker (attempts beyond
        ``N`` run normally; no ``N`` means every attempt hangs).

    The same syntax, joined with ``;`` or ``,``, is accepted from the
    ``REPRO_FAULT_INJECT`` environment variable:
    ``gemm=crash;SHA=flake:2;lu=hang:1``.
    """

    KINDS = ("crash", "flake", "hang")

    def __init__(self, spec=None):
        self.directives = {}
        if spec is None:
            return
        if isinstance(spec, str):
            pairs = [chunk for piece in spec.replace(",", ";").split(";")
                     if (chunk := piece.strip())]
            spec_items = []
            for chunk in pairs:
                if "=" not in chunk:
                    raise ValueError(
                        f"bad fault directive {chunk!r}: expected "
                        "label=kind[:count]")
                label, directive = chunk.split("=", 1)
                spec_items.append((label.strip(), directive.strip()))
        else:
            spec_items = list(spec.items())
        for label, directive in spec_items:
            self.directives[str(label)] = self._parse(directive)

    @staticmethod
    def _parse(directive):
        kind, _, count = str(directive).partition(":")
        kind = kind.strip().lower()
        if kind not in FaultPlan.KINDS:
            raise ValueError(f"bad fault kind {kind!r}: expected one of "
                             f"{FaultPlan.KINDS}")
        if count:
            attempts = int(count)
            if attempts < 1:
                raise ValueError(f"bad fault count in {directive!r}")
        else:
            attempts = 1 if kind == "flake" else None
        return (kind, attempts)

    @classmethod
    def from_env(cls):
        """The plan armed via ``REPRO_FAULT_INJECT``, or ``None``."""
        spec = os.environ.get(FAULT_INJECT_ENV, "").strip()
        return cls(spec) if spec else None

    def spec(self):
        """Canonical string form (used to ship the plan to workers)."""
        return ";".join(
            f"{label}={kind}" + (f":{count}" if count is not None else "")
            for label, (kind, count) in sorted(self.directives.items()))

    def __bool__(self):
        return bool(self.directives)

    def apply(self, label, attempt):
        """Inject the configured fault for ``label`` at ``attempt``
        (1-based), if any.  Called in the worker before the cell runs."""
        directive = self.directives.get(label)
        if directive is None:
            return
        kind, count = directive
        if count is not None and attempt > count:
            return
        if kind == "hang":
            naps = int(_HANG_TOTAL_S / _HANG_NAP_S)
            for _ in range(naps):
                time.sleep(_HANG_NAP_S)
        raise InjectedFault(
            f"injected {kind} for cell {label!r} (attempt {attempt})")


# ---------------------------------------------------------------------------
# Failure records and sweep results
# ---------------------------------------------------------------------------


@dataclass
class CellFailure:
    """One cell that exhausted its attempts.

    ``kind`` is ``"crash"`` (the cell raised), ``"timeout"`` (the worker
    was killed after ``REPRO_CELL_TIMEOUT``), or ``"lost"`` (the worker
    process died without reporting — e.g. a segfault or ``os._exit``).
    ``context`` is filled in by higher layers (experiment name, params).
    """

    index: int
    label: str
    error: str
    message: str
    traceback: str
    attempts: int
    kind: str = "crash"
    context: dict = field(default_factory=dict)

    def describe(self):
        where = self.context.get("experiment")
        cell = f"{where}/{self.label}" if where else self.label
        return (f"{cell}: {self.error}: {self.message} "
                f"[{self.kind}, {self.attempts} attempt(s)]")


@dataclass
class SweepResult:
    """Outcome of one sweep: ``values`` is aligned with the input items
    (``None`` where the cell failed) and ``failures`` holds one
    :class:`CellFailure` per failed cell, in input order."""

    values: list
    failures: list

    @property
    def ok(self):
        return not self.failures

    def failed_indices(self):
        return {failure.index for failure in self.failures}

    def merged(self):
        """Successful results only, in input order — what a serial loop
        over the surviving cells would have produced."""
        failed = self.failed_indices()
        return [value for index, value in enumerate(self.values)
                if index not in failed]

    def report(self):
        """Human-readable failure report (one line per failed cell)."""
        if not self.failures:
            return f"sweep ok: {len(self.values)} cell(s) completed"
        lines = [f"sweep degraded: {len(self.failures)} of "
                 f"{len(self.values)} cell(s) failed"]
        lines.extend("  " + failure.describe() for failure in self.failures)
        return "\n".join(lines)

    def raise_if_failed(self):
        if self.failures:
            raise SweepError(self)
        return self


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(conn):
    """Worker loop: receive ``(fn, plan_spec, index, attempt, label,
    item, trace)`` tasks, run ``fn(item)``, report ``("ok", index, value,
    metrics)`` or ``("err", index, ...)``.  ``metrics`` is the registry
    diff the attempt produced, recorded into an emptied registry so no
    earlier task or sweep leaves residue in it; the scheduler applies the
    per-cell diffs in *input* order so the merged registry is
    byte-identical to a serial run.  A failed attempt ships nothing, so
    retried flakes leave no metric residue.  ``plan_spec`` is the sweep's
    :class:`FaultPlan` spec (or ``None``).  ``trace`` is an optional
    :class:`~repro.obs.TraceContext` wire tuple: when present the attempt
    runs inside a ``sched.attempt`` span (activated, so engine phase
    events nest under it) whose deterministic id the scheduler can
    re-derive if it has to kill this worker.  The worker never dies on a
    cell exception — only on EOF/sentinel or when the scheduler kills
    it."""
    _detach_from_parent(conn)
    cache = get_cache()
    if not cache.memory_cap:
        cache.memory_cap = WORKER_CACHE_MEM
    reg = get_registry()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        fn, plan_spec, index, attempt, label, item, trace = task
        ctx = TraceContext.from_wire(trace)
        reg.reset()
        snap = reg.snapshot()
        try:
            with span("sched.attempt", ctx=ctx, parts=(attempt,),
                      label=label, attempt=attempt):
                if plan_spec:
                    FaultPlan(plan_spec).apply(label, attempt)
                value = fn(item)
            message = ("ok", index, value, reg.diff(snap))
        except BaseException as exc:
            message = ("err", index, type(exc).__name__, str(exc),
                       traceback.format_exc())
        try:
            conn.send(message)
        except Exception as exc:
            # The value itself failed to pickle: report that as the
            # cell's error rather than silently dying.
            conn.send(("err", index, type(exc).__name__,
                       f"result not sendable: {exc}",
                       traceback.format_exc()))


def _detach_from_parent(conn):
    """Drop what a forked worker inherited but must not hold.

    The pool lock was held when the worker forked, so a cell that itself
    sweeps gets a fresh one.  Every inherited socket except the task pipe
    is replaced by ``/dev/null``: a client connection left open here
    would keep a served response from ever ending, and the listener and
    the other workers' pipes would outlive their owners.  The
    descriptors are overwritten rather than closed because inherited
    socket objects still own their numbers, and closing a number that a
    later ``open`` reuses would close the wrong file."""
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return   # no descriptor listing on this platform; keep them all
    keep = conn.fileno()
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd in (keep, devnull):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd, inheritable=False)
            except OSError:
                pass   # closed meanwhile (the listing's own descriptor)
    finally:
        os.close(devnull)


def _pool_context():
    # fork is the cheap path (workers inherit the imported package and the
    # warm in-memory caches); fall back to spawn where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class _Worker:
    """One pool worker process plus its task pipe."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(child,),
                                   daemon=True)
        self.process.start()
        child.close()
        self.task = None           # (index, attempt) while busy
        self.deadline = None       # monotonic kill time while busy
        self.dispatched_ts = None  # epoch time of the in-flight dispatch

    def dispatch(self, index, attempt, task, timeout):
        """Send ``task`` (see :func:`_worker_main`) for attempt
        ``attempt`` of cell ``index``."""
        self.task = (index, attempt)
        self.deadline = (time.monotonic() + timeout) if timeout else None
        self.dispatched_ts = time.time()
        try:
            self.conn.send(task)
        except (BrokenPipeError, ConnectionResetError):
            pass   # it died idle: its EOF reports the attempt as lost

    def kill(self):
        self.task = None
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)

    def shutdown(self):
        """Polite stop for an idle worker."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.kill()


class _Pool:
    """The process's workers, reused by every parallel sweep.  ``pin``
    is the requested worker count and the ``REPRO_*`` environment they
    are forked under; ``owner`` the pid that forks them.  Workers are
    forked on demand, up to the pinned count."""

    def __init__(self, pin):
        self.pin = pin
        self.owner = os.getpid()
        self.ctx = _pool_context()
        self.workers = []

    def borrow(self, count):
        """The first ``count`` workers (at most the pinned count), forking
        the missing ones and replacing any that died since they last
        ran."""
        while len(self.workers) < count:
            self.workers.append(self.spawn())
        for worker in self.workers[:count]:
            if not worker.process.is_alive():
                self.replace(worker)
        return self.workers[:count]

    def spawn(self):
        get_registry().counter_add("sched.pool.spawned", 1, SCHED)
        return _Worker(self.ctx)

    def replace(self, worker):
        """Kill ``worker`` and put a fresh one in its slot; returns the
        new one."""
        worker.kill()
        fresh = self.spawn()
        self.workers[self.workers.index(worker)] = fresh
        return fresh

    def shutdown(self):
        for worker in self.workers:
            worker.shutdown()
        self.workers = []


_POOL = None
_POOL_LOCK = threading.Lock()


def _pool(size):
    """The pool for sweeps that request ``size`` workers (call it
    holding ``_POOL_LOCK``).

    The existing pool is kept when this process forked it for the same
    count and ``REPRO_*`` environment (a worker reads its knobs once
    inherited, so a changed cache dir or flag needs fresh workers)."""
    global _POOL
    pin = (size, tuple(sorted(
        (key, value) for key, value in os.environ.items()
        if key.startswith("REPRO_"))))
    pool = _POOL
    if pool is not None and pool.owner != os.getpid():
        pool = None        # inherited across fork: the parent's workers
    elif pool is not None and pool.pin != pin:
        pool.shutdown()
        pool = None
    if pool is None:
        pool = _POOL = _Pool(pin)
    return pool


def shutdown_pool():
    """Stop this process's worker pool, if it has one.  Runs at exit;
    the next parallel sweep forks a new pool."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
        if pool is not None and pool.owner == os.getpid():
            pool.shutdown()


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class _Sweep:
    """One sweep's cells and their lifecycle, shared by the in-process
    path and the pool scheduler: dispatch and outcome events, attempt
    accounting, the ``on_result`` hook and the closing counters."""

    def __init__(self, items, labels, retries, on_result=None, traces=None):
        self.items = items
        self.labels = labels
        self.retries = retries
        self.on_result = on_result
        self.traces = traces      # per-cell TraceContext (or None), aligned
        self.values = [None] * len(items)
        self.failures = {}
        self.done = 0
        self.start = time.monotonic()
        self.enqueued_at = {}   # index -> monotonic time of re-enqueue

    def trace(self, index):
        return self.traces[index] if self.traces is not None else None

    def trace_fields(self, index):
        ctx = self.trace(index)
        return ctx.fields() if ctx is not None else {}

    def dispatched(self, index, attempt, worker):
        """Attempt ``attempt`` of cell ``index`` starts on ``worker``."""
        queued = self.enqueued_at.get(index, self.start)
        wait_ms = (time.monotonic() - queued) * 1000.0
        get_registry().hist_observe("sched.queue_wait_ms", wait_ms, SCHED)
        if events_enabled():
            emit("cell_dispatch", label=self.labels[index], index=index,
                 attempt=attempt, worker=worker,
                 queue_wait_ms=round(wait_ms, 3),
                 **self.trace_fields(index))

    def succeeded(self, index, attempt, value, worker):
        self.values[index] = value
        self.done += 1
        get_registry().hist_observe("sched.attempts", attempt, SCHED)
        if events_enabled():
            emit("cell", label=self.labels[index], index=index,
                 attempts=attempt, outcome="ok", worker=worker,
                 **self.trace_fields(index))
        self.notify(index, value, None)

    def attempt_failed(self, index, attempt, error, text, trace,
                        kind="crash"):
        """Account one failed attempt.  Returns True when the cell has
        retries left (the caller re-runs it after
        :func:`backoff_delay`); otherwise records its
        :class:`CellFailure`."""
        reg = get_registry()
        if kind == "timeout":
            reg.counter_add("sched.timeouts", 1, SCHED)
        elif kind == "lost":
            reg.counter_add("sched.lost", 1, SCHED)
        if attempt <= self.retries:
            reg.counter_add("sched.retries", 1, SCHED)
            self.enqueued_at[index] = time.monotonic()
            return True
        failure = self.failures[index] = CellFailure(
            index=index, label=self.labels[index], error=error,
            message=text, traceback=trace, attempts=attempt, kind=kind)
        self.done += 1
        reg.hist_observe("sched.attempts", attempt, SCHED)
        if events_enabled():
            emit("cell", label=self.labels[index], index=index,
                 attempts=attempt, outcome=kind, error=error,
                 **self.trace_fields(index))
        self.notify(index, None, failure)
        return False

    def notify(self, index, value, failure):
        """Per-cell completion callback (see :func:`run_sweep`); a broken
        callback must not take the sweep down with it."""
        if self.on_result is None:
            return
        try:
            self.on_result(index, self.labels[index], value, failure)
        except Exception:
            pass

    def finish(self):
        failures = [self.failures[i] for i in sorted(self.failures)]
        reg = get_registry()
        reg.counter_add("sched.cells", len(self.items), SCHED)
        reg.counter_add("sched.completed", len(self.items) - len(failures),
                        SCHED)
        # Register the retry counter even on clean sweeps so scrapers
        # (the /metrics endpoint) always see it.
        reg.counter_add("sched.retries", 0, SCHED)
        if failures:
            reg.counter_add("sched.failures", len(failures), SCHED)
        return SweepResult(self.values, failures)


def _serial_sweep(fn, items, labels, retries, fault_plan, sleep,
                  on_result=None, traces=None):
    """In-process reference path (``jobs=1``).  Same retry/injection
    semantics; per-cell timeouts are not enforced (the scheduler cannot
    kill its own process)."""
    sweep = _Sweep(items, labels, retries, on_result, traces)
    reg = get_registry()
    pid = os.getpid()
    for index, item in enumerate(items):
        for attempt in range(1, retries + 2):
            sweep.dispatched(index, attempt, pid)
            # Same metric semantics as the worker path: a failed attempt
            # rolls the registry back, so only completed attempts count.
            snap = reg.snapshot()
            try:
                with span("sched.attempt", ctx=sweep.trace(index),
                          parts=(attempt,), label=labels[index],
                          attempt=attempt):
                    if fault_plan is not None:
                        fault_plan.apply(labels[index], attempt)
                    value = fn(item)
            except Exception as exc:
                reg.restore(snap)
                if sweep.attempt_failed(index, attempt,
                                         type(exc).__name__, str(exc),
                                         traceback.format_exc()):
                    sleep(backoff_delay(attempt))
                    continue
            else:
                sweep.succeeded(index, attempt, value, pid)
            break
    return sweep.finish()


class _Scheduler(_Sweep):
    def __init__(self, fn, items, labels, requested, retries, timeout,
                 fault_plan, sleep, on_result=None, traces=None):
        super().__init__(items, labels, retries, on_result, traces)
        self.fn = fn
        self.requested = requested   # the pool's pinned worker count
        self.timeout = timeout
        self.plan_spec = fault_plan.spec() if fault_plan else None
        self.sleep = sleep
        self.queue = deque((index, 1) for index in range(len(items)))
        self.backoff = {}  # index -> seconds to wait before re-dispatch
        self.metric_payloads = [None] * len(items)
        self.pool = None
        self.workers = []

    def run(self):
        with _POOL_LOCK:
            self.pool = _pool(self.requested)
            # A sweep borrows no more workers than it has cells.
            workers = self.workers = self.pool.borrow(
                min(self.requested, len(self.items)))
            try:
                while self.done < len(self.items):
                    self._dispatch(workers)
                    busy = [w for w in workers if w.task is not None]
                    if not busy:
                        break  # defensive: nothing queued, nothing running
                    ready = _mpc.wait([w.conn for w in busy],
                                      timeout=self._wait_timeout(busy))
                    for worker in busy:
                        if worker.conn in ready:
                            self._collect(worker)
                    self._reap_timeouts(workers)
            finally:
                # A sweep ending early (an exception or an interrupt)
                # kills the workers it left busy, so no stale reply can
                # reach a later sweep; the next sweep replaces them.
                for worker in workers:
                    if worker.task is not None:
                        worker.kill()
            # Merge the workers' metric diffs in *input* order: the
            # resulting registry state is independent of completion order
            # and identical to what the serial path accumulates.
            reg = get_registry()
            for payload in self.metric_payloads:
                if payload is not None:
                    reg.apply(payload)
            return self.finish()

    def _dispatch(self, workers):
        for worker in workers:
            if worker.task is None and self.queue:
                index, attempt = self.queue.popleft()
                delay = self.backoff.pop(index, 0.0)
                if delay:
                    self.sleep(delay)
                self.dispatched(index, attempt, worker.process.pid)
                trace = self.trace(index)
                worker.dispatch(
                    index, attempt,
                    (self.fn, self.plan_spec, index, attempt,
                     self.labels[index], self.items[index],
                     trace.to_wire() if trace is not None else None),
                    self.timeout)

    def _replace(self, worker):
        """Swap a dead or hung worker for a fresh one, in the pool and in
        this sweep's borrowed list."""
        self.workers[self.workers.index(worker)] = self.pool.replace(worker)

    def _wait_timeout(self, busy):
        if not self.timeout:
            return None
        deadlines = [w.deadline for w in busy if w.deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _collect(self, worker):
        """Consume one message (or the EOF of a dead worker)."""
        index, attempt = worker.task
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died without reporting (hard crash).  Replace it
            # and account the in-flight attempt as lost.
            started = worker.dispatched_ts or time.time()
            self._replace(worker)
            self._emit_dead_attempt(index, attempt, started, "lost")
            self._failed(index, attempt, "WorkerDied",
                         "worker process died while running this cell", "",
                         kind="lost")
            return
        worker.task = None
        worker.deadline = None
        if message[0] == "ok":
            self.metric_payloads[index] = message[3]
            self.succeeded(index, attempt, message[2], worker.process.pid)
        else:
            _tag, _index, error, text, trace = message
            self._failed(index, attempt, error, text, trace)

    def _emit_dead_attempt(self, index, attempt, started, outcome):
        """The worker running this attempt died (timeout kill or hard
        crash), so its ``sched.attempt`` span never closed.  Ids are
        deterministic, so the scheduler re-derives the same span id the
        worker would have emitted and closes the span on its behalf."""
        cell_ctx = self.trace(index)
        if cell_ctx is None:
            return
        span_ctx = cell_ctx.child("sched.attempt", attempt)
        emit_span(span_ctx, "sched.attempt", started,
                  time.time() - started, outcome=outcome,
                  label=self.labels[index], attempt=attempt)

    def _reap_timeouts(self, workers):
        if not self.timeout:
            return
        now = time.monotonic()
        for worker in workers:
            if worker.task is None or now < worker.deadline:
                continue
            index, attempt = worker.task
            started = worker.dispatched_ts or time.time()
            self._replace(worker)
            self._emit_dead_attempt(index, attempt, started, "timeout")
            self._failed(
                index, attempt, "Timeout",
                f"cell exceeded {self.timeout:g}s; worker killed and "
                "replaced", "", kind="timeout")

    def _failed(self, index, attempt, error, text, trace, kind="crash"):
        """A failed attempt: queue the retry behind its backoff, or
        record the failure."""
        if self.attempt_failed(index, attempt, error, text, trace, kind):
            self.backoff[index] = backoff_delay(attempt)
            self.queue.append((index, attempt + 1))


def run_sweep(fn, items, jobs=None, retries=None, timeout=None, labels=None,
              fault_plan=None, sleep=None, on_result=None, traces=None):
    """Fault-tolerant order-preserving map over ``items``.

    Returns a :class:`SweepResult`; never raises for cell failures.
    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` over one) when ``jobs >= 2``.
    ``labels`` names the cells for failure reports and fault injection
    (default: the item's index as a string).  ``sleep`` is injectable for
    tests; backoff sleeps only ever run in the scheduler process.

    ``on_result(index, label, value, failure)`` — when given — is called
    in the scheduler process the moment a cell finishes (exhausting its
    retries counts as finishing, with ``failure`` set and ``value``
    ``None``).  The sweep service streams per-cell results to clients
    from this hook instead of waiting for the whole sweep; note the
    cell's worker metrics are only merged into the registry when the
    sweep completes, so the hook must not read cell metrics.  A raising
    callback is ignored.

    ``traces`` — when given — aligns one
    :class:`~repro.obs.TraceContext` (or ``None``) with each item: the
    scheduler stamps the context's ids into the cell lifecycle events
    and every attempt (including retries, timeout kills and lost
    workers) runs as a ``sched.attempt`` child span, shipped to workers
    over the task pipe.  Without ``traces`` the sweep is byte-identical
    to the untraced scheduler.
    """
    items = list(items)
    if labels is None:
        labels = [str(index) for index in range(len(items))]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(items):
            raise ValueError("labels must align with items")
    if traces is not None:
        traces = list(traces)
        if len(traces) != len(items):
            raise ValueError("traces must align with items")
    if jobs is None:
        jobs = default_jobs()
    if retries is None:
        retries = default_retries()
    if timeout is None:
        timeout = default_cell_timeout()
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    if sleep is None:
        sleep = time.sleep
    if not items:
        return SweepResult([], [])
    # The requested worker count alone picks the path, never the sweep's
    # size: a one-cell sweep at ``jobs >= 2`` still runs in a worker.
    if jobs <= 1:
        return _serial_sweep(fn, items, labels, retries, fault_plan, sleep,
                             on_result, traces)
    return _Scheduler(fn, items, labels, jobs, retries, timeout,
                      fault_plan, sleep, on_result, traces).run()


def parallel_map(fn, items, jobs=None):
    """Order-preserving ``[fn(item) for item in items]``, fanned out over
    ``jobs`` worker processes when ``jobs > 1``.

    Strict wrapper over :func:`run_sweep`: if any cell ultimately fails
    (after retries), raises :class:`~repro.errors.SweepError` carrying
    the partial results instead of the bare worker exception.
    """
    return run_sweep(fn, items, jobs=jobs).raise_if_failed().values
