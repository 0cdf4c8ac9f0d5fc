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
a pool worker, however few cells the sweep has.  Both paths share one
cell lifecycle (events, attempt accounting, ``on_result``, closing
counters), and every attempt records its metrics into a scratch registry
that is folded in only if the attempt succeeds.

One queue per process: the process's worker pool holds the only queue,
served by one daemon pool thread.  Every parallel sweep (``run_all.py``'s
experiments and the service's requests alike) enqueues its cells as
``(sweep, index, attempt)`` tasks; the thread hands each to whichever
worker is idle, forking a worker only when a cell is queued, none is
idle and the pool is below its pinned count.  Between dispatch turns it
runs the in-process calls submitted to it (:func:`submit_call`: the
service's warm probes and ``jobs=1`` sweeps), one at a time.  A worker
keeps what it derived between cells: loaded modules and its artifact
cache's memory layer (capped at :data:`WORKER_CACHE_MEM` entries unless
``REPRO_CACHE_MEM`` sets a cap), whose entries carry the ``Derived``
memos of the programs it ran.  The pool is pinned to the requested
worker count and the ``REPRO_*`` environment it was forked under; a
sweep that asks for another pin gets a new pool while the old one
drains.  It is never used across ``fork`` (the owner pid is checked); a
worker that dies, hangs, or is busy with a sweep that ended early is
killed, and a later cell forks its replacement; :func:`shutdown_pool`
stops the pool (at exit, and from the service's ``stop``).  A forked
worker first neutralizes every socket it inherited except its task pipe.

Fault injection: a :class:`FaultPlan` (or the ``REPRO_FAULT_INJECT``
environment variable) deterministically crashes, hangs, or flakes
specific cells by label so tests and operational drills can assert the
scheduler's recovery behavior without patching benchmark code.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import socket
import stat
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing import connection as _mpc

from repro.cache import get_cache
from repro.errors import SweepError
from repro.obs import (
    SCHED, MetricsRegistry, TraceContext, emit, emit_span, env_float,
    env_int, events_enabled, get_registry, recording_into, span,
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


def _attempt(fn, item, label, attempt, plan, ctx):
    """Run one attempt of a cell into a scratch registry; returns
    ``(value, metrics)``, its diff.  A sweep folds ``metrics`` in only on
    success, so a failed attempt leaves no count or registered name
    behind and never touches what other threads record meanwhile.  The
    attempt runs in a ``sched.attempt`` span under ``ctx`` (activated, so
    engine phase events nest under it) whose deterministic id the pool
    re-derives if it kills the worker running it."""
    scratch = MetricsRegistry()
    snap = scratch.snapshot()
    with recording_into(scratch), span(
            "sched.attempt", ctx=ctx, parts=(attempt,), label=label,
            attempt=attempt):
        if plan is not None:
            plan.apply(label, attempt)
        value = fn(item)
    return value, scratch.diff(snap)


def _worker_main(conn):
    """Worker loop: receive ``(fn, plan_spec, index, attempt, label,
    item, trace)`` tasks, run the :func:`_attempt`, report ``("ok",
    index, value, metrics)`` or ``("err", index, ...)``.  ``trace`` is an
    optional :class:`~repro.obs.TraceContext` wire tuple.  The worker
    never dies on a cell exception — only on EOF/sentinel or when the
    pool kills it."""
    _detach_from_parent(conn)
    cache = get_cache()
    if not cache.memory_cap:
        cache.memory_cap = WORKER_CACHE_MEM
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        fn, plan_spec, index, attempt, label, item, trace = task
        try:
            value, metrics = _attempt(
                fn, item, label, attempt,
                FaultPlan(plan_spec) if plan_spec else None,
                TraceContext.from_wire(trace))
            message = ("ok", index, value, metrics)
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

    The pool lock may have been held when the worker forked, so a cell
    that itself sweeps gets a fresh one.  Every inherited socket except
    the task pipe is replaced by ``/dev/null``: a client connection left
    open here would keep a served response from ever ending, and the
    listener, the pool's wake-up pair and the other workers' pipes would
    outlive their owners.  The descriptors are overwritten rather than
    closed because inherited socket objects still own their numbers, and
    closing a number that a later ``open`` reuses would close the wrong
    file."""
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
        self.task = None           # (sweep, index, attempt) while busy
        self.deadline = None       # monotonic kill time while busy
        self.dispatched_ts = None  # epoch time of the in-flight dispatch

    def dispatch(self, task, message, timeout):
        """Send ``message`` (see :func:`_worker_main`) for ``task``."""
        self.task = task
        self.deadline = (time.monotonic() + timeout) if timeout else None
        self.dispatched_ts = time.time()
        try:
            self.conn.send(message)
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


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


class _Sweep:
    """One sweep's cells and their lifecycle, shared by the in-process
    path and the pool: dispatch and outcome events, attempt accounting,
    the ``on_result`` hook and the closing counters.  On the pool, each
    attempt is a ``(sweep, index, attempt)`` task and the sweep ends once
    its last cell lands (or an error ends it early); ``then`` runs on the
    pool thread at that point."""

    def __init__(self, fn, items, labels=None, retries=None, timeout=None,
                 fault_plan=None, sleep=None, on_result=None, traces=None):
        self.fn = fn
        self.items = items = list(items)
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
        self.labels = labels
        self.traces = traces      # per-cell TraceContext (or None), aligned
        self.retries = default_retries() if retries is None else retries
        self.timeout = default_cell_timeout() if timeout is None else timeout
        self.fault_plan = FaultPlan.from_env() if fault_plan is None \
            else fault_plan
        self.plan_spec = self.fault_plan.spec() if self.fault_plan else None
        self.sleep = time.sleep if sleep is None else sleep
        self.on_result = on_result
        self.values = [None] * len(items)
        self.failures = {}
        self.done = 0
        self.start = time.monotonic()
        self.enqueued_at = {}   # index -> monotonic time of re-enqueue
        self.backoff = {}       # index -> seconds to wait before re-dispatch
        self.metric_payloads = [None] * len(items)
        self.then = None
        self.ended = False
        self.error = None       # what ended the sweep early, if anything

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
        """Merge the workers' metric diffs in *input* order (the
        resulting registry state is independent of completion order and
        identical to what the serial path accumulates) and close the
        sweep."""
        reg = get_registry()
        for payload in self.metric_payloads:
            if payload is not None:
                reg.apply(payload)
        failures = [self.failures[i] for i in sorted(self.failures)]
        reg.counter_add("sched.cells", len(self.items), SCHED)
        reg.counter_add("sched.completed", len(self.items) - len(failures),
                        SCHED)
        # Register the retry counter even on clean sweeps so scrapers
        # (the /metrics endpoint) always see it.
        reg.counter_add("sched.retries", 0, SCHED)
        if failures:
            reg.counter_add("sched.failures", len(failures), SCHED)
        return SweepResult(self.values, failures)


def _serial_sweep(sweep):
    """In-process reference path (``jobs=1``).  Same retry/injection
    semantics and the same per-attempt metrics as a worker; per-cell
    timeouts are not enforced (the process cannot kill itself)."""
    pid = os.getpid()
    for index, item in enumerate(sweep.items):
        for attempt in range(1, sweep.retries + 2):
            sweep.dispatched(index, attempt, pid)
            try:
                value, metrics = _attempt(
                    sweep.fn, item, sweep.labels[index], attempt,
                    sweep.fault_plan, sweep.trace(index))
            except Exception as exc:
                if sweep.attempt_failed(index, attempt,
                                        type(exc).__name__, str(exc),
                                        traceback.format_exc()):
                    sweep.sleep(backoff_delay(attempt))
                    continue
            else:
                get_registry().apply(metrics)
                sweep.succeeded(index, attempt, value, pid)
            break
    return sweep.finish()


# ---------------------------------------------------------------------------
# The pool: one queue per process
# ---------------------------------------------------------------------------


class _Pool:
    """The process's one queue, its workers and the thread serving both
    (see "One queue per process" above).  ``pin`` is the requested
    worker count and ``REPRO_*`` environment; ``owner`` the pid that
    forks the workers."""

    def __init__(self, pin):
        self.pin = pin
        self.owner = os.getpid()
        self.ctx = _pool_context()
        self.workers = []
        self.cells = deque()     # (sweep, index, attempt) awaiting a worker
        self.calls = deque()     # (future, fn, args) awaiting the thread
        self.lock = threading.Lock()
        self.stopping = None     # "drain" or "now" once asked to stop
        self.wake, self.woken = socket.socketpair()
        self.wake.setblocking(False)
        self.thread = threading.Thread(target=self._serve, daemon=True,
                                       name="repro-pool")
        self.thread.start()

    def _put(self, queue, tasks):
        with self.lock:
            if self.stopping == "now":
                raise RuntimeError("the worker pool was shut down")
            queue.extend(tasks)
            with contextlib.suppress(BlockingIOError):   # one is pending
                self.wake.send(b"\0")

    def submit(self, sweep):
        self._put(self.cells, [(sweep, index, 1)
                               for index in range(len(sweep.items))])

    def call(self, fn, *args):
        future = Future()
        self._put(self.calls, [(future, fn, args)])
        return future

    def stop(self, drain=False):
        """Stop at once, or with ``drain`` once all queued work has run;
        waits for the thread unless called on it."""
        with self.lock:
            if self.stopping != "now":
                self.stopping = "drain" if drain else "now"
                with contextlib.suppress(BlockingIOError):
                    self.wake.send(b"\0")
        if threading.current_thread() is not self.thread:
            self.thread.join()

    def _serve(self):
        try:
            while True:
                self._dispatch()
                with self.lock:   # in place: a put may hold the deque
                    calls = list(self.calls)
                    self.calls.clear()
                for future, fn, args in calls:
                    if future.set_running_or_notify_cancel():
                        try:
                            future.set_result(fn(*args))
                        except BaseException as exc:
                            future.set_exception(exc)
                busy = [w for w in self.workers if w.task is not None]
                with self.lock:
                    if self.stopping == "now" or (
                            self.stopping and not busy and not self.cells
                            and not self.calls):
                        return
                if not busy:   # idle: the cheapest wait for more work
                    self.woken.recv(4096)
                    continue
                deadlines = [w.deadline for w in busy if w.deadline]
                ready = _mpc.wait(
                    [self.woken, *(w.conn for w in busy)],
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines else None)
                if self.woken in ready:
                    self.woken.recv(4096)
                now = time.monotonic()
                for worker in busy:
                    if worker.conn in ready:
                        self._collect(worker)
                    elif worker.task and worker.deadline \
                            and now >= worker.deadline:
                        self._emit_dead_attempt(
                            worker, "timeout", "Timeout",
                            f"cell exceeded {worker.task[0].timeout:g}s; "
                            "worker killed and replaced")
        finally:
            self._close()

    def _close(self):
        """Cancel the calls left, end the sweeps still running (killing
        their workers) and stop the other workers."""
        with self.lock:
            self.stopping = "now"
            cells, calls = list(self.cells), list(self.calls)
            self.wake.close()
            self.woken.close()
        for future, _fn, _args in calls:
            future.cancel()
        stopped = RuntimeError("the worker pool was shut down")
        for sweep in {task[0] for task in cells} | {
                w.task[0] for w in self.workers if w.task is not None}:
            self._end(sweep, stopped)
        for worker in self.workers:
            worker.shutdown()
        self.workers = []

    def _dispatch(self):
        """Hand queued cells to idle workers, in queue order."""
        while True:
            with self.lock:
                if not self.cells:
                    return
                task = self.cells.popleft()
            sweep, index, attempt = task
            if sweep.ended:
                continue
            try:
                worker = self._idle()
                if worker is None:
                    with self.lock:
                        self.cells.appendleft(task)
                    return
                delay = sweep.backoff.pop(index, 0.0)
                if delay:
                    sweep.sleep(delay)
                sweep.dispatched(index, attempt, worker.process.pid)
                trace = sweep.trace(index)
                worker.dispatch(task, (
                    sweep.fn, sweep.plan_spec, index, attempt,
                    sweep.labels[index], sweep.items[index],
                    trace.to_wire() if trace is not None else None),
                    sweep.timeout)
            except BaseException as exc:
                self._end(sweep, exc)

    def _idle(self):
        """An idle live worker (dropping dead ones), else a fresh one
        below the pinned count, else ``None``."""
        for worker in list(self.workers):
            if worker.task is None:
                if worker.process.is_alive():
                    return worker
                self._drop(worker)
        if len(self.workers) < self.pin[0]:
            get_registry().counter_add("sched.pool.spawned", 1, SCHED)
            self.workers.append(_Worker(self.ctx))
            return self.workers[-1]
        return None

    def _drop(self, worker):
        """Kill ``worker``; a later cell forks its replacement."""
        worker.kill()
        self.workers.remove(worker)

    def _collect(self, worker):
        """Consume one reply (or the EOF of a dead worker)."""
        sweep, index, attempt = task = worker.task
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):   # it died without reporting
            return self._emit_dead_attempt(
                worker, "lost", "WorkerDied",
                "worker process died while running this cell")
        except Exception as exc:   # the reply does not unpickle here
            message = ("err", index, type(exc).__name__, str(exc),
                       traceback.format_exc())
        worker.task = None
        worker.deadline = None
        if message[0] == "ok":
            sweep.metric_payloads[index] = message[3]
            sweep.succeeded(index, attempt, message[2], worker.process.pid)
            self._landed(sweep)
        else:
            _tag, _index, error, text, trace = message
            self._failed(task, error, text, trace)

    def _emit_dead_attempt(self, worker, kind, error, text):
        """``worker`` died (``lost``) or is killed for its deadline
        (``timeout``) mid-attempt: drop it and fail the attempt.  Its
        ``sched.attempt`` span never closed; ids are deterministic, so
        the pool re-derives the span id and closes it on its behalf."""
        sweep, index, attempt = task = worker.task
        started = worker.dispatched_ts or time.time()
        self._drop(worker)
        ctx = sweep.trace(index)
        if ctx is not None:
            emit_span(ctx.child("sched.attempt", attempt), "sched.attempt",
                      started, time.time() - started, outcome=kind,
                      label=sweep.labels[index], attempt=attempt)
        self._failed(task, error, text, "", kind)

    def _failed(self, task, error, text, trace, kind="crash"):
        """A failed attempt: queue the retry behind its backoff, or
        record the failure."""
        sweep, index, attempt = task
        if sweep.attempt_failed(index, attempt, error, text, trace, kind):
            sweep.backoff[index] = backoff_delay(attempt)
            with self.lock:
                self.cells.append((sweep, index, attempt + 1))
        else:
            self._landed(sweep)

    def _landed(self, sweep):
        if sweep.done == len(sweep.items):
            self._end(sweep)

    def _end(self, sweep, error=None):
        """``sweep`` is over (its last cell landed, or ``error`` ended it
        early): kill the workers still busy with it, so no stale reply
        outlives it, skip its queued cells and run its ``then``."""
        if sweep.ended:
            return
        sweep.ended, sweep.error = True, error
        for worker in list(self.workers):
            if worker.task is not None and worker.task[0] is sweep:
                self._drop(worker)
        try:
            sweep.then()
        except Exception:
            pass   # a broken callback must not stop the pool


_POOL = None
_POOL_LOCK = threading.Lock()   # guards _POOL, never held over a sweep


def _pool(size):
    """This process's pool for ``size`` workers.  The existing pool is
    kept when this process forked it for the same count and ``REPRO_*``
    environment (a worker reads its knobs once inherited, so a changed
    cache dir or flag needs fresh workers); otherwise a new one takes
    its place and the old one drains."""
    global _POOL
    pin = (size, tuple(sorted(
        (key, value) for key, value in os.environ.items()
        if key.startswith("REPRO_"))))
    with _POOL_LOCK:
        old = _POOL
        if old is not None and old.owner == os.getpid() and old.pin == pin:
            return old
        pool = _POOL = _Pool(pin)
    if old is not None and old.owner == os.getpid():
        old.stop(drain=True)
    return pool


def shutdown_pool():
    """Stop this process's worker pool, if it has one: cells still
    running are killed and their sweeps end with an error.  Runs at exit;
    the next parallel sweep starts a new pool."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None and pool.owner == os.getpid():
        pool.stop()


atexit.register(shutdown_pool)


def submit_call(fn, *args, jobs=None):
    """Run ``fn(*args)`` on the pool thread, one call at a time in
    submission order; returns a :class:`concurrent.futures.Future`.
    Calls fork nothing, so any live pool of this process serves them
    (re-deriving the pin costs more than a warm probe); ``jobs`` sizes
    the pool started when there is none."""
    pool = _POOL
    if pool is None or pool.owner != os.getpid() or pool.stopping:
        pool = _pool(default_jobs() if jobs is None else jobs)
    return pool.call(fn, *args)


def submit_sweep(fn, items, on_done, jobs=None, **options):
    """Queue a non-empty sweep's cells on the pool and return at once
    (``options`` are :func:`run_sweep`'s).  ``on_done(outcome)`` runs on
    the pool thread once the last cell lands, with the
    :class:`SweepResult` (metrics merged in input order) or the
    exception that ended the sweep early."""
    sweep = _Sweep(fn, items, **options)
    sweep.then = lambda: on_done(
        sweep.finish() if sweep.error is None else sweep.error)
    _pool(default_jobs() if jobs is None else jobs).submit(sweep)


def run_sweep(fn, items, jobs=None, retries=None, timeout=None, labels=None,
              fault_plan=None, sleep=None, on_result=None, traces=None):
    """Fault-tolerant order-preserving map over ``items``.

    Returns a :class:`SweepResult`; never raises for cell failures.
    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` over one) when ``jobs >= 2``.
    ``labels`` names the cells for failure reports and fault injection
    (default: the item's index as a string).  ``sleep`` is injectable for
    tests; backoff sleeps only ever run in the scheduling process.

    ``on_result(index, label, value, failure)`` — when given — is called
    in the scheduling process (on the pool thread at ``jobs >= 2``) the
    moment a cell finishes, exhausting its retries included (``failure``
    set, ``value`` ``None``).  Cell metrics are merged only when the
    sweep completes, so the hook must not read them.  A raising callback
    is ignored.

    ``traces`` — when given — aligns one
    :class:`~repro.obs.TraceContext` (or ``None``) with each item: the
    scheduler stamps the context's ids into the cell lifecycle events
    and every attempt (including retries, timeout kills and lost
    workers) runs as a ``sched.attempt`` child span, shipped to workers
    over the task pipe.  Without ``traces`` the sweep is byte-identical
    to the untraced scheduler.
    """
    sweep = _Sweep(fn, items, labels, retries, timeout, fault_plan, sleep,
                   on_result, traces)
    if not sweep.items:
        return SweepResult([], [])
    if jobs is None:
        jobs = default_jobs()
    # The requested worker count alone picks the path, never the sweep's
    # size: a one-cell sweep at ``jobs >= 2`` still runs in a worker.
    if jobs <= 1:
        return _serial_sweep(sweep)
    landed = threading.Event()
    sweep.then = landed.set
    pool = _pool(jobs)
    pool.submit(sweep)
    try:
        landed.wait()
    except BaseException as exc:   # interrupted: end the sweep early
        with contextlib.suppress(RuntimeError):
            pool.call(pool._end, sweep, exc)
        raise
    if sweep.error is not None:
        raise sweep.error
    return sweep.finish()


def parallel_map(fn, items, jobs=None):
    """Order-preserving ``[fn(item) for item in items]``, fanned out over
    ``jobs`` worker processes when ``jobs > 1``.

    Strict wrapper over :func:`run_sweep`: if any cell ultimately fails
    (after retries), raises :class:`~repro.errors.SweepError` carrying
    the partial results instead of the bare worker exception.
    """
    return run_sweep(fn, items, jobs=jobs).raise_if_failed().values
