"""The sweep service's job engine: dedupe, sweeps, admission, budgets.

Transport-free core (the HTTP layer in :mod:`repro.service.server` is a
thin shell over it).  One :class:`SweepService` owns:

* an **in-flight table** mapping cell keys to futures — two concurrent
  requests for the same cell share one future, so the cell is scheduled
  (and counted by the scheduler) exactly once;
* a **warm probe** against the content-addressed result cache
  (:func:`repro.cache.lookup`) that serves memoized cells without
  touching the scheduler at all;
* **one sweep per request**: the coroutine that probes a request's new
  cells settles the warm ones and sweeps the misses itself, as one
  :func:`~repro.harness.parallel.run_sweep` call on the process's
  long-lived worker pool (whose workers keep their derived state
  between sweeps) — no window and no queue of its own: dedupe comes
  from the in-flight table, and the executor thread runs probes and
  sweeps in admission order.  The sweep rides the scheduler's
  retry/timeout/fault machinery, with per-cell results streamed out of
  the scheduler's ``on_result`` hook the moment each cell lands;
* **admission control** (``REPRO_SERVICE_MAX_CELLS`` outstanding cells
  server-wide) and **per-client budgets**
  (``REPRO_SERVICE_BUDGET`` in-flight cells per client id) — both reject
  with :class:`AdmissionError` (HTTP 429) instead of queueing unboundedly;
* **shard maintenance**: after every sweep one shard of the disk store
  is swept for orphaned temp files, round-robin, so no maintenance pass
  ever scans the whole store;
* **distributed tracing**: every admitted request opens a deterministic
  :class:`~repro.obs.TraceContext` (ids derived from the request
  sequence number, client and cell keys — never wallclock), each cell a
  child context.  Dedupe hits, warm-cache probes and sweep membership
  emit link spans, and the scheduling context rides
  :func:`~repro.harness.parallel.run_sweep` to the workers, so one
  exported trace links request → cell → attempt → engine phase.

Threading model: all bookkeeping (in-flight table, budgets, counters)
happens on the event loop; sweeps and warm probes run on a single
dedicated executor thread, which also serializes every metrics-registry
mutation the service performs.  Scheduler worker processes hand results
back through ``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cache import MISS, get_cache, lookup
from repro.harness.parallel import run_sweep, shutdown_pool
from repro.obs import (
    SCHED, TraceContext, emit_span, env_int, events_enabled, get_registry,
)
from repro.service.cells import run_cell_task
from repro.service.requests import MEMO_KIND, canonicalize_request

#: Server-wide cap on outstanding (queued + running) cells.
SERVICE_MAX_CELLS_ENV = "REPRO_SERVICE_MAX_CELLS"

#: Per-client cap on in-flight requested cells.
SERVICE_BUDGET_ENV = "REPRO_SERVICE_BUDGET"

DEFAULT_MAX_CELLS = 1024
DEFAULT_BUDGET = 256


class AdmissionError(RuntimeError):
    """The request was refused by admission control (HTTP 429)."""


class SweepJob:
    """One admitted request: its canonical cells and their futures.

    ``futures`` aligns with ``request.cells``; each resolves to
    ``("ok" | "warm" | "failed", payload)``.  ``trace`` is the request's
    root :class:`~repro.obs.TraceContext` and ``cell_traces`` its
    per-cell children (aligned with ``request.cells``); for deduped
    cells the *owning* request's context did the scheduling, so this
    request's child only appears in its dedupe link span.  The creator
    must call :meth:`close` (typically in a ``finally``) to release the
    client's budget."""

    def __init__(self, service, request, futures, deduped, new_keys,
                 trace=None, cell_traces=()):
        self.service = service
        self.request = request
        self.futures = futures
        self.deduped = deduped
        self.new_keys = new_keys
        self.trace = trace
        self.cell_traces = list(cell_traces)
        self._closed = False

    def close(self):
        if self._closed:
            return
        self._closed = True
        self.service._release_client(self.request.client,
                                     self.request.cell_count)


class SweepService:
    """Loop-bound job engine; create and drive it from one event loop."""

    def __init__(self, jobs=None, max_cells=None, client_budget=None,
                 sweep_tmp_age=3600.0):
        self.jobs = jobs
        self.max_cells = max_cells if max_cells is not None else \
            env_int(SERVICE_MAX_CELLS_ENV, DEFAULT_MAX_CELLS, minimum=0)
        self.client_budget = client_budget if client_budget is not None \
            else env_int(SERVICE_BUDGET_ENV, DEFAULT_BUDGET, minimum=0)
        self.sweep_tmp_age = sweep_tmp_age
        self._inflight = {}        # cell key -> asyncio.Future
        self._tasks = set()        # running per-request probe/sweep tasks
        self._client_load = {}     # client id -> in-flight requested cells
        self._outstanding = 0      # unique cells queued or running
        self._shard_cursor = 0
        self._request_seq = 0      # per-process request counter (trace ids)
        self._sweep_seq = 0        # per-process sweep counter (trace ids)
        self._cell_traces = {}     # cell key -> owning TraceContext
        self.last_cells = ()       # cells of the last admitted request
        self._loop = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-sweep")

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        self._loop = asyncio.get_running_loop()

    async def stop(self):
        """Cancel every request's probe/sweep task, settle the cells they
        leave as ``ServiceStopped``, and shut the executor down without
        starting what it still has queued.  A sweep already running
        finishes first (its late results find no future to settle)."""
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for future in self._inflight.values():
            if not future.done():
                future.set_result(("failed", {
                    "error": "ServiceStopped",
                    "message": "service shut down before the cell ran",
                    "kind": "lost", "attempts": 0}))
        self._inflight.clear()
        self._outstanding = 0
        self._client_load.clear()
        self._cell_traces.clear()
        self._executor.shutdown(wait=True, cancel_futures=True)
        shutdown_pool()

    # -- submission ----------------------------------------------------------

    def _count(self, name, value=1):
        get_registry().counter_add(f"service.{name}", value, SCHED)

    def _release_client(self, client, cells):
        load = self._client_load.get(client, 0) - cells
        if load > 0:
            self._client_load[client] = load
        else:
            self._client_load.pop(client, None)

    def admit(self, payload):
        """Canonicalize and admit one request payload.

        Returns a :class:`SweepJob` whose futures resolve as cells
        complete (warm cells resolve after the next executor turn).
        Raises :class:`~repro.service.requests.RequestError` on a
        malformed payload and :class:`AdmissionError` when over
        capacity or budget.  Must be called on the service's loop.

        Every admitted request opens a deterministic trace: the root id
        derives from the per-process request sequence number, the client
        id and the canonical cell keys (never wallclock), and each cell
        gets a ``("cell", key)`` child context.  New cells record their
        context as the *owner* that will schedule them; a dedupe hit
        instead emits a ``service.dedupe`` link span pointing at the
        owning request's span."""
        request = canonicalize_request(payload)
        new_specs = [spec for spec in request.cells
                     if spec.cell_key() not in self._inflight]
        if self._outstanding + len(new_specs) > self.max_cells:
            self._count("rejected")
            raise AdmissionError(
                f"over capacity: {self._outstanding} cell(s) outstanding "
                f"+ {len(new_specs)} new > {self.max_cells} "
                f"(REPRO_SERVICE_MAX_CELLS)")
        load = self._client_load.get(request.client, 0)
        if load + request.cell_count > self.client_budget:
            self._count("rejected")
            raise AdmissionError(
                f"client {request.client!r} budget exceeded: {load} "
                f"in flight + {request.cell_count} requested > "
                f"{self.client_budget} (REPRO_SERVICE_BUDGET)")
        self._client_load[request.client] = load + request.cell_count
        # Only an admitted request counts, so the requested cells always
        # break down into deduped + warm + swept.
        self.last_cells = request.cells
        self._count("requests")
        self._count("cells.requested", request.cell_count)
        self._request_seq += 1
        root = TraceContext.root(
            "request", self._request_seq, request.client,
            *(spec.cell_key() for spec in request.cells))

        futures = []
        new_keys = []
        cell_traces = []
        for spec in request.cells:
            key = spec.cell_key()
            ctx = root.child("cell", key)
            cell_traces.append(ctx)
            future = self._inflight.get(key)
            if future is None:
                future = self._loop.create_future()
                self._inflight[key] = future
                self._outstanding += 1
                self._cell_traces[key] = ctx
                new_keys.append((key, spec, future))
            elif events_enabled():
                # The link span's id costs a sha256: derive it only when
                # the span has somewhere to go.
                owner = self._cell_traces.get(key)
                link = {}
                if owner is not None:
                    link = {"link_trace_id": owner.trace_id,
                            "link_span_id": owner.span_id}
                emit_span(ctx.child("service.dedupe"), "service.dedupe",
                          time.time(), 0.0, cell=spec.label(), **link)
            futures.append(future)
        deduped = request.cell_count - len(new_keys)
        if deduped:
            self._count("cells.deduped", deduped)
        if new_keys:
            task = self._loop.create_task(self._run_new(new_keys))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        return SweepJob(self, request, futures, deduped,
                        [key for key, _spec, _future in new_keys],
                        trace=root, cell_traces=cell_traces)

    async def _run_new(self, new_keys):
        """Probe a request's new cells against the result cache, settle
        the warm ones and sweep the misses, both on the executor thread
        (the probe replays DET metrics; the executor serializes all
        registry access)."""
        try:
            probes = await self._loop.run_in_executor(
                self._executor, self._probe_warm,
                [(spec, self._cell_traces.get(key))
                 for key, spec, _future in new_keys])
            misses = []
            for (key, spec, _future), value in zip(new_keys, probes):
                if value is MISS:
                    misses.append(spec)
                else:
                    self._count("cells.warm")
                    self._settle(key, ("warm", value))
            if misses:
                await self._loop.run_in_executor(
                    self._executor, self._sweep, misses)
        except Exception as exc:   # defensive: never strand a future
            lost = ("failed", {"error": type(exc).__name__,
                               "message": str(exc), "kind": "lost",
                               "attempts": 0})
            for key, _spec, future in new_keys:
                # A cell that already settled may be in flight again for
                # a later request: settle only this request's futures.
                if self._inflight.get(key) is future:
                    self._settle(key, lost)

    @staticmethod
    def _probe_warm(pairs):
        values = []
        for spec, ctx in pairs:
            started = time.time()
            t0 = time.perf_counter()
            value = lookup(MEMO_KIND, spec.key_parts(),
                           replay_metrics=True)
            if ctx is not None and events_enabled():
                emit_span(ctx.child("service.cache_probe"),
                          "service.cache_probe", started,
                          time.perf_counter() - t0,
                          outcome="hit" if value is not MISS else "miss",
                          cell=spec.label())
            values.append(value)
        return values

    def _settle(self, key, outcome):
        future = self._inflight.pop(key, None)
        self._cell_traces.pop(key, None)
        if future is not None and not future.done():
            future.set_result(outcome)
            self._outstanding -= 1

    # -- sweeping ------------------------------------------------------------

    def _sweep(self, specs):
        """One scheduler sweep over one request's missed cells (executor
        thread).

        Every cell is self-describing, so any mix of benchmarks,
        toolchains, levels and profiles rides one sweep.  Each cell's
        owning trace context rides the sweep (the scheduler ships it to
        the worker over the Pipe protocol) and additionally gets a
        ``service.batch`` membership span covering the sweep, so an
        exported trace shows which cells shared a sweep.  If the sweep
        itself raises, :meth:`_run_new` settles the cells it left."""
        self._count("sweeps")
        self._count("cells.swept", len(specs))
        self._sweep_seq += 1
        sweep_seq = self._sweep_seq
        keys = [spec.cell_key() for spec in specs]
        traces = [self._cell_traces.get(key) for key in keys]
        started = time.time()
        t0 = time.perf_counter()

        def on_result(index, _label, value, failure):
            if failure is not None:
                outcome = ("failed", {
                    "error": failure.error, "message": failure.message,
                    "kind": failure.kind, "attempts": failure.attempts})
            else:
                outcome = ("ok", value)
            self._loop.call_soon_threadsafe(self._settle, keys[index],
                                            outcome)

        try:
            run_sweep(run_cell_task, [spec.as_tuple() for spec in specs],
                      jobs=self.jobs, labels=[spec.label() for spec in specs],
                      on_result=on_result, traces=traces)
        finally:
            duration = time.perf_counter() - t0
            for spec, ctx in zip(specs, traces):
                if ctx is not None:
                    emit_span(ctx.child("service.batch", sweep_seq),
                              "service.batch", started, duration,
                              batch=sweep_seq, size=len(specs),
                              cell=spec.label())
            self._sweep_one_shard()

    def _sweep_one_shard(self):
        """Round-robin orphan-temp sweep of one disk-store shard."""
        cache = get_cache()
        shards = cache.shards()
        if not shards:
            return
        shard = shards[self._shard_cursor % len(shards)]
        self._shard_cursor += 1
        removed = cache.sweep_tmp(max_age_s=self.sweep_tmp_age, shard=shard)
        if removed:
            self._count("tmp_swept", removed)

    # -- introspection -------------------------------------------------------

    def stats(self):
        """JSON-clean operational snapshot (the ``/stats`` endpoint)."""
        registry = get_registry()
        service = {name: value
                   for name, value in registry.export([SCHED]).items()
                   if name.startswith(("service.", "sched.", "cache."))}
        return {
            "outstanding_cells": self._outstanding,
            "inflight_cells": len(self._inflight),
            "clients": dict(sorted(self._client_load.items())),
            "limits": {"max_cells": self.max_cells,
                       "client_budget": self.client_budget},
            "counters": service,
        }
