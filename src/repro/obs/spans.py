"""The one span primitive: wall metrics always, trace ids when traced.

A span times a region of work.  Its duration lands in a ``<name>.wall_ms``
counter tagged ``wall`` (never parity-compared) and its entry count in
``<name>.count`` tagged ``sched`` (spans fire per compile/per cell, which
depends on cache warmth and scheduling).  Deterministic facts about the
region — node counts, rewrites, hit/miss — are recorded separately as
``det``/``sched`` counters by the caller; the span only owns time.

When a trace context is given or active (:mod:`repro.obs.tracing`), the
span also becomes a child span of it: it derives
``parent.child(name, *parts)``, activates that context for the body (so
nested spans and engine phase forwarding attach under it) and emits one
``span`` event through :func:`~repro.obs.tracing.emit_span`, carrying its
fields plus the region's ``outcome`` — ``ok`` when the body returned,
``raised`` when it propagated an exception.  Without a context the body
runs with no id derivation and no event.  A raising region still books
its metrics before re-raising.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.metrics import SCHED, WALL, get_registry
from repro.obs.tracing import activate, current, emit_span


@contextmanager
def span(name, *, ctx=None, parts=(), **fields):
    """Time a region: ``with span("compile", parts=(key,), kind=k): ...``

    Yields the child :class:`~repro.obs.tracing.TraceContext` (``ctx`` or
    the thread's current context, extended by ``name`` and ``parts``), or
    ``None`` when there is no enclosing context.  ``parts`` must make the
    span unique among its siblings."""
    parent = ctx if ctx is not None else current()
    child = None if parent is None else parent.child(name, *parts)
    start_ts = time.time() if child is not None else 0.0
    t0 = time.perf_counter()
    outcome = "ok"
    try:
        with activate(child):
            yield child
    except BaseException:
        outcome = "raised"
        raise
    finally:
        duration_s = time.perf_counter() - t0
        reg = get_registry()
        reg.counter_add(name + ".wall_ms", duration_s * 1000.0, WALL)
        reg.counter_add(name + ".count", 1, SCHED)
        emit_span(child, name, start_ts, duration_s, outcome=outcome,
                  **fields)
