"""Distributed trace/span context with deterministic ids.

One *trace* is the causal timeline of one unit of top-level work — an
HTTP sweep request, a ``run_all.py --cells`` invocation, one experiment
sweep.  Within a trace, *spans* nest: request → cell → scheduler attempt
(including retries and timeout-killed attempts) → compile / engine
phase.  ``with`` regions open spans through :func:`repro.obs.spans.span`;
regions that are not a ``with`` block (a request, a dedupe, a killed
attempt) close theirs through :func:`emit_span`.  The
context (:class:`TraceContext`: ``trace_id``, ``span_id``,
``parent_id``) propagates across process boundaries over the existing
worker Pipe protocol as a plain tuple (:meth:`TraceContext.to_wire`),
and within a process via a per-thread activation stack
(:func:`activate` / :func:`current`).

**Ids are deterministic.**  Every id is a truncated SHA-256 of its
parents plus caller-supplied discriminators (cell keys, attempt
counters, phase indices) — never wallclock, never randomness.  Two runs
of the same request sequence produce the same ids, so traces are
diffable and the timeout path can re-derive a killed worker's span id
on the scheduler side.

**Tracing is opt-in and inert when off.**  ``REPRO_TRACE=1`` arms it;
the default leaves every byte of the deterministic surface (streamed
JSONL, DET metric snapshots) identical to an untraced build.  Span
*events* additionally require the event sink
(:mod:`repro.obs.events`) to have somewhere to deliver — a
``REPRO_EVENTS`` path or an in-process listener — mirroring every other
event producer.

Layering: this module is the bottom of ``repro.obs`` — it may import
only :mod:`repro.obs.events` and :mod:`repro.obs.envflags`, pinned by
``tools/check_layering.py``.  Everything above (harness, service,
engine trace forwarding) imports *it*, so context propagation can never
pull scheduler or server code into a leaf.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.envflags import env_flag
from repro.obs.events import emit, events_enabled

#: Arms tracing: trace fields on streamed service lines, span events in
#: the event sink, context shipping to sweep workers.  Off by default —
#: the untraced surfaces must stay byte-identical.
TRACE_ENV = "REPRO_TRACE"

#: Hex digits per id (64 bits — plenty at trace scale, short enough to
#: stay readable in JSONL).
_ID_HEX = 16

#: Field separator for id derivation; never appears in cell keys.
_SEP = "\x1f"


def trace_enabled():
    """True when ``REPRO_TRACE`` is explicitly on (opt-in knob)."""
    return env_flag(TRACE_ENV, default=False)


def derive_id(*parts):
    """Deterministic id from discriminator parts: a truncated SHA-256.

    Parts are stringified and joined with an out-of-band separator, so
    ``derive_id("a", "bc")`` and ``derive_id("ab", "c")`` differ."""
    digest = hashlib.sha256(
        _SEP.join(str(part) for part in parts).encode("utf-8"))
    return digest.hexdigest()[:_ID_HEX]


@dataclass(frozen=True)
class TraceContext:
    """One position in a trace: where new child spans attach."""

    trace_id: str
    span_id: str
    parent_id: str = None

    @classmethod
    def root(cls, *parts):
        """Open a new trace.  ``parts`` are the deterministic seed —
        cell keys, request sequence numbers, client ids."""
        trace_id = derive_id("trace", *parts)
        return cls(trace_id=trace_id,
                   span_id=derive_id(trace_id, "root"), parent_id=None)

    def child(self, *parts):
        """Context for a child span of this one.  ``parts`` must make
        the child unique among its siblings (name + attempt counter,
        cell key, phase index...)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=derive_id(self.trace_id, self.span_id, *parts),
            parent_id=self.span_id)

    def fields(self):
        """The dict stamped into events and JSONL lines."""
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            out["parent_span_id"] = self.parent_id
        return out

    # -- cross-process wire format ---------------------------------------

    def to_wire(self):
        return (self.trace_id, self.span_id, self.parent_id)

    @classmethod
    def from_wire(cls, wire):
        if wire is None:
            return None
        trace_id, span_id, parent_id = wire
        return cls(trace_id=trace_id, span_id=span_id, parent_id=parent_id)


# -- per-thread activation stack -------------------------------------------

_tls = threading.local()


def _stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current():
    """The innermost activated context of this thread, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def activate(ctx):
    """Make ``ctx`` the thread's current context for the ``with`` body.
    ``None`` is accepted and leaves the stack untouched, so callers can
    pass an optional context straight through."""
    if ctx is None:
        yield None
        return
    stack = _stack()
    stack.append(ctx)
    try:
        yield ctx
    finally:
        stack.pop()


# -- span emission ----------------------------------------------------------


def emit_span(ctx, name, start_ts, duration_s, outcome="ok", **fields):
    """Emit one finished span as a ``span`` event.

    ``start_ts`` is an epoch timestamp (``time.time()``), ``duration_s``
    wallclock seconds.  Ids come from ``ctx`` (deterministic); only the
    timestamps are wallclock, and they live outside the deterministic
    surface like every other event field.  No-op without a context or
    when the event sink has nowhere to deliver."""
    if ctx is None or not events_enabled():
        return
    emit("span", name=name, ts_us=int(start_ts * 1e6),
         dur_us=max(0, int(duration_s * 1e6)), outcome=outcome,
         **ctx.fields(), **fields)

