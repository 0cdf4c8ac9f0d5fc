"""Structured execution trace: the ordered phase timeline of one run.

Every engine emits the same event vocabulary — ``decode``, ``parse``,
``compile``, ``tier-up``, ``execute``, ``gc``, ``host-call`` — as
:class:`TraceEvent` records carrying a cycle span (``start_cycles`` +
``cycles``) on the engine's abstract clock.  The harness attaches the
finished trace to ``Measurement.detail["trace"]``, and under an active
trace context :meth:`ExecutionTrace.finalize` forwards each phase to the
event sink, where ``run_all.py --cells <request> --trace-out`` exports it
as a lane of the Chrome trace.  So the per-phase cost structure the paper
discusses (decode vs. compile vs. tier-up vs. raw execution, §4.4) is
inspectable per run instead of only in aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Canonical phase names, in the order a well-formed run visits them.
PHASES = ("decode", "parse", "compile", "tier-up", "execute", "gc",
          "host-call")


@dataclass
class TraceEvent:
    """One phase span on an engine's abstract cycle clock."""

    phase: str
    #: Cycle at which the span starts (engine clock, 0 = run start).
    start_cycles: float
    #: Width of the span in cycles.
    cycles: float
    #: Free-form extras (tier names, byte counts, instruction counts...).
    detail: dict = field(default_factory=dict)

    @property
    def end_cycles(self):
        return self.start_cycles + self.cycles

    def to_dict(self):
        d = {"phase": self.phase, "start_cycles": self.start_cycles,
             "cycles": self.cycles}
        if self.detail:
            d["detail"] = dict(self.detail)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(phase=d["phase"], start_cycles=d["start_cycles"],
                   cycles=d["cycles"], detail=dict(d.get("detail", {})))


@dataclass
class ExecutionTrace:
    """The ordered event timeline of one artifact execution."""

    #: Which engine produced the trace ("wasm", "js", or "native").
    engine: str
    events: list = field(default_factory=list)

    def emit(self, phase, start_cycles, cycles, **detail):
        """Append a span and return it."""
        event = TraceEvent(phase, float(start_cycles), float(cycles), detail)
        self.events.append(event)
        return event

    def finalize(self):
        """Sort events into timeline order (stable, so simultaneous
        events keep emission order).  When the JSONL event sink is armed
        (``REPRO_EVENTS``), the finished timeline is forwarded there as
        one ``trace`` event per phase span.

        When a distributed trace context is active (the sweep worker
        activates the cell attempt's context around the measurement),
        each phase event is additionally stamped as a *leaf span* of
        that attempt: deterministic span ids derived from the attempt's
        context plus the phase name and timeline index, so the
        request → cell → attempt → engine-phase chain links up in the
        exported Chrome trace."""
        self.events.sort(key=lambda e: e.start_cycles)
        from repro.obs import current, emit, events_enabled
        if events_enabled():
            ctx = current()
            for index, event in enumerate(self.events):
                trace_fields = {}
                if ctx is not None:
                    leaf = ctx.child("phase", index, event.phase)
                    trace_fields = leaf.fields()
                emit("trace", engine=self.engine, phase=event.phase,
                     start_cycles=event.start_cycles, cycles=event.cycles,
                     **trace_fields, **event.detail)
        return self

    def total_cycles(self):
        """Sum of all span widths."""
        return sum(e.cycles for e in self.events)

    def phase_cycles(self):
        """Cycles per phase name, in timeline order of first appearance."""
        totals = {}
        for e in self.events:
            totals[e.phase] = totals.get(e.phase, 0.0) + e.cycles
        return totals

    def to_dict(self):
        return {"engine": self.engine,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, d):
        return cls(engine=d["engine"],
                   events=[TraceEvent.from_dict(e) for e in d["events"]])
