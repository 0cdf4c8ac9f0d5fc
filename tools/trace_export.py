"""Convert a ``REPRO_EVENTS`` JSONL stream to Chrome Trace Event JSON.

The obs event sink records distributed-trace spans (``span`` events
from :func:`repro.obs.span` and :func:`repro.obs.emit_span`) and engine
phase timelines (``trace`` events forwarded by
``ExecutionTrace.finalize``).  This tool folds them
into the Chrome Trace Event Format (the JSON array flavour with a
``traceEvents`` envelope) that https://ui.perfetto.dev and
``chrome://tracing`` load directly:

* every ``span`` becomes a complete ("X") event with ``ts``/``dur`` in
  microseconds, one lane (``tid``) per trace id, so a request's spans —
  ``service.request`` → ``service.batch`` / ``service.cache_probe`` →
  ``sched.attempt`` (retries included) → ``cell`` → ``compile`` — nest
  visually on the wallclock timeline;
* every engine ``trace`` phase event becomes an "X" event on its own
  lane per attempt span, with the engine's abstract cycle clock mapped
  1 cycle → 1 µs (phase events have no wallclock by design — the engine
  clock is deterministic);
* span links (``trace_id`` / ``span_id`` / ``parent_span_id`` and any
  extra fields) ride in ``args`` so the chain stays inspectable in the
  Perfetto details pane.

Scheduler lifecycle records (``cell_dispatch`` / ``cell``) carry no
timestamp — they are streaming progress markers, part of the service's
byte contract — and are not exported.

Stdlib-only on purpose: the exporter must run anywhere the JSONL file
can be copied, with no ``repro`` import.

Usage::

    python tools/trace_export.py events.jsonl -o trace.json
    python tools/trace_export.py events.jsonl --validate
"""

from __future__ import annotations

import argparse
import json
import sys

#: Keys of a ``span`` record consumed by the envelope rather than
#: forwarded as args.
_SPAN_ENVELOPE = frozenset({"event", "pid", "name", "ts_us", "dur_us"})

_TRACE_ENVELOPE = frozenset({"event", "pid", "phase", "start_cycles",
                             "cycles"})


def load_events(path):
    """Parse one JSONL event file; malformed lines are skipped (the sink
    is append-only best-effort across processes)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def to_chrome_trace(records):
    """Fold event records into a Chrome Trace Event JSON object."""
    lanes = {}
    names = {}
    seen = {}

    def lane(key, name):
        tid = lanes.get(key)
        if tid is None:
            tid = lanes[key] = len(lanes) + 1
            names[tid] = name
        return tid

    events = []
    for record in records:
        kind = record.get("event")
        if kind == "span":
            trace_id = record.get("trace_id", "?")
            tid = lane(("span", trace_id), f"trace {trace_id[:8]}")
            args = {k: v for k, v in record.items()
                    if k not in _SPAN_ENVELOPE}
            events.append({
                "name": str(record.get("name", "span")),
                "cat": "span", "ph": "X",
                "ts": int(record.get("ts_us", 0)),
                "dur": max(0, int(record.get("dur_us", 0))),
                "pid": int(record.get("pid", 0)), "tid": tid,
                "args": args})
        elif kind == "trace":
            # Engine phases live on the deterministic cycle clock; give
            # each attempt (parent span) its own lane so per-lane time
            # is monotonic and retries don't overlap.
            parent = record.get("parent_span_id") or record.get("span_id")
            key = ("phase", record.get("trace_id"), parent,
                   record.get("pid"))
            label = f"engine {record.get('engine', '?')}"
            if parent:
                label += f" [{str(parent)[:8]}]"
            tid = lane(key, label)
            args = {k: v for k, v in record.items()
                    if k not in _TRACE_ENVELOPE}
            events.append({
                "name": str(record.get("phase", "phase")),
                "cat": "engine", "ph": "X",
                "ts": int(float(record.get("start_cycles", 0))),
                "dur": max(0, int(float(record.get("cycles", 0)))),
                "pid": int(record.get("pid", 0)), "tid": tid,
                "args": args})
    # Stable per-lane ordering: sort complete events by timestamp so
    # every (pid, tid) lane is monotonic by construction.
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    for event in events:
        seen.setdefault((event["pid"], event["tid"]),
                        names[event["tid"]])
    metadata = [{"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": name}}
                for (pid, tid), name in sorted(seen.items())]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def validate_chrome_trace(payload):
    """Check a trace object against the Chrome Trace Event schema subset
    this tool emits; returns the number of duration events.

    Required: a ``traceEvents`` list; every non-metadata event carries
    ``name``/``ph``/``pid``/``tid``/``ts`` (plus ``dur >= 0`` for "X"
    events); and per (pid, tid) lane the timestamps are monotonically
    non-decreasing.  Raises ``ValueError`` on the first violation."""
    if not isinstance(payload, dict) or \
            not isinstance(payload.get("traceEvents"), list):
        raise ValueError("missing traceEvents list")
    last_ts = {}
    counted = 0
    for i, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = event.get("ph")
        if ph == "M":
            continue
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in event:
                raise ValueError(f"traceEvents[{i}] missing {key!r}")
        if not isinstance(event["ts"], int):
            raise ValueError(f"traceEvents[{i}] ts is not an integer")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                raise ValueError(f"traceEvents[{i}] bad dur {dur!r}")
        lane_key = (event["pid"], event["tid"])
        if event["ts"] < last_ts.get(lane_key, event["ts"]):
            raise ValueError(
                f"traceEvents[{i}] ts {event['ts']} goes backwards in "
                f"lane {lane_key}")
        last_ts[lane_key] = event["ts"]
        counted += 1
    return counted


def export_file(events_path, out_path=None, validate=True):
    """Load ``events_path``, convert, optionally validate, and write the
    Chrome trace JSON (when ``out_path`` is given).  Returns the trace
    object."""
    payload = to_chrome_trace(load_events(events_path))
    if validate:
        validate_chrome_trace(payload)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Convert a REPRO_EVENTS JSONL file to Chrome Trace "
                    "Event JSON (Perfetto / chrome://tracing).")
    parser.add_argument("events", help="JSONL event file (REPRO_EVENTS)")
    parser.add_argument("-o", "--out", default=None,
                        help="output trace JSON path")
    parser.add_argument("--validate", action="store_true",
                        help="only validate; write nothing")
    args = parser.parse_args(argv)
    payload = export_file(args.events,
                          None if args.validate else args.out)
    spans = validate_chrome_trace(payload)
    if args.out and not args.validate:
        print(f"{spans} event(s) -> {args.out}")
    else:
        print(f"{spans} event(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
