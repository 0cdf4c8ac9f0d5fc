"""Distributed tracing: deterministic ids, cross-process context
propagation through the sweep scheduler (retries included), engine
phase forwarding as leaf spans, and the Chrome Trace Event exporter."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.harness.parallel import FaultPlan, run_sweep
from repro.obs import (
    DET, SCHED, WALL, TraceContext, activate, add_listener, current,
    derive_id, emit_span, get_registry, remove_listener, reset_registry,
    span, trace_enabled, tracing,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_registry()
    yield
    reset_registry()


def _load_exporter():
    spec = importlib.util.spec_from_file_location(
        "repro_trace_export", ROOT / "tools" / "trace_export.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- ids -------------------------------------------------------------------


class TestIds:
    def test_ids_are_deterministic_functions_of_parts(self):
        a = TraceContext.root("request", 1, "cli", "key")
        b = TraceContext.root("request", 1, "cli", "key")
        assert a == b                       # no wallclock, no randomness
        assert a.child("cell", "k") == b.child("cell", "k")
        assert a.child("cell", "k") != a.child("cell", "other")
        assert derive_id("a", "bc") != derive_id("ab", "c")

    def test_child_links_to_parent(self):
        root = TraceContext.root("t", 1)
        child = root.child("cell", "k")
        grand = child.child("sched.attempt", 1)
        assert child.trace_id == grand.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id
        fields = grand.fields()
        assert fields["span_id"] == grand.span_id
        assert fields["parent_span_id"] == child.span_id

    def test_root_fields_have_no_parent(self):
        fields = TraceContext.root("t", 1).fields()
        assert set(fields) == {"trace_id", "span_id"}

    def test_wire_roundtrip(self):
        ctx = TraceContext.root("t", 1).child("cell", "k")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        assert TraceContext.from_wire(None) is None

    def test_trace_enabled_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not trace_enabled()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert trace_enabled()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not trace_enabled()


# -- activation stack / span -----------------------------------------------


class TestActivation:
    def test_no_context_by_default(self):
        assert current() is None

    def test_activate_nests_and_unwinds(self):
        root = TraceContext.root("t", 1)
        inner = root.child("x")
        with activate(root):
            assert current() is root
            with activate(inner):
                assert current() is inner
            assert current() is root
        assert current() is None

    def test_activate_none_is_passthrough(self):
        with activate(None) as ctx:
            assert ctx is None
            assert current() is None

    def test_span_without_context_is_inert(self, monkeypatch):
        """No context: the span still books its wall/count metrics, but
        derives no id, activates nothing and emits no event."""
        derived = []
        real_derive = tracing.derive_id

        def counting_derive(*parts):
            derived.append(parts)
            return real_derive(*parts)

        monkeypatch.setattr(tracing, "derive_id", counting_derive)
        events = []
        token = add_listener(events.append)
        try:
            with span("region", parts=(7,), label="x") as ctx:
                assert ctx is None
                assert current() is None
        finally:
            remove_listener(token)
        assert events == []
        assert derived == []
        reg = get_registry()
        assert reg.export([SCHED])["region.count"] == 1
        assert reg.export([WALL])["region.wall_ms"] >= 0.0

    def test_span_emits_and_records_raised_outcome(self):
        events = []
        token = add_listener(events.append)
        root = TraceContext.root("t", 1)
        try:
            with pytest.raises(ValueError):
                with span("region", ctx=root, parts=(7,),
                          label="x") as ctx:
                    assert current() is ctx
                    raise ValueError("boom")
        finally:
            remove_listener(token)
        # Span ids are part of the trace contract: pinned to the
        # ``root.child(name, *parts)`` derivation, literal included.
        assert ctx == root.child("region", 7)
        assert ctx.span_id == "3b609907fef6f625"
        assert current() is None
        (event,) = [e for e in events if e["event"] == "span"]
        assert event["name"] == "region"
        assert event["outcome"] == "raised"
        assert event["label"] == "x"
        assert event["span_id"] == ctx.span_id
        assert event["parent_span_id"] == root.span_id
        assert event["dur_us"] >= 0
        # A raising body still books the span's metrics.
        assert get_registry().export([SCHED])["region.count"] == 1

    def test_emit_span_is_noop_without_sink(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        emit_span(TraceContext.root("t", 1), "region", 0.0, 0.0)


# -- scheduler propagation -------------------------------------------------


def _traced_cell(x):
    """Worker body that also drives the engine-trace forwarding path."""
    from repro.engine.trace import ExecutionTrace

    trace = ExecutionTrace("wasm")
    trace.emit("decode", 0, 5)
    trace.emit("execute", 5, 10)
    trace.finalize()
    return x * 2


def _det_cell(x):
    get_registry().counter_add("unit.traced_det", int(x), DET)
    return x


def _sweep_records(tmp_path, monkeypatch, jobs):
    events = tmp_path / f"events-{jobs}.jsonl"
    monkeypatch.setenv("REPRO_EVENTS", str(events))
    monkeypatch.setenv("REPRO_TRACE", "1")
    root = TraceContext.root("request", 1, "test")
    traces = [root.child("cell", f"k{i}") for i in range(2)]
    sweep = run_sweep(_traced_cell, [1, 2], jobs=jobs, retries=1,
                      labels=["a", "b"],
                      fault_plan=FaultPlan({"b": "flake:1"}),
                      sleep=lambda _d: None, traces=traces)
    assert sweep.values == [2, 4]
    assert not sweep.failures
    records = [json.loads(line)
               for line in events.read_text().splitlines()]
    return root, traces, records, events


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_ships_context_and_links_attempts(tmp_path, monkeypatch,
                                                jobs):
    """The full chain — root → cell → attempt (with one injected flake
    retry) → engine phase — links up by deterministic span ids, whether
    the context rides the Pipe to a worker process or stays in-process."""
    root, traces, records, _events = _sweep_records(tmp_path, monkeypatch,
                                                    jobs)
    attempts = [r for r in records
                if r["event"] == "span" and r["name"] == "sched.attempt"]
    by_label = {}
    for span in attempts:
        by_label.setdefault(span["label"], []).append(span)
    # Cell "b" flaked once: attempt 1 raised, attempt 2 ok.
    b_spans = sorted(by_label["b"], key=lambda s: s["attempt"])
    assert [s["outcome"] for s in b_spans] == ["raised", "ok"]
    assert [s["outcome"] for s in by_label["a"]] == ["ok"]
    for span in attempts:
        index = ["a", "b"].index(span["label"])
        assert span["trace_id"] == root.trace_id
        assert span["parent_span_id"] == traces[index].span_id
        # Deterministic: anyone can re-derive the id (the timeout path
        # relies on this to close spans for killed workers).
        expected = traces[index].child("sched.attempt", span["attempt"])
        assert span["span_id"] == expected.span_id
    # Engine phases forwarded as leaf spans under the attempt contexts.
    phases = [r for r in records if r["event"] == "trace"]
    assert {p["phase"] for p in phases} == {"decode", "execute"}
    attempt_ids = {s["span_id"] for s in attempts}
    for phase in phases:
        assert phase["trace_id"] == root.trace_id
        assert phase["parent_span_id"] in attempt_ids
    # Scheduler lifecycle events carry the cell context.
    cells = [r for r in records if r["event"] == "cell"]
    assert cells
    for cell in cells:
        assert cell["trace_id"] == root.trace_id
        assert cell["parent_span_id"] == root.span_id


def test_untraced_sweep_emits_no_trace_fields(tmp_path, monkeypatch):
    events = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_EVENTS", str(events))
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    sweep = run_sweep(_traced_cell, [1, 2], jobs=1,
                      sleep=lambda _d: None)
    assert sweep.values == [2, 4]
    records = [json.loads(line)
               for line in events.read_text().splitlines()]
    assert records                           # events flow regardless
    assert not [r for r in records if r["event"] == "span"]
    assert not [r for r in records if "trace_id" in r]


def test_traces_must_align_with_items():
    root = TraceContext.root("t", 1)
    with pytest.raises(ValueError, match="traces"):
        run_sweep(_traced_cell, [1, 2], jobs=1, traces=[root])


def test_det_metrics_identical_with_tracing_on(tmp_path, monkeypatch):
    """Tracing must not perturb the deterministic metrics surface."""
    monkeypatch.delenv("REPRO_EVENTS", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    run_sweep(_det_cell, [3, 4], jobs=1)
    untraced = get_registry().export([DET])
    reset_registry()
    monkeypatch.setenv("REPRO_EVENTS", str(tmp_path / "events.jsonl"))
    monkeypatch.setenv("REPRO_TRACE", "1")
    root = TraceContext.root("t", 1)
    run_sweep(_det_cell, [3, 4], jobs=1,
              traces=[root.child("cell", i) for i in range(2)])
    assert get_registry().export([DET]) == untraced


def test_compile_spans_nest_under_the_cell_in_chrome_trace(tmp_path,
                                                          monkeypatch):
    """A traced ``direct_lines`` run over one wasm cell exports a Chrome
    trace in which the cell's compile is a span whose parent is the
    cell span named on the result line."""
    from repro.cache import configure
    from repro.service import canonicalize_request, direct_lines

    events = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    monkeypatch.setenv("REPRO_EVENTS", str(events))
    monkeypatch.setenv("REPRO_TRACE", "1")
    configure(root=str(tmp_path / "cache"), disk=True)
    try:
        (spec,) = canonicalize_request(
            {"benchmarks": ["atax"], "targets": ["wasm"],
             "opt_levels": ["O2"], "sizes": ["S"],
             "repetitions": 1}).cells
        (line,) = direct_lines([spec],
                               trace=TraceContext.root("test", 1))
    finally:
        configure()
    payload = _load_exporter().export_file(str(events),
                                           str(tmp_path / "trace.json"))
    spans = [e for e in payload["traceEvents"] if e.get("cat") == "span"]
    cell_id = json.loads(line)["trace"]["span_id"]
    (cell,) = [e for e in spans if e["args"]["span_id"] == cell_id]
    assert cell["name"] == "cell"
    compiles = [e for e in spans if e["name"] == "compile"]
    assert compiles
    for compile_span in compiles:
        assert compile_span["args"]["parent_span_id"] == cell_id
        assert compile_span["args"]["kind"] == "wasm"
        assert compile_span["args"]["program"] == "atax"
        assert cell["ts"] <= compile_span["ts"]


# -- exporter --------------------------------------------------------------


class TestExporter:
    def test_span_and_phase_records_become_lanes(self):
        export = _load_exporter()
        records = [
            {"event": "span", "pid": 10, "name": "service.request",
             "ts_us": 100, "dur_us": 50, "outcome": "ok",
             "trace_id": "t1", "span_id": "s1"},
            {"event": "span", "pid": 10, "name": "sched.attempt",
             "ts_us": 110, "dur_us": 20, "outcome": "ok",
             "trace_id": "t1", "span_id": "s2", "parent_span_id": "s1"},
            {"event": "trace", "pid": 11, "engine": "wasm",
             "phase": "decode", "start_cycles": 0, "cycles": 5,
             "trace_id": "t1", "span_id": "p1", "parent_span_id": "s2"},
            {"event": "cell", "pid": 10, "label": "a"},   # no timestamp
        ]
        payload = export.to_chrome_trace(records)
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 3            # lifecycle record skipped
        spans = [e for e in complete if e["cat"] == "span"]
        assert {e["name"] for e in spans} == {"service.request",
                                              "sched.attempt"}
        assert len({e["tid"] for e in spans}) == 1   # one lane per trace
        (engine,) = [e for e in complete if e["cat"] == "engine"]
        assert engine["name"] == "decode"
        assert engine["args"]["parent_span_id"] == "s2"
        names = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert names and all(e["name"] == "thread_name" for e in names)
        assert export.validate_chrome_trace(payload) == 3

    def test_validator_rejects_bad_traces(self):
        export = _load_exporter()
        with pytest.raises(ValueError, match="traceEvents"):
            export.validate_chrome_trace({"not": "a trace"})
        with pytest.raises(ValueError, match="missing 'ts'"):
            export.validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1, "dur": 0}]})
        with pytest.raises(ValueError, match="backwards"):
            export.validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 10,
                 "dur": 1},
                {"name": "y", "ph": "X", "pid": 1, "tid": 1, "ts": 5,
                 "dur": 1}]})
        with pytest.raises(ValueError, match="dur"):
            export.validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0,
                 "dur": -4}]})

    def test_sweep_exports_schema_valid_chrome_trace(self, tmp_path,
                                                     monkeypatch):
        """Tier-1 smoke: a real (flake-retried) sweep's event stream
        exports to Chrome Trace JSON that passes schema validation —
        required keys present, per-lane timestamps monotonic."""
        export = _load_exporter()
        _root, _traces, _records, events = _sweep_records(
            tmp_path, monkeypatch, jobs=1)
        out = tmp_path / "trace.json"
        payload = export.export_file(str(events), str(out))
        assert export.validate_chrome_trace(payload) > 0
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        complete = [e for e in on_disk["traceEvents"] if e["ph"] == "X"]
        assert {"sched.attempt"} <= {e["name"] for e in complete}
        assert {"decode", "execute"} <= {e["name"] for e in complete}
        # One injected retry is visible as two attempt events for "b".
        b_attempts = [e for e in complete if e["name"] == "sched.attempt"
                      and e["args"].get("label") == "b"]
        assert len(b_attempts) == 2
        assert {e["args"]["outcome"] for e in b_attempts} == \
            {"raised", "ok"}

    def test_cli_writes_and_validates(self, tmp_path, monkeypatch,
                                      capsys):
        export = _load_exporter()
        _root, _traces, _records, events = _sweep_records(
            tmp_path, monkeypatch, jobs=1)
        out = tmp_path / "trace.json"
        assert export.main([str(events), "-o", str(out)]) == 0
        assert out.exists()
        assert export.main([str(events), "--validate"]) == 0
        captured = capsys.readouterr()
        assert str(out) in captured.out
        assert "valid" in captured.out
