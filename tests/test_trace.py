"""Structured execution-trace tests: phase ordering, span accounting
against the measured execution time, and JSON round-tripping.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.engine.trace import ExecutionTrace
from repro.env import DESKTOP
from repro.env.browser import chrome_desktop
from repro.experiments.common import ExperimentContext
from repro.harness import PageRunner
from repro.jsengine import JsEngine
from repro.jsengine.config import JsEngineConfig
from repro.suites import all_benchmarks


@pytest.fixture(scope="module")
def traced_runs():
    ctx = ExperimentContext(quick=True, repetitions=1)
    bench = next(b for b in all_benchmarks() if b.name == "gemm")
    runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=1,
                        trace=True)
    return (runner.run_wasm(ctx.wasm(bench)),
            runner.run_js(ctx.js(bench)))


class TestTraceStructure:
    def test_emit_and_finalize_order_by_start(self):
        trace = ExecutionTrace("wasm")
        trace.emit("execute", 100.0, 50.0)
        trace.emit("decode", 0.0, 100.0, bytes=13)
        trace.finalize()
        assert [e.phase for e in trace.events] == ["decode", "execute"]
        assert trace.total_cycles() == 150.0
        assert trace.phase_cycles() == {"decode": 100.0, "execute": 50.0}

    def test_json_round_trip(self):
        trace = ExecutionTrace("js")
        trace.emit("parse", 0.0, 12.5, tokens=40)
        trace.emit("gc", 99.0, 8000.0)
        restored = ExecutionTrace.from_dict(
            json.loads(json.dumps(trace.to_dict())))
        assert restored.engine == "js"
        assert [e.to_dict() for e in restored.events] == \
            [e.to_dict() for e in trace.events]


class TestWasmTrace:
    def test_phase_ordering(self, traced_runs):
        wasm_m, _ = traced_runs
        events = ExecutionTrace.from_dict(wasm_m.detail["trace"]).events
        phases = [e.phase for e in events]
        assert phases.index("decode") < phases.index("compile")
        assert phases.index("compile") < phases.index("execute")
        assert phases[-1] == "page-overhead"
        starts = [e.start_cycles for e in events]
        assert starts == sorted(starts)
        # Contiguous timeline: each span begins where the previous ended.
        for prev, cur in zip(events, events[1:]):
            assert cur.start_cycles == pytest.approx(prev.end_cycles)

    def test_tier_up_only_after_threshold(self, traced_runs):
        wasm_m, _ = traced_runs
        events = ExecutionTrace.from_dict(wasm_m.detail["trace"]).events
        execute = next(e for e in events if e.phase == "execute")
        tier_ups = [e for e in events if e.phase == "tier-up"]
        threshold = chrome_desktop().wasm.tiers.tier_up_instructions
        assert execute.detail["instructions"] > threshold
        assert len(tier_ups) == 1
        assert tier_ups[0].detail["tier"] == "TurboFan"
        assert tier_ups[0].end_cycles <= execute.start_cycles

    def test_spans_sum_to_execution_time(self, traced_runs):
        wasm_m, _ = traced_runs
        trace = ExecutionTrace.from_dict(wasm_m.detail["trace"])
        assert trace.total_cycles() == pytest.approx(
            wasm_m.times_ms[0] * DESKTOP.cycles_per_ms, rel=1e-9)


class TestJsTrace:
    def test_phase_ordering(self, traced_runs):
        _, js_m = traced_runs
        events = ExecutionTrace.from_dict(js_m.detail["trace"]).events
        assert events[0].phase == "parse"
        assert events[0].start_cycles == 0.0
        assert events[-1].phase == "page-overhead"
        compile_event = next(e for e in events if e.phase == "compile")
        execute = next(e for e in events if e.phase == "execute")
        assert compile_event.start_cycles == events[0].cycles
        assert execute.start_cycles == pytest.approx(
            compile_event.start_cycles + compile_event.cycles +
            sum(e.cycles for e in events if e.phase == "tier-up"))
        for e in events:
            if e.phase == "tier-up":
                assert e.start_cycles >= execute.start_cycles

    def test_tier_up_events_match_stats(self, traced_runs):
        _, js_m = traced_runs
        events = ExecutionTrace.from_dict(js_m.detail["trace"]).events
        tier_ups = [e for e in events if e.phase == "tier-up"]
        assert len(tier_ups) == js_m.detail["tier_ups"]
        assert len(tier_ups) > 0

    def test_spans_sum_to_execution_time(self, traced_runs):
        _, js_m = traced_runs
        trace = ExecutionTrace.from_dict(js_m.detail["trace"])
        assert trace.total_cycles() == pytest.approx(
            js_m.times_ms[0] * DESKTOP.cycles_per_ms, rel=1e-9)

    def test_gc_pauses_become_events(self):
        cfg = replace(JsEngineConfig(), gc_trigger_bytes=20000)
        engine = JsEngine(cfg)
        engine.trace = ExecutionTrace("js")
        engine.load_script(
            "var a = [];"
            "for (var i = 0; i < 2000; i = i + 1) { a.push([i, i]); }")
        gc_events = [e for e in engine.trace.events if e.phase == "gc"]
        assert engine.stats.gc_runs > 0
        assert len(gc_events) == engine.stats.gc_runs
        assert sum(e.cycles for e in gc_events) == \
            engine.stats.gc_pause_cycles
        starts = [e.start_cycles for e in gc_events]
        assert starts == sorted(starts)


class TestTraceIsOptIn:
    def test_untraced_measurements_have_no_trace_detail(self):
        ctx = ExperimentContext(quick=True, repetitions=1)
        bench = next(b for b in all_benchmarks() if b.name == "gemm")
        runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=1)
        assert "trace" not in runner.run_js(ctx.js(bench)).detail
