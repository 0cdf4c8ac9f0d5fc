"""Telemetry layer unit tests: the metrics registry's determinism
properties, the snapshot/diff/apply worker protocol, the JSONL event
sink, spans, and the profiler switches."""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.jsengine.bytecode import JS_OP_COST, JS_OP_COST_OPT
from repro.native.machine import N_COST, VECTOR_COST_FACTOR
from repro.obs import (
    DET, SCHED, WALL, EngineProfile, MetricsRegistry, TraceContext, emit,
    events_enabled, get_registry, new_profile, profile_enabled,
    recording_into, reset_registry, span,
)
from repro.obs.metrics import Counter, DEFAULT_BOUNDS
from repro.wasm.instructions import OP_COST


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_registry()
    yield
    reset_registry()


# -- counters --------------------------------------------------------------


def test_counter_int_fast_path_stays_int():
    c = Counter()
    c.add(3)
    c.add(4)
    assert c.value == 7
    assert isinstance(c.value, int)


def test_counter_float_accumulation_is_exact():
    """0.1 summed 10 times in float is not 1.0; through Fractions it is."""
    c = Counter()
    for _ in range(10):
        c.add(0.1)
    assert c.value == float(Fraction(1, 10) * 10) == 1.0


def test_counter_value_is_order_and_grouping_independent():
    values = [0.1, 0.7, 1e-9, 123456.25, 0.3, 2.0000001] * 7
    a = Counter()
    for v in values:
        a.add(v)
    b = Counter()
    for v in reversed(values):
        b.add(v)
    # Grouped accumulation (what worker diffs produce) agrees too.
    g1, g2 = Counter(), Counter()
    for v in values[:20]:
        g1.add(v)
    for v in values[20:]:
        g2.add(v)
    merged = Counter()
    merged.ints = g1.ints + g2.ints
    merged.frac = g1.frac + g2.frac
    assert a.value == b.value == merged.value


class _FractionCounter:
    """Oracle: the ``fractions.Fraction`` accumulator the scaled-integer
    counter must agree with, value for value."""

    def __init__(self):
        self.ints = 0
        self.frac = Fraction(0)

    def add(self, value):
        if isinstance(value, int):
            self.ints += value
        else:
            self.frac += Fraction(value)

    @property
    def value(self):
        if not self.frac:
            return self.ints
        return float(self.ints + self.frac)


def _outcome(counter):
    """A counter's exported value with its type, or the overflow the
    float conversion raised (both accumulators must agree on either)."""
    try:
        value = counter.value
    except OverflowError:
        return "overflow"
    return type(value), repr(value)


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   2.225073858507201e-308, -1e-310, 1e300, -1e300,
                   1.7976931348623157e308, 0.1, -0.7)


# What profdecode feeds the registry: a cost-table entry (a float, so
# dyadic), possibly scaled by the native vector factor, times an op
# count.
_PROFDECODE_COSTS = sorted({float(c) for table in (
    OP_COST, JS_OP_COST, JS_OP_COST_OPT, N_COST) for c in table})
_PROFDECODE_FRACTIONS = st.builds(
    lambda cost, vector, count: Fraction(cost) * Fraction(vector) * count,
    st.sampled_from(_PROFDECODE_COSTS),
    st.sampled_from([1.0, VECTOR_COST_FACTOR]),
    st.integers(min_value=0, max_value=10 ** 9))

_INCREMENTS = st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
              min_value=-1e-300, max_value=1e-300),
    st.sampled_from(_SPECIAL_FLOATS),
    st.integers(min_value=-10 ** 12, max_value=10 ** 12),
    _PROFDECODE_FRACTIONS), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_INCREMENTS)
def test_scaled_counter_matches_fraction_oracle(values):
    counter, oracle = Counter(), _FractionCounter()
    for value in values:
        counter.add(value)
        oracle.add(value)
    assert _outcome(counter) == _outcome(oracle)
    # Split in two and merged the way a worker diff is folded in.
    cut = len(values) // 2
    left, right = Counter(), Counter()
    for value in values[:cut]:
        left.add(value)
    for value in values[cut:]:
        right.add(value)
    merged = Counter(left.ints + right.ints, left.frac + right.frac)
    assert _outcome(merged) == _outcome(oracle)


@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(1, 10),
                                   Fraction(1, 2 ** 1075)])
def test_counter_rejects_non_dyadic_increment(value):
    c = Counter()
    c.add(0.5)
    with pytest.raises(ValueError, match="not a multiple"):
        c.add(value)
    assert c.value == 0.5


def test_counter_accepts_finest_dyadic_increment():
    c = Counter()
    c.add(Fraction(3, 2 ** 1074))
    assert c.frac == 3
    assert c.value == 3 * 5e-324


# -- registry --------------------------------------------------------------


def test_histogram_buckets():
    reg = MetricsRegistry()
    for v in (0.5, 1, 3, 100, 10 ** 9):
        reg.hist_observe("h", v)
    out = reg.export()["h"]
    assert out["bounds"] == list(DEFAULT_BOUNDS)
    assert sum(out["counts"]) == 5
    assert out["counts"][-1] == 1          # overflow bucket


def test_stability_conflict_raises():
    reg = MetricsRegistry()
    reg.counter_add("x", 1, DET)
    with pytest.raises(ValueError, match="already registered"):
        reg.counter_add("x", 1, SCHED)


def test_export_filters_by_stability():
    reg = MetricsRegistry()
    reg.counter_add("a", 1, DET)
    reg.counter_add("b", 1, SCHED)
    reg.counter_add("c", 1.5, WALL)
    assert reg.export([DET]) == {"a": 1}
    assert reg.export([SCHED]) == {"b": 1}
    assert reg.export([WALL]) == {"c": 1.5}
    assert reg.export() == {"a": 1, "b": 1, "c": 1.5}


def test_export_is_sorted_and_json_clean():
    reg = MetricsRegistry()
    reg.counter_add("z", 0.25)
    reg.counter_add("a", 2)
    reg.hist_observe("m", 3)
    out = reg.export()
    assert list(out) == sorted(out)
    json.dumps(out)                        # must not raise


def test_registry_totals_are_exact_under_threads():
    """Recording, export and apply from several threads at once: every
    total is exact, and no reader sees a dict change under it."""
    reg = MetricsRegistry()
    reg.counter_add("shared", 0)
    adders, rounds = 4, 2000
    payload = {"counters": {"applied": (DET, 1, 0)}, "hists": {}}
    start = threading.Barrier(adders + 1)
    stop = threading.Event()

    def add(n):
        start.wait()
        for i in range(rounds):
            reg.counter_add("shared", 1)
            reg.counter_add(f"t{n}.{i % 50}", 1)     # new names, then old
            reg.hist_observe("h", i % 7)

    def read():
        start.wait()
        while not stop.is_set():
            reg.export()
            reg.diff(reg.snapshot())
            reg.apply(payload)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=add, args=(n,))
                   for n in range(adders)]
        reader = threading.Thread(target=read)
        for thread in (*threads, reader):
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        reader.join()
    finally:
        sys.setswitchinterval(interval)
    out = reg.export()
    assert out["shared"] == adders * rounds
    assert all(out[f"t{n}.{k}"] == rounds // 50
               for n in range(adders) for k in range(50))
    assert sum(out["h"]["counts"]) == adders * rounds
    assert out["applied"] >= 1


def test_recording_into_isolates_one_thread():
    """While one thread records into a scratch registry, another
    thread's counts still land in the global one."""
    scratch = MetricsRegistry()
    with recording_into(scratch):
        get_registry().counter_add("mine", 1)
        other = threading.Thread(
            target=lambda: get_registry().counter_add("theirs", 1))
        other.start()
        other.join()
    assert scratch.export() == {"mine": 1}
    assert get_registry().export() == {"theirs": 1}


def test_diff_apply_equals_direct_accumulation():
    """The worker protocol: parent.apply(worker.diff(snap)) must land the
    parent in exactly the state direct accumulation would have."""
    direct = MetricsRegistry()
    parent = MetricsRegistry()
    worker = MetricsRegistry()
    for reg in (direct, parent, worker):
        reg.counter_add("base", 5)
        reg.counter_add("f", 0.1)
    snap = worker.snapshot()
    worker.counter_add("base", 3)
    worker.counter_add("f", 0.2)
    worker.hist_observe("lat", 6, SCHED)
    payload = worker.diff(snap)
    payload = pickle.loads(pickle.dumps(payload))    # ships over a pipe
    parent.apply(payload)
    direct.counter_add("base", 3)
    direct.counter_add("f", 0.2)
    direct.hist_observe("lat", 6, SCHED)
    assert parent.export() == direct.export()
    assert parent._counters["f"].frac == direct._counters["f"].frac


def test_diff_is_empty_when_nothing_changed():
    reg = MetricsRegistry()
    reg.counter_add("c", 1)
    snap = reg.snapshot()
    payload = reg.diff(snap)
    assert payload == {"counters": {}, "hists": {}}


def _seeded_registry():
    reg = MetricsRegistry()
    reg.counter_add("c", 2)
    reg.counter_add("f", 0.25)
    reg.hist_observe("h", 4, SCHED)
    return reg


def _state(reg):
    return reg.export(), reg.snapshot()


@pytest.mark.parametrize("tail", [
    ("counters", "tail", ("bogus", 1, 0)),           # unknown tag
    ("counters", "c", (SCHED, 1, 0)),                # tag conflict
    ("counters", "tail", (DET, 1, Fraction(1, 4))),  # non-int delta
    ("counters", "tail", (DET, 1.0, 0)),             # non-int delta
    ("counters", "tail", (DET, 1)),                  # truncated entry
    ("hists", "h", (SCHED, DEFAULT_BOUNDS, [1.0] * 22)),  # float delta
    ("hists", "h", (SCHED, DEFAULT_BOUNDS, [1])),    # wrong width
])
def test_apply_rejects_bad_last_entry_atomically(tail):
    """``apply`` validates the whole payload first: a bad final entry
    leaves every earlier, valid entry unapplied too."""
    reg = _seeded_registry()
    before = _state(reg)
    source = _seeded_registry()
    snap = source.snapshot()
    source.counter_add("c", 5)
    source.counter_add("f", 0.5)
    source.counter_add("fresh", 1)
    source.hist_observe("h", 4, SCHED)
    payload = source.diff(snap)
    section, name, entry = tail
    payload[section][name] = entry
    with pytest.raises(ValueError):
        reg.apply(payload)
    assert _state(reg) == before


def test_apply_registers_zero_delta_counters_and_skips_known_ones():
    reg = _seeded_registry()
    reg.apply({"counters": {"c": (DET, 0, 0), "new": (DET, 0, 0)},
               "hists": {}})
    assert reg.export()["c"] == 2
    assert reg.export()["new"] == 0
    assert reg.stability("new") == DET


# -- events ----------------------------------------------------------------


def test_events_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_EVENTS", raising=False)
    assert not events_enabled()
    emit("noop", x=1)                      # must be a silent no-op


def test_event_sink_writes_jsonl(tmp_path, monkeypatch):
    path = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_EVENTS", str(path))
    emit("unit", a=1, b="two")
    emit("unit", a=2)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["event"] == "unit"
    assert first["a"] == 1 and first["b"] == "two"
    assert first["pid"] == os.getpid()


def test_emit_allows_kind_field(tmp_path, monkeypatch):
    """Compile spans and failure records carry their own ``kind`` field;
    it must not collide with the event kind (positional-only)."""
    path = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_EVENTS", str(path))
    emit("span", kind="wasm", span="compile")
    event = json.loads(path.read_text().strip())
    assert event["event"] == "span"
    assert event["kind"] == "wasm"


def test_span_records_wall_and_count(tmp_path, monkeypatch):
    """Every span books its metrics; only a traced span (a context given
    or active) also emits an event, carrying ids and its fields."""
    path = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_EVENTS", str(path))
    with span("unit.region", phase="test") as ctx:
        assert ctx is None
    exported = get_registry().export()
    assert exported["unit.region.count"] == 1
    assert exported["unit.region.wall_ms"] >= 0.0
    assert get_registry().stability("unit.region.wall_ms") == WALL
    assert get_registry().stability("unit.region.count") == SCHED
    assert not path.exists()
    root = TraceContext.root("unit", 1)
    with span("unit.region", ctx=root, parts=(1,), phase="test") as ctx:
        assert ctx.parent_id == root.span_id
    assert get_registry().export()["unit.region.count"] == 2
    event = json.loads(path.read_text().strip())
    assert event["event"] == "span"
    assert event["name"] == "unit.region"
    assert event["phase"] == "test"
    assert event["span_id"] == ctx.span_id


def test_failed_open_resets_sink_state(tmp_path, monkeypatch):
    """An unopenable REPRO_EVENTS path must not leave stale path/pid
    bookkeeping behind — a later good path has to open cleanly."""
    from repro.obs import events as events_mod

    good = tmp_path / "good.jsonl"
    monkeypatch.setenv("REPRO_EVENTS", str(good))
    emit("unit", n=1)                       # prime a healthy handle
    bad = tmp_path / "a-directory"
    bad.mkdir()
    monkeypatch.setenv("REPRO_EVENTS", str(bad))
    emit("unit", n=2)                       # open fails; must not raise
    assert events_mod._state["path"] is None
    assert events_mod._state["pid"] is None
    monkeypatch.setenv("REPRO_EVENTS", str(good))
    emit("unit", n=3)                       # recovers on the good path
    values = [json.loads(line)["n"]
              for line in good.read_text().strip().splitlines()]
    assert values == [1, 3]
    assert events_mod._state["path"] == str(good)


def test_fork_inherited_listeners_purged_once(monkeypatch):
    """A child that inherited the parent's listener table drops the
    foreign-pid tokens on first access and never delivers into them."""
    from repro.obs import events as events_mod

    monkeypatch.delenv("REPRO_EVENTS", raising=False)
    foreign_calls = []
    token = events_mod.add_listener(foreign_calls.append)
    try:
        # Forge a post-fork state: the table holds a token registered by
        # another pid, and the table's pid marker predates this process.
        events_mod._listeners[token] = (os.getpid() + 1,
                                        foreign_calls.append)
        events_mod._listeners_pid = None
        assert not events_enabled()          # purge on enablement check
        assert token not in events_mod._listeners
        assert events_mod._listeners_pid == os.getpid()
        emit("unit", x=1)
        assert foreign_calls == []
        # A live local listener still works after the purge.
        local_calls = []
        local = events_mod.add_listener(local_calls.append)
        try:
            emit("unit", x=2)
        finally:
            events_mod.remove_listener(local)
        assert [r["x"] for r in local_calls] == [2]
    finally:
        events_mod.remove_listener(token)


def test_raising_span_books_metrics_and_outcome(tmp_path, monkeypatch):
    """A region that raises still lands its wall_ms/count metrics, with
    or without a trace context, and its event records ``outcome:
    raised``."""
    path = tmp_path / "events.jsonl"
    monkeypatch.setenv("REPRO_EVENTS", str(path))
    with pytest.raises(RuntimeError):
        with span("unit.fail", phase="test"):
            raise RuntimeError("boom")
    exported = get_registry().export()
    assert exported["unit.fail.count"] == 1
    assert exported["unit.fail.wall_ms"] >= 0.0
    root = TraceContext.root("unit", 1)
    with pytest.raises(RuntimeError):
        with span("unit.fail", ctx=root, phase="test"):
            raise RuntimeError("boom")
    event = json.loads(path.read_text().strip())
    assert event["outcome"] == "raised"
    with span("unit.fail", ctx=root, parts=(2,), phase="test"):
        pass
    last = json.loads(path.read_text().strip().splitlines()[-1])
    assert last["outcome"] == "ok"
    assert get_registry().export()["unit.fail.count"] == 3


# -- prometheus export -----------------------------------------------------


def test_render_prometheus_text_exposition():
    from repro.obs import render_prometheus

    reg = MetricsRegistry()
    reg.counter_add("cache.hits", 3, SCHED)
    reg.counter_add("vm.cycles", 1.5, DET)
    reg.hist_observe("sched.attempts", 1, SCHED, bounds=(1, 2))
    reg.hist_observe("sched.attempts", 5, SCHED, bounds=(1, 2))
    text = render_prometheus(reg, extra_gauges={
        "store.hits": 9,
        "service.outstanding_cells": (2, {"shard": "0"})})
    lines = text.splitlines()
    assert text.endswith("\n")
    assert "# TYPE repro_cache_hits counter" in lines
    assert 'repro_cache_hits{stability="sched"} 3' in lines
    assert 'repro_vm_cycles{stability="det"} 1.5' in lines
    # Histogram buckets are cumulative and close with +Inf and _count
    # (registry bounds are exclusive: an observation of exactly 1 lands
    # in the next bucket).
    assert 'repro_sched_attempts_bucket{stability="sched",le="1"} 0' \
        in lines
    assert 'repro_sched_attempts_bucket{stability="sched",le="2"} 1' \
        in lines
    assert 'repro_sched_attempts_bucket{stability="sched",le="+Inf"} 2' \
        in lines
    assert 'repro_sched_attempts_count{stability="sched"} 2' in lines
    assert "# TYPE repro_store_hits gauge" in lines
    assert "repro_store_hits 9" in lines
    assert 'repro_service_outstanding_cells{shard="0"} 2' in lines


# -- profiler --------------------------------------------------------------


def test_profile_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    assert not profile_enabled()
    assert new_profile("wasm") is None


def test_profile_enabled_values(monkeypatch):
    for value in ("1", "on", "true", "YES"):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert profile_enabled(), value
    for value in ("0", "off", ""):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert not profile_enabled(), value


def test_engine_profile_to_dict_is_sorted_and_stringified():
    p = EngineProfile("wasm")
    p.call("main")
    p.call("main")
    frame = p.frame("main")
    frame[7] = 3
    frame[2] = 1
    d = p.to_dict()
    assert d["engine"] == "wasm"
    assert d["calls"] == {"main": 2}
    assert list(d["ops"]["main"]) == ["2", "7"]
    assert d["ops"]["main"] == {"2": 1, "7": 3}
    json.dumps(d)


def test_obs_layering_rule_flags_back_edges(tmp_path):
    """The checker rejects any repro import from inside repro.obs."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    try:
        import check_layering
    finally:
        sys.path.pop(0)
    bad = tmp_path / "obs" / "metrics.py"
    bad.parent.mkdir()
    bad.write_text("def f():\n    from repro.engine import stats\n")
    ok = tmp_path / "obs" / "events.py"
    ok.write_text("from repro.obs.metrics import DET\n")
    violations = check_layering.check(src=tmp_path)
    assert len(violations) == 1
    assert "obs/metrics.py" in violations[0]
    assert "repro.engine" in violations[0]


def test_tracing_leaf_rule_pins_imports(tmp_path):
    """``repro.obs.tracing`` may import only the event sink and the
    env-flag helpers — anything else (even the metrics registry) is a
    violation, and the real module must be clean."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    try:
        import check_layering
    finally:
        sys.path.pop(0)
    tracing = tmp_path / "obs" / "tracing.py"
    tracing.parent.mkdir()
    tracing.write_text(
        "from repro.obs.events import emit\n"
        "from repro.obs.envflags import env_flag\n"
        "from repro.obs.metrics import get_registry\n")
    violations = check_layering.check(src=tmp_path)
    assert len(violations) == 1
    assert "obs/tracing.py" in violations[0]
    assert "repro.obs.metrics" in violations[0]
    # The shipped tree passes the full checker, tracing rule included.
    assert check_layering.check() == []
