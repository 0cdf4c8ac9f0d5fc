"""Codegen-tier invariants beyond the differential suites: dispatch
completeness checked against the cost tables, budget-deopt resume
mid-frame on the wasm VM, GC-pause parity on the JS engine, and
cold-vs-warm compile-cache runs replaying identical DET counters.

The three tiers under test (see ``engine/codegen.py``)::

    REPRO_FAST_INTERP=0   reference ladders (differential oracle)
    REPRO_CODEGEN=0       threaded closures
    default               generated Python (codegen tier)
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import codegen as substrate
from repro.errors import TrapError
from repro.obs import DET, SCHED, get_registry, reset_registry

TIERS = ("ref", "threaded", "codegen")

_TIER_ENV = {"ref": ("0", "0"), "threaded": ("1", "0"),
             "codegen": ("1", "1")}


def _set_tier(monkeypatch, tier):
    fast, codegen = _TIER_ENV[tier]
    monkeypatch.setenv("REPRO_FAST_INTERP", fast)
    monkeypatch.setenv("REPRO_CODEGEN", codegen)


def _stats_dict(stats):
    """Repr-normalized stats snapshot (repr distinguishes -0.0 and int
    vs float, which `==` does not)."""
    snap = dataclasses.asdict(stats)
    return {k: repr(tuple(v) if isinstance(v, list) else v)
            for k, v in snap.items()}


# ---------------------------------------------------------------------------
# Dispatch completeness vs the cost tables.

class TestDispatchCompleteness:
    """Every opcode an engine's cost/class tables price must be handled
    by its threaded tier and therefore translatable by its codegen tier
    (the translators walk the threaded tier's own tables)."""

    def test_js_tables_cover_supported_ops(self):
        from repro.jsengine import threaded as jt
        from repro.jsengine.bytecode import (
            JS_OP_CLASS, JS_OP_COST, JS_OP_COST_OPT, JsOp)

        n = max(JsOp) + 1
        assert len(JS_OP_COST) == len(JS_OP_COST_OPT) == len(JS_OP_CLASS) == n
        # COMMA is the one priced opcode the compiler never emits; both
        # fast tiers refuse it loudly (see test below) rather than
        # mispricing it silently.
        assert jt.SUPPORTED_OPS == set(range(n)) - {JsOp.COMMA}
        for op in jt.SUPPORTED_OPS:
            assert JS_OP_COST[op] > 0.0
            assert JS_OP_COST_OPT[op] > 0.0

    def test_js_codegen_shadow_table_in_lockstep(self):
        from repro.jsengine import codegen as jcg
        from repro.jsengine import threaded as jt

        # The translator derives its shadow-write emission kinds from the
        # threaded tier's writer table; a new writer there must fail the
        # derivation, not silently skip the op.
        assert set(jcg._SHADOW_KIND) == set(jt._SHADOW_BIN)

    def test_wasm_tables_cover_supported_ops(self):
        from repro.wasm import threaded as wt
        from repro.wasm.instructions import OP_CLASS, OP_COST, Op

        n = max(Op) + 1
        assert len(OP_COST) == len(OP_CLASS) == n
        for op in wt.SUPPORTED_OPS:
            assert 0 <= op < n
            # UNREACHABLE is priced at zero on purpose: it only ever traps.
            assert OP_COST[op] > 0.0 or op == Op.UNREACHABLE

    def test_native_tables_cover_supported_ops(self):
        from repro.native import threaded as nt
        from repro.native.machine import N_COST, N_OP_CLASS, NOp

        n = max(NOp) + 1
        assert len(N_COST) == len(N_OP_CLASS) == n
        for op in nt.SUPPORTED_OPS:
            assert 0 <= op < n
            assert N_COST[op] > 0.0

    def test_js_unsupported_op_fails_loudly_in_codegen(self, monkeypatch):
        from repro.jsengine.engine import JsEngine
        from repro.jsengine.interpreter import JsRuntimeError, execute
        from repro.jsengine.values import JSFunction, UNDEFINED

        _set_tier(monkeypatch, "codegen")
        fn = JSFunction("bogus", [], [(48, None)], [], 0)
        with pytest.raises(JsRuntimeError, match="no handler"):
            execute(JsEngine(), fn, [], UNDEFINED)

    def test_wasm_program_translates_with_no_declines(
            self, cheerp, monkeypatch):
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM
        from tests.conftest import TINY_C

        _set_tier(monkeypatch, "codegen")
        reset_registry()
        artifact = cheerp.compile_wasm(TINY_C, name="cgfull")
        inst = WasmVM().instantiate(artifact.module,
                                    wasm_host_imports([], None))
        inst.invoke("main")
        exported = get_registry().export([SCHED])
        reset_registry()
        assert exported["interp.wasm.codegen_functions"] > 0
        assert exported["interp.wasm.codegen_blocks"] >= \
            exported["interp.wasm.codegen_functions"]
        assert exported.get("interp.wasm.codegen_declined", 0) == 0

    def test_native_program_translates_with_no_declines(
            self, llvm_x86, monkeypatch):
        from repro.native import execute_program
        from tests.conftest import TINY_C

        _set_tier(monkeypatch, "codegen")
        reset_registry()
        artifact = llvm_x86.compile(TINY_C, name="cgfull")
        execute_program(artifact.program, "main")
        exported = get_registry().export([SCHED])
        reset_registry()
        assert exported["interp.native.codegen_functions"] > 0
        assert exported.get("interp.native.codegen_declined", 0) == 0

    def test_js_program_translates_with_no_declines(self, monkeypatch):
        from repro.jsengine.engine import JsEngine

        _set_tier(monkeypatch, "codegen")
        reset_registry()
        engine = JsEngine()
        engine.load_script(GC_JS)
        exported = get_registry().export([SCHED])
        reset_registry()
        assert exported["interp.js.codegen_functions"] > 0
        assert exported.get("interp.js.codegen_declined", 0) == 0


# ---------------------------------------------------------------------------
# Budget deopt: the generated code checks the remaining instruction
# budget at block entry and bails to the per-op reference loop mid-frame
# (``run_from``) when the block would overrun it.

BUDGET_C = """
double buf[64];
double work(int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    buf[i % 64] = i * 0.5;
    s = s + buf[i % 64] - (double)(i % 3);
  }
  return s;
}
int main() {
  double s = work(150);
  printf("%d", (int)s);
  return (int)s;
}
"""


class TestBudgetDeoptResume:
    def _run(self, cheerp, monkeypatch, tier, budget):
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM

        _set_tier(monkeypatch, tier)
        artifact = cheerp.compile_wasm(BUDGET_C, name="cgbudget")
        output = []
        inst = WasmVM(max_instructions=budget).instantiate(
            artifact.module, wasm_host_imports(output, None))
        try:
            result = ("ok", inst.invoke("main"))
        except TrapError as exc:
            result = ("trap", str(exc))
        return result, _stats_dict(inst.stats), output

    def _instruction_count(self, cheerp, monkeypatch):
        (kind, _), stats, _ = self._run(cheerp, monkeypatch, "ref", None)
        assert kind == "ok"
        return int(stats["instructions"])

    def test_exact_budget_completes_without_deopt(self, cheerp, monkeypatch):
        total = self._instruction_count(cheerp, monkeypatch)
        runs = {}
        reset_registry()
        for tier in TIERS:
            runs[tier] = self._run(cheerp, monkeypatch, tier, total)
        exported = get_registry().export([SCHED])
        reset_registry()
        assert runs["ref"][0][0] == "ok"
        assert runs["ref"] == runs["threaded"] == runs["codegen"]
        # An exact budget never enters a block short: no deopt taken.
        assert exported.get("interp.wasm.codegen_deopts", 0) == 0

    @pytest.mark.parametrize("shortfall", ["one", "half"])
    def test_short_budget_traps_identically_after_deopt(
            self, cheerp, monkeypatch, shortfall):
        total = self._instruction_count(cheerp, monkeypatch)
        budget = total - 1 if shortfall == "one" else total // 2
        runs = {}
        reset_registry()
        for tier in TIERS:
            runs[tier] = self._run(cheerp, monkeypatch, tier, budget)
        exported = get_registry().export([SCHED])
        reset_registry()
        kind, message = runs["ref"][0]
        assert kind == "trap" and "instruction budget exhausted" in message
        # Identical trap point, stats (instructions, cycles, op_counts)
        # and partial host output across all three tiers: the generated
        # frame handed its locals and operand stack to ``run_from``
        # mid-frame and the reference loop finished the accounting.
        assert runs["ref"] == runs["threaded"] == runs["codegen"]
        assert exported["interp.wasm.codegen_deopts"] > 0

    def test_budget_restored_between_invokes(self, cheerp, monkeypatch):
        # The same instance can be invoked again after a budget trap:
        # each invoke sees the full budget, in every tier.
        total = self._instruction_count(cheerp, monkeypatch)
        for tier in TIERS:
            first = self._run(cheerp, monkeypatch, tier, total)
            again = self._run(cheerp, monkeypatch, tier, total)
            assert first[0][0] == "ok"
            assert first[0] == again[0]


# ---------------------------------------------------------------------------
# GC-pause parity on the JS engine: the generated frames must present
# the same live set to the collector as the threaded closures, so pause
# cycles (charged from live bytes) stay bit-identical.

GC_JS = r"""
function churn(n) {
  var a = [];
  var o = {count: 0, name: "o"};
  var t = "";
  for (var i = 0; i < n; i++) {
    a.push([i, i * 1.5]);
    o.count = o.count + i % 5;
    o.count++;
    t = t + "x" + i;
  }
  return o.count + a.length + t.length;
}
var total = 0;
for (var k = 0; k < 30; k++) { total = total + churn(45); }
console.log(total);
"""


class TestJsGcPauseParity:
    def _run(self, monkeypatch, tier):
        from repro.jsengine.config import JsEngineConfig
        from repro.jsengine.engine import JsEngine

        _set_tier(monkeypatch, tier)
        engine = JsEngine(config=JsEngineConfig(gc_trigger_bytes=20000))
        engine.load_script(GC_JS)
        return [str(x) for x in engine.console_output], \
            _stats_dict(engine.stats)

    def test_gc_pauses_identical_across_tiers(self, monkeypatch):
        runs = {tier: self._run(monkeypatch, tier) for tier in TIERS}
        _out, stats = runs["ref"]
        assert int(stats["gc_runs"]) > 0        # the program must collect
        assert runs["ref"] == runs["threaded"] == runs["codegen"]
        assert stats["gc_pause_cycles"] == \
            runs["codegen"][1]["gc_pause_cycles"]


# ---------------------------------------------------------------------------
# Cold vs warm compile cache: a warm process loads source + marshalled
# code objects from the persistent store instead of re-emitting, and the
# run it serves must replay identical DET counters.

class TestColdWarmCache:
    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        _set_tier(monkeypatch, "codegen")
        substrate.reset_cache()
        reset_registry()
        yield
        substrate.reset_cache()
        reset_registry()

    def _measure(self, artifact):
        from repro.env import DESKTOP, chrome_desktop
        from repro.harness import PageRunner

        reset_registry()
        runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=1)
        result = runner.run_wasm(artifact)
        reg = get_registry()
        det, sched = reg.export([DET]), reg.export([SCHED])
        return result, det, sched

    def test_warm_hits_replay_identical_det_counters(self, cheerp):
        from tests.conftest import TINY_C

        artifact = cheerp.compile_wasm(TINY_C, name="cgwarm")
        cold_result, cold_det, cold_sched = self._measure(artifact)
        assert cold_sched["interp.wasm.codegen_cache_misses"] > 0
        assert cold_sched.get("interp.wasm.codegen_cache_hits", 0) == 0

        # Dropping the in-process layers models a fresh process over the
        # same store: translation is served from disk, skipping both
        # source generation and compile().
        substrate.reset_cache()
        warm_result, warm_det, warm_sched = self._measure(artifact)
        assert warm_sched["interp.wasm.codegen_cache_hits"] > 0
        assert warm_sched.get("interp.wasm.codegen_cache_misses", 0) == 0

        assert cold_det            # profiling was on: opclass counters
        assert warm_det == cold_det
        assert warm_result.times_ms == cold_result.times_ms
        assert warm_result.detail["profile"] == \
            cold_result.detail["profile"]

    def test_js_warm_run_bit_identical(self, monkeypatch):
        from repro.jsengine.engine import JsEngine

        def run():
            reset_registry()
            engine = JsEngine()
            engine.load_script(GC_JS)
            return ([str(x) for x in engine.console_output],
                    _stats_dict(engine.stats),
                    get_registry().export([SCHED]))

        cold_out, cold_stats, cold_sched = run()
        assert cold_sched["interp.js.codegen_cache_misses"] > 0
        substrate.reset_cache()
        warm_out, warm_stats, warm_sched = run()
        assert warm_sched["interp.js.codegen_cache_hits"] > 0
        assert warm_out == cold_out
        assert warm_stats == cold_stats


# ---------------------------------------------------------------------------
# Source emission: the indentation buffer and the counter flush.

class TestEmitter:
    def test_nested_blocks_indent_one_level_each(self):
        out = substrate.Emitter()
        out.emit("a")
        with out.block():
            out.emit("b")
            with out.block():
                out.emit("c")
                out.emit("")
                with out.block():
                    out.emit("d")
            out.emit("e")
        out.emit("f")
        assert out.source() == ("a\n    b\n        c\n\n"
                                "            d\n    e\nf\n")
        assert out.indent == 0

    def test_block_is_one_reusable_manager(self):
        out = substrate.Emitter()
        assert out.block() is out.block()
        with pytest.raises(KeyError):
            with out.block():
                with out.block():
                    raise KeyError("x")
        assert out.indent == 0             # unwound on the way out

    def test_emit_sum_chunks_long_chains(self):
        out = substrate.Emitter()
        n = substrate.FLUSH_TERMS + 3
        terms = [substrate.scaled(k % 3 + 1, f"nb{k}") for k in range(n)]
        substrate.emit_sum(out, "s.x", terms)
        substrate.emit_sum(out, "s.y", terms, fold=True)
        lines = out.lines
        assert len(lines) == 4
        assert lines[0].startswith("s.x += nb0 + 2 * nb1 + 3 * nb2 + nb3")
        assert lines[2].startswith("s.y = s.y + nb0 + 2 * nb1")
        env = {f"nb{k}": k for k in range(n)}

        class S:
            x = 0
            y = 0.5
        env["s"] = S
        exec(out.source(), env)
        assert S.x == sum((k % 3 + 1) * k for k in range(n))
        want = 0.5
        for k in range(n):
            want = want + (k % 3 + 1) * k
        assert S.y == want


# ---------------------------------------------------------------------------
# The JS translation unit carries no tier factors: one source per
# function serves every engine configuration.

UNIT_JS = r"""
function f(n) {
  var a = [0.5, 1.5, 2.5];
  var s = 0.25;
  for (var i = 0; i < n; i++) {
    s = s + a[i % 3] * 1.1 + Math.sqrt(i);
    a[i % 3] = s % 3.3;
  }
  return s;
}
var t = 0;
for (var k = 0; k < 8; k++) { t = t + f(300); }
console.log(t);
"""


class TestJsUnitSharing:
    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        substrate.reset_cache()
        yield
        substrate.reset_cache()

    def _run(self, monkeypatch, tier, config):
        from repro.jsengine.engine import JsEngine

        _set_tier(monkeypatch, tier)
        engine = JsEngine(config=config)
        engine.load_script(UNIT_JS)
        return [str(x) for x in engine.console_output], \
            _stats_dict(engine.stats)

    def test_one_source_per_function_across_profiles(self, monkeypatch):
        from repro.env import chrome_desktop, firefox_desktop
        from repro.jsengine import codegen as jcg

        builds = {}
        build = jcg._FnEmitter.build

        def counting_build(self):
            builds[self.fn.name] = builds.get(self.fn.name, 0) + 1
            return build(self)
        monkeypatch.setattr(jcg._FnEmitter, "build", counting_build)

        configs = {"chrome": chrome_desktop().js,
                   "firefox": firefox_desktop().js}
        assert (configs["chrome"].tier0_factor,
                configs["chrome"].tier1_factor) == (20.0, 1.0)
        assert (configs["firefox"].tier0_factor,
                configs["firefox"].tier1_factor) == (4.5, 1.12)
        runs = {}
        for name, config in configs.items():
            runs[name] = self._run(monkeypatch, "codegen", config)
        assert "f" in builds
        assert set(builds.values()) == {1}   # built once, served twice
        assert runs["chrome"][1] != runs["firefox"][1]
        for name, config in configs.items():
            ref = self._run(monkeypatch, "ref", config)
            assert int(ref[1]["tier_ups"]) > 0
            assert runs[name] == ref


# ---------------------------------------------------------------------------
# The flush: one statement per counter, exact when blocks never ran,
# when a trap escapes mid-frame and when the wasm frame deopts.

FLUSH_C = r"""
int g;
int pick(int x) {
  if (x > 1000) { g = g + x * 3; return g - 1; }
  if (x < -1000) { g = g ^ x; return g + 7; }
  return x + 1;
}
int divide(int n, int d) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + pick(i); }
  if (n == 99) { s = s * 2; }
  return s / d;
}
int main() {
  int s = 0;
  for (int i = 0; i < 20; i++) s = s + pick(i);
  printf("%d", s);
  return divide(6, s - 210);
}
"""

FLUSH_JS = r"""
function pick(x) {
  if (x > 1000) { return x * 3.3; }
  if (x < -1000) { return x - 7.7; }
  return x + 1.1;
}
function boom(n) {
  var s = 0.5;
  var o;
  for (var i = 0; i < n; i++) { s = s + pick(i) * 1.1; }
  if (n == 99) { s = s * 2; }
  o.x = s;
  return s;
}
var t = 0;
for (var k = 0; k < 20; k++) { t = t + pick(k); }
console.log(t);
boom(5);
"""


class TestFlushExactness:
    def _wasm(self, cheerp, monkeypatch, tier, budget):
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM

        _set_tier(monkeypatch, tier)
        artifact = cheerp.compile_wasm(FLUSH_C, name="cgflush")
        output = []
        inst = WasmVM(max_instructions=budget).instantiate(
            artifact.module, wasm_host_imports(output, None))
        with pytest.raises(TrapError) as info:
            inst.invoke("main")
        return str(info.value), output, _stats_dict(inst.stats)

    @pytest.mark.parametrize("budget", [None, 700],
                             ids=["trap", "budget-deopt"])
    def test_wasm_dead_blocks_trap_and_deopt(self, cheerp, monkeypatch,
                                             budget):
        reset_registry()
        runs = {tier: self._wasm(cheerp, monkeypatch, tier, budget)
                for tier in TIERS}
        exported = get_registry().export([SCHED])
        reset_registry()
        message, output, _stats = runs["ref"]
        if budget is None:
            assert message == "integer divide by zero"
            assert output == [210]
        else:
            assert message == "instruction budget exhausted"
            assert exported["interp.wasm.codegen_deopts"] > 0
        assert runs["ref"] == runs["threaded"] == runs["codegen"]

    def test_native_dead_blocks_and_trap(self, llvm_x86, monkeypatch):
        from repro.native.machine import _Machine

        artifact = llvm_x86.compile(FLUSH_C, name="cgflush")
        runs = {}
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            machine = _Machine(artifact.program)
            with pytest.raises(TrapError) as info:
                machine.call("main")
            runs[tier] = (str(info.value), _stats_dict(machine.stats))
        assert runs["ref"][0] == "integer divide by zero"
        assert runs["ref"] == runs["threaded"] == runs["codegen"]

    def test_js_dead_blocks_and_escaping_error(self, monkeypatch):
        from repro.env import firefox_desktop
        from repro.jsengine.engine import JsEngine
        from repro.jsengine.interpreter import JsRuntimeError

        runs = {}
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            engine = JsEngine(config=firefox_desktop().js)
            with pytest.raises(JsRuntimeError, match="cannot set x"):
                engine.load_script(FLUSH_JS)
            runs[tier] = ([str(x) for x in engine.console_output],
                          _stats_dict(engine.stats))
        assert [float(x) for x in runs["ref"][0]] == [pytest.approx(212.0)]
        assert runs["ref"] == runs["threaded"] == runs["codegen"]

    def test_wasm_and_native_flush_one_statement_per_counter(
            self, cheerp, llvm_x86, monkeypatch):
        from repro.native import codegen as ncg
        from repro.native.machine import _Machine
        from repro.wasm import codegen as wcg

        sources = []
        for mod in (wcg, ncg):
            load = mod.load_factory

            def spy(engine, key, build_source, _load=load):
                factory = _load(engine, key, build_source)
                sources.append((engine, factory.__repro_source__))
                return factory
            monkeypatch.setattr(mod, "load_factory", spy)
        substrate.reset_cache()
        self._wasm(cheerp, monkeypatch, "codegen", None)
        _set_tier(monkeypatch, "codegen")
        with pytest.raises(TrapError):
            _Machine(llvm_x86.compile(FLUSH_C, name="cgflush").program
                     ).call("main")
        assert {engine for engine, _src in sources} == {"wasm", "native"}
        for engine, src in sources:
            flush = src.split("finally:\n", 1)[1]
            counters = [line.split(" += ")[0].strip()
                        for line in flush.splitlines() if " += " in line]
            assert len(counters) == len(set(counters)), src
            assert "if nb" not in flush          # no per-block guards
            if engine == "wasm" and "stats.cycles" in flush:
                assert flush.count("stats.cycles = stats.cycles + ") == 1


class TestJsSourceShape:
    def test_one_arm_per_block_and_no_tier_dispatch(self, monkeypatch):
        from repro.engine.threaded import split_blocks
        from repro.jsengine import codegen as jcg
        from repro.jsengine import threaded as jt
        from repro.jsengine.engine import JsEngine

        _set_tier(monkeypatch, "codegen")
        substrate.reset_cache()
        engine = JsEngine()
        engine.load_script(UNIT_JS)
        sources = {}
        load = jcg.load_factory

        def spy(engine_name, key, build_source):
            factory = load(engine_name, key, build_source)
            sources["src"] = factory.__repro_source__
            return factory
        monkeypatch.setattr(jcg, "load_factory", spy)
        fn = engine.globals["f"]
        jcg.translate(fn, engine)
        src = sources["src"]

        code = fn.code
        leaders = {0}
        for pc, (op, arg) in enumerate(code):
            if op in jt._TERM_OPS:
                leaders.add(pc + 1)
                if op in jt._JUMPS:
                    leaders.add(arg)
        n_blocks = len(split_blocks(len(code), leaders))
        arms = [line.strip() for line in src.splitlines()
                if line.strip().startswith("if bi == ")]
        assert arms == [f"if bi == {k}:" for k in range(n_blocks)]
        ops = [op for op, _arg in code]
        n_backedges = ops.count(30)
        n_calls = sum(ops.count(op) for op in (31, 32, 44))
        assert n_backedges and n_calls
        assert "if fn.tier" not in src
        assert src.count("if not fn.tier:") == n_backedges
        # Rebinds: frame entry, one per call site, one per OSR.
        assert src.count("= tiers[fn.tier]") == 1 + n_calls + n_backedges
        assert src.count("fn.tier") == 1 + n_calls + 2 * n_backedges
