"""Codegen-tier guarantees beyond the differential suites: the knob,
dispatch completeness checked against the cost tables and the reference
ladders, structured unknown-opcode errors, the decline path,
budget-trap parity (a budgeted engine runs the reference ladder),
GC-pause parity on the JS engine, the LinearMemory bounds edge, cold-vs-warm
compile-cache runs replaying identical DET counters, and the bench
harness smoke mode.

The two tiers under test (see ``engine/codegen.py``)::

    REPRO_FAST_INTERP=0   reference ladders (differential oracle)
    default               generated Python (codegen tier)
"""

from __future__ import annotations

import builtins
import dataclasses
import os
import re
import subprocess
import symtable
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from repro.engine import codegen as substrate
from repro.errors import TrapError, ValidationError
from repro.obs import DET, SCHED, get_registry, reset_registry

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

TIERS = ("ref", "codegen")


def _set_tier(monkeypatch, tier):
    monkeypatch.setenv("REPRO_FAST_INTERP", "0" if tier == "ref" else "1")


def _stats_dict(stats):
    """Repr-normalized stats snapshot (repr distinguishes -0.0 and int
    vs float, which `==` does not)."""
    snap = dataclasses.asdict(stats)
    return {k: repr(tuple(v) if isinstance(v, list) else v)
            for k, v in snap.items()}


# ---------------------------------------------------------------------------
# The one knob.

class TestKnob:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_INTERP", raising=False)
        assert substrate.fast_interp_enabled()

    @pytest.mark.parametrize("raw", ["1", "maybe"], ids=["one", "garbage"])
    def test_truthy_and_garbage_select_codegen(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FAST_INTERP", raw)
        assert substrate.fast_interp_enabled()

    def test_zero_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_INTERP", "0")
        assert not substrate.fast_interp_enabled()

    @pytest.mark.parametrize("raw", ["off", "false"])
    def test_off_and_false_select_reference(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FAST_INTERP", raw)
        assert not substrate.fast_interp_enabled()

    @pytest.mark.parametrize("raw,fast", [("1", True), ("off", False)])
    def test_each_engine_reads_it_once(self, monkeypatch, raw, fast):
        from repro.jsengine.engine import JsEngine
        from repro.native.machine import NativeProgram, _Machine

        monkeypatch.setenv("REPRO_FAST_INTERP", raw)
        engines = (_tiny_wasm_instance(), JsEngine(),
                   _Machine(NativeProgram()))
        assert [engine._fast for engine in engines] == [fast] * 3


# ---------------------------------------------------------------------------
# Dispatch completeness: cost tables ⊆ codegen tier ⊆ reference ladder,
# per engine.

class TestDispatchCompleteness:
    """Every opcode an engine's cost/class tables price must be
    translatable by its codegen tier and handled by its reference
    ladder."""

    def test_wasm(self):
        from repro.wasm.codegen import SUPPORTED_OPS
        from repro.wasm.instructions import OP_CLASS, OP_COST, Op
        assert len(OP_COST) == len(OP_CLASS)
        # ELSE is rewritten to a resolved BR at prepare time; every other
        # opcode the cost model can charge has a translation.
        assert set(range(len(OP_COST))) - SUPPORTED_OPS == {int(Op.ELSE)}
        text = (SRC / "wasm" / "vm.py").read_text()
        ladder = text[text.index("def _run_from"):]
        arms = {int(m) for m in re.findall(r"op == (\d+)", ladder)}
        for group in re.findall(r"op in \(([\d, ]+)\)", ladder):
            arms |= {int(m) for m in group.split(",") if m.strip()}
        missing = SUPPORTED_OPS - arms
        assert not missing, f"ops without a reference arm: {sorted(missing)}"

    def test_wasm_costs_stay_on_quarter_grid(self):
        # Precondition for per-block cycle batching (substrate rule 2):
        # quarter-multiples sum exactly at any association.
        from repro.wasm.instructions import OP_COST
        assert all(cost % 0.25 == 0.0 for cost in OP_COST)

    def test_native(self):
        from repro.native.codegen import SUPPORTED_OPS
        from repro.native.machine import N_COST, N_OP_CLASS, NOp
        assert len(N_COST) == len(N_OP_CLASS)
        assert SUPPORTED_OPS == set(range(len(N_COST)))
        text = (SRC / "native" / "machine.py").read_text()
        arms = {int(getattr(NOp, name))
                for name in re.findall(r"op == NOp\.(\w+)", text)}
        for lo, hi in re.findall(r"NOp\.(\w+) <= op <= NOp\.(\w+)", text):
            arms |= set(range(int(getattr(NOp, lo)),
                              int(getattr(NOp, hi)) + 1))
        missing = SUPPORTED_OPS - arms
        assert not missing, f"ops without a reference arm: {sorted(missing)}"

    def test_js(self):
        from repro.jsengine.bytecode import (
            JS_OP_CLASS, JS_OP_COST, JS_OP_COST_OPT,
        )
        from repro.jsengine.codegen import SUPPORTED_OPS
        assert len(JS_OP_COST) == len(JS_OP_COST_OPT) == len(JS_OP_CLASS)
        # COMMA (48) is never emitted and has no reference arm either.
        assert set(range(len(JS_OP_COST))) - SUPPORTED_OPS == {48}
        text = (SRC / "jsengine" / "interpreter.py").read_text()
        arms = {int(m) for m in re.findall(r"op == (\d+)", text)}
        missing = SUPPORTED_OPS - arms
        assert not missing, f"ops without a reference arm: {sorted(missing)}"

    def test_wasm_tables_cover_supported_ops(self):
        from repro.wasm.codegen import SUPPORTED_OPS
        from repro.wasm.instructions import OP_CLASS, OP_COST, Op

        n = max(Op) + 1
        assert len(OP_COST) == len(OP_CLASS) == n
        for op in SUPPORTED_OPS:
            assert 0 <= op < n
            # UNREACHABLE is priced at zero on purpose: it only ever traps.
            assert OP_COST[op] > 0.0 or op == Op.UNREACHABLE

    def test_native_tables_cover_supported_ops(self):
        from repro.native.codegen import SUPPORTED_OPS
        from repro.native.machine import N_COST, N_OP_CLASS, NOp

        n = max(NOp) + 1
        assert len(N_COST) == len(N_OP_CLASS) == n
        for op in SUPPORTED_OPS:
            assert 0 <= op < n
            assert N_COST[op] > 0.0

    def test_js_tables_cover_supported_ops(self):
        from repro.jsengine.bytecode import (
            JS_OP_CLASS, JS_OP_COST, JS_OP_COST_OPT, JsOp)
        from repro.jsengine.codegen import SUPPORTED_OPS

        n = max(JsOp) + 1
        assert len(JS_OP_COST) == len(JS_OP_COST_OPT) == len(JS_OP_CLASS) == n
        # COMMA is the one priced opcode the compiler never emits; it has
        # no reference arm either, and the translator refuses it loudly
        # (see below) rather than mispricing it silently.
        assert SUPPORTED_OPS == set(range(n)) - {JsOp.COMMA}
        for op in SUPPORTED_OPS:
            assert JS_OP_COST[op] > 0.0
            assert JS_OP_COST_OPT[op] > 0.0

    def test_js_binop_tables_in_lockstep(self):
        from repro.jsengine import codegen as jcg
        from repro.jsengine.bytecode import JsOp

        # Every binary operator except ADD (its own arm) is lowered by
        # ``emit_binval``; those it does not inline call a value function.
        binops = set(range(JsOp.SUB, JsOp.MOD + 1)) \
            | set(range(JsOp.BAND, JsOp.SNE + 1)) | {JsOp.IMUL}
        assert jcg._BINOPS == binops
        assert set(jcg._VALUE_FNS) <= binops

    def test_js_unsupported_op_fails_loudly_in_codegen(self, monkeypatch):
        from repro.jsengine.engine import JsEngine
        from repro.jsengine.interpreter import JsRuntimeError, execute
        from repro.jsengine.values import JSFunction, UNDEFINED

        _set_tier(monkeypatch, "codegen")
        fn = JSFunction("bogus", [], [(48, None)], 0)
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
# Unknown opcodes: both tiers must fail loudly — the reference ladder's
# default arm at runtime, the translator with a structured error before
# running.

def _tiny_wasm_instance():
    from repro.wasm import (
        FuncType, Function, WasmModule, WasmVM, validate_module,
    )
    from repro.wasm.instructions import Op, instr as I
    module = WasmModule()
    module.add_function(Function("main", FuncType((), ("i32",)), [],
                                 [I(Op.I32_CONST, 7)], exported=True))
    validate_module(module)
    return WasmVM().instantiate(module)


class TestUnknownOpcode:
    def test_wasm(self, monkeypatch):
        from repro.wasm.instructions import Op
        monkeypatch.setenv("REPRO_FAST_INTERP", "1")
        inst = _tiny_wasm_instance()
        prepared = inst._prepared["main"]
        prepared.code = [(int(Op.ELSE), None, None)] + list(prepared.code)
        with pytest.raises(ValidationError, match="no handler"):
            inst.invoke("main")
        monkeypatch.setenv("REPRO_FAST_INTERP", "0")
        inst = _tiny_wasm_instance()
        prepared = inst._prepared["main"]
        prepared.code = [(int(Op.ELSE), None, None)] + list(prepared.code)
        with pytest.raises(TrapError, match="unimplemented opcode 5"):
            inst.invoke("main")

    def test_native(self, monkeypatch):
        from repro.native.machine import (
            N_COST, NativeFunction, NativeProgram, _Machine,
        )
        bogus_op = len(N_COST)

        def machine():
            fn = NativeFunction("bogus", 0, 1,
                                [(bogus_op, 0, 0, 0, False)], False)
            return _Machine(NativeProgram(functions={"bogus": fn}))

        monkeypatch.setenv("REPRO_FAST_INTERP", "1")
        with pytest.raises(TrapError, match="no handler"):
            machine().call("bogus")
        monkeypatch.setenv("REPRO_FAST_INTERP", "0")
        with pytest.raises((TrapError, IndexError)):
            machine().call("bogus")

    def test_js(self, monkeypatch):
        from repro.jsengine.engine import JsEngine
        from repro.jsengine.interpreter import JsRuntimeError, execute
        from repro.jsengine.values import JSFunction, UNDEFINED

        def run():
            fn = JSFunction("bogus", [], [(48, None)], 0)
            execute(JsEngine(), fn, [], UNDEFINED)

        monkeypatch.setenv("REPRO_FAST_INTERP", "1")
        with pytest.raises(JsRuntimeError, match="no handler"):
            run()
        monkeypatch.setenv("REPRO_FAST_INTERP", "0")
        with pytest.raises(JsRuntimeError,
                           match="unimplemented bytecode op 48"):
            run()


# ---------------------------------------------------------------------------
# The decline path: a function the translator declines runs on the
# reference ladder, observably identical to a REPRO_FAST_INTERP=0 run,
# and the DECLINED sentinel pins the decision across repeated calls.

DECLINE_C = r"""
double buf[16];
double work(int k) {
  double s = 0.5;
  for (int i = 0; i < 12; i++) { buf[i] = s * 1.5 + k; s = s + buf[i]; }
  return s;
}
int main() {
  double t = 0.0;
  for (int k = 0; k < 5; k++) t = t + work(k);
  printf("%d", (int)t);
  return (int)t % 1000;
}
"""

DECLINE_JS = r"""
function work(k) {
  var a = [0.5, 1.5];
  var s = 0.25;
  for (var i = 0; i < 12; i++) { a.push(s * 1.1 + k); s = s + a[i % 2]; }
  return s;
}
function main() {
  var t = 0;
  for (var k = 0; k < 5; k++) { t = t + work(k); }
  console.log(t);
  return t;
}
"""


def _decline_only(monkeypatch, module, is_target):
    """Make ``module._analyse`` decline the code objects ``is_target``
    picks; every other function still translates."""
    analyse = module._analyse

    def declining(code, *args):
        return None if is_target(code) else analyse(code, *args)
    monkeypatch.setattr(module, "_analyse", declining)


def _declined_count(engine):
    return get_registry().export([SCHED]).get(
        f"interp.{engine}.codegen_declined", 0)


class TestDeclinePath:
    @pytest.fixture(autouse=True)
    def _profiled(self, monkeypatch):
        # Plans are memoized per process: start from none, and drop the
        # declines the patched analysis leaves behind.
        monkeypatch.setenv("REPRO_PROFILE", "1")
        substrate.reset_cache()
        reset_registry()
        yield
        substrate.reset_cache()
        reset_registry()

    def test_wasm(self, cheerp, monkeypatch):
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM
        from repro.wasm import codegen as wcg

        module = cheerp.compile_wasm(DECLINE_C, name="cgdecline").module

        def run(tier):
            _set_tier(monkeypatch, tier)
            output = []
            inst = WasmVM().instantiate(module,
                                        wasm_host_imports(output, None))
            work = inst._prepared["work"].code
            _decline_only(monkeypatch, wcg, lambda code: code is work)
            result = inst.invoke("main")
            return (result, output, _stats_dict(inst.stats),
                    inst._profile.to_dict())

        ref = run("ref")
        assert _declined_count("wasm") == 0
        declined = run("codegen")
        assert _declined_count("wasm") == 1     # five calls, one decline
        assert ref[1] and ref[3]["calls"]["work"] == 5
        assert declined == ref

    def test_js(self, monkeypatch):
        from repro.jsengine import codegen as jcg
        from repro.jsengine.engine import JsEngine

        def run(tier):
            _set_tier(monkeypatch, tier)
            engine = JsEngine()
            engine.load_script(DECLINE_JS)
            work = engine.globals["work"].code
            _decline_only(monkeypatch, jcg, lambda code: code is work)
            result = engine.call_global("main")
            return (result, [str(x) for x in engine.console_output],
                    _stats_dict(engine.stats), engine._profile.to_dict())

        ref = run("ref")
        assert _declined_count("js") == 0
        declined = run("codegen")
        assert _declined_count("js") == 1
        assert ref[1] and ref[3]["calls"]["work"] == 5
        assert declined == ref

    def test_native_non_literal_movi(self, monkeypatch):
        from repro.native.machine import (
            NativeFunction, NativeProgram, NOp, _Machine,
        )

        # leaf(x) = x * 3, with a dead MOVI of an immediate the source
        # emitter cannot spell as a literal.
        leaf = NativeFunction("leaf", 1, 3, [
            (NOp.MOVI, 1, Fraction(1, 3), 0, False),
            (NOp.MOVI, 2, 3, 0, False),
            (NOp.MUL32, 0, 0, 2, False),
            (NOp.RETV, 0, 0, 0, False),
        ], True)
        # main() sums leaf(i) for i in 0..4.
        main = NativeFunction("main", 0, 4, [
            (NOp.MOVI, 0, 0, 0, False),
            (NOp.MOVI, 1, 0, 0, False),
            (NOp.MOVI, 3, 5, 0, False),
            (NOp.LTS32, 2, 1, 3, False),
            (NOp.JZ, 10, 2, 0, False),
            (NOp.CALL, 2, ("leaf", [1]), 0, False),
            (NOp.ADD32, 0, 0, 2, False),
            (NOp.MOVI, 2, 1, 0, False),
            (NOp.ADD32, 1, 1, 2, False),
            (NOp.JMP, 3, 0, 0, False),
            (NOp.RETV, 0, 0, 0, False),
        ], True)
        program = NativeProgram(functions={"leaf": leaf, "main": main})

        def run(tier):
            _set_tier(monkeypatch, tier)
            machine = _Machine(program)
            result = machine.call("main")
            return (result, _stats_dict(machine.stats),
                    machine._profile.to_dict())

        ref = run("ref")
        assert _declined_count("native") == 0
        declined = run("codegen")
        assert _declined_count("native") == 1
        assert ref[0] == 30 and ref[2]["calls"]["leaf"] == 5
        assert declined == ref


_LOOP_C = """
int main() {
  int s = 0;
  for (int i = 1; i < 50000; i++) { s = s + i % 7; }
  return s;
}
"""


def _compile(generate, source):
    from repro.cfront import parse_c, preprocess
    return generate(parse_c(preprocess(source)))


class TestBudgetDifferential:
    """Instruction-budget exhaustion must trap at the same instruction
    with the same partial stats under both knob settings."""

    # Budgets chosen to land inside blocks, on block boundaries, and
    # barely past function entry.
    BUDGETS = (3, 11, 100, 777, 5000)

    def test_wasm(self, monkeypatch):
        from repro.backends import generate_wasm
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM
        module = _compile(generate_wasm, _LOOP_C)
        for budget in self.BUDGETS:
            snaps = []
            for tier in TIERS:
                _set_tier(monkeypatch, tier)
                inst = None
                err = None
                try:
                    # The tiniest budgets trap inside the __mem_init
                    # start function, i.e. during instantiation.
                    inst = WasmVM(max_instructions=budget)\
                        .instantiate(module, wasm_host_imports([], None))
                    inst.invoke("main")
                except TrapError as exc:
                    err = str(exc)
                assert err is not None and "budget exhausted" in err
                snaps.append((err,
                              _stats_dict(inst.stats) if inst is not None
                              else None))
            assert snaps[0] == snaps[1], f"budget={budget}"

    def test_native(self, monkeypatch):
        from repro.backends import generate_x86
        from repro.native.machine import _Machine
        program = _compile(generate_x86, _LOOP_C)
        for budget in self.BUDGETS:
            snaps = []
            for tier in TIERS:
                _set_tier(monkeypatch, tier)
                machine = _Machine(program, max_instructions=budget)
                with pytest.raises(TrapError) as excinfo:
                    machine.call("main")
                snaps.append((str(excinfo.value), _stats_dict(machine.stats),
                              machine.budget, bytes(machine.memory)))
            assert snaps[0] == snaps[1], f"budget={budget}"


# ---------------------------------------------------------------------------
# Budgets: an engine built with ``max_instructions`` runs the reference
# ladder under either knob setting, so it traps at the exact instruction;
# without a budget the same program runs translated.

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
        for tier in TIERS:
            runs[tier] = self._run(cheerp, monkeypatch, tier, total)
        assert runs["ref"][0][0] == "ok"
        assert runs["ref"] == runs["codegen"]

    def test_budget_restored_between_invokes(self, cheerp, monkeypatch):
        # The same instance can be invoked again after a budget trap:
        # each invoke sees the full budget, in every tier.
        total = self._instruction_count(cheerp, monkeypatch)
        for tier in TIERS:
            first = self._run(cheerp, monkeypatch, tier, total)
            again = self._run(cheerp, monkeypatch, tier, total)
            assert first[0][0] == "ok"
            assert first[0] == again[0]


def _budget_run_wasm(monkeypatch, tier, budget):
    from repro.wasm import WasmVM
    from tests.test_structured_loops import _nested_module

    _set_tier(monkeypatch, tier)
    inst = WasmVM(max_instructions=budget).instantiate(_nested_module())
    try:
        result = ("ok", inst.invoke("f", 20, 0))
    except TrapError as exc:
        result = ("trap", str(exc))
    return (result, _stats_dict(inst.stats),
            inst.memory.read_bytes(0, inst.memory.byte_size))


def _budget_run_native(monkeypatch, tier, budget):
    from repro.backends import generate_x86
    from repro.native.machine import _Machine

    _set_tier(monkeypatch, tier)
    machine = _Machine(_compile(generate_x86, BUDGET_C),
                       max_instructions=budget)
    try:
        result = ("ok", machine.call("main"))
    except TrapError as exc:
        result = ("trap", str(exc))
    return result, _stats_dict(machine.stats), bytes(machine.memory)


@pytest.mark.parametrize("engine", ["wasm", "native"])
def test_budgeted_engine_runs_the_reference_ladder(monkeypatch, engine):
    """Under ``REPRO_FAST_INTERP=1`` an engine built with a budget
    translates nothing: a short budget traps with the reference's
    message, stats and memory.  The same program without a budget runs
    translated."""
    run = {"wasm": _budget_run_wasm, "native": _budget_run_native}[engine]
    functions = f"interp.{engine}.codegen_functions"
    (kind, _value), ref_stats, _mem = run(monkeypatch, "ref", None)
    assert kind == "ok"
    total = int(ref_stats["instructions"])
    reset_registry()
    try:
        # (Native's RETV counts a frame's last instructions twice, so
        # its ``instructions`` overstate what a budget must cover.)
        for budget in (1, total // 3, total // 2):
            ref = run(monkeypatch, "ref", budget)
            fast = run(monkeypatch, "codegen", budget)
            assert ref[0] == ("trap", "instruction budget exhausted")
            assert fast == ref, budget
        assert get_registry().export([SCHED]).get(functions, 0) == 0
        run(monkeypatch, "codegen", None)
        assert get_registry().export([SCHED])[functions] > 0
    finally:
        reset_registry()


# ---------------------------------------------------------------------------
# GC-pause parity on the JS engine: the generated frames must publish
# the same JS roots to the collector's mark as the reference frames, so
# pause cycles (charged from live bytes) stay bit-identical — and no
# number may depend on when CPython frees an object.

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


GC_MIX_JS = """
function mix(a, i) {
  a[i % 16] = a[(i * 7) % 16] + i * 0.5;
  return a[i % 16];
}
function main() {
  var arr = [];
  for (var j = 0; j < 16; j++) { arr[j] = 0.0; }
  var obj = {hits: 0, tag: "t"};
  var s = "";
  var total = 0.0;
  for (var i = 0; i < 3000; i++) {
    arr[i % 16] = i * 1.5;
    total = total + mix(arr, i);
    obj.hits = obj.hits + 1;
    if ((i % 37) == 0) { s = s + "x" + i; }
    var tmp = [i, i + 1, i + 2, i + 3];
    total = total + tmp[0] - tmp[3];
  }
  return total + obj.hits + s.length;
}
"""


CYCLE_JS = """
function main() {
  var a, b;
  for (var i = 0; i < 4000; i++) { a = [i, 0]; b = [a]; a[1] = b; }
  return a.length + b.length;
}
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
        assert runs["ref"] == runs["codegen"]
        assert stats["gc_pause_cycles"] == \
            runs["codegen"][1]["gc_pause_cycles"]

    def test_pause_cycles_identical(self, monkeypatch):
        """GC pauses depend on *liveness* at collection time, so this
        pins the roots the generated frames publish: locals and live
        operand slots must reach exactly the heap bytes the reference
        frame's lists reach."""
        from repro.jsengine.engine import JsEngine
        snaps = []
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            engine = JsEngine()
            # Shrink the trigger so the loop collects many times.
            engine.heap.trigger_bytes = 48 * 1024
            engine.load_script(GC_MIX_JS)
            value = engine.call_global("main")
            snaps.append((value, _stats_dict(engine.stats)))
        assert snaps[0] == snaps[1]
        assert int(snaps[0][1]["gc_runs"]) > 3

    def test_cyclic_garbage_ignores_python_gc(self, monkeypatch):
        """Each iteration leaves a two-array reference cycle behind, which
        CPython frees only when its cycle collector happens to run.  The
        modeled live set is what the JS roots reach, so every stat is the
        same on both tiers whatever Python's ``gc`` settings are."""
        import gc

        from repro.jsengine.config import JsEngineConfig
        from repro.jsengine.engine import JsEngine

        settings = {"disabled": gc.disable,
                    "threshold 1": lambda: gc.set_threshold(1),
                    "default": lambda: None}
        enabled, threshold = gc.isenabled(), gc.get_threshold()
        runs = {}
        try:
            for name, apply in settings.items():
                for tier in TIERS:
                    _set_tier(monkeypatch, tier)
                    engine = JsEngine(config=JsEngineConfig(
                        gc_trigger_bytes=16 * 1024))
                    engine.load_script(CYCLE_JS)
                    apply()
                    try:
                        value = engine.call_global("main")
                    finally:
                        gc.set_threshold(*threshold)
                        gc.enable()
                    stats = engine.stats
                    runs[name, tier] = (value, stats.gc_runs,
                                        repr(stats.gc_pause_cycles),
                                        repr(stats.cycles))
        finally:
            gc.set_threshold(*threshold)
            if not enabled:
                gc.disable()
        assert len(set(runs.values())) == 1, runs
        assert runs["default", "ref"][1] > 10


# ---------------------------------------------------------------------------
# Factory lifetime: a compiled ``make`` factory is memoized beside its
# plan on the function's ``plans``, so it lives exactly as long as the
# artifact it was translated from — which ``REPRO_CACHE_MEM`` bounds.
# The cap counts entries; with the disk layer on, a program's
# translation units (two here: ``main`` and the memory initializer) stay
# out of the memory layer, so each program is one entry, its artifact.

class TestFactoryLifetime:
    CAP = 2             # programs resident at once
    UNITS = 2           # translation units per program

    def test_evicted_artifacts_free_their_factories(self, tmp_path,
                                                    monkeypatch):
        import gc
        import weakref

        from repro.cache import configure
        from repro.compilers import CheerpCompiler
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM
        from repro.wasm import codegen as wcg

        _set_tier(monkeypatch, "codegen")
        factories = []
        load = wcg.load_factory

        def spy(engine, key, build_source):
            factory = load(engine, key, build_source)
            factories[-1].append(weakref.ref(factory))
            return factory
        monkeypatch.setattr(wcg, "load_factory", spy)
        configure(root=str(tmp_path), disk=True, memory_cap=self.CAP)
        substrate.reset_cache()
        try:
            n_programs = self.CAP + 3
            for k in range(n_programs):
                factories.append([])
                source = (f"int main() {{ int s = 0; "
                          f"for (int i = 0; i < {k + 3}; i++) "
                          f"s = s + i * {k + 1}; "
                          f'printf("%d", s); return 0; }}')
                module = CheerpCompiler().compile_wasm(
                    source, name=f"life{k}").module
                inst = WasmVM().instantiate(module,
                                            wasm_host_imports([], None))
                inst.invoke("main")
                # A second instance reuses the memoized factories.
                WasmVM().instantiate(
                    module, wasm_host_imports([], None)).invoke("main")
            del module, inst
            gc.collect()
            assert [len(refs) for refs in factories] == \
                [self.UNITS] * n_programs
            alive = [[ref() is not None for ref in refs]
                     for refs in factories]
            evicted = n_programs - self.CAP
            assert alive == [[False] * len(refs)
                             for refs in factories[:evicted]] + \
                [[True] * len(refs) for refs in factories[evicted:]]
        finally:
            substrate.reset_cache()
            configure()


class TestUnitsSkipTheMemoryLayer:
    """With the disk layer on, translation units are stored on disk
    only, so a memory layer capped at N entries keeps N compiled
    artifacts however many units their programs load."""

    N = 3               # programs, each one artifact and two units

    def test_capped_store_keeps_every_artifact(self, fresh_store, tmp_path,
                                               monkeypatch):
        from repro.cache import configure, get_cache
        from repro.compilers import CheerpCompiler
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM
        from tests.conftest import cache_counts

        _set_tier(monkeypatch, "codegen")
        store = configure(root=str(tmp_path), disk=True, memory_cap=self.N)
        snap = get_registry().snapshot()
        artifacts = []
        for k in range(self.N):
            source = (f"int main() {{ int s = 0; "
                      f"for (int i = 0; i < {k + 3}; i++) "
                      f"s = s + i * {k + 1}; "
                      f'printf("%d", s); return 0; }}')
            artifacts.append(CheerpCompiler().compile_wasm(
                source, name=f"skip{k}"))
            WasmVM().instantiate(artifacts[-1].module,
                                 wasm_host_imports([], None)).invoke("main")
        counts = cache_counts(snap)
        assert store is get_cache()
        assert counts["evictions"] == 0
        resident = list(store._memory.values())
        assert len(resident) == self.N
        assert all(any(entry is artifact for entry in resident)
                   for artifact in artifacts)
        # The units were stored, on disk: a fresh process's worth of
        # memos loads every one of them back from there.
        substrate.reset_cache()
        snap = get_registry().snapshot()
        for artifact in artifacts:
            WasmVM().instantiate(artifact.module,
                                 wasm_host_imports([], None)).invoke("main")
        exported = get_registry().diff(snap)["counters"]
        assert exported["interp.wasm.codegen_cache_hits"][1] == 2 * self.N
        assert "interp.wasm.codegen_cache_misses" not in exported


# ---------------------------------------------------------------------------
# Cold vs warm compile cache: a warm process loads source + marshalled
# code objects from the persistent store instead of re-emitting, and the
# run it serves must replay identical DET counters.

class TestUnitsFollowTheStore:
    """Translation units are entries of the process's one artifact
    store, so ``configure()`` decides where they go, like every other
    entry's."""

    def _unit_keys(self, monkeypatch, name):
        """Compile and run a wasm program on the codegen tier from cold
        in-process memos; the keys of the units it loaded."""
        from repro.compilers import CheerpCompiler
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM
        from repro.wasm import codegen as wcg
        from tests.conftest import TINY_C

        _set_tier(monkeypatch, "codegen")
        keys = []
        load = wcg.load_factory

        def spy(engine, key, build_source):
            keys.append(key)
            return load(engine, key, build_source)
        monkeypatch.setattr(wcg, "load_factory", spy)
        substrate.reset_cache()
        module = CheerpCompiler().compile_wasm(TINY_C, name=name).module
        WasmVM().instantiate(module,
                             wasm_host_imports([], None)).invoke("main")
        assert keys
        return keys

    def test_units_land_under_the_configured_root(self, tmp_path,
                                                   monkeypatch):
        from repro.cache import configure

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        store = configure(root=str(tmp_path / "configured"), disk=True)
        try:
            keys = self._unit_keys(monkeypatch, "unitroot")
            assert all(os.path.isfile(os.path.join(
                store.root, store.shard_of(key), key + ".pkl"))
                for key in keys)
            assert not (tmp_path / "env").exists()
        finally:
            monkeypatch.undo()
            substrate.reset_cache()
            configure()

    def test_disk_off_writes_no_unit(self, tmp_path, monkeypatch):
        from repro.cache import configure

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        configure(disk=False)
        try:
            self._unit_keys(monkeypatch, "unitnodisk")
            assert [path for path in tmp_path.rglob("*")
                    if path.is_file()] == []
        finally:
            monkeypatch.undo()
            substrate.reset_cache()
            configure()


class TestColdWarmCache:
    @pytest.fixture(autouse=True)
    def _isolated(self, fresh_store, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        _set_tier(monkeypatch, "codegen")
        reset_registry()
        yield
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
# Source emission: the indentation buffer, the counter flush, the block
# split and the stack-depth worklist.

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

    def test_block_ranges_ignore_out_of_range_targets(self):
        # pc 1 branches to pc 4, one past the end (the function exit);
        # pc 3 branches back to pc 1.
        code = [("op",), ("br", 4), ("op",), ("br", 1)]
        ranges, index = substrate.block_ranges(code, {"br"}, {"br"})
        assert ranges == [(0, 1), (1, 2), (2, 4)]
        assert index == {0: 0, 1: 1, 2: 2}
        assert substrate.split_blocks(4, {4, 2, -1}) == [(0, 2), (2, 4)]

    def test_empty_body_has_no_blocks(self):
        def walk(*_args):
            raise AssertionError("no block to walk")
        assert substrate.block_ranges([], {"br"}, {"br"}) == ([], {})
        assert substrate.split_blocks(0, {0}) == []
        assert substrate.stack_depths([], [], {}, walk) == ({}, 0)

    @staticmethod
    def _depths(code):
        """Toy stack machine: ``("push", n)`` adds ``n`` slots (negative
        pops), ``("br", pc)`` ends a block with a jump that also falls
        through."""
        ranges, index = substrate.block_ranges(code, {"br"}, {"br"})

        def walk(ops, end, d, join):
            peak = d
            for op, arg in ops:
                if op == "push":
                    if d + arg < 0:
                        return None
                    d += arg
                    peak = max(peak, d)
                elif not join(arg, d):
                    return None
            return peak if join(end, d) else None
        return substrate.stack_depths(code, ranges, index, walk)

    def test_depth_worklist_propagates_entry_depths(self):
        code = [("push", 2), ("br", 4), ("push", -1), ("push", 1),
                ("push", -2)]
        assert self._depths(code) == ({0: 0, 1: 2, 2: 2}, 2)
        assert self._depths([("push", -1)]) is None

    def test_join_entered_at_two_depths_declines(self):
        # Block 0 reaches pc 3 at depth 0 (branch) and, through block 1,
        # at depth 1.
        assert self._depths([("br", 3), ("push", 1), ("push", 0),
                             ("push", 0)]) is None
        # The same shape in JS bytecode: JT jumps to pc 4 at depth 0,
        # the fall-through path arrives there holding one value.
        from repro.engine.codegen import block_ranges
        from repro.jsengine import codegen as jcg
        code = [(0, 1.0), (29, 4), (0, 2.0), (27, 4), (34, None)]
        ranges, index = block_ranges(code, jcg._TERM_OPS, jcg._JUMPS)
        assert jcg._analyse(code, ranges, index) is None
        code[3] = (42, None)                   # POP instead of the JMP
        ranges, index = block_ranges(code, jcg._TERM_OPS, jcg._JUMPS)
        assert jcg._analyse(code, ranges, index) == ({0: 0, 1: 0, 2: 0}, 1)


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


@pytest.mark.usefixtures("fresh_store")
class TestJsUnitSharing:

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
# The flush: one statement per counter, exact when blocks never ran and
# when a trap escapes mid-frame.

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
    def _wasm(self, cheerp, monkeypatch, tier):
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM

        _set_tier(monkeypatch, tier)
        artifact = cheerp.compile_wasm(FLUSH_C, name="cgflush")
        output = []
        inst = WasmVM().instantiate(
            artifact.module, wasm_host_imports(output, None))
        with pytest.raises(TrapError) as info:
            inst.invoke("main")
        return str(info.value), output, _stats_dict(inst.stats)

    def test_wasm_dead_blocks_and_trap(self, cheerp, monkeypatch):
        runs = {tier: self._wasm(cheerp, monkeypatch, tier)
                for tier in TIERS}
        message, output, _stats = runs["ref"]
        assert message == "integer divide by zero"
        assert output == [210]
        assert runs["ref"] == runs["codegen"]

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
        assert runs["ref"] == runs["codegen"]

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
        assert runs["ref"] == runs["codegen"]

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
        self._wasm(cheerp, monkeypatch, "codegen")
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
        from repro.engine.codegen import split_blocks
        from repro.jsengine import codegen as jcg
        from repro.jsengine.engine import JsEngine

        _set_tier(monkeypatch, "codegen")
        substrate.reset_cache()
        sources = {}
        load = jcg.load_factory

        def spy(engine_name, key, build_source):
            factory = load(engine_name, key, build_source)
            sources[key] = factory.__repro_source__
            return factory
        monkeypatch.setattr(jcg, "load_factory", spy)
        engine = JsEngine()
        engine.load_script(UNIT_JS)
        fn = engine.globals["f"]
        # The factory is memoized beside the plan: find its unit by key.
        plan = fn.plans.get((engine.config.jit_enabled, False), None)
        src = sources[plan.key]

        code = fn.code
        leaders = {0}
        for pc, (op, arg) in enumerate(code):
            if op in jcg._TERM_OPS:
                leaders.add(pc + 1)
                if op in jcg._JUMPS:
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


TRUTHY_JS = r"""
function jf(x) { if (x) { return 1; } return 0; }
function jt(x) { var r = x || "falsy"; return r === "falsy" ? 0 : 1; }
var conds = [0.0, -0.0, 0 / 0, 1.0, "", "a", undefined, {k: 1}];
for (var i = 0; i < conds.length; i++) {
  console.log(jf(conds[i]) + "" + jt(conds[i]));
}
"""


class TestJsConditionTruthiness:
    def test_jf_jt_match_the_reference_ladder(self, monkeypatch):
        """``JF`` (``if``) and ``JT`` (``||``) apply ToBoolean to numbers
        inline on the codegen tier; both tiers must agree on every value
        kind, signed zero and NaN included."""
        from repro.jsengine.engine import JsEngine

        runs = {}
        for tier in ("ref", "codegen"):
            _set_tier(monkeypatch, tier)
            engine = JsEngine()
            engine.load_script(TRUTHY_JS)
            runs[tier] = ([str(x) for x in engine.console_output],
                          _stats_dict(engine.stats))
        assert runs["ref"][0] == ["00", "00", "00", "11", "00", "11", "00",
                                  "11"]
        assert runs["codegen"] == runs["ref"]


class TestUnitNames:
    """Every name a generated unit reads is bound: a builtin, or a name
    ``make`` binds from ``ns``.  A fragment that spells an ``ns`` name
    without ``use()`` leaves it unbound in ``make``, so ``run`` would read
    it as a module global and fail only when that line executes.  Every
    unit also compiles without a ``SyntaxWarning`` (a forwarded literal
    spelled where CPython warns, such as ``'str' is u_``)."""

    @staticmethod
    def _unbound(source):
        top = symtable.symtable(source, "<unit>", "exec")
        (make,) = top.get_children()
        bound = {sym.get_name() for sym in make.get_symbols()
                 if sym.is_local()}
        missing = set()

        def walk(table):
            for sym in table.get_symbols():
                name = sym.get_name()
                if sym.is_global() and not hasattr(builtins, name):
                    missing.add(name)
                if sym.is_free() and name not in bound:
                    missing.add(name)
            for child in table.get_children():
                walk(child)
        walk(make)
        return missing

    @pytest.mark.parametrize("variant", ["plain", "profile"])
    def test_run_reads_no_unbound_global(self, cheerp, llvm_x86,
                                         monkeypatch, fresh_store,
                                         variant):
        from repro.engine.hostlib import wasm_host_imports
        from repro.jsengine import codegen as jcg
        from repro.jsengine.engine import JsEngine
        from repro.native import codegen as ncg
        from repro.native.machine import _Machine
        from repro.wasm import WasmVM
        from repro.wasm import codegen as wcg

        if variant == "profile":
            monkeypatch.setenv("REPRO_PROFILE", "1")
        else:
            monkeypatch.delenv("REPRO_PROFILE", raising=False)
        _set_tier(monkeypatch, "codegen")
        sources = []
        for mod in (wcg, ncg, jcg):
            load = mod.load_factory

            def spy(engine, key, build_source, _load=load):
                factory = _load(engine, key, build_source)
                sources.append((engine, factory.__repro_source__))
                return factory
            monkeypatch.setattr(mod, "load_factory", spy)
        substrate.reset_cache()
        try:
            module = cheerp.compile_wasm(BUDGET_C, name="cgnames").module
            WasmVM().instantiate(
                module, wasm_host_imports([], None)).invoke("main")
            program = llvm_x86.compile(BUDGET_C, name="cgnames").program
            _Machine(program).call("main")
            JsEngine().load_script(UNIT_JS)
        finally:
            substrate.reset_cache()
        assert {engine for engine, _src in sources} == \
            {"wasm", "native", "js"}
        marker = {"plain": None, "profile": "fprof"}[variant]
        for engine, src in sources:
            assert self._unbound(src) == set(), (engine, src)
            with warnings.catch_warnings():
                warnings.simplefilter("error", SyntaxWarning)
                compile(src, f"<{engine}-unit>", "exec")
            if marker and engine != "js":
                assert marker in src, (engine, src)


# ---------------------------------------------------------------------------
# The LinearMemory bounds edge, in the memory itself and in both tiers.

class TestLinearMemoryBoundsEdge:
    def test_straddling_access_traps(self):
        from repro.wasm.memory import LinearMemory
        mem = LinearMemory(min_pages=1, max_pages=1)
        limit = 65536
        mem.store_i32(limit - 4, -123)
        assert mem.load_i32(limit - 4) == -123
        # Last byte in bounds, access straddles the committed limit.
        for width, load in ((2, mem.load_u16), (4, mem.load_i32),
                            (8, mem.load_f64)):
            load(limit - width)          # flush against the edge: fine
            with pytest.raises(TrapError, match="committed"):
                load(limit - width + 1)
        with pytest.raises(TrapError, match="committed"):
            mem.store_f64(limit - 7, 1.0)
        with pytest.raises(TrapError, match="committed"):
            mem.load_u8(-1)

    def test_vm_trap_identical_both_tiers(self, monkeypatch):
        from repro.wasm import (
            FuncType, Function, WasmModule, WasmVM, validate_module,
        )
        from repro.wasm.instructions import Op, instr as I
        module = WasmModule()
        # A straddling f64 load: address 65532 with 1 committed page.
        module.add_function(Function(
            "main", FuncType((), ("f64",)), [],
            [I(Op.I32_CONST, 65532), I(Op.F64_LOAD, 0)], exported=True))
        validate_module(module)
        snaps = []
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            inst = WasmVM().instantiate(module)
            with pytest.raises(TrapError) as excinfo:
                inst.invoke("main")
            snaps.append((str(excinfo.value), _stats_dict(inst.stats)))
        assert snaps[0] == snaps[1]
        assert "out-of-bounds" in snaps[0][0]


# ---------------------------------------------------------------------------
# The interpreter-tier bench in its seconds-scale smoke mode.

class TestBenchSmoke:
    def test_bench_smoke_runs(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)])
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench.py"), "--smoke"],
            capture_output=True, text=True, timeout=570, env=env,
            cwd=str(ROOT))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "smoke ok" in result.stdout
