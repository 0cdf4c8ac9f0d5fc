"""Structured loops in the generated units.

Each natural loop of a function runs as a nested ``while True`` inside
its header's arm (:class:`~repro.engine.codegen.LoopLayout`): back edges
``continue`` it, forward jumps fall through the arms between, exits set
``bi`` and ``break`` so the enclosing chains re-dispatch them.  These
tests pin that shape against the reference ladders (stats, output and
trap point for nested loops, multi-level exits, an exit that restarts an
outer loop, traps and JS OSR inside inner loops, native loops), the
layout rules on hand-made control-flow graphs (irreducible loops and the
nesting cap are declined region by region), and the source of the
benchmark kernels: no innermost-loop back edge goes through the
function's top-level ``bi`` chain, and every trap guard rewinds a
charge suffix.
"""

from __future__ import annotations

import ast
import dataclasses

import pytest

from repro.engine.codegen import (
    BREAK, CONTINUE, FALL, MAX_LOOP_DEPTH, LoopLayout,
)
from repro.errors import TrapError
from repro.obs import SCHED, get_registry, reset_registry

TIERS = ("ref", "codegen")


def _set_tier(monkeypatch, tier):
    monkeypatch.setenv("REPRO_FAST_INTERP", "0" if tier == "ref" else "1")


def _stats_dict(stats):
    snap = dataclasses.asdict(stats)
    return {k: repr(tuple(v) if isinstance(v, list) else v)
            for k, v in snap.items()}


@pytest.fixture(autouse=True)
def _isolated(fresh_store, monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    reset_registry()
    yield
    reset_registry()


def _spy_layouts(monkeypatch, *modules):
    """Collect ``(engine, layout, source)`` of every unit built."""
    built = []
    for mod in modules:
        build = mod._FnEmitter.build

        def spy(self, _build=build, _name=mod.__name__.split(".")[1]):
            source = _build(self)
            built.append((_name, self.layout, source))
            return source
        monkeypatch.setattr(mod._FnEmitter, "build", spy)
    return built


def _loop_counts(engine):
    exported = get_registry().export([SCHED])
    return (exported.get(f"interp.{engine}.codegen_loops", 0),
            exported.get(f"interp.{engine}.codegen_loops_declined", 0))


# ---------------------------------------------------------------------------
# The layout rules on hand-made graphs (successor lists per block).

class TestLayout:
    def test_nested_loops_exits_and_transfers(self):
        # 0 → 1 (outer header) → 2 (inner header) ⇄ 3; 3 exits to 4
        # (outer latch) or, two levels out, to 5; 4 → 1 or 5.
        succs = [[1], [2], [3], [2, 4, 5], [1, 5], []]
        layout = LoopLayout(succs)
        assert layout.loops == 2 and layout.declined == 0
        assert layout.parent == {1: -1, 2: 1}
        assert layout.chains == {-1: (0, 1, 5), 1: (1, 2, 4), 2: (2, 3)}
        assert layout.bare == {1, 2}
        assert layout.post == {}
        assert layout.transfer(0, 1) == (FALL, None)
        assert layout.transfer(2, 3) == (FALL, None)
        assert layout.transfer(3, 2) == (CONTINUE, None)
        assert layout.transfer(3, 4) == (BREAK, None)
        assert layout.transfer(3, 5) == (BREAK, None)
        assert layout.transfer(4, 1) == (CONTINUE, None)

    def test_exit_to_an_outer_header_continues_after_the_inner_loop(self):
        # Block 3, inside the inner loop, jumps back to the outer header
        # (1): it breaks the inner loop, whose arm then continues.
        succs = [[1], [2, 5], [3], [2, 1, 4], [1], []]
        layout = LoopLayout(succs)
        assert layout.loops == 2
        assert layout.transfer(3, 1) == (BREAK, 2)
        assert layout.post == {2: (1,)}
        assert layout.bare == {1, 2}

    def test_backward_jump_to_a_non_header_tests_the_header(self):
        # Loop 1 ⇄ 3 → 2 → 1: 3 jumps back to 2, which does not dominate
        # it, so a ``continue`` may target 2 and the header keeps its
        # arm test.
        succs = [[1], [3], [1], [2, 4], []]
        layout = LoopLayout(succs)
        assert layout.loops == 1 and layout.declined == 0
        assert layout.chains == {-1: (0, 1, 4), 1: (1, 2, 3)}
        assert layout.transfer(1, 3) == (FALL, None)
        assert layout.transfer(3, 2) == (CONTINUE, None)
        assert layout.transfer(2, 1) == (CONTINUE, None)
        assert layout.transfer(3, 4) == (BREAK, None)
        assert layout.bare == set()

    def test_irreducible_cycle_is_declined(self):
        # 0 enters the cycle 1 ⇄ 2 at either block: no header dominates.
        succs = [[2, 1], [2], [1, 3], []]
        layout = LoopLayout(succs)
        assert layout.loops == 0 and layout.declined == 1
        assert layout.chains == {-1: (0, 1, 2, 3)}

    def test_nesting_past_the_cap_is_declined_per_region(self):
        depth = MAX_LOOP_DEPTH + 2
        # Block k < depth heads loop k; block depth + m is the latch of
        # loop depth - 1 - m, which exits to the next latch out.
        succs = [[k + 1] for k in range(depth)]
        for m in range(depth):
            succs.append([depth - 1 - m, depth + m + 1])
        succs.append([])
        layout = LoopLayout(succs)
        assert layout.loops == MAX_LOOP_DEPTH
        assert layout.declined == 2

    def test_unreachable_blocks_stay_at_the_top(self):
        succs = [[0, 2], [0], []]
        layout = LoopLayout(succs)
        assert layout.reach == {0, 2}
        assert layout.region_of == [0, -1, -1]


# ---------------------------------------------------------------------------
# Wasm: a three-deep nest with multi-level exits, ref vs codegen.

def _nested_module(trap=False):
    """``f(n, d)``: three nested loops summing into ``acc`` (local 4);
    the outer loop's header bumps ``i``.  From the innermost loop,
    ``acc > n`` exits two levels (to the outer loop's latch), ``acc > 40
    * n`` leaves all three, and ``i == 2, k == 1`` branches straight to
    the outer header.  With ``trap``, the inner body also divides by
    ``d - i``."""
    from repro.wasm import FuncType, Function, WasmModule, validate_module
    from repro.wasm.instructions import Op, instr as I

    def inc_below(local, limit, depth):
        return [I(Op.LOCAL_GET, local), I(Op.I32_CONST, 1), I(Op.I32_ADD),
                I(Op.LOCAL_TEE, local), I(Op.I32_CONST, limit),
                I(Op.I32_LT_S), I(Op.BR_IF, depth)]

    inner = [
        I(Op.LOCAL_GET, 4), I(Op.LOCAL_GET, 2), I(Op.LOCAL_GET, 3),
        I(Op.I32_MUL), I(Op.I32_ADD), I(Op.LOCAL_GET, 5), I(Op.I32_ADD),
        I(Op.LOCAL_SET, 4),
    ]
    if trap:
        inner += [I(Op.I32_CONST, 1000), I(Op.LOCAL_GET, 1),
                  I(Op.LOCAL_GET, 2), I(Op.I32_SUB), I(Op.I32_DIV_S),
                  I(Op.LOCAL_GET, 4), I(Op.I32_ADD), I(Op.LOCAL_SET, 4)]
    inner += [
        # Two levels out: past the middle loop, to the outer latch.
        I(Op.LOCAL_GET, 4), I(Op.LOCAL_GET, 0), I(Op.I32_GT_S),
        I(Op.BR_IF, 2),
        # All the way out.
        I(Op.LOCAL_GET, 4), I(Op.LOCAL_GET, 0), I(Op.I32_CONST, 40),
        I(Op.I32_MUL), I(Op.I32_GT_S), I(Op.BR_IF, 4),
        # Restart the outer loop with the next i.
        I(Op.LOCAL_GET, 2), I(Op.I32_CONST, 2), I(Op.I32_EQ),
        I(Op.LOCAL_GET, 5), I(Op.I32_CONST, 1), I(Op.I32_EQ),
        I(Op.I32_AND), I(Op.BR_IF, 3),
        *inc_below(5, 3, 0),
    ]
    body = [
        I(Op.BLOCK),
        I(Op.LOOP),
        I(Op.LOCAL_GET, 2), I(Op.I32_CONST, 1), I(Op.I32_ADD),
        I(Op.LOCAL_SET, 2),
        I(Op.I32_CONST, 0), I(Op.LOCAL_SET, 3),
        I(Op.BLOCK),
        I(Op.LOOP),
        I(Op.I32_CONST, 0), I(Op.LOCAL_SET, 5),
        I(Op.LOOP), *inner, I(Op.END),
        *inc_below(3, 4, 0),
        I(Op.END),
        I(Op.END),
        I(Op.LOCAL_GET, 2), I(Op.I32_CONST, 5), I(Op.I32_LT_S),
        I(Op.BR_IF, 0),
        I(Op.END),
        I(Op.END),
        I(Op.LOCAL_GET, 4), I(Op.LOCAL_GET, 2), I(Op.I32_CONST, 1000),
        I(Op.I32_MUL), I(Op.I32_ADD),
    ]
    module = WasmModule()
    module.add_function(Function("f", FuncType(("i32", "i32"), ("i32",)),
                                 ["i32", "i32", "i32", "i32"], body,
                                 exported=True))
    validate_module(module)
    return module


def _run_wasm(monkeypatch, tier, module, *args):
    from repro.wasm import WasmVM

    _set_tier(monkeypatch, tier)
    inst = WasmVM().instantiate(module)
    try:
        result = ("ok", inst.invoke("f", *args))
    except TrapError as exc:
        result = ("trap", str(exc))
    return result, _stats_dict(inst.stats)


class TestWasmNest:
    @pytest.mark.parametrize("n", [-1, 3, 20, 60, 400, 10 ** 6])
    def test_multi_level_exits_match_reference(self, monkeypatch, n):
        from repro.wasm import codegen as wcg

        built = _spy_layouts(monkeypatch, wcg)
        module = _nested_module()
        runs = {tier: _run_wasm(monkeypatch, tier, module, n, 0)
                for tier in TIERS}
        assert runs["ref"][0][0] == "ok"
        assert runs["codegen"] == runs["ref"]
        (_engine, layout, source), = built
        assert layout.loops == 3 and layout.declined == 0
        assert _loop_counts("wasm") == (3, 0)
        # The exit that restarts the outer loop leaves the middle one
        # (it breaks the innermost, then the middle chain's arms miss),
        # and that loop's arm continues the outer one.
        (outer,) = [h for h, p in layout.parent.items() if p == -1]
        assert list(layout.post.values()) == [(outer,)]
        assert source.count("while True:") == 4
        lines = [line.strip() for line in source.splitlines()]
        post = [i for i, line in enumerate(lines)
                if line == f"if bi == {outer}:"][1:]
        assert len(post) == 1 and lines[post[0] + 1] == "continue"

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 9])
    def test_trap_in_the_inner_loop_matches_reference(self, monkeypatch, d):
        module = _nested_module(trap=True)
        runs = {tier: _run_wasm(monkeypatch, tier, module, 10 ** 6, d)
                for tier in TIERS}
        expect = "trap" if 1 <= d <= 5 else "ok"
        assert runs["ref"][0][0] == expect
        assert runs["codegen"] == runs["ref"]


def _if_else_module():
    """``f(n, d)``: one loop whose body has an if/else, a forward jump
    to the latch (skipping the body's tail) and a forward exit past the
    latch."""
    from repro.wasm import FuncType, Function, WasmModule, validate_module
    from repro.wasm.instructions import Op, instr as I

    body = [
        I(Op.BLOCK),                      # exit target
        I(Op.LOOP),
        I(Op.BLOCK),                      # the latch follows its end
        # if (i & 1) acc += i else acc -= 3
        I(Op.LOCAL_GET, 2), I(Op.I32_CONST, 1), I(Op.I32_AND), I(Op.IF),
        I(Op.LOCAL_GET, 3), I(Op.LOCAL_GET, 2), I(Op.I32_ADD),
        I(Op.LOCAL_SET, 3),
        I(Op.ELSE),
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, 3), I(Op.I32_SUB),
        I(Op.LOCAL_SET, 3),
        I(Op.END),
        # i % 4 == 0: straight to the latch.
        I(Op.LOCAL_GET, 2), I(Op.I32_CONST, 3), I(Op.I32_AND),
        I(Op.I32_EQZ), I(Op.BR_IF, 0),
        # acc > d: out of the loop, past the latch.
        I(Op.LOCAL_GET, 3), I(Op.LOCAL_GET, 1), I(Op.I32_GT_S),
        I(Op.BR_IF, 2),
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, 7), I(Op.I32_MUL),
        I(Op.LOCAL_SET, 3),
        I(Op.END),
        # latch
        I(Op.LOCAL_GET, 2), I(Op.I32_CONST, 1), I(Op.I32_ADD),
        I(Op.LOCAL_TEE, 2), I(Op.LOCAL_GET, 0), I(Op.I32_LT_S),
        I(Op.BR_IF, 0),
        I(Op.END),
        I(Op.END),
        I(Op.LOCAL_GET, 3), I(Op.LOCAL_GET, 2), I(Op.I32_ADD),
    ]
    module = WasmModule()
    module.add_function(Function("f", FuncType(("i32", "i32"), ("i32",)),
                                 ["i32", "i32"], body, exported=True))
    validate_module(module)
    return module


@pytest.mark.parametrize("n, d", [(0, 5), (9, 10 ** 9), (30, 10 ** 9),
                                  (30, 4000), (30, -1)])
def test_wasm_if_else_and_forward_jumps_match_reference(monkeypatch, n, d):
    from repro.wasm import codegen as wcg

    built = _spy_layouts(monkeypatch, wcg)
    module = _if_else_module()
    runs = {tier: _run_wasm(monkeypatch, tier, module, n, d)
            for tier in TIERS}
    assert runs["ref"][0][0] == "ok"
    assert runs["codegen"] == runs["ref"]
    (_engine, layout, source), = built
    assert layout.loops == 1 and layout.bare
    # The if/else arms and the jump to the latch fall forward: the only
    # ``continue`` is the back edge.
    assert source.count("continue") == 1


# ---------------------------------------------------------------------------
# The nesting cap, end to end: a unit CPython could not compile with
# every loop structured still runs, with the deepest loops declined.

def _deep_module(depth):
    """``f(n, d)``: ``depth`` nested loops, each running twice at most
    on one shared counter, a division by ``d`` in the innermost."""
    from repro.wasm import FuncType, Function, WasmModule, validate_module
    from repro.wasm.instructions import Op, instr as I

    body = [I(Op.LOOP)] * depth
    body += [I(Op.I32_CONST, 100), I(Op.LOCAL_GET, 1), I(Op.I32_DIV_S),
             I(Op.LOCAL_GET, 2), I(Op.I32_ADD), I(Op.LOCAL_SET, 2)]
    for _level in range(depth):
        body += [I(Op.LOCAL_GET, 2), I(Op.I32_CONST, 1), I(Op.I32_ADD),
                 I(Op.LOCAL_TEE, 2), I(Op.LOCAL_GET, 0), I(Op.I32_LT_S),
                 I(Op.BR_IF, 0), I(Op.END)]
    body += [I(Op.LOCAL_GET, 2)]
    module = WasmModule()
    module.add_function(Function("f", FuncType(("i32", "i32"), ("i32",)),
                                 ["i32"], body, exported=True))
    validate_module(module)
    return module


@pytest.mark.parametrize("d", [1, 7, 0])
def test_region_past_the_nesting_cap_is_declined(monkeypatch, d):
    from repro.wasm import codegen as wcg

    depth = MAX_LOOP_DEPTH + 1
    built = _spy_layouts(monkeypatch, wcg)
    module = _deep_module(depth)
    runs = {tier: _run_wasm(monkeypatch, tier, module, 5000, d)
            for tier in TIERS}
    assert runs["ref"][0][0] == ("trap" if d == 0 else "ok")
    assert runs["codegen"] == runs["ref"]
    (_engine, layout, source), = built
    assert (layout.loops, layout.declined) == (MAX_LOOP_DEPTH, 1)
    assert _loop_counts("wasm") == (MAX_LOOP_DEPTH, 1)
    # The trap guard sits in the innermost arm, at the deepest nesting
    # CPython accepts.
    assert source.count("while True:") == MAX_LOOP_DEPTH + 1
    assert "except BaseException:" in source


# ---------------------------------------------------------------------------
# JS: break/continue in nested loops, OSR tier-up in the inner loop.

LOOPS_JS = r"""
function f(n) {
  var s = 0;
  for (var i = 0; i < n; i++) {
    var j = 0;
    while (true) {
      j++;
      if (j % 3 == 0) { continue; }
      if (j > i + 40) { break; }
      s = s + i * j;
      if (s > 100000) { s = s - 99991; }
    }
    if (i % 7 == 6) { continue; }
    s = s + 1;
  }
  return s;
}
var t = 0;
for (var k = 0; k < 3; k++) { t = t + f(30 + k); }
console.log(t);
"""


def test_js_nested_break_continue_and_osr_match_reference(monkeypatch):
    from repro.env import chrome_desktop
    from repro.jsengine import codegen as jcg
    from repro.jsengine.engine import JsEngine

    built = _spy_layouts(monkeypatch, jcg)
    runs = {}
    for tier in TIERS:
        _set_tier(monkeypatch, tier)
        engine = JsEngine(config=chrome_desktop().js)
        engine.load_script(LOOPS_JS)
        runs[tier] = ([str(x) for x in engine.console_output],
                      _stats_dict(engine.stats))
    assert int(runs["ref"][1]["tier_ups"]) > 0       # OSR happened
    assert runs["codegen"] == runs["ref"]
    layouts = [layout for _e, layout, _s in built]
    assert sum(layout.loops for layout in layouts) == 3
    assert all(layout.declined == 0 for layout in layouts)
    (f_source,) = [s for _e, layout, s in built if layout.loops == 2]
    # The OSR check sits on the inner back edge, which continues its
    # own loop.
    after_osr = f_source.split("tier_up(fn)")[1].splitlines()
    assert after_osr[2].strip() == "continue"           # after the rebind


# ---------------------------------------------------------------------------
# Native: compiled C loops and a hand-made irreducible cycle.

LOOPS_C = r"""
int work(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      if ((i + j) % 3 == 0) s += i; else s -= j;
      if (j == i) continue;
      if (s > 1000) break;
      s = s ^ j;
    }
    if (s < -500) break;
  }
  return s;
}
int main() {
  int t = 0;
  for (int k = 0; k < 12; k++) t = t + work(k * 3);
  printf("%d", t);
  return 0;
}
"""


def test_native_nested_loops_match_reference(monkeypatch, llvm_x86):
    from repro.native import codegen as ncg
    from repro.native.machine import _Machine

    built = _spy_layouts(monkeypatch, ncg)
    program = llvm_x86.compile(LOOPS_C, name="nest").program
    runs = {}
    for tier in TIERS:
        _set_tier(monkeypatch, tier)
        machine = _Machine(program)
        machine.call("main")
        runs[tier] = _stats_dict(machine.stats)
    assert runs["codegen"] == runs["ref"]
    assert sum(layout.loops for _e, layout, _s in built) >= 3
    assert _loop_counts("native")[0] >= 3


@pytest.mark.parametrize("entry", [0, 1])
def test_native_irreducible_cycle_matches_reference(monkeypatch, entry):
    from repro.native import codegen as ncg
    from repro.native.machine import NativeFunction, NativeProgram, _Machine

    code = [
        (0, 1, 0, 0, False),              # r1 = 0
        (0, 3, 1, 0, False),              # r3 = 1
        (0, 4, 10, 0, False),             # r4 = 10
        (90, 5, 0, 0, False),             # jnz r0 -> 5: enter at 5
        (2, 1, 1, 3, False),              # 4: r1 += r3 (falls into 5)
        (2, 1, 1, 3, False),              # 5: r1 += r3
        (36, 5, 1, 4, False),             # r5 = r1 < r4
        (90, 4, 5, 0, False),             # jnz r5 -> 4: the cycle 4 ⇄ 5
        (93, 0, 1, 0, False),             # return r1
    ]
    fn = NativeFunction("f", 1, 6, code, returns_value=True)
    program = NativeProgram("irreducible", {"f": fn})
    built = _spy_layouts(monkeypatch, ncg)
    runs = {}
    for tier in TIERS:
        _set_tier(monkeypatch, tier)
        machine = _Machine(program)
        runs[tier] = (machine.call("f", entry), _stats_dict(machine.stats))
    assert runs["ref"][0] == 10 + entry
    assert runs["codegen"] == runs["ref"]
    (_engine, layout, _source), = built
    assert (layout.loops, layout.declined) == (0, 1)
    assert _loop_counts("native") == (0, 1)


def test_native_loop_with_a_tested_header_matches_reference(monkeypatch):
    """A loop whose body also jumps back to a block other than its
    header (which does not dominate the jump) keeps the header's arm
    test: the layout of ``TestLayout``'s tested-header graph."""
    from repro.native import codegen as ncg
    from repro.native.machine import NativeFunction, NativeProgram, _Machine

    code = [
        (0, 1, 0, 0, False),              # r1 = 0
        (0, 3, 1, 0, False),              # r3 = 1
        (0, 4, 20, 0, False),             # r4 = 20
        (2, 1, 1, 3, False),              # 3 (header): r1 += 1
        (88, 7, 0, 0, False),             # jmp -> 7
        (2, 1, 1, 1, False),              # 5: r1 += r1
        (88, 3, 0, 0, False),             # jmp -> 3 (the back edge)
        (36, 5, 1, 4, False),             # 7: r5 = r1 < r4
        (90, 5, 5, 0, False),             # jnz r5 -> 5 (back, not a header)
        (93, 0, 1, 0, False),             # return r1
    ]
    fn = NativeFunction("f", 0, 6, code, returns_value=True)
    program = NativeProgram("tested", {"f": fn})
    built = _spy_layouts(monkeypatch, ncg)
    runs = {}
    for tier in TIERS:
        _set_tier(monkeypatch, tier)
        machine = _Machine(program)
        runs[tier] = (machine.call("f"), _stats_dict(machine.stats))
    assert runs["ref"][0] == 31
    assert runs["codegen"] == runs["ref"]
    (_engine, layout, source), = built
    assert (layout.loops, layout.declined) == (1, 0)
    assert not layout.bare
    assert source.count("if bi == 1:") == 2       # region arm, header arm


# ---------------------------------------------------------------------------
# Source shape on the benchmark kernels: every loop is structured, and no
# innermost-loop back edge is ``bi = …; continue`` to the top level.

QUICK_SET = ("covariance", "gemm", "3mm", "atax", "cholesky", "lu",
             "trisolv", "floyd-warshall", "jacobi-2d", "heat-3d", "ADPCM",
             "AES", "SHA", "DFADD", "MIPS")
PAIRS = (("wasm", "cheerp"), ("wasm", "emscripten"), ("js", "cheerp"),
         ("x86", "llvm-x86"))


def _top_level_jumps(source):
    """``bi`` targets of the ``continue``\\ s that restart the unit's
    top-level ``while``, and the headers of the nested ``while``\\ s."""
    run = ast.parse(source).body[0].body[-2]
    top_loop = next(node for node in ast.walk(run)
                    if isinstance(node, ast.While))
    top_targets, nested = [], []

    def walk(stmts, loop):
        prev = None
        for st in stmts:
            if isinstance(st, ast.Continue) and loop is top_loop:
                top_targets.append(prev)
            if isinstance(st, ast.While):
                walk(st.body, st)
            else:
                for name in ("body", "orelse", "finalbody"):
                    walk(getattr(st, name, None) or [], loop)
                for handler in getattr(st, "handlers", None) or []:
                    walk(handler.body, loop)
            if isinstance(st, ast.If) and isinstance(st.body[0], ast.While):
                nested.append(st.test.comparators[0].value)
            is_bi = isinstance(st, ast.Assign) and \
                isinstance(st.targets[0], ast.Name) and \
                st.targets[0].id == "bi"
            prev = st.value.value if is_bi else None

    walk(top_loop.body, top_loop)
    return top_targets, nested


def _kernel_units(monkeypatch):
    """``(engine, layout, source)`` of every unit the kernels' XS cells
    build."""
    from repro.jsengine import codegen as jcg
    from repro.native import codegen as ncg
    from repro.service.cells import run_cell
    from repro.service.requests import CellSpec
    from repro.wasm import codegen as wcg

    monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
    _set_tier(monkeypatch, "codegen")
    built = _spy_layouts(monkeypatch, wcg, jcg, ncg)
    for benchmark in QUICK_SET:
        for target, toolchain in PAIRS:
            run_cell(CellSpec(benchmark, target, toolchain, "O2", "XS",
                              "chrome-desktop", 1))
    assert {engine for engine, _l, _s in built} == \
        {"wasm", "jsengine", "native"}
    return built


def test_kernel_inner_loops_do_not_dispatch_through_the_top(monkeypatch):
    built = _kernel_units(monkeypatch)
    innermost_total = 0
    for engine, layout, source in built:
        assert layout.declined == 0, (engine, source)
        innermost = {h for h in layout.parent
                     if h not in layout.parent.values()}
        innermost_total += len(innermost)
        top_targets, nested = _top_level_jumps(source)
        assert not innermost & set(top_targets), (engine, source)
        assert set(layout.parent) == set(nested), (engine, source)
    assert innermost_total > 100


def test_kernel_units_have_one_rewind_and_no_budget_path(monkeypatch):
    """Every trap guard of the kernels' units rewinds something (a trap on
    a block's last op takes no guard), and no unit reaches for a
    budget or hands its frame to the reference ladder."""
    guards = 0
    for engine, _layout, source in _kernel_units(monkeypatch):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                assert node.id not in ("run_from", "deopt"), (engine, source)
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("_instr_budget", "budget"), \
                    (engine, source)
            if isinstance(node, ast.ExceptHandler):
                guards += 1
                assert not (len(node.body) == 1
                            and isinstance(node.body[0], ast.Raise)), \
                    (engine, source)
    assert guards > 100
