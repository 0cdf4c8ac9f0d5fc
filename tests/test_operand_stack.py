"""The abstract operand stack of the wasm and JS translators.

Inside a block, the translators forward locals, literals and copies of
held slots to the op that consumes them, defer wasm comparisons to the
branch that tests them, and fold type tests on operands whose type is
known (``engine/codegen.py``, :class:`OperandStack`).  These tests pin
the hazards of that forwarding against the reference ladders (a local
overwritten while its old value is still on the stack, a comparison
whose operand is overwritten before its branch, a collection while
forwarded entries are live) and the shape of the generated source:
forwarded values are written out only at block end, and a loop header's
compare/eqz/br_if is one ``if``.
"""

from __future__ import annotations

import dataclasses
import re
import warnings

import pytest

from repro.errors import TrapError

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
    # A SyntaxWarning while compiling a unit (``'str' is u_``, say) is a
    # translation bug: make it fail the test.
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        yield


def _spy_sources(monkeypatch, *modules):
    """Collect ``(engine, source)`` of every unit the translators load."""
    sources = []
    for mod in modules:
        load = mod.load_factory

        def spy(engine, key, build_source, _load=load):
            factory = _load(engine, key, build_source)
            sources.append((engine, factory.__repro_source__))
            return factory
        monkeypatch.setattr(mod, "load_factory", spy)
    return sources


# ---------------------------------------------------------------------------
# JS: forwarding hazards, ref vs codegen.

HAZARD_JS = {
    # The old ``a`` is on the stack when the assignment overwrites it.
    "assign_in_operand": r"""
function f(a) { return a + (a = 2); }
function g(a, b) { return (a = b) * 10 + a - (b = a + 1) + b; }
console.log(f(5)); console.log(g(3, 4));
""",
    "chained_assignment": r"""
function f(z) {
  var x, y, w;
  x = y = w = z;
  y = y + 1;
  x = x + (x = y = 7) + y;
  return x * 100 + y * 10 + w;
}
console.log(f(3));
""",
    "index_assignment": r"""
function f() {
  var a = [10, 20, 30, 40];
  var i = 1;
  a[i] = (i = 3);
  a[i] += (i = 0) + 5;
  var j = a[i]++ + a[i];
  return a.join(",") + ";" + i + ";" + j;
}
console.log(f());
""",
    "typeof_literals": r"""
function f(x) {
  var t = typeof "s" + typeof 1 + typeof true + typeof undefined +
          typeof null + typeof f + typeof x + typeof (x - 1) +
          typeof (x < 2) + typeof -0;
  return t;
}
console.log(f(1)); console.log(f("q"));
""",
    "constant_conditions": r"""
function f(n) {
  var s = 0;
  if (1) { s = s + 1; }
  if (0) { s = s + 100; }
  if ("") { s = s + 1000; }
  if ("a") { s = s + 10000; }
  if (null) { s = s - 1; }
  if (undefined) { s = s - 2; }
  while (true) { s = s + 2; if (s > n) { break; } }
  do { s = s + 1; } while (false);
  var b = 0 || "or";
  var c = 1 && "and";
  return s + b + c + !0 + !"" + !1;
}
console.log(f(9));
""",
    "known_kinds": r"""
function f(x, y) {
  var a = (x - 1) < (y * 2);
  var b = !a;
  var c = (x & 1) === 1;
  var d = (x >> 1) !== (y | 0);
  var e = ((x * 1) + (y * 1)) + (-x) + (~y) + (-7 & x) + (x | -1) +
          (-x >> 1) + (x >>> -1) + (1 << -1) + Math.imul(x, -3) +
          (x & 3000000000) + (x | 4294967297) + (x << 4294967297);
  var s = 0;
  if (a) { s = s + 1; }
  if (b) { s = s + 2; }
  if (c) { s = s + 4; }
  if (d) { s = s + 8; }
  if (x - x) { s = s + 16; }
  if (x / 0) { s = s + 32; }
  return s + ";" + e + ";" + (a + b) + (c === true) + (x * 1 === y * 1) +
         ((x < 9) === 1) + ((x | 0) !== true);
}
console.log(f(5, 3)); console.log(f(-4, -2)); console.log(f("7", 7));
console.log(f(0 / 0, 1));
""",
}


def _run_js(monkeypatch, tier, script, **config):
    from repro.jsengine.config import JsEngineConfig
    from repro.jsengine.engine import JsEngine

    _set_tier(monkeypatch, tier)
    engine = JsEngine(config=JsEngineConfig(**config))
    engine.load_script(script)
    return [str(x) for x in engine.console_output], \
        _stats_dict(engine.stats)


@pytest.mark.parametrize("name", sorted(HAZARD_JS))
def test_js_hazard_matches_reference(monkeypatch, name):
    from repro.jsengine import codegen as jcg

    sources = _spy_sources(monkeypatch, jcg)
    runs = {tier: _run_js(monkeypatch, tier, HAZARD_JS[name])
            for tier in TIERS}
    assert sources                          # the codegen tier ran
    assert runs["codegen"] == runs["ref"]


def test_js_typeof_literal_folds(monkeypatch):
    from repro.jsengine import codegen as jcg

    sources = _spy_sources(monkeypatch, jcg)
    _run_js(monkeypatch, "codegen", HAZARD_JS["typeof_literals"])
    (src,) = [s for _e, s in sources if "'boolean'" in s]
    assert not re.search(r"'[a-z]*' is ", src)
    assert "isinstance(l0, float)" in src   # ``typeof x`` still tests


GC_FORWARD_JS = r"""
function pair(a, b) { return a.length + b.length; }
function g(o, n) {
  var total = 0;
  var keep = [];
  for (var i = 0; i < n; i++) {
    total = total + o.k + [o, i, "x" + i].length + ({a: o}).a.k +
            (keep[i % 8] = [i, i + 1]).length;
    // The stored array is reachable only through the store's result,
    // a forwarded entry, when ``[o, i]`` allocates.
    total = total + pair(([0][0] = [i, i + 1, i + 2]), [o, i]);
  }
  return total + keep.length;
}
console.log(g({k: 2}, 400));
"""


def test_js_gc_with_forwarded_operands(monkeypatch):
    """Collections run while forwarded locals, literals and a store's
    result are live on the abstract stack; the roots the frame publishes
    must reach exactly the bytes the reference frame's lists reach."""
    runs = {tier: _run_js(monkeypatch, tier, GC_FORWARD_JS,
                          gc_trigger_bytes=4096)
            for tier in TIERS}
    assert int(runs["ref"][1]["gc_runs"]) > 5
    assert runs["codegen"] == runs["ref"]


# ---------------------------------------------------------------------------
# Wasm: forwarding hazards, ref vs codegen.

def _hazard_module():
    """``f(p)`` over locals ``l1..l3`` (``l3`` keeps ``p``).  Each step
    computes a value the forwarding could get wrong, and every later
    step depends on it."""
    from repro.wasm import FuncType, Function, WasmModule, validate_module
    from repro.wasm.instructions import Op, instr as I

    module = WasmModule()
    triple = [I(Op.LOCAL_GET, 0), I(Op.I32_CONST, 3), I(Op.I32_MUL)]
    module.add_function(Function("triple", FuncType(("i32",), ("i32",)),
                                 [], triple))
    body = [
        I(Op.LOCAL_GET, 0), I(Op.LOCAL_SET, 3),
        # A ``local.get 0`` value stays on the stack across ``local.set
        # 0`` and ``local.tee 0``: l1 = p + 5 + (p + 5 + 1).
        I(Op.LOCAL_GET, 0), I(Op.I32_CONST, 5), I(Op.LOCAL_SET, 0),
        I(Op.LOCAL_GET, 0), I(Op.I32_ADD), I(Op.LOCAL_TEE, 0),
        I(Op.LOCAL_GET, 0), I(Op.I32_CONST, 1), I(Op.LOCAL_TEE, 0),
        I(Op.I32_ADD), I(Op.I32_ADD), I(Op.LOCAL_SET, 1),
        # A comparison reads l1, which is overwritten before the
        # ``br_if`` that tests it.
        I(Op.LOCAL_GET, 1), I(Op.LOCAL_SET, 2),
        I(Op.BLOCK),
        I(Op.LOCAL_GET, 1), I(Op.I32_CONST, 10), I(Op.I32_LT_S),
        I(Op.I32_CONST, 99), I(Op.LOCAL_SET, 1),
        I(Op.BR_IF, 0),
        I(Op.LOCAL_GET, 1), I(Op.I32_CONST, 7), I(Op.I32_ADD),
        I(Op.LOCAL_SET, 1),
        I(Op.END),
        # eqz of a comparison, as a select condition.
        I(Op.LOCAL_GET, 2), I(Op.LOCAL_GET, 1),
        I(Op.LOCAL_GET, 2), I(Op.I32_CONST, 20), I(Op.I32_GT_S),
        I(Op.I32_EQZ), I(Op.SELECT), I(Op.LOCAL_SET, 2),
        # A comparison of two computed values reads their slots
        # (p + 1 < p - 1: false); the value computed next into one of
        # them (3p + 100) must not change it.
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, 1), I(Op.I32_ADD),
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, 1), I(Op.I32_SUB),
        I(Op.I32_LT_S),
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, 3), I(Op.I32_MUL),
        I(Op.I32_CONST, 100), I(Op.I32_ADD),
        I(Op.I32_ADD), I(Op.LOCAL_SET, 2),
        # ... nor may writing a forwarded local (-1000) out into one of
        # them (p - 1 >= p + 1: false).
        I(Op.I32_CONST, -1000), I(Op.LOCAL_SET, 1),
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, 1), I(Op.I32_SUB),
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, 1), I(Op.I32_ADD),
        I(Op.I32_GE_S),
        I(Op.LOCAL_GET, 1), I(Op.I32_CONST, 5), I(Op.LOCAL_SET, 1),
        I(Op.I32_ADD), I(Op.LOCAL_GET, 2), I(Op.I32_ADD),
        I(Op.LOCAL_SET, 2),
        # A forwarded local below an ``if``: both successors read it
        # from its slot (which last held l1 = p + 77).
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, 77), I(Op.I32_ADD),
        I(Op.LOCAL_SET, 1),
        I(Op.LOCAL_GET, 2),
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, 0), I(Op.I32_GT_S),
        I(Op.I32_EQZ), I(Op.IF),
        I(Op.I32_CONST, 8), I(Op.LOCAL_SET, 2),
        I(Op.END),
        I(Op.LOCAL_GET, 2), I(Op.I32_ADD), I(Op.LOCAL_SET, 2),
        # A forwarded local below a call's argument: the block after the
        # call is entered with it written out.
        I(Op.LOCAL_GET, 1), I(Op.LOCAL_GET, 3), I(Op.CALL, 0),
        I(Op.I32_ADD),
        I(Op.LOCAL_GET, 2), I(Op.I32_ADD),
        # Literal shift counts.
        I(Op.I32_CONST, 33), I(Op.I32_SHL),
        I(Op.LOCAL_GET, 3), I(Op.I32_CONST, -1), I(Op.I32_SHR_U),
        I(Op.I32_XOR),
    ]
    module.add_function(Function("f", FuncType(("i32",), ("i32",)),
                                 ["i32", "i32", "i32"], body,
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


@pytest.mark.parametrize("arg", [-3, 0, 2, 9, 40, -2 ** 31])
def test_wasm_hazard_matches_reference(monkeypatch, arg):
    from repro.wasm import codegen as wcg

    sources = _spy_sources(monkeypatch, wcg)
    module = _hazard_module()
    runs = {tier: _run_wasm(monkeypatch, tier, module, arg)
            for tier in TIERS}
    assert {e for e, _s in sources} == {"wasm"}
    assert runs["ref"][0][0] == "ok"
    assert runs["codegen"] == runs["ref"]


def test_wasm_comparison_chain(monkeypatch):
    """A chain of 400 comparisons, each comparing the last one's result:
    deferred tests must not nest into source CPython refuses to compile
    (it caps nested parentheses at 200)."""
    from repro.wasm import FuncType, Function, WasmModule, validate_module
    from repro.wasm.instructions import Op, instr as I

    body = [I(Op.LOCAL_GET, 0)]
    for i in range(400):
        body += [I(Op.I32_CONST, i % 3), I(Op.I32_LT_S)]
    module = WasmModule()
    module.add_function(Function("f", FuncType(("i32",), ("i32",)), [],
                                 body, exported=True))
    validate_module(module)
    for arg in (-1, 1):
        runs = {tier: _run_wasm(monkeypatch, tier, module, arg)
                for tier in TIERS}
        assert runs["ref"][0][0] == "ok"
        assert runs["codegen"] == runs["ref"]


# ---------------------------------------------------------------------------
# Source shape: no copies but the write-outs at block end, and a loop
# header's compare/eqz/br_if as one ``if``.

SHAPE_C = r"""
double buf[64];
int work(int n, int k) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    s = s + (i ^ k) * 3;
    if ((s & 128) == 0) s = s >> 2;
    buf[i & 63] = buf[i & 63] * 0.5 + s;
  }
  return s;
}
int main() {
  int t = 0;
  for (int k = 0; k < 5; k++) t = t + work(40, k);
  printf("%d", t);
  return 0;
}
"""

#: ``sK = lJ`` or ``sK = <literal>``: a copy the abstract stack forwards.
_COPY = re.compile(
    r"s\d+ = (l\d+|\(?-?\d[\d.e+-]*\)?|'[^']*'|True|False|None|"
    r"float\('[-a-z]+'\)|K\[\d+\])$")

#: The first line of a block's terminator (or its fall-through jump),
#: which every write-out run must lead straight into.
_TERM_START = {
    "wasm": re.compile(r"(if |bi = |stats\.calls \+= 1$|return )"),
    "js": re.compile(r"(cyc \+= c(27|28|29|30|31|32|44)$|bi = )"),
}


def _arms(src):
    """The stripped body lines of each ``if bi == k:`` arm."""
    arms, current, indent = [], None, None
    for line in src.splitlines():
        stripped = line.strip()
        depth = len(line) - len(line.lstrip())
        if stripped.startswith("if bi == "):
            current, indent = [], depth
            arms.append(current)
        elif current is not None and stripped:
            if depth <= indent:
                current = None
            else:
                current.append(stripped)
    return arms


def _kernel_sources(monkeypatch, cheerp):
    from repro.env import DESKTOP, chrome_desktop
    from repro.harness import PageRunner
    from repro.jsengine import codegen as jcg
    from repro.wasm import codegen as wcg

    _set_tier(monkeypatch, "codegen")
    sources = _spy_sources(monkeypatch, wcg, jcg)
    runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=1)
    outs = [runner.run_wasm(cheerp.compile_wasm(SHAPE_C, name="shape")),
            runner.run_js(cheerp.compile_js(SHAPE_C, name="shape"))]
    assert [str(m.output) for m in outs] == ["[805]", "[805.0]"]
    return sources


def test_copies_only_at_block_end(monkeypatch, cheerp):
    sources = _kernel_sources(monkeypatch, cheerp)
    assert {e for e, _s in sources} == {"wasm", "js"}
    write_outs = 0
    for engine, src in sources:
        for arm in _arms(src):
            for i, line in enumerate(arm):
                if not _COPY.match(line):
                    continue
                write_outs += 1
                rest = [x for x in arm[i + 1:] if not _COPY.match(x)]
                assert rest and _TERM_START[engine].match(rest[0]), \
                    (engine, line, arm)
                assert all(_COPY.match(x) for x in
                           arm[i + 1:arm.index(rest[0], i + 1)]), (engine, arm)
    assert write_outs                       # block-end write-outs exist


def test_loop_header_is_one_if(monkeypatch, cheerp):
    sources = _kernel_sources(monkeypatch, cheerp)
    wasm = [s for e, s in sources if e == "wasm"]
    work = [s for s in wasm if "frames_" in s]
    assert len(work) == 1
    # ``i < n`` / eqz / br_if of the ``for`` header, over two locals.
    assert re.search(r"^\s*if not \(l\d+ < l\d+\):$", work[0], re.M)
    for src in wasm:
        lines = [x.strip() for x in src.splitlines()]
        assert not any(re.fullmatch(r"s\d+ = 1 if s\d+ == 0 else 0", x)
                       for x in lines)
        for prev, line in zip(lines, lines[1:]):
            assert not (re.fullmatch(r"(s\d+) = [01] if .* else [01]", prev)
                        and re.fullmatch(r"if (not )?s\d+:", line)), src
