"""Tiering edge cases, differential across both interpreter tiers.

The promotion machinery has sharp corners — contradictory enable flags,
degenerate hotness thresholds, tier-up landing exactly on the threshold,
OSR in the middle of a running loop.  Each case is pinned at the plan
level and, where the engines execute it, asserted byte-identical across
the reference ladder (``REPRO_FAST_INTERP=0``) and the codegen tier — a
mispriced edge in one tier shows up as a stats diff.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from repro.engine.compilemodel import CodeUnit
from repro.engine.tiering import TierController, TierPolicy
from repro.env import chrome_desktop, firefox_desktop

TIERS = ("ref", "codegen")


def _set_tier(monkeypatch, tier):
    monkeypatch.setenv("REPRO_FAST_INTERP", "0" if tier == "ref" else "1")


def _snap(stats):
    snap = dataclasses.asdict(stats)
    return {k: repr(tuple(v) if isinstance(v, list) else v)
            for k, v in snap.items()}


UNIT = CodeUnit(static_instrs=300)


# ---------------------------------------------------------------------------
# Plan-level corners.

class TestPlanEdges:
    def test_eager_flag_without_basic_tier_degrades_to_opt_only(self):
        """eager_opt_compile only means 'compile both at startup' when
        both tiers exist; with the basic tier disabled it is an opt-only
        host, not an error and not a double charge."""
        policy = replace(chrome_desktop().wasm.tier_policy(),
                         basic_enabled=False, eager_opt_compile=True)
        plan = TierController(policy).plan(UNIT, 10 ** 9)
        assert [(c.phase, c.tier) for c in plan.charges] == \
            [("compile", policy.optimizing.name)]
        assert plan.compile_cycles == policy.optimizing.compile_cycles(UNIT)
        assert plan.exec_factor == policy.optimizing.exec_factor
        assert not plan.tiered_up           # never *promoted* — started there

    def test_zero_threshold_promotes_on_any_execution(self):
        policy = replace(chrome_desktop().wasm.tier_policy(),
                         tier_up_instructions=0)
        controller = TierController(policy)
        hot = controller.plan(UNIT, 1)
        assert hot.tiered_up and hot.switch_instructions == 0
        # frac_basic = 0/1: every retired instruction ran optimized.
        assert hot.exec_factor == policy.optimizing.exec_factor
        cold = controller.plan(UNIT, 0)     # never executed: strict >
        assert not cold.tiered_up
        assert cold.exec_factor == policy.basic.exec_factor

    def test_threshold_of_one_blends_at_the_second_instruction(self):
        policy = replace(chrome_desktop().wasm.tier_policy(),
                         tier_up_instructions=1)
        controller = TierController(policy)
        assert not controller.plan(UNIT, 1).tiered_up
        hot = controller.plan(UNIT, 2)
        assert hot.tiered_up
        assert hot.exec_factor == (policy.basic.exec_factor * 0.5
                                   + policy.optimizing.exec_factor * 0.5)

    @pytest.mark.parametrize("policy_fn", [
        lambda: chrome_desktop().wasm.tier_policy(),
        lambda: replace(firefox_desktop().wasm.tier_policy(),
                        eager_opt_compile=False),
    ], ids=["chrome", "firefox-lazy"])
    def test_tier_up_exactly_on_threshold_stays_basic(self, policy_fn):
        policy = policy_fn()
        controller = TierController(policy)
        at = controller.plan(UNIT, policy.tier_up_instructions)
        above = controller.plan(UNIT, policy.tier_up_instructions + 1)
        assert not at.tiered_up
        assert at.switch_instructions is None
        assert at.startup_compile_cycles == at.compile_cycles
        assert above.tiered_up
        assert above.tier_up_cycles == \
            policy.optimizing.compile_cycles(UNIT)


# ---------------------------------------------------------------------------
# Engine-level corners, differential across interpreter tiers.

def _run_wasm(policy):
    from repro.engine.hostlib import wasm_host_imports
    from repro.wasm import FuncType, Function, WasmModule, WasmVM, \
        validate_module
    from repro.wasm.instructions import Op, instr as I

    module = WasmModule()
    # for (i = 400; i != 0; i--) ;  — enough back-edges to matter.
    module.add_function(Function(
        "main", FuncType((), ("i32",)), ["i32"],
        [I(Op.I32_CONST, 400), I(Op.LOCAL_SET, 0),
         I(Op.BLOCK, "void"), I(Op.LOOP, "void"),
         I(Op.LOCAL_GET, 0), I(Op.I32_CONST, 1), I(Op.I32_SUB),
         I(Op.LOCAL_TEE, 0), I(Op.I32_EQZ), I(Op.BR_IF, 1),
         I(Op.BR, 0), I(Op.END), I(Op.END),
         I(Op.LOCAL_GET, 0)], exported=True))
    validate_module(module)
    output = []
    inst = WasmVM(tier_policy=policy).instantiate(
        module, wasm_host_imports(output, None))
    result = inst.invoke("main")
    return result, inst.stats


def _run_js_osr(threshold):
    from repro.engine.hostlib import install_js_host
    from repro.jsengine import JsEngine
    from repro.jsengine.config import JsEngineConfig

    engine = JsEngine(JsEngineConfig(backedge_threshold=threshold))
    install_js_host(engine, [])
    engine.load_script(
        "function f() { var s = 0;"
        " for (var i = 0; i < 300; i++) { s = s + i; } return s; }")
    result = engine.call_global("f")
    fn = engine.globals["f"]
    return result, fn.tier, engine.stats


class TestEngineEdgesDifferential:
    @pytest.mark.parametrize("policy_kwargs", [
        {"tier_up_instructions": 0},
        {"tier_up_instructions": 1},
        {"basic_enabled": False, "eager_opt_compile": True},
    ], ids=["zero-threshold", "one-threshold", "eager-no-basic"])
    def test_wasm_stats_identical_across_tiers(self, monkeypatch,
                                               policy_kwargs):
        policy = replace(chrome_desktop().wasm.tier_policy(),
                         **policy_kwargs)
        snaps = {}
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            result, stats = _run_wasm(policy)
            assert result == 0
            assert stats.compile_cycles > 0
            snaps[tier] = _snap(stats)
        assert snaps["ref"] == snaps["codegen"]

    @pytest.mark.parametrize("threshold", [1, 50],
                             ids=["osr-first-backedge", "osr-mid-loop"])
    def test_js_osr_promotes_mid_loop_identically(self, monkeypatch,
                                                  threshold):
        """The loop gets hot *during* its single invocation: the function
        must finish the call on the optimizing tier (OSR), with the
        promotion compile charged — identically in every interpreter
        tier."""
        snaps = {}
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            result, fn_tier, stats = _run_js_osr(threshold)
            assert result == sum(range(300))
            assert fn_tier == 1                  # promoted mid-call
            assert stats.tier_ups == 1
            assert stats.tier_up_compile_cycles > 0
            snaps[tier] = _snap(stats)
        assert snaps["ref"] == snaps["codegen"]

    def test_js_below_threshold_never_promotes(self, monkeypatch):
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            _result, fn_tier, stats = _run_js_osr(10 ** 6)
            assert fn_tier == 0
            assert stats.tier_ups == 0
            assert stats.tier_up_compile_cycles == 0.0


# ---------------------------------------------------------------------------
# The tweak() alias table is gone: a tier parameter changes by replacing
# its compiler model, and every update path rejects names that are not
# fields instead of guessing at a spelling.

class TestTweakAliases:
    def test_unknown_kwarg_still_raises(self):
        assert not hasattr(TierPolicy, "tweak")
        with pytest.raises(TypeError):
            replace(TierPolicy(), not_a_field=1)
        with pytest.raises(TypeError):
            chrome_desktop().wasm.evolved(not_a_field=1)


# ---------------------------------------------------------------------------
# JS tier changes in the middle of a live frame, under Firefox's
# non-dyadic tier factors (4.5 / 1.12): a charge priced with the wrong
# tier, or added out of the reference's order, changes ``cycles``.

MID_FRAME_JS = {
    # The sixth call tiers ``rec`` up (call_hot) while five outer frames
    # are live; each of them finishes on tier 1 after its call returns.
    "recursive-call-hot": r"""
function rec(n) {
  var s = 0.25;
  if (n > 0) { s = s + rec(n - 1) * 1.5; }
  for (var i = 0; i < 4; i++) { s = s + i * 0.3; }
  return s;
}
console.log(rec(12));
""",
    # OSR at a JBACK of a loop that also indexes a plain JSArray (boxed
    # element penalties), calls a native and allocates (GC pauses).
    "osr-array-native": r"""
function osr(n) {
  var a = [1.5, 2.5, 3.5];
  var keep = [];
  var s = 0.1;
  for (var i = 0; i < n; i++) {
    s = s + a[i % 3] * 0.7 + Math.sqrt(i);
    a[i % 3] = s % 5.5;
    keep.push([i, s]);
  }
  return s + keep.length;
}
console.log(osr(600));
""",
    # A JS constructor run through NEWCALL gets hot inside ``construct``
    # while its caller OSRs.
    "newcall": r"""
var total = 0;
function Acc(x) { total = total + x * 0.35; }
function build(n) {
  var s = 0.5;
  for (var i = 0; i < n; i++) {
    var p = new Acc(i);
    var buf = new Float64Array(2);
    s = s + i * 1.1 + buf.length;
  }
  return s;
}
console.log(build(300) + total);
""",
}


#: The function of each case whose frame changes tier while it is live.
MID_FRAME_FN = {"recursive-call-hot": "rec", "osr-array-native": "osr",
                "newcall": "build"}


def _firefox_js(jit):
    config = replace(firefox_desktop().js, gc_trigger_bytes=16 * 1024)
    return config if jit else config.without_jit()


def _run_js_mid_frame(source, config):
    from repro.jsengine import JsEngine

    engine = JsEngine(config)
    engine.load_script(source)
    return ([str(x) for x in engine.console_output], _snap(engine.stats),
            engine._profile.to_dict())


class TestJsTierChangeMidFrame:
    @pytest.mark.parametrize("jit", [True, False], ids=["jit", "no-jit"])
    @pytest.mark.parametrize("case", sorted(MID_FRAME_JS))
    def test_stats_and_profiles_identical_across_tiers(
            self, monkeypatch, case, jit):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        config = _firefox_js(jit)
        assert (config.tier0_factor, config.tier1_factor) == (4.5, 1.12)
        runs = {}
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            runs[tier] = _run_js_mid_frame(MID_FRAME_JS[case], config)
        output, stats, profile = runs["ref"]
        assert output and profile["ops"]
        tiers_seen = {int(k) >> 8
                      for k in profile["ops"][MID_FRAME_FN[case]]}
        if jit:
            assert int(stats["tier_ups"]) > 0
            assert tiers_seen == {0, 1}      # both tiers ran, mid-frame
        else:
            assert int(stats["tier_ups"]) == 0
            assert tiers_seen == {0}
        if case == "osr-array-native":
            assert int(stats["gc_runs"]) > 0
        # cycles, instructions, op_counts, gc_runs/gc_pause_cycles and
        # the per-function profiles, bit for bit.
        assert runs["ref"] == runs["codegen"]

    def test_constructor_reentering_its_caller(self, monkeypatch):
        """``NEWCALL`` runs a JS constructor that calls back into its
        caller until the caller tiers up (call_hot) under the live
        frame.  Both tiers switch the caller's pricing as soon as
        ``NEWCALL`` returns: the reference ladder refreshes its
        factor/cost table there, the generated code rebinds its tier
        constants."""
        source = r"""
var g = 0;
function C(n) { if (n > 0) { g = g + outer(n - 1); } }
function outer(n) {
  var s = 0.5;
  var o = new C(n);
  s = s + n * 1.5;
  for (var i = 0; i < 5; i++) { s = s + i * 0.3; }
  return s;
}
console.log(outer(10) + g);
"""
        monkeypatch.setenv("REPRO_PROFILE", "1")
        runs = {}
        for tier in TIERS:
            _set_tier(monkeypatch, tier)
            runs[tier] = _run_js_mid_frame(source, _firefox_js(True))
        _output, stats, profile = runs["ref"]
        assert int(stats["tier_ups"]) == 2
        assert {int(k) >> 8 for k in profile["ops"]["outer"]} == {0, 1}
        assert runs["ref"] == runs["codegen"]
