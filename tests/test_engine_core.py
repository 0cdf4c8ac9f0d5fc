"""Engine-core tests: the shared TierController reproduces both engines'
legacy tiering arithmetic exactly, the unified stats protocol is shared by
all three engines, and the hostlib registry is the single libm wiring.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.clibm import c_exp, c_fmod, c_log, c_pow, js_pow
from repro.engine import (
    CodeUnit, EngineStats, OpClass, TierController, TierPolicy,
    new_op_counts,
)
from repro.engine.hostlib import (
    JS_MATH, LIBM, install_js_host, js_exp, native_libm, wasm_host_imports,
)
from repro.env.browser import (
    ALL_DESKTOP, ALL_MOBILE, chrome_desktop, firefox_desktop,
)
from repro.jsengine import JsEngine
from repro.jsengine.engine import JsExecutionStats
from repro.native.machine import NativeStats
from repro.wasm.vm import ExecutionStats


def _legacy_wasm_compile_and_factor(cfg, static_instrs, instret):
    """The pre-refactor ``PageRunner._wasm_total_cycles`` tier arithmetic,
    kept verbatim as the parity oracle (``cfg`` is the profile's
    :class:`TierPolicy`)."""
    basic, opt = cfg.basic, cfg.optimizing
    total = 0.0
    if cfg.basic_enabled and cfg.optimizing_enabled \
            and cfg.eager_opt_compile:
        total += static_instrs * (basic.cycles_per_instr
                                  + opt.cycles_per_instr)
        factor = opt.exec_factor
    elif cfg.basic_enabled and cfg.optimizing_enabled:
        total += static_instrs * basic.cycles_per_instr
        if instret > cfg.tier_up_instructions:
            total += static_instrs * opt.cycles_per_instr
            frac_basic = cfg.tier_up_instructions / max(instret, 1)
        else:
            frac_basic = 1.0
        factor = (basic.exec_factor * frac_basic +
                  opt.exec_factor * (1.0 - frac_basic))
    elif cfg.basic_enabled:
        total += static_instrs * basic.cycles_per_instr
        factor = basic.exec_factor
    else:
        total += static_instrs * opt.cycles_per_instr
        factor = opt.exec_factor
    return total, factor


def _size_plan(controller, static_instrs, dynamic_instrs):
    """The plan for a unit known only by its static instruction count."""
    return controller.plan(CodeUnit(static_instrs=static_instrs),
                           dynamic_instrs)


class TestWasmTierParity:
    WORKLOADS = [(120, 0), (977, 199999), (977, 200000), (977, 200001),
                 (5000, 10 ** 7), (1, 1), (0, 0)]

    @pytest.mark.parametrize("profile", ALL_DESKTOP() + ALL_MOBILE(),
                             ids=lambda p: f"{p.name}-{p.platform_kind}")
    def test_profiles_reproduce_legacy_arithmetic(self, profile):
        controller = TierController(profile.wasm.tier_policy())
        for static_instrs, instret in self.WORKLOADS:
            plan = _size_plan(controller, static_instrs, instret)
            compile_total = 0.0
            for charge in plan.charges:
                compile_total += charge.cycles
            legacy_total, legacy_factor = _legacy_wasm_compile_and_factor(
                profile.wasm.tiers, static_instrs, instret)
            assert compile_total == legacy_total
            assert plan.exec_factor == legacy_factor

    def test_tier_up_is_strict_threshold(self):
        cfg = chrome_desktop().wasm.tiers
        controller = TierController(cfg)
        at = _size_plan(controller, 100, cfg.tier_up_instructions)
        above = _size_plan(controller, 100, cfg.tier_up_instructions + 1)
        assert not at.tiered_up and at.exec_factor == cfg.basic.exec_factor
        assert above.tiered_up
        assert [c.phase for c in above.charges] == ["compile", "tier-up"]

    def test_disabled_tier_configs(self):
        base = chrome_desktop().wasm.tier_policy()
        basic_only = TierController(
            replace(base, optimizing_enabled=False))
        plan = _size_plan(basic_only, 50, 10 ** 9)
        assert not plan.tiered_up
        assert plan.exec_factor == base.basic.exec_factor
        opt_only = TierController(replace(base, basic_enabled=False))
        plan = _size_plan(opt_only, 50, 0)
        assert plan.exec_factor == base.optimizing.exec_factor
        assert plan.compile_cycles == 50 * base.optimizing.cycles_per_instr

    def test_eager_compiles_both_tiers_in_one_charge(self):
        cfg = firefox_desktop().wasm.tiers
        assert cfg.eager_opt_compile
        plan = _size_plan(TierController(cfg), 200, 10 ** 9)
        assert len(plan.charges) == 1
        assert plan.charges[0].cycles == 200 * (
            cfg.basic.cycles_per_instr + cfg.optimizing.cycles_per_instr)
        assert plan.exec_factor == cfg.optimizing.exec_factor


class TestJsTierParity:
    @pytest.mark.parametrize("profile", ALL_DESKTOP() + ALL_MOBILE(),
                             ids=lambda p: f"{p.name}-{p.platform_kind}")
    def test_policy_mirrors_config(self, profile):
        cfg = profile.js
        policy = TierPolicy.from_js_config(cfg)
        assert policy.basic.exec_factor == cfg.tier0_factor
        assert policy.optimizing.exec_factor == cfg.tier1_factor
        assert policy.optimizing.cycles_per_instr == \
            cfg.tier1_compile_cycles_per_op
        assert policy.call_threshold == cfg.call_threshold
        assert policy.backedge_threshold == cfg.backedge_threshold
        assert policy.optimizing_enabled == cfg.jit_enabled

    def test_hotness_thresholds_are_inclusive(self):
        cfg = chrome_desktop().js
        controller = TierController(TierPolicy.from_js_config(cfg))
        assert not controller.call_hot(cfg.call_threshold - 1)
        assert controller.call_hot(cfg.call_threshold)
        assert not controller.backedge_hot(cfg.backedge_threshold - 1)
        assert controller.backedge_hot(cfg.backedge_threshold)
        assert controller.exec_factor(0) == cfg.tier0_factor
        assert controller.exec_factor(1) == cfg.tier1_factor

    def test_engine_tier_up_point_unchanged(self):
        """Call-count promotion happens exactly at the config threshold."""
        cfg = chrome_desktop().js
        engine = JsEngine(cfg)
        engine.load_script("function f(x) { return x + 1; }")
        fn = engine.globals["f"]
        for i in range(cfg.call_threshold):
            assert fn.tier == 0
            engine.call_global("f", float(i))
        assert fn.tier == 1
        assert engine.stats.tier_ups == 1
        assert engine.stats.compile_cycles >= \
            len(fn.code) * cfg.tier1_compile_cycles_per_op


class TestUnifiedStats:
    def test_all_engines_share_the_protocol(self):
        for stats_cls in (ExecutionStats, JsExecutionStats, NativeStats):
            stats = stats_cls()
            assert isinstance(stats, EngineStats)
            assert len(stats.op_counts) == len(new_op_counts())
            assert stats.count(OpClass.ADD) == 0
            assert set(stats.arithmetic_profile()) == \
                {"ADD", "MUL", "DIV", "REM", "SHIFT", "AND", "OR"}

    def test_native_machine_attributes_op_classes(self):
        from repro.native.machine import (
            NOp, NativeFunction, NativeProgram, execute_program,
        )
        code = [
            (NOp.MOVI, 0, 6, 0, False),
            (NOp.MOVI, 1, 7, 0, False),
            (NOp.MUL32, 2, 0, 1, False),
            (NOp.ADD32, 2, 2, 1, False),
            (NOp.RETV, 0, 2, 0, False),
        ]
        program = NativeProgram(functions={
            "main": NativeFunction("main", 0, 3, code, True)})
        result, stats = execute_program(program)
        assert result == 49
        assert stats.count(OpClass.MUL) == 1
        assert stats.count(OpClass.ADD) == 1
        assert stats.count(OpClass.CONST) == 2


class TestHostlib:
    def test_libm_registry_uses_c_semantics(self):
        assert LIBM["exp"][0] is c_exp
        assert LIBM["log"][0] is c_log
        assert LIBM["pow"][0] is c_pow
        assert LIBM["fmod"][0] is c_fmod
        for name in ("exp", "log", "sin", "cos", "pow", "fmod"):
            assert native_libm(name) is LIBM[name][0]

    def test_js_math_registry_uses_ecmascript_semantics(self):
        assert JS_MATH["pow"][0] is js_pow
        assert JS_MATH["exp"][0] is js_exp
        assert js_exp(1000.0) == math.exp(700.0)   # clamped, not overflow
        assert math.isnan(js_exp(math.nan))

    def test_wasm_imports_charge_native_math_cycles(self):
        class _Stats:
            cycles = 0.0

        class _Inst:
            stats = _Stats()

        output = []
        imports = wasm_host_imports(output)
        inst = _Inst()
        assert imports[("env", "exp")](inst, 1.0) == c_exp(1.0)
        assert inst.stats.cycles == 25.0
        assert imports[("env", "pow")](inst, 2.0, 10.0) == 1024.0
        assert inst.stats.cycles == 55.0
        imports[("env", "__print_i32")](inst, 42)
        assert output == [42]

    def test_js_math_object_is_wired_from_registry(self):
        engine = JsEngine()
        math_obj = engine.globals["Math"]
        for name, (_fn, _arity, cycles) in JS_MATH.items():
            assert math_obj.props[name].cycles == cycles
        engine.load_script("var r = Math.pow(0, -1);")
        assert engine.globals["r"] == math.inf

    def test_install_js_host_returns_timer_sink(self):
        engine = JsEngine()
        output = []
        timings = install_js_host(engine, output)
        engine.load_script("__print_f64(3.5); __report_time(12.0);")
        assert output == [3.5]
        assert timings == [12.0]
