"""The modeled compile pipeline (``repro.engine.compilemodel``): cost
models price real code units, tier plans reconcile exactly with the pass
telemetry they were derived from, every engine charges its modeled
startup compile into ``stats.compile_cycles``, and the profile layer has
exactly one source of truth for tier parameters (no drifting duplicates).

Also hosts the tier-1 gate for the startup-frontier experiment
(``python -m repro.experiments.startup_frontier --smoke``).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.engine.compilemodel import (
    CodeUnit,
    PassPipelineCompiler,
    PerInstrCompiler,
    SinglePassCompiler,
    empty_census,
    normalize_telemetry,
)
from repro.engine.opclass import NUM_OP_CLASSES, OpClass
from repro.engine.tiering import TierController, TierPolicy
from repro.env import ALL_DESKTOP, ALL_MOBILE, ALL_RUNTIMES, WasmEngineConfig
from repro.env.runtimes import (
    SINGLE_PASS_WEIGHTS,
    wamr_interp,
    wasmtime_style,
    wasmtime_winch,
)
from tests.conftest import TINY_C

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Model arithmetic on hand-built units.

UNIT = CodeUnit(
    name="hand", static_instrs=100, code_bytes=640, functions=3,
    opclass_counts=tuple(
        {int(OpClass.LOAD): 10, int(OpClass.CALL): 5}.get(i, 0)
        for i in range(NUM_OP_CLASSES)),
    pass_telemetry=(("licm", 200, 180, 7), ("dce", 180, 150, 30)),
)


class TestModels:
    def test_per_instr_is_linear_in_size(self):
        model = PerInstrCompiler(cycles_per_instr=2.5)
        assert model.compile_cycles(UNIT) == 100 * 2.5
        assert model.function_compile_cycles(40) == 40 * 2.5
        # Census and telemetry are invisible to the legacy model.
        bare = CodeUnit(static_instrs=100)
        assert model.compile_cycles(bare) == model.compile_cycles(UNIT)

    def test_single_pass_prices_the_opclass_mix(self):
        model = SinglePassCompiler(
            cycles_per_instr=2.0,
            opclass_weights=((int(OpClass.LOAD), 3.0),
                             (int(OpClass.CALL), 5.0)),
            function_overhead_cycles=10.0)
        # 3 prologues + 100 ops at base rate + the weighted surcharge for
        # the 10 loads (x3) and 5 calls (x5); the 85 uncensused ops emit
        # at weight 1.0.
        expected = (3 * 10.0 + 100 * 2.0
                    + 10 * (3.0 - 1.0) * 2.0 + 5 * (5.0 - 1.0) * 2.0)
        assert model.compile_cycles(UNIT) == expected
        # Same size, different mix => different compile cost.
        flat = CodeUnit(static_instrs=100, functions=3)
        assert model.compile_cycles(flat) < model.compile_cycles(UNIT)
        assert model.function_compile_cycles(40) == 40 * 2.0 + 10.0

    def test_pass_pipeline_prices_the_telemetry(self):
        model = PassPipelineCompiler(cycles_per_node=2.0,
                                     cycles_per_rewrite=5.0,
                                     backend_cycles_per_instr=3.0)
        expected = (100 * 3.0
                    + 200 * 2.0 + 7 * 5.0       # licm
                    + 180 * 2.0 + 30 * 5.0)     # dce
        assert model.compile_cycles(UNIT) == expected
        # No telemetry (an O0 unit) pays only the backend lowering.
        o0 = replace(UNIT, pass_telemetry=())
        assert model.compile_cycles(o0) == 100 * 3.0

    def test_normalize_telemetry_accepts_recorder_dicts(self):
        entries = [{"pass": "dce", "nodes_in": 9, "nodes_out": 4,
                    "rewrites": 5, "wall_ms": 1.25}]
        assert normalize_telemetry(entries) == (("dce", 9, 4, 5),)
        # Already-normalized tuples round-trip; wall times never survive.
        assert normalize_telemetry((("dce", 9, 4, 5),)) == (("dce", 9, 4, 5),)
        assert normalize_telemetry(None) == ()

    def test_from_counts_implies_size_from_census(self):
        census = empty_census()
        census[int(OpClass.ADD)] = 7
        census[int(OpClass.LOAD)] = 3
        unit = CodeUnit.from_counts("u", census)
        assert unit.static_instrs == 10
        assert len(unit.opclass_counts) == NUM_OP_CLASSES


# ---------------------------------------------------------------------------
# The acceptance criterion: plans priced from a real artifact reconcile
# exactly with that artifact's recorded pass telemetry and census.

class TestPlanReconciliation:
    @pytest.fixture(scope="class")
    def unit(self, cheerp):
        artifact = cheerp.compile_wasm(TINY_C, opt_level="O2",
                                       name="reconcile")
        telemetry = artifact.meta.get("pass_telemetry") or \
            artifact.module.meta.get("pass_telemetry", ())
        return artifact.module.code_unit(
            binary_size=len(artifact.binary), pass_telemetry=telemetry)

    def test_real_unit_carries_census_and_telemetry(self, unit):
        assert unit.static_instrs > 0
        assert unit.code_bytes > 0
        assert sum(unit.opclass_counts) == unit.static_instrs
        assert unit.pass_telemetry            # O2 recorded its passes

    @pytest.mark.parametrize("dynamic", [0, 10 ** 9])
    @pytest.mark.parametrize("host", [wasmtime_style, wasmtime_winch,
                                      wamr_interp],
                             ids=lambda h: h.__name__)
    def test_plan_cycles_match_telemetry_exactly(self, unit, host, dynamic):
        from repro.experiments.startup_frontier import verify_plan_reconciles

        policy = host().wasm.tier_policy()
        plan = TierController(policy).plan(unit, dynamic)
        verify_plan_reconciles(unit, policy, plan)

    def test_optimizing_charge_is_the_telemetry_sum(self, unit):
        """Recomputed from the raw telemetry with independent arithmetic
        (not via the model): the 'no hardcoded compile constants' check."""
        policy = wasmtime_style().wasm.tier_policy()
        opt = policy.optimizing
        assert isinstance(opt, PassPipelineCompiler)
        plan = TierController(policy).plan(unit, 0)
        expected = unit.static_instrs * opt.backend_cycles_per_instr
        for _name, nodes_in, _nodes_out, rewrites in unit.pass_telemetry:
            expected += nodes_in * opt.cycles_per_node
            expected += rewrites * opt.cycles_per_rewrite
        assert plan.cycles_by_tier() == {opt.name: expected}
        assert plan.startup_compile_cycles == expected

    def test_single_pass_charge_follows_the_census(self, unit):
        policy = wasmtime_winch().wasm.tier_policy()
        basic = policy.basic
        assert isinstance(basic, SinglePassCompiler)
        plan = TierController(policy).plan(unit, 0)     # cold: basic only
        expected = (basic.function_overhead_cycles * unit.functions
                    + unit.static_instrs * basic.cycles_per_instr)
        for idx, weight in SINGLE_PASS_WEIGHTS:
            expected += (unit.opclass_counts[idx] * (weight - 1.0)
                         * basic.cycles_per_instr)
        assert plan.cycles_by_tier() == {basic.name: expected}

    def test_hot_plan_splits_startup_from_tier_up(self, unit):
        policy = wasmtime_winch().wasm.tier_policy()
        plan = TierController(policy).plan(unit, 10 ** 9)
        assert plan.tiered_up
        assert plan.switch_instructions == policy.tier_up_instructions
        assert plan.startup_compile_cycles == \
            policy.basic.compile_cycles(unit)
        assert plan.tier_up_cycles == policy.optimizing.compile_cycles(unit)
        assert plan.compile_cycles == \
            plan.startup_compile_cycles + plan.tier_up_cycles


# ---------------------------------------------------------------------------
# Every engine charges its modeled startup compile into the shared
# EngineStats.compile_cycles field.

class TestEnginesChargeCompileCycles:
    def test_wasm_instance_charges_plan_cycles(self, cheerp):
        from repro.engine.hostlib import wasm_host_imports
        from repro.wasm import WasmVM

        artifact = cheerp.compile_wasm(TINY_C, name="charge")
        policy = wasmtime_style().wasm.tier_policy()
        inst = WasmVM(tier_policy=policy).instantiate(
            artifact.module, wasm_host_imports([], None))
        expected = TierController(policy).plan(
            artifact.module.code_unit(), 0).startup_compile_cycles
        assert inst.stats.compile_cycles == expected
        assert expected > 0
        # Without a policy the instance stays free (browser harness path
        # prices compiles itself).
        bare = WasmVM().instantiate(artifact.module,
                                    wasm_host_imports([], None))
        assert bare.stats.compile_cycles == 0.0

    def test_runtime_profile_vm_is_prewired(self, cheerp):
        from repro.engine.hostlib import wasm_host_imports

        artifact = cheerp.compile_wasm(TINY_C, name="charge")
        runtime = wamr_interp()
        vm = runtime.vm()
        assert vm.boundary_cost == runtime.wasm.boundary_cost
        inst = vm.instantiate(artifact.module, wasm_host_imports([], None))
        assert inst.stats.compile_cycles == \
            runtime.wasm.tiers.basic.compile_cycles(
                artifact.module.code_unit())

    def test_native_machine_charges_compile_model(self, llvm_x86):
        from repro.native import execute_program
        from repro.native.machine import program_code_unit

        artifact = llvm_x86.compile(TINY_C, name="charge")
        model = SinglePassCompiler(cycles_per_instr=1.5,
                                   opclass_weights=SINGLE_PASS_WEIGHTS,
                                   function_overhead_cycles=20.0)
        _result, stats = execute_program(artifact.program, "main",
                                         compile_model=model)
        unit = program_code_unit(artifact.program)
        assert unit.functions == len(artifact.program.functions)
        assert stats.compile_cycles == model.compile_cycles(unit)
        _result, bare_stats = execute_program(artifact.program, "main")
        assert bare_stats.compile_cycles == 0.0
        # The model only adds the compile charge; execution is untouched.
        assert bare_stats.cycles == stats.cycles

    def test_js_engine_charges_script_unit(self):
        from repro.jsengine import JsEngine
        from repro.jsengine.compiler import compile_program, script_code_unit
        from repro.jsengine.parser import parse_js

        src = "function f(x) { return x * 2 + 1; } var r = f(20);"
        engine = JsEngine()
        engine.load_script(src)
        toplevel, functions = compile_program(parse_js(src)[0])
        unit = script_code_unit(toplevel, functions)
        assert unit.functions == 2                      # toplevel + f
        assert sum(unit.opclass_counts) == unit.static_instrs
        assert engine.stats.compile_cycles == \
            engine.tiering.policy.basic.compile_cycles(unit)


# ---------------------------------------------------------------------------
# Satellite: one source of truth for tier parameters.  WasmEngineConfig
# holds a TierPolicy and keeps no scalar copy or view of it, so the two
# can never drift apart again.

class TestNoDrift:
    def test_config_and_policy_share_no_fields(self):
        cfg_fields = {f.name for f in dataclasses.fields(WasmEngineConfig)}
        tier_fields = {f.name for f in dataclasses.fields(TierPolicy)}
        assert cfg_fields & tier_fields == set()
        assert "tiers" in cfg_fields
        # The old duplicated scalars are really gone from the config.
        assert "tier_up_instructions" not in cfg_fields

    @pytest.mark.parametrize(
        "profile", ALL_DESKTOP() + ALL_MOBILE() + ALL_RUNTIMES(),
        ids=lambda p: f"{p.name}-{p.version}")
    def test_legacy_views_mirror_the_policy(self, profile):
        """The one view of the tier parameters is the policy itself: the
        legacy scalar views are deleted, so none can disagree with it."""
        cfg = profile.wasm
        policy = cfg.tier_policy()
        assert policy is cfg.tiers          # same object, not a copy
        assert not [name for name, value in vars(type(cfg)).items()
                    if isinstance(value, property)]
        for f in dataclasses.fields(TierPolicy):
            assert not hasattr(cfg, f.name)

    def test_evolved_routes_legacy_spellings_into_the_policy(self):
        from repro.env import chrome_desktop

        cfg = chrome_desktop().wasm
        evolved = cfg.evolved(
            optimizing=replace(cfg.tiers.optimizing, exec_factor=2.5),
            tier_up_instructions=7, boundary_cost=99.0)
        assert evolved.tiers.optimizing.exec_factor == 2.5
        assert evolved.tiers.tier_up_instructions == 7
        assert evolved.boundary_cost == 99.0
        # The original config (and its policy) are untouched.
        assert cfg.tiers.optimizing.exec_factor != 2.5
        assert cfg.boundary_cost != 99.0


# ---------------------------------------------------------------------------
# Tier-1 gate: the frontier experiment stays runnable end-to-end.

class TestFrontierSmoke:
    def test_startup_frontier_smoke_gate(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments.startup_frontier",
             "--smoke"],
            capture_output=True, text=True, timeout=570, env=env,
            cwd=str(ROOT))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "smoke ok" in result.stdout
