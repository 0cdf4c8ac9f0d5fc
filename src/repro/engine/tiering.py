"""Parameterized tiered-compilation model shared by the Wasm and JS engines.

One :class:`TierPolicy` pairs two :class:`~repro.engine.compilemodel.
CompilerModel`\\ s — a fast baseline compiler (LiftOff / SpiderMonkey
Baseline / Ignition) and a slow optimizing compiler (TurboFan / Ion) —
with the promotion policy between them: which tiers are enabled, eager vs
lazy optimizing compile, and the hotness thresholds.  Compile *cost* and
code *quality* live on the models; the policy decides when each model
runs.  :class:`TierController` answers the two questions both engines used
to answer privately:

* **Module tiering** (Wasm, §4.4): given a module's static shape (a
  :class:`~repro.engine.compilemodel.CodeUnit`) and its dynamic
  instruction count, which compiles ran, where the tier switch landed,
  and what blended execution factor applies (:meth:`TierController.plan`
  → structured :class:`~repro.engine.compilemodel.CompilePlan`)?
* **Function tiering** (JS): is this function hot by call count or loop
  back-edges, what does its promotion compile cost, and what per-op
  factor does each tier run at?

Policies are derived from the browser profiles in :mod:`repro.env.browser`
(``WasmEngineConfig.tiers`` / ``JsEngineConfig``-driven
:meth:`TierPolicy.from_js_config`) and the standalone host profiles in
:mod:`repro.env.runtimes`, so one table of engine parameters drives every
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.compilemodel import (
    CompileCharge,
    CompilePlan,
    CompilerModel,
    PerInstrCompiler,
)


def _default_basic():
    return PerInstrCompiler(name="baseline", exec_factor=1.18,
                            cycles_per_instr=2.0)


def _default_optimizing():
    return PerInstrCompiler(name="opt", exec_factor=1.0,
                            cycles_per_instr=20.0)


@dataclass(frozen=True)
class TierPolicy:
    """One basic→optimizing tier pair: two compiler models plus the
    promotion policy between them."""

    #: The fast entry tier (LiftOff / Baseline / Ignition).
    basic: CompilerModel = field(default_factory=_default_basic)
    #: The optimizing tier (TurboFan / Ion).
    optimizing: CompilerModel = field(default_factory=_default_optimizing)
    #: Which tiers are enabled (Table 7 settings).
    basic_enabled: bool = True
    optimizing_enabled: bool = True
    #: Compile the optimizing tier eagerly at startup (2019 desktop
    #: SpiderMonkey) instead of lazily on hotness (V8).
    eager_opt_compile: bool = False
    #: Module tiering: dynamic instruction count after which tier-up
    #: completes (Wasm-style).
    tier_up_instructions: int = 200000
    #: Function tiering: hotness thresholds (JS-style).
    call_threshold: int = 8
    backedge_threshold: int = 500

    @classmethod
    def from_js_config(cls, cfg):
        """Policy for a JS pipeline (:class:`repro.jsengine.JsEngineConfig`):
        tier 0 is the entry tier (Ignition / Baseline), tier 1 the
        optimizing JIT."""
        return cls(
            basic=PerInstrCompiler(
                name="tier0", exec_factor=cfg.tier0_factor,
                cycles_per_instr=cfg.compile_cycles_per_op),
            optimizing=PerInstrCompiler(
                name="tier1", exec_factor=cfg.tier1_factor,
                cycles_per_instr=cfg.tier1_compile_cycles_per_op),
            basic_enabled=True, optimizing_enabled=cfg.jit_enabled,
            call_threshold=cfg.call_threshold,
            backedge_threshold=cfg.backedge_threshold,
        )


class TierController:
    """Applies a :class:`TierPolicy` to both tiering styles."""

    def __init__(self, policy):
        self.policy = policy

    # -- module tiering (Wasm pipeline, §4.4) -----------------------------

    def plan(self, unit, dynamic_instrs):
        """Model the two-tier module pipeline for one
        :class:`~repro.engine.compilemodel.CodeUnit`.

        Mirrors the browsers' behavior: eager mode compiles both tiers at
        instantiate and runs everything on optimized code; lazy mode
        starts on the basic tier and, once the dynamic instruction count
        crosses the threshold, charges the optimizing compile and blends
        the per-tier quality factors by the fraction of instructions each
        tier executed.
        """
        p = self.policy
        basic, optimizing = p.basic, p.optimizing
        charges = []
        tiered_up = False
        switch = None
        if p.basic_enabled and p.optimizing_enabled and p.eager_opt_compile:
            # SpiderMonkey-style: baseline compile for fast startup plus a
            # full optimizing compile at instantiate; execution runs on
            # optimized code.
            basic_cycles = basic.compile_cycles(unit)
            opt_cycles = optimizing.compile_cycles(unit)
            charges.append(CompileCharge(
                "compile", f"{basic.name}+{optimizing.name}",
                self._eager_cycles(p, unit, basic_cycles, opt_cycles),
                at_startup=True,
                parts=((basic.name, basic_cycles),
                       (optimizing.name, opt_cycles))))
            factor = optimizing.exec_factor
        elif p.basic_enabled and p.optimizing_enabled:
            charges.append(CompileCharge(
                "compile", basic.name, basic.compile_cycles(unit)))
            if dynamic_instrs > p.tier_up_instructions:
                # Hot module: optimizing compile happened concurrently;
                # early instructions ran on the basic tier.
                charges.append(CompileCharge(
                    "tier-up", optimizing.name,
                    optimizing.compile_cycles(unit), at_startup=False))
                frac_basic = p.tier_up_instructions / max(dynamic_instrs, 1)
                tiered_up = True
                switch = p.tier_up_instructions
            else:
                frac_basic = 1.0
            factor = (basic.exec_factor * frac_basic +
                      optimizing.exec_factor * (1.0 - frac_basic))
        elif p.basic_enabled:
            charges.append(CompileCharge(
                "compile", basic.name, basic.compile_cycles(unit)))
            factor = basic.exec_factor
        else:
            charges.append(CompileCharge(
                "compile", optimizing.name,
                optimizing.compile_cycles(unit)))
            factor = optimizing.exec_factor
        return CompilePlan(charges, factor, tiered_up,
                           switch_instructions=switch, unit=unit)

    @staticmethod
    def _eager_cycles(policy, unit, basic_cycles, opt_cycles):
        """Cycles of the combined eager charge.  For two per-instruction
        models this intentionally reproduces the legacy arithmetic
        ``size * (rate_b + rate_o)`` bit-for-bit (the refactor's golden
        guarantee) — ``size*rate_b + size*rate_o`` can differ in the last
        ulp.  Modeled compilers simply sum their per-tier costs."""
        if isinstance(policy.basic, PerInstrCompiler) and \
                isinstance(policy.optimizing, PerInstrCompiler):
            return unit.static_instrs * (policy.basic.cycles_per_instr
                                         + policy.optimizing.cycles_per_instr)
        return basic_cycles + opt_cycles

    # -- function tiering (JS JIT) ----------------------------------------

    def call_hot(self, call_count):
        """Has this function crossed the call-count threshold?"""
        return call_count >= self.policy.call_threshold

    def backedge_hot(self, backedge_count):
        """Has this loop crossed the back-edge threshold (OSR)?"""
        return backedge_count >= self.policy.backedge_threshold

    def tier_up_compile_cycles(self, num_ops):
        """Compile cost of promoting a function to the optimizing tier."""
        return self.policy.optimizing.function_compile_cycles(num_ops)

    def exec_factor(self, tier):
        """Per-op cost multiplier for a function running in ``tier``."""
        policy = self.policy
        return (policy.optimizing.exec_factor if tier
                else policy.basic.exec_factor)
