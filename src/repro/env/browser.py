"""Browser engine profiles.

Each profile bundles a JS engine configuration (tiering, parse rate, GC
baseline) and a Wasm engine configuration (the tier pair's compiler
models and promotion policy, boundary-call cost).  The constants are
engine *mechanism parameters*; they were calibrated once against Table 8's
orderings and are documented inline with the engine facts that motivate
them (LiftOff/TurboFan, Baseline/Ion, Cranelift-on-ARM64, GeckoView,
Firefox's fast JS↔Wasm calls).

Since the compile-model refactor the tier parameters live in exactly one
place: :class:`WasmEngineConfig.tiers` is a shared-engine-core
:class:`~repro.engine.tiering.TierPolicy` whose two
:class:`~repro.engine.compilemodel.PerInstrCompiler` models carry the
calibrated per-instruction compile rates and code-quality factors, so
there is no second copy to drift.  Derived profiles (Edge from Chrome,
mobile from desktop) swap a tier model as a whole value:
``wasm.evolved(basic=replace(wasm.tiers.basic, exec_factor=1.5))``.

Everything else in the reproduction — input-size scaling, JIT speedups,
memory growth, compiler effects — is *emergent* from executing programs
under these profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.engine.compilemodel import PerInstrCompiler
from repro.engine.tiering import TierPolicy
from repro.jsengine.config import JsEngineConfig

#: Policy fields routable through ``WasmEngineConfig.evolved`` /
#: ``BrowserProfile.with_wasm`` straight into the nested ``TierPolicy``.
_TIER_FIELDS = frozenset(f.name for f in fields(TierPolicy))


def _default_tiers():
    return TierPolicy(
        basic=PerInstrCompiler(name="baseline", exec_factor=1.18,
                               cycles_per_instr=2.0),
        optimizing=PerInstrCompiler(name="opt", exec_factor=1.0,
                                    cycles_per_instr=20.0))


@dataclass
class WasmEngineConfig:
    """Parameters of a browser's Wasm execution tier pair."""

    #: The two-tier compile pipeline: compiler models + promotion policy.
    #: This IS the engine-core policy object — ``tier_policy()`` returns
    #: it unchanged, so profile and controller can never disagree.
    tiers: TierPolicy = field(default_factory=_default_tiers)
    # Startup pipeline: decode/validate ∝ binary size; compile costs come
    # from the tier models.
    decode_cycles_per_byte: float = 0.2
    instantiate_cycles: float = 12000.0
    # Wasm↔JS boundary call cost (measured in §4.5's micro-benchmark).
    boundary_cost: float = 180.0
    # Engine-side overhead of a live Wasm instance (module env, tables,
    # wrappers) added to linear memory for the DevTools metric.
    instance_overhead_bytes: int = 600 * 1024

    def tier_policy(self):
        """This config's :class:`TierPolicy` (the same object the JS JIT
        model uses for function tiering)."""
        return self.tiers

    def evolved(self, **kwargs):
        """A copy with config fields or policy fields changed — the one
        update path for profiles."""
        tier_kwargs = {key: kwargs.pop(key) for key in list(kwargs)
                       if key in _TIER_FIELDS}
        tiers = kwargs.pop("tiers", self.tiers)
        if tier_kwargs:
            tiers = replace(tiers, **tier_kwargs)
        return replace(self, tiers=tiers, **kwargs)


@dataclass
class BrowserProfile:
    name: str
    version: str
    platform_kind: str            # "desktop" | "mobile"
    js: JsEngineConfig = field(default_factory=JsEngineConfig)
    wasm: WasmEngineConfig = field(default_factory=WasmEngineConfig)
    # Renderer/devtools fixed page overhead included in measurements (§3.4).
    page_overhead_cycles: float = 6000.0
    notes: str = ""

    def with_wasm(self, **kwargs):
        clone = replace(self)
        clone.wasm = self.wasm.evolved(**kwargs)
        return clone

    def with_js(self, **kwargs):
        clone = replace(self)
        clone.js = replace(self.js, **kwargs)
        return clone


def chrome_desktop():
    """Chrome v79, desktop. V8: Ignition interpreter + TurboFan JIT for
    JS; LiftOff + TurboFan for Wasm."""
    return BrowserProfile(
        name="chrome", version="79", platform_kind="desktop",
        js=JsEngineConfig(
            name="v8",
            parse_cycles_per_token=18.0,
            tier0_factor=20.0,          # Ignition bytecode interpreter
            tier1_factor=1.0,           # TurboFan peak (bounds-check
                                        # elimination, specialisation)
            call_threshold=4,
            backedge_threshold=60,
            startup_cycles=60000.0,
            gc_baseline_bytes=838 * 1024,
        ),
        wasm=WasmEngineConfig(
            tiers=TierPolicy(
                # LiftOff: one fast pass, ~modest code quality.
                basic=PerInstrCompiler(name="LiftOff", exec_factor=1.18,
                                       cycles_per_instr=2.0),
                # TurboFan: slow compiles, peak code.
                optimizing=PerInstrCompiler(name="TurboFan",
                                            exec_factor=1.0,
                                            cycles_per_instr=22.0),
            ),
            boundary_cost=180.0,
            instantiate_cycles=8000.0,
            instance_overhead_bytes=520 * 1024,
        ),
        notes="V8; same codebase on desktop and mobile.",
    )


def firefox_desktop():
    """Firefox v71, desktop. SpiderMonkey: fast Baseline JIT for JS
    startup; Baseline + Ion for Wasm.  Firefox's Wasm code quality and its
    2018 fast JS↔Wasm calls make it the fastest desktop Wasm browser
    (§4.5); its JS is slightly slower than Chrome's at peak."""
    return BrowserProfile(
        name="firefox", version="71", platform_kind="desktop",
        js=JsEngineConfig(
            name="spidermonkey",
            parse_cycles_per_token=16.0,
            tier0_factor=4.5,           # Baseline JIT enters fast
            tier1_factor=1.12,          # Ion peak slightly below TurboFan
            call_threshold=6,
            backedge_threshold=250,     # Ion waits longer to kick in
            startup_cycles=35000.0,
            gc_baseline_bytes=470 * 1024,
        ),
        wasm=WasmEngineConfig(
            tiers=TierPolicy(
                basic=PerInstrCompiler(name="Baseline", exec_factor=1.25,
                                       cycles_per_instr=2.4),
                # Ion compiles are slow but its Wasm codegen leads (0.61×).
                optimizing=PerInstrCompiler(name="Ion", exec_factor=0.55,
                                            cycles_per_instr=150.0),
                eager_opt_compile=True,  # desktop SpiderMonkey compiled
                                         # Wasm with Ion eagerly
            ),
            boundary_cost=24.0,          # the "finally fast" calls (0.13×)
            instantiate_cycles=50000.0,  # heavier module setup than V8
            instance_overhead_bytes=380 * 1024,
        ),
        notes="Gecko; Ion Wasm tier; fast JS↔Wasm calls since 2018-10.",
    )


def edge_desktop():
    """Edge v79, desktop — a Chromium/Blink fork; V8 engine family with
    extra browser-layer overhead in this release."""
    profile = chrome_desktop()
    profile.name = "edge"
    profile.version = "79"
    # Same engines, slower effective rates in the measured release.
    profile.js = replace(profile.js, name="v8-edge",
                         tier0_factor=25.0, tier1_factor=1.40,
                         startup_cycles=80000.0,
                         gc_baseline_bytes=828 * 1024)
    tiers = profile.wasm.tiers
    profile.wasm = profile.wasm.evolved(
        basic=replace(tiers.basic, exec_factor=1.5),
        optimizing=replace(tiers.optimizing, exec_factor=1.28),
        boundary_cost=210.0,
        instance_overhead_bytes=520 * 1024)
    profile.notes = "Chromium fork; Blink + V8."
    return profile


def chrome_mobile():
    """Chrome v79 on Android — same V8 codebase, mobile-tuned heap."""
    profile = chrome_desktop()
    profile.platform_kind = "mobile"
    profile.js = replace(profile.js, gc_baseline_bytes=365 * 1024)
    profile.wasm = profile.wasm.evolved(instance_overhead_bytes=430 * 1024)
    profile.notes = "Same codebase as desktop Chrome (§4.5)."
    return profile


def firefox_mobile():
    """Firefox v68 on Android: GeckoView engine; on ARM64 the Ion Wasm
    tier is unavailable and Cranelift generates slower code (§4.5) —
    mobile Firefox loses its desktop Wasm advantage.  Its mobile JS
    (Baseline-heavy) is the fastest of the three."""
    profile = firefox_desktop()
    profile.name = "firefox"
    profile.version = "68"
    profile.platform_kind = "mobile"
    profile.js = replace(profile.js, tier0_factor=3.2, tier1_factor=0.60,
                         startup_cycles=25000.0,
                         gc_baseline_bytes=650 * 1024)
    tiers = profile.wasm.tiers
    profile.wasm = profile.wasm.evolved(
        # Cranelift replaces Ion on ARM64: slower code, quick compiles.
        optimizing=replace(tiers.optimizing, name="Cranelift",
                           exec_factor=1.35, cycles_per_instr=18.0),
        basic=replace(tiers.basic, exec_factor=1.7),
        eager_opt_compile=False,
        instantiate_cycles=12000.0,
        boundary_cost=60.0,
        instance_overhead_bytes=560 * 1024)
    profile.notes = "GeckoView; Cranelift Wasm tier-2 on ARM64."
    return profile


def edge_mobile():
    """Edge v44 on Android — Blink fork; in the paper's measurements the
    mobile build outperforms mobile Chrome on both JS and Wasm."""
    profile = chrome_desktop()
    profile.name = "edge"
    profile.version = "44"
    profile.platform_kind = "mobile"
    profile.js = replace(profile.js, tier0_factor=9.0, tier1_factor=0.73,
                         gc_baseline_bytes=900 * 1024)
    tiers = profile.wasm.tiers
    profile.wasm = profile.wasm.evolved(
        optimizing=replace(tiers.optimizing, exec_factor=0.82),
        basic=replace(tiers.basic, exec_factor=1.0),
        instance_overhead_bytes=610 * 1024)
    profile.notes = "Chromium Blink fork (§4.5: similar to mobile Chrome)."
    return profile


def ALL_DESKTOP():
    return [chrome_desktop(), firefox_desktop(), edge_desktop()]


def ALL_MOBILE():
    return [chrome_mobile(), firefox_mobile(), edge_mobile()]
