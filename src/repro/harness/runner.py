"""The page runner: executes compiled Wasm/JS artifacts under a browser
profile on a platform, reproducing the paper's measurement protocol:

* one page per benchmark, fresh browser state per run (``--incognito``);
* five repetitions, averaged (§3.3.2);
* DevTools metrics (execution time, memory) — via adb on mobile (§4).

Both targets run through one ``_run_artifact`` path over an
:class:`~repro.engine.adapter.EngineAdapter`: the runner owns the protocol
(memoization, repetitions, output-equality checks, aggregation) and the
adapters own everything target-specific.  Wasm execution-time composition
models the two-tier pipeline through the shared
:class:`~repro.engine.tiering.TierController`: decode + basic-tier compile
up front, optimizing-tier compile charged when the dynamic instruction
count crosses the tier-up threshold, and per-tier code quality factors
applied to the executed cycles (§4.4).

With ``trace=True`` each measurement also carries a structured
:class:`~repro.engine.trace.ExecutionTrace` (phase timeline with cycle
spans) in ``Measurement.detail["trace"]``; trace runs bypass result
memoization so the timeline always reflects a live execution.
"""

from __future__ import annotations

from repro.cache import cached_result, results_enabled
from repro.engine.adapter import EngineAdapter
from repro.engine.hostlib import install_js_host, wasm_host_imports
from repro.engine.tiering import TierController
from repro.engine.trace import ExecutionTrace
from repro.env.adb import AdbCollector
from repro.errors import MeasurementError, ReproError
from repro.env.devtools import DevTools
from repro.harness.measurement import Measurement
from repro.harness.page import HtmlPage
from repro.jsengine import JsEngine
from repro.wasm import WasmVM

class _JsPageAdapter(EngineAdapter):
    """Runs Cheerp-generated (or handwritten) JS through the JS engine."""

    target = "js"
    memo_kind = "measure-js"

    def __init__(self, runner):
        self.runner = runner

    def page(self, artifact, entry):
        return HtmlPage.for_js(artifact, entry)

    def run_rep(self, artifact, page, entry, output, trace):
        runner = self.runner
        engine = JsEngine(runner.profile.js,
                          cycles_per_ms=runner.platform.cycles_per_ms)
        if trace is not None:
            engine.trace = trace
        # Resolved through the module global so tests can monkeypatch the
        # shim wiring.
        timings = install_js_host(engine, output)
        engine.load_script(page.script)
        metrics = runner.collector.js_metrics(engine)
        metrics.detail["timer_ms"] = timings[0] if timings else None
        metrics.detail["startup"] = self._startup_detail(engine, runner)
        if engine._profile is not None:
            metrics.detail["profile"] = engine._profile.to_dict()
        if trace is not None:
            self._assemble_trace(trace, engine, runner.profile)
        return metrics

    def finalize(self, result):
        result.detail["timer_ms_per_rep"] = [
            detail["timer_ms"] for detail in result.rep_details]

    @staticmethod
    def _startup_detail(engine, runner):
        """Startup vs steady-state split for one JS run: parse + bytecode
        compile happen before the first result; JIT promotions overlap
        execution."""
        stats = engine.stats
        policy = engine.tiering.policy
        startup_compile = (stats.compile_cycles
                           - stats.tier_up_compile_cycles)
        return {
            "parse_cycles": stats.parse_cycles,
            "startup_compile_cycles": startup_compile,
            "tier_up_compile_cycles": stats.tier_up_compile_cycles,
            "tier_cycles": {policy.basic.name: startup_compile,
                            policy.optimizing.name:
                                stats.tier_up_compile_cycles},
            "ttfr_cycles": (runner.profile.js.startup_cycles
                            + stats.parse_cycles + startup_compile),
            "exec_cycles": stats.cycles,
            "tier_ups": stats.tier_ups,
        }

    @staticmethod
    def _assemble_trace(trace, engine, profile):
        """Decompose the engine accounting into the phase timeline.  The
        tier-up and GC events were emitted live; parse/compile/execute are
        reconstructed from the stats (execute excludes GC pauses, which
        have their own spans)."""
        stats = engine.stats
        tier_up_cycles = sum(e.cycles for e in trace.events
                             if e.phase == "tier-up")
        trace.emit("parse", 0.0, stats.parse_cycles,
                   tokens=stats.tokens_parsed)
        trace.emit("compile", stats.parse_cycles,
                   stats.compile_cycles - tier_up_cycles,
                   tier=engine.tiering.policy.basic.name)
        trace.emit("execute", stats.parse_cycles + stats.compile_cycles,
                   stats.cycles - stats.gc_pause_cycles,
                   ops=stats.instructions)
        trace.emit("page-overhead", engine.total_cycles(),
                   profile.page_overhead_cycles)


class _WasmPageAdapter(EngineAdapter):
    """Runs a compiled Wasm module under the profile's tiering pipeline."""

    target = "wasm"
    memo_kind = "measure-wasm"

    def __init__(self, runner):
        self.runner = runner
        self.module = None
        self.unit = None

    def page(self, artifact, entry):
        return HtmlPage.for_wasm(artifact, entry)

    def setup(self, artifact, page):
        self.module = artifact.module
        # The module's static shape — size, opclass census, recorded pass
        # telemetry — is what the profile's compiler models price.
        telemetry = artifact.meta.get("pass_telemetry") or \
            self.module.meta.get("pass_telemetry", ())
        self.unit = self.module.code_unit(
            binary_size=len(artifact.binary), pass_telemetry=telemetry)

    def run_rep(self, artifact, page, entry, output, trace):
        runner = self.runner
        vm = WasmVM(boundary_cost=runner.profile.wasm.boundary_cost)
        # Resolved through the module global so tests can monkeypatch the
        # shim wiring.
        instance = vm.instantiate(self.module,
                                  wasm_host_imports(output, None))
        instance.invoke(entry)
        cycles, startup = runner._wasm_total_cycles(instance, page,
                                                    self.unit, trace)
        metrics = runner.collector.wasm_metrics(cycles, instance)
        metrics.detail["startup"] = startup
        if instance._profile is not None:
            metrics.detail["profile"] = instance._profile.to_dict()
        return metrics


class PageRunner:
    """Runs compiled artifacts the way the paper runs benchmark pages."""

    def __init__(self, profile, platform, flags=None, repetitions=5,
                 trace=False):
        if flags is not None:
            profile = flags.apply(profile)
        self.profile = profile
        self.platform = platform
        self.repetitions = repetitions
        self.trace = trace
        if platform.kind == "mobile":
            self.collector = AdbCollector(platform, profile)
        else:
            self.collector = DevTools(platform, profile)

    def _measurement_parts(self, artifact, entry, name):
        """Everything a measurement depends on besides the artifact bits:
        the (flag-adjusted) profile, the platform, and the protocol.
        Profiling changes the measurement payload (opclass tables ride
        ``detail``), so it participates in the memo key."""
        from repro.obs import profile_enabled
        return (artifact.cache_key, repr(self.profile), repr(self.platform),
                self.repetitions, entry, name, profile_enabled())

    # -- the unified measurement path ---------------------------------------

    def run_js(self, compiled_js, entry="main", name=None):
        return self._run_artifact(_JsPageAdapter(self), compiled_js, entry,
                                  name)

    def run_wasm(self, compiled_wasm, entry="main", name=None):
        return self._run_artifact(_WasmPageAdapter(self), compiled_wasm,
                                  entry, name)

    def _run_artifact(self, adapter, artifact, entry, name):
        name = name or artifact.name
        if not self.trace and results_enabled() \
                and getattr(artifact, "cache_key", None):
            result = cached_result(
                adapter.memo_kind,
                self._measurement_parts(artifact, entry, name),
                lambda: self._measure(adapter, artifact, entry, name))
        else:
            result = self._measure(adapter, artifact, entry, name)
        self._apply_obs(adapter, result)
        return result

    def _apply_obs(self, adapter, result):
        """Publish the deterministic measurement metrics.  Runs after the
        memo lookup so a warm (memoized) run produces the same DET
        counters as the cold run that populated it."""
        from repro.engine.profdecode import opclass_fractions
        from repro.obs import DET, get_registry
        reg = get_registry()
        reg.counter_add(f"measure.{adapter.target}.runs", 1, DET)
        reg.counter_add(f"measure.{adapter.target}.reps",
                        len(result.times_ms), DET)
        reg.counter_add("measure.time_ms_total", result.time_ms, DET)
        profile = result.detail.get("profile")
        if profile:
            engine = profile["engine"]
            for cls, (count, cycles) in opclass_fractions(profile).items():
                reg.counter_add(f"opclass.{engine}.{cls}.count", count, DET)
                reg.counter_add(f"opclass.{engine}.{cls}.cycles", cycles,
                                DET)
        startup = result.detail.get("startup")
        if startup:
            # Startup metrics replay on warm (memoized) runs exactly like
            # the opclass counters above: the detail dict rides the
            # memoized measurement, and this publish runs post-lookup.
            prefix = f"startup.{adapter.target}"
            for key, value in startup.items():
                if isinstance(value, dict):
                    for tier, cycles in value.items():
                        reg.counter_add(f"{prefix}.tier.{tier}.cycles",
                                        cycles, DET)
                elif isinstance(value, bool):
                    reg.counter_add(f"{prefix}.{key}", int(value), DET)
                else:
                    reg.counter_add(f"{prefix}.{key}", value, DET)

    def _measure(self, adapter, artifact, entry, name):
        try:
            return self._measure_inner(adapter, artifact, entry, name)
        except ReproError as exc:
            # Name the cell so a CellFailure captured by the sweep
            # scheduler pinpoints the benchmark/config without the caller
            # having to thread that context through.
            exc.add_note(
                f"cell: {name}/{adapter.target} under {self.profile.name} "
                f"v{self.profile.version} on {self.platform.name}")
            raise

    def _measure_inner(self, adapter, artifact, entry, name):
        page = adapter.page(artifact, entry)
        result = Measurement(name=name, target=adapter.target,
                             browser=f"{self.profile.name} "
                                     f"v{self.profile.version}",
                             platform=self.platform.name,
                             code_size=artifact.code_size)
        adapter.setup(artifact, page)
        trace = None
        for rep in range(self.repetitions):
            output = []
            rep_trace = (ExecutionTrace(adapter.target) if self.trace
                         else None)
            metrics = adapter.run_rep(artifact, page, entry, output,
                                      rep_trace)
            self._record_repetition(result, rep, metrics, output)
            if rep_trace is not None:
                trace = rep_trace
        adapter.finalize(result)
        if trace is not None:
            result.detail["trace"] = trace.finalize().to_dict()
        return result

    # -- repetition aggregation (§3.3.2) --------------------------------------

    @staticmethod
    def _record_repetition(result, rep, metrics, output):
        """Fold one repetition into the measurement: times are kept per-rep
        (and averaged by ``Measurement.time_ms``), memory is the high-water
        mark over repetitions, per-rep details are preserved, and every
        repetition must reproduce the first one's output."""
        result.times_ms.append(metrics.execution_time_ms)
        result.memory_kb = max(result.memory_kb, metrics.memory_kb)
        if rep == 0:
            result.output = output
        elif output != result.output:
            raise MeasurementError(
                f"{result.name}/{result.target}: repetition {rep + 1} "
                f"produced different output than repetition 1 "
                f"({output!r} vs {result.output!r}); averaging repetitions "
                "requires identical results")
        rep_detail = dict(metrics.detail)
        # The profile is identical across repetitions (deterministic
        # engines); keep one copy in ``detail``, not five in rep_details.
        rep_detail.pop("profile", None)
        result.rep_details.append(rep_detail)
        result.detail = dict(metrics.detail)

    def _wasm_total_cycles(self, instance, page, unit, trace=None):
        """Compose the Wasm pipeline cost (§2.2.2 / §4.4) from the shared
        tiering model.  Returns ``(total_cycles, startup_detail)`` where
        the detail splits time-to-first-result from steady-state
        execution."""
        cfg = self.profile.wasm
        stats = instance.stats
        raw_exec = stats.cycles
        instret = stats.instructions

        # JS glue: the loader script is real JS that must be parsed.
        glue = len(page.script) // 4 * self.profile.js.parse_cycles_per_token
        decode = unit.code_bytes * cfg.decode_cycles_per_byte
        plan = TierController(cfg.tier_policy()).plan(unit, instret)

        total = glue + cfg.instantiate_cycles
        total += decode
        for charge in plan.charges:
            total += charge.cycles
        exec_cycles = raw_exec * plan.exec_factor
        total += exec_cycles
        total += stats.boundary_cycles

        startup = {
            "glue_cycles": glue,
            "decode_cycles": decode,
            "instantiate_cycles": cfg.instantiate_cycles,
            "startup_compile_cycles": plan.startup_compile_cycles,
            "tier_up_compile_cycles": plan.tier_up_cycles,
            "tier_cycles": plan.cycles_by_tier(),
            # Time to first result: everything charged before execution
            # can begin (lazy tier-up compiles overlap execution).
            "ttfr_cycles": (glue + decode + cfg.instantiate_cycles
                            + plan.startup_compile_cycles),
            "exec_cycles": exec_cycles,
            "exec_factor": plan.exec_factor,
            "tiered_up": plan.tiered_up,
        }

        if trace is not None:
            clock = trace.emit("decode", 0.0, decode,
                               bytes=unit.code_bytes).end_cycles
            clock = trace.emit("parse", clock, glue,
                               part="js-glue").end_cycles
            clock = trace.emit("instantiate", clock,
                               cfg.instantiate_cycles).end_cycles
            for charge in plan.charges:
                clock = trace.emit(charge.phase, clock, charge.cycles,
                                   tier=charge.tier).end_cycles
            clock = trace.emit("execute", clock, exec_cycles,
                               instructions=instret,
                               factor=plan.exec_factor).end_cycles
            clock = trace.emit("host-call", clock, stats.boundary_cycles,
                               host_calls=stats.host_calls).end_cycles
            trace.emit("page-overhead", clock,
                       self.profile.page_overhead_cycles)
        return total, startup
