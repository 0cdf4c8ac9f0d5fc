"""DevTools-style metric collection (§3.4).

The paper reads execution time and memory from the browsers' developer
tools; :class:`DevTools` formalises which engine quantities those metrics
correspond to in the reproduction."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Metrics:
    """One measured page run."""

    execution_time_ms: float
    memory_kb: float
    detail: dict


class DevTools:
    """Turns raw engine accounting into the two metrics the paper reports.

    * Execution time: full script evaluation (parse + compile + execute +
      GC pauses for JS; decode + tier compile + execute + boundary for
      Wasm) plus the fixed page/renderer overhead the paper notes is
      included.
    * Memory: JS heap snapshot (live objects; typed-array backing stores
      are external) or the Wasm linear-memory commitment plus instance
      overhead.
    """

    def __init__(self, platform, profile):
        self.platform = platform
        self.profile = profile

    def js_metrics(self, engine):
        cycles = engine.total_cycles() + self.profile.page_overhead_cycles
        return Metrics(
            execution_time_ms=self.platform.ms(cycles),
            memory_kb=engine.heap.devtools_bytes() / 1024.0,
            detail={
                "parse_cycles": engine.stats.parse_cycles,
                "compile_cycles": engine.stats.compile_cycles,
                "exec_cycles": engine.stats.cycles,
                "gc_runs": engine.stats.gc_runs,
                "tier_ups": engine.stats.tier_ups,
            })

    def wasm_metrics(self, cycles, instance):
        cycles += self.profile.page_overhead_cycles
        memory = (instance.memory.byte_size +
                  self.profile.wasm.instance_overhead_bytes)
        return Metrics(
            execution_time_ms=self.platform.ms(cycles),
            memory_kb=memory / 1024.0,
            detail={
                "instructions": instance.stats.instructions,
                "host_calls": instance.stats.host_calls,
                "memory_grows": instance.stats.memory_grows,
                "linear_pages": instance.memory.pages,
            })
