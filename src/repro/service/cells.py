"""Cell execution shared by the sweep service and ``run_all.py --cells``.

One *cell* (:class:`~repro.service.requests.CellSpec`) is the smallest
schedulable unit of the measurement matrix: compile one benchmark with
one toolchain at one opt level and measure it under one engine profile.
The service's workers and the direct command-line path both run cells
through :func:`run_cell` and serialize them with :func:`result_line`, so
a JSONL line streamed over HTTP is byte-identical to the line a direct
invocation of the same cell prints — that equality is the service's
correctness contract (and is pinned by the end-to-end tests in
``tests/test_service.py``).

Results are memoized under the ``service-cell`` kind with
``replay_metrics=True``: a warm cell replays the DET metrics the cold
run recorded, so a memo-warm server exports the same deterministic
counters as a cold one.
"""

from __future__ import annotations

import json

from repro.cache import cached_result
from repro.service.requests import MEMO_KIND, CellSpec

#: Cheerp linear heap used for benchmark cells (matches
#: ``ExperimentContext``'s default, §3.2).
HEAP_BYTES = 2 * 1024 * 1024

#: Per-process toolchain instances (workers build each compiler once).
_TOOLCHAINS = {}

#: Per-process engine profile instances, keyed by profile name.
_PROFILES = {}


def _toolchain(name):
    toolchain = _TOOLCHAINS.get(name)
    if toolchain is None:
        from repro.compilers import (
            CheerpCompiler, EmscriptenCompiler, LlvmX86Compiler,
        )
        factories = {
            "cheerp": lambda: CheerpCompiler(linear_heap_size=HEAP_BYTES),
            "emscripten": EmscriptenCompiler,
            "llvm-x86": LlvmX86Compiler,
        }
        toolchain = _TOOLCHAINS[name] = factories[name]()
    return toolchain


def profile_for(name):
    """Resolve a profile name to ``(BrowserProfile, PlatformSpec)``."""
    entry = _PROFILES.get(name)
    if entry is None:
        from repro import env
        factory = getattr(env, name.replace("-", "_"))
        profile = factory()
        platform = env.MOBILE if profile.platform_kind == "mobile" \
            else env.DESKTOP
        entry = _PROFILES[name] = (profile, platform)
    return entry


def compute_cell(spec):
    """Live execution of one cell; returns a JSON-clean result dict."""
    from repro.harness import PageRunner
    from repro.suites import get_benchmark

    benchmark = get_benchmark(spec.benchmark)
    defines = benchmark.defines(spec.size)
    toolchain = _toolchain(spec.toolchain)
    if spec.target == "x86":
        from repro.native import execute_program
        artifact = toolchain.compile(benchmark.source, defines,
                                     spec.opt_level, benchmark.name)
        cycles = execute_program(artifact.program, "main")[1].cycles
        return {"target": "x86", "name": benchmark.name,
                "toolchain": artifact.toolchain,
                "opt_level": artifact.opt_level,
                "code_size": artifact.code_size, "cycles": cycles}
    profile, platform = profile_for(spec.profile)
    # With REPRO_TRACE=1 the harness records the engine phase timeline,
    # whose events become leaf spans of the running attempt (see
    # ExecutionTrace.finalize).  Tracing bypasses the measurement-level
    # memo, but the engine is deterministic so the returned values — and
    # the DET metrics slice — are identical either way.
    from repro.obs import trace_enabled
    runner = PageRunner(profile, platform, repetitions=spec.repetitions,
                        trace=trace_enabled())
    if spec.target == "wasm":
        artifact = toolchain.compile_wasm(benchmark.source, defines,
                                          spec.opt_level, benchmark.name)
        measurement = runner.run_wasm(artifact)
    else:
        artifact = toolchain.compile_js(benchmark.source, defines,
                                        spec.opt_level, benchmark.name)
        measurement = runner.run_js(artifact)
    return {
        "target": measurement.target,
        "name": measurement.name,
        "browser": measurement.browser,
        "platform": measurement.platform,
        "toolchain": artifact.toolchain,
        "opt_level": artifact.opt_level,
        "code_size": measurement.code_size,
        "time_ms": measurement.time_ms,
        "times_ms": list(measurement.times_ms),
        "memory_kb": measurement.memory_kb,
        "output": list(measurement.output),
    }


def run_cell(spec):
    """One cell, served from the result cache when warm.

    ``replay_metrics=True`` keeps the DET metrics slice identical between
    cold and memo-warm serves; the flag is part of the key, so these
    entries never collide with a plain caller's."""
    return cached_result(MEMO_KIND, spec.key_parts(),
                         lambda: compute_cell(spec), replay_metrics=True)


def run_cell_task(spec_tuple):
    """Module-level (picklable) sweep-worker entry point."""
    return run_cell(CellSpec.from_tuple(spec_tuple))


def result_line(spec, value, trace=None):
    """The canonical JSONL result line for one completed cell.  Both the
    service stream and the direct path emit exactly this string.  When a
    :class:`~repro.obs.TraceContext` is supplied (``REPRO_TRACE=1``) the
    line additionally carries the cell's trace/span ids; with tracing
    off the ``trace`` key is absent and the byte contract is untouched."""
    record = {"event": "result", "cell": spec.as_dict(),
              "key": spec.cell_key(), "value": value}
    if trace is not None:
        record["trace"] = {"trace_id": trace.trace_id,
                           "span_id": trace.span_id}
    return json.dumps(record, sort_keys=True)


def failure_line(spec, failure, trace=None):
    """JSONL line for a cell that exhausted its retries.  Failure lines
    carry schedule-dependent fields (attempt counts) and are *not* part
    of the byte-equality contract."""
    record = {"event": "cell_failed", "cell": spec.as_dict(),
              "key": spec.cell_key(), "error": failure["error"],
              "message": failure["message"], "kind": failure["kind"],
              "attempts": failure["attempts"]}
    if trace is not None:
        record["trace"] = {"trace_id": trace.trace_id,
                           "span_id": trace.span_id}
    return json.dumps(record, sort_keys=True)


def direct_lines(cells, trace=None):
    """The reference serial path: run every cell in canonical order in
    this process and return the result lines (what ``run_all.py --cells``
    prints, and what a service stream must reproduce byte-for-byte).

    ``trace`` is an optional request-root :class:`~repro.obs.TraceContext`;
    each cell then runs under a ``("cell", key)`` child span (the same
    derivation the service uses) and its line carries the child's ids."""
    from repro.obs import span

    lines = []
    for spec in cells:
        if trace is None:
            lines.append(result_line(spec, run_cell(spec)))
            continue
        with span("cell", ctx=trace, parts=(spec.cell_key(),),
                  cell=spec.label()) as ctx:
            value = run_cell(spec)
        lines.append(result_line(spec, value, trace=ctx))
    return lines
