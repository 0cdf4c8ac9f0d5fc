"""E10 (§4.6.1, Table 9): manually-written JavaScript vs Cheerp-generated
JavaScript and WebAssembly, desktop Chrome, default (M) input."""

from __future__ import annotations

from repro.analysis import format_table
from repro.engine.hostlib import install_js_host
from repro.env import DESKTOP, chrome_desktop
from repro.jsengine import JsEngine
from repro.manualjs import manual_programs
from repro.suites import get_benchmark


def _run_manual(program, profile, platform):
    engine = JsEngine(profile.js, cycles_per_ms=platform.cycles_per_ms)
    install_js_host(engine, [])
    engine.load_script(program.source)
    result = engine.call_global(program.entry)
    return {
        "ms": platform.ms(engine.total_cycles() +
                          profile.page_overhead_cycles),
        "kb": engine.heap.devtools_bytes() / 1024.0,
        "result": result,
        "loc": program.source.count("\n") + 1,
    }


def table9_manual_js(ctx, size="M"):
    profile = chrome_desktop()
    runner = ctx.runner(profile, DESKTOP)
    rows = []
    data = {}
    for program in manual_programs():
        benchmark = get_benchmark(program.benchmark)
        manual = _run_manual(program, profile, DESKTOP)
        cheerp_js = runner.run_js(ctx.js(benchmark, size))
        wasm = runner.run_wasm(ctx.wasm(benchmark, size))
        data[program.name] = {
            "suite": program.suite,
            "library": program.library,
            "loc": manual["loc"],
            "manual_ms": manual["ms"],
            "cheerp_ms": cheerp_js.time_ms,
            "wasm_ms": wasm.time_ms,
            "manual_kb": manual["kb"],
            "cheerp_kb": cheerp_js.memory_kb,
            "wasm_kb": wasm.memory_kb,
        }
        rows.append([program.name, program.library, manual["loc"],
                     manual["ms"], cheerp_js.time_ms, wasm.time_ms,
                     manual["kb"], cheerp_js.memory_kb, wasm.memory_kb])
    text = format_table(
        ["Benchmark", "Library", "LOC", "Manual ms", "Cheerp ms",
         "WASM ms", "Manual KB", "Cheerp KB", "WASM KB"], rows,
        title="Table 9: manually-written JavaScript programs")
    return {"data": data, "text": text}
