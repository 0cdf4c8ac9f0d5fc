"""Regenerate every paper table/figure; writes text reports to results/.

Deterministic engines make repetitions identical, so repetitions=2 is used
to keep wall time reasonable (the paper averaged 5 runs of noisy hardware).

Compiles are served from the persistent content-addressed cache
(``REPRO_CACHE_DIR``, default ``~/.cache/repro``): a second invocation
with a warm cache skips every frontend/IR/backend pipeline.  The
benchmark grid fans out across ``REPRO_JOBS`` worker processes (default:
CPU count; ``REPRO_JOBS=1`` forces the serial engine — output is
byte-identical either way).

``--report`` additionally enables the per-opclass profiler
(``REPRO_PROFILE=1``) and renders ``tools/report.py`` — top compile
passes by wall time, top opclasses by modeled cycles, cache/scheduler
health — to stdout and ``results/report.txt``.

``--cells <request.json>`` is the sweep service's reference path: read
one experiment-request payload (the same JSON ``POST /sweep`` accepts),
canonicalize it with the service's own validator, run every cell
serially in this process, and print one result line per cell to stdout.
These lines are byte-identical to the ``result`` lines the service
streams for the same request — the service's end-to-end tests pin
that equality.

``--cells <request.json> --trace-out <trace.json>`` additionally arms
distributed tracing (``REPRO_TRACE=1``) and the event sink for the run,
opens one deterministic trace over the request, and exports the
collected span stream as Chrome Trace Event JSON (load it at
https://ui.perfetto.dev) via ``tools/trace_export.py``.  The printed
result lines then carry ``trace`` ids — use plain ``--cells`` when the
byte-identical reference stream is what you need.
"""
import json, os, time, sys

# The engines are deterministic, so measurements are content-addressable
# too: memoize them (alongside the compiled artifacts) so a warm-cache
# rerun skips both compilation and execution.  REPRO_RESULT_CACHE=0
# forces live re-measurement.
os.environ.setdefault("REPRO_RESULT_CACHE", "1")

# --report arms the per-opclass profiler for the whole run (must happen
# before any engine is constructed, including in forked workers) and
# renders tools/report.py over the collected metrics at the end.
REPORT = "--report" in sys.argv
if REPORT:
    os.environ.setdefault("REPRO_PROFILE", "1")

if "--cells" in sys.argv:
    # Service reference mode: run one canonicalized request's cells
    # serially and print the canonical JSONL result lines.
    from repro.service import canonicalize_request, direct_lines

    spec_path = sys.argv[sys.argv.index("--cells") + 1]
    with open(spec_path) as f:
        payload = json.load(f)
    request = canonicalize_request(payload)

    if "--trace-out" in sys.argv:
        # Traced reference run: arm tracing + the JSONL sink, run the
        # cells under one deterministic root context, then fold the
        # span stream into Chrome Trace Event JSON.
        import importlib.util, tempfile
        trace_out = sys.argv[sys.argv.index("--trace-out") + 1]
        fd, events_path = tempfile.mkstemp(prefix="repro-events-",
                                           suffix=".jsonl")
        os.close(fd)
        os.environ["REPRO_TRACE"] = "1"
        os.environ["REPRO_EVENTS"] = events_path
        from repro.obs import TraceContext, emit_span

        root = TraceContext.root(
            "run_all", request.client,
            *(spec.cell_key() for spec in request.cells))
        started = time.time()
        lines = direct_lines(request.cells, trace=root)
        emit_span(root, "run_all.cells", started, time.time() - started,
                  client=request.client, cells=len(request.cells))
        for line in lines:
            print(line, flush=True)
        _spec = importlib.util.spec_from_file_location(
            "repro_trace_export",
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "tools", "trace_export.py"))
        _export = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(_export)
        chrome = _export.export_file(events_path, trace_out)
        os.unlink(events_path)
        print(f"chrome trace: {len(chrome['traceEvents'])} event(s) "
              f"-> {trace_out}", flush=True)
        sys.exit(0)

    for line in direct_lines(request.cells):
        print(line, flush=True)
    sys.exit(0)

from repro.cache import get_cache
from repro.experiments.common import health_lines
from repro.experiments import (
    ExperimentContext, figure5_opt_levels, figure6_opt_levels_x86,
    table2_summary, compare_cheerp_emscripten, figure9_input_sizes,
    input_size_tables, figure10_jit_improvement, table7_tier_comparison,
    table8_browsers_platforms, context_switch_overhead, table9_manual_js,
    table10_realworld, table12_longjs_ops, figure11_five_number,
    table11_chrome_flags, startup_frontier,
)
from repro.env import chrome_desktop, firefox_desktop

out_dir = "results"

ctx = ExperimentContext(repetitions=2)
summary = {}
print(f"scheduler: {ctx.jobs} job(s); artifact cache at "
      f"{get_cache().root}", flush=True)

def save(name, result):
    with open(f"{out_dir}/{name}.txt", "w") as f:
        f.write(result["text"] + "\n")
    print(f"[{time.strftime('%H:%M:%S')}] {name} done", flush=True)

t0 = time.time()
fig5 = figure5_opt_levels(ctx); save("fig5_opt_levels", fig5)
fig6 = figure6_opt_levels_x86(ctx); save("fig6_opt_levels_x86", fig6)
t2 = table2_summary(ctx, fig5=fig5, fig6=fig6); save("table2_summary", t2)
summary["table2"] = {f"{m}|{l}": v for (m, l), v in t2["data"].items()}
f11 = figure11_five_number(ctx, fig5=fig5, fig6=fig6); save("fig11_five_number", f11)

e3 = compare_cheerp_emscripten(ctx); save("sec422_compilers", e3)
summary["cheerp_vs_emscripten"] = e3["summary"]

fig9c = figure9_input_sizes(ctx, chrome_desktop()); save("fig9_chrome", fig9c)
t34 = input_size_tables(ctx, "chrome", fig9=fig9c); save("tables3_4_chrome", t34)
summary["table3"] = t34["exec"]; summary["table4"] = t34["memory"]
fig9f = figure9_input_sizes(ctx, firefox_desktop()); save("fig9_firefox", fig9f)
t56 = input_size_tables(ctx, "firefox", fig9=fig9f); save("tables5_6_firefox", t56)
summary["table5"] = t56["exec"]; summary["table6"] = t56["memory"]

f10 = figure10_jit_improvement(ctx); save("fig10_jit", f10)
summary["fig10"] = {f"{t}|{s}": v for (t, s), v in f10["summary"].items()}
t7 = table7_tier_comparison(ctx); save("table7_tiers", t7)
summary["table7"] = t7["summary"]
t8 = table8_browsers_platforms(ctx); save("table8_browsers", t8)
summary["table8"] = {f"{b}|{p}": {k: v for k, v in e.items() if k != "per_benchmark"}
                     for (b, p), e in t8["data"].items()}
cs = context_switch_overhead(); save("sec45_context_switch", cs)
summary["context_switch"] = {k: v["vs_chrome"] for k, v in cs["data"].items()}
t9 = table9_manual_js(ctx); save("table9_manual_js", t9)
summary["table9"] = t9["data"]
t10 = table10_realworld(); save("table10_realworld", t10)
summary["table10"] = {
    "longjs": {k: v["ratio"] for k, v in t10["longjs"].items()},
    "hyphenopoly": {k: v["ratio"] for k, v in t10["hyphenopoly"].items()},
    "ffmpeg": t10["ffmpeg"]["ratio"],
}
t12 = table12_longjs_ops(t10["longjs"]); save("table12_longjs_ops", t12)
t11 = table11_chrome_flags(); save("table11_chrome_flags", t11)
e14 = startup_frontier(ctx); save("startup_frontier", e14)
summary["startup_frontier"] = e14["data"]

if ctx.failures:
    # Degraded sweep: record which cells failed (and why) alongside the
    # partial results instead of pretending the run was clean.
    summary["failures"] = [
        {"experiment": f.context.get("experiment", "?"),
         "benchmark": f.label, "error": f.error, "message": f.message,
         "kind": f.kind, "attempts": f.attempts}
        for f in ctx.failures]
    report = ctx.failure_report()
    with open(f"{out_dir}/failures.txt", "w") as f:
        f.write(report + "\n")
    print(report, flush=True)

# Metrics registry export, split by stability: "metrics" holds the
# deterministic counters (golden-comparable — byte-identical across
# schedules, cache warmth and interpreter tiers); "metrics_unstable"
# (cache/scheduler counters) and "metrics_wall" (wall times) are
# explicitly outside that parity contract.
from repro.obs import DET, SCHED, WALL, get_registry
registry = get_registry()
summary["metrics"] = registry.export([DET])
summary["metrics_unstable"] = registry.export([SCHED])
summary["metrics_wall"] = registry.export([WALL])

with open(f"{out_dir}/summary.json", "w") as f:
    json.dump(summary, f, indent=2, default=str)
get_cache().sweep_tmp()          # orphaned temp files from killed workers
for line in health_lines():      # the registry's cache.* / sched.* counts
    print(line, flush=True)

if REPORT:
    import importlib.util
    _spec = importlib.util.spec_from_file_location(
        "repro_report",
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "..", "tools", "report.py"))
    _report_mod = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_report_mod)
    report_text = _report_mod.render_report(summary)
    with open(f"{out_dir}/report.txt", "w") as f:
        f.write(report_text + "\n")
    print(report_text, flush=True)
    print(f"report written to {out_dir}/report.txt", flush=True)

print(f"ALL DONE in {time.time()-t0:.0f}s", flush=True)
if ctx.failures:
    print(f"sweep: {len(ctx.failures)} failed cell(s) — "
          f"see {out_dir}/failures.txt", flush=True)
