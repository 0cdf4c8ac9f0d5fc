"""E14: the baseline-compiler frontier — startup latency vs steady-state
speed across tier policies and hosts (Titzer-style, extending §4.4).

The paper's Table 7 compares tier *settings* inside two browsers.  This
experiment walks the larger tradeoff those settings sample: every
combination of host profile (3 desktop browsers + the standalone
runtimes of :mod:`repro.env.runtimes`) × tier policy (default, eager,
lazy, baseline-only, opt-only, hot-lazy) is one point with a
time-to-first-result and a steady-state execution speed — the frontier a
baseline compiler buys its place on.

Compile costs are *modeled*, not constant: every host's baseline tier is
priced by a :class:`~repro.engine.compilemodel.SinglePassCompiler` over
the module's real size and opclass mix, and every optimizing tier by a
:class:`~repro.engine.compilemodel.PassPipelineCompiler` over the pass
telemetry recorded while the artifact was actually optimized.  Browser
profiles keep their calibrated per-instruction rates for *measurements*
(golden parity); here those rates parameterize the modeled compilers (see
:func:`modeled_tiers`).

Each benchmark is executed once — raw execution stats are independent of
the tier policy (quality factors apply downstream) — and every
host × policy cell is then evaluated analytically from the shared
:class:`~repro.engine.compilemodel.CompilePlan`, with an exact
reconciliation check (:func:`verify_plan_reconciles`) asserting the
optimizing-tier cycles equal what the telemetry implies.

Environment switches: ``REPRO_FRONTIER_SIZE`` picks the input size
(default ``M``); ``REPRO_FRONTIER_BENCH`` restricts the benchmark set to
a comma-separated name list.
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.analysis import format_table, geomean
from repro.engine.compilemodel import (
    PassPipelineCompiler,
    SinglePassCompiler,
)
from repro.engine.hostlib import wasm_host_imports
from repro.engine.tiering import TierController
from repro.env import DESKTOP, chrome_desktop, edge_desktop, firefox_desktop
from repro.env.runtimes import (
    SINGLE_PASS_WEIGHTS,
    wamr_interp,
    wasmer_singlepass,
    wasmtime_style,
    wasmtime_winch,
)
from repro.wasm import WasmVM

SIZE_ENV = "REPRO_FRONTIER_SIZE"
BENCH_ENV = "REPRO_FRONTIER_BENCH"

#: Tier-policy variants swept per host (name, policy rewrite).  The
#: "default" entry keeps the host's own policy; the rest force one
#: promotion strategy so hosts are comparable point-for-point.
POLICIES = (
    ("default", lambda p: p),
    ("eager", lambda p: replace(p, basic_enabled=True,
                                optimizing_enabled=True,
                                eager_opt_compile=True)),
    ("lazy", lambda p: replace(p, basic_enabled=True,
                               optimizing_enabled=True,
                               eager_opt_compile=False)),
    ("lazy-hot", lambda p: replace(p, basic_enabled=True,
                                   optimizing_enabled=True,
                                   eager_opt_compile=False,
                                   tier_up_instructions=20000)),
    ("baseline-only", lambda p: replace(p, basic_enabled=True,
                                        optimizing_enabled=False,
                                        eager_opt_compile=False)),
    ("opt-only", lambda p: replace(p, basic_enabled=False,
                                   optimizing_enabled=True,
                                   eager_opt_compile=False)),
)


def modeled_tiers(policy):
    """A browser profile's calibrated per-instruction tier pair as
    modeled compilers: the basic rate becomes a single-pass scan with
    the shared opclass emit weights, the optimizing rate parameterizes a
    pass-pipeline model (per-IR-node, per-rewrite, backend lowering).
    The calibrated rate sets the *scale*; the module's actual shape and
    telemetry set the cost."""
    basic, optimizing = policy.basic, policy.optimizing
    basic_rate = basic.cycles_per_instr
    opt_rate = optimizing.cycles_per_instr
    return replace(
        policy,
        basic=SinglePassCompiler(
            name=basic.name,
            exec_factor=basic.exec_factor,
            cycles_per_instr=0.8 * basic_rate,
            opclass_weights=SINGLE_PASS_WEIGHTS,
            function_overhead_cycles=12.0 * basic_rate),
        optimizing=PassPipelineCompiler(
            name=optimizing.name,
            exec_factor=optimizing.exec_factor,
            cycles_per_node=0.4 * opt_rate,
            cycles_per_rewrite=1.0 * opt_rate,
            backend_cycles_per_instr=0.5 * opt_rate))


def frontier_hosts():
    """The host grid: ``(name, kind, tier_policy, startup_cycles,
    constants)`` per host.  Browsers get modeled compilers derived from
    their calibrated rates; standalone runtimes already carry them."""
    hosts = []
    for profile in (chrome_desktop(), firefox_desktop(), edge_desktop()):
        cfg = profile.wasm
        hosts.append({
            "name": f"{profile.name}-{profile.version}",
            "kind": "browser",
            "tiers": modeled_tiers(cfg.tier_policy()),
            "startup_cycles": profile.js.startup_cycles
                              + profile.page_overhead_cycles,
            "decode_cycles_per_byte": cfg.decode_cycles_per_byte,
            "instantiate_cycles": cfg.instantiate_cycles,
            "boundary_cost": cfg.boundary_cost,
            "cycles_per_ms": DESKTOP.cycles_per_ms,
        })
    for runtime in (wasmtime_style(), wasmtime_winch(), wamr_interp(),
                    wasmer_singlepass()):
        cfg = runtime.wasm
        hosts.append({
            "name": runtime.name,
            "kind": runtime.kind,
            "tiers": cfg.tier_policy(),
            "startup_cycles": runtime.startup_cycles,
            "decode_cycles_per_byte": cfg.decode_cycles_per_byte,
            "instantiate_cycles": cfg.instantiate_cycles,
            "boundary_cost": cfg.boundary_cost,
            "cycles_per_ms": runtime.cycles_per_ms,
        })
    return hosts


def verify_plan_reconciles(unit, policy, plan):
    """Assert the plan's per-tier cycles equal what the unit's telemetry
    and census imply — the 'no hardcoded constants' guarantee.  Raises
    ``AssertionError`` on any drift."""
    by_tier = plan.cycles_by_tier()
    for model, enabled in ((policy.basic, policy.basic_enabled),
                           (policy.optimizing, policy.optimizing_enabled)):
        charged = by_tier.get(model.name)
        if charged is None or not enabled:
            continue
        if isinstance(model, PassPipelineCompiler):
            expected = unit.static_instrs * model.backend_cycles_per_instr
            for _name, nodes_in, _out, rewrites in unit.pass_telemetry:
                expected += nodes_in * model.cycles_per_node
                expected += rewrites * model.cycles_per_rewrite
        elif isinstance(model, SinglePassCompiler):
            expected = model.function_overhead_cycles * unit.functions
            expected += unit.static_instrs * model.cycles_per_instr
            for idx, weight in model.opclass_weights:
                if idx < len(unit.opclass_counts):
                    expected += (unit.opclass_counts[idx] * (weight - 1.0)
                                 * model.cycles_per_instr)
        else:
            expected = model.compile_cycles(unit)
        assert charged == expected, (
            f"{model.name}: plan charged {charged} cycles, telemetry "
            f"implies {expected}")


def _evaluate_cell(host, policy_name, rewrite, unit, raw):
    """One frontier point, computed analytically from the raw run."""
    policy = rewrite(host["tiers"])
    plan = TierController(policy).plan(unit, raw["instructions"])
    verify_plan_reconciles(unit, policy, plan)
    decode = unit.code_bytes * host["decode_cycles_per_byte"]
    ttfr = (host["startup_cycles"] + decode + host["instantiate_cycles"]
            + plan.startup_compile_cycles)
    exec_cycles = (raw["exec_cycles"] * plan.exec_factor
                   + raw["boundary_crossings"] * host["boundary_cost"])
    total = ttfr + plan.tier_up_cycles + exec_cycles
    # Steady state: the tier the module ends the run in.
    on_opt = (policy.optimizing_enabled and
              (plan.tiered_up or policy.eager_opt_compile
               or not policy.basic_enabled))
    steady_factor = (policy.optimizing.exec_factor if on_opt
                     else policy.basic.exec_factor)
    per_ms = host["cycles_per_ms"]
    return {
        "ttfr_ms": ttfr / per_ms,
        "exec_ms": exec_cycles / per_ms,
        "total_ms": total / per_ms,
        "compile_cycles": plan.compile_cycles,
        "tier_cycles": plan.cycles_by_tier(),
        "steady_speed": 1.0 / steady_factor,
        "tiered_up": plan.tiered_up,
    }


def _frontier_benchmark(ctx, benchmark, size):
    """Worker: compile + run the benchmark once, then price every
    host × policy cell from the shared plan layer."""
    artifact = ctx.wasm(benchmark, size)
    telemetry = artifact.meta.get("pass_telemetry") or \
        artifact.module.meta.get("pass_telemetry", ())
    unit = artifact.module.code_unit(binary_size=len(artifact.binary),
                                     pass_telemetry=telemetry)
    output = []
    vm = WasmVM(boundary_cost=1.0)   # 1.0 => boundary_cycles == crossings
    instance = vm.instantiate(artifact.module,
                              wasm_host_imports(output, None))
    instance.invoke("main")
    raw = {
        "exec_cycles": instance.stats.cycles,
        "instructions": instance.stats.instructions,
        "boundary_crossings": instance.stats.boundary_cycles,
    }
    cells = {}
    for host in frontier_hosts():
        per_host = {}
        for policy_name, rewrite in POLICIES:
            per_host[policy_name] = _evaluate_cell(host, policy_name,
                                                   rewrite, unit, raw)
        cells[host["name"]] = per_host
    return cells


def _bench_subset(ctx):
    names = os.environ.get(BENCH_ENV)
    benchmarks = ctx.benchmarks()
    if names:
        wanted = {n.strip() for n in names.split(",") if n.strip()}
        benchmarks = [b for b in benchmarks if b.name in wanted]
    return benchmarks


def startup_frontier(ctx, size=None):
    """The frontier sweep: geomean per host × policy over the benchmark
    set, plus an ASCII frontier figure."""
    size = size or os.environ.get(SIZE_ENV, "M")
    subset = _bench_subset(ctx)
    orig_benchmarks = ctx.benchmarks
    ctx.benchmarks = lambda: subset
    try:
        results = ctx.map_benchmarks(_frontier_benchmark, size=size)
    finally:
        ctx.benchmarks = orig_benchmarks
    if not results:
        raise ValueError("startup_frontier: no benchmark results")

    hosts = frontier_hosts()
    data = {}
    for host in hosts:
        per_policy = {}
        for policy_name, _rewrite in POLICIES:
            cells = [cell[host["name"]][policy_name]
                     for _benchmark, cell in results]
            per_policy[policy_name] = {
                "ttfr_ms": geomean([c["ttfr_ms"] for c in cells]),
                "exec_ms": geomean([c["exec_ms"] for c in cells]),
                "total_ms": geomean([c["total_ms"] for c in cells]),
                "steady_speed": geomean([c["steady_speed"]
                                         for c in cells]),
                "tiered_up_fraction": (
                    sum(1 for c in cells if c["tiered_up"]) / len(cells)),
            }
        data[host["name"]] = {"kind": host["kind"], "policies": per_policy}

    text = _render(data, size, len(results))
    return {"data": data, "text": text,
            "benchmarks": [b.name for b, _ in results], "size": size}


def _render(data, size, num_benchmarks):
    rows = []
    for host_name, entry in data.items():
        for policy_name, cell in entry["policies"].items():
            rows.append([
                host_name, entry["kind"], policy_name,
                f"{cell['ttfr_ms']:.3f}",
                f"{cell['exec_ms']:.2f}",
                f"{cell['total_ms']:.2f}",
                f"{cell['steady_speed']:.2f}x",
                f"{cell['tiered_up_fraction'] * 100:.0f}%",
            ])
    table = format_table(
        ["host", "kind", "policy", "ttfr ms", "exec ms", "total ms",
         "steady speed", "tiered up"], rows)
    figure = _ascii_frontier(data)
    header = (f"E14. Startup latency vs steady-state speed frontier "
              f"(size {size}, {num_benchmarks} benchmark(s), geomean)\n")
    return header + table + "\n\n" + figure


def _ascii_frontier(data, width=64, height=16):
    """Scatter of the *default* policy per host: x = time-to-first-result
    (log scale), y = steady-state speed.  The frontier is the upper-left
    edge."""
    import math
    points = []
    for host_name, entry in data.items():
        cell = entry["policies"]["default"]
        points.append((host_name, cell["ttfr_ms"], cell["steady_speed"]))
    xs = [math.log10(max(p[1], 1e-6)) for p in points]
    ys = [p[2] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    legend = []
    for idx, (name, _ttfr, _speed) in enumerate(points):
        mark = chr(ord("A") + idx)
        col = round((xs[idx] - x_lo) / x_span * (width - 1))
        row = round((y_hi - ys[idx]) / y_span * (height - 1))
        grid[row][col] = mark
        legend.append(f"  {mark} = {name} "
                      f"(ttfr {points[idx][1]:.3f} ms, "
                      f"steady {points[idx][2]:.2f}x)")
    lines = ["steady-state speed ^  (default policy per host; "
             "x: log ttfr ms ->)"]
    lines.extend("  |" + "".join(row) for row in grid)
    lines.append("  +" + "-" * width)
    lines.extend(legend)
    return "\n".join(lines)


def main(argv=None):
    """CLI: ``python -m repro.experiments.startup_frontier [--smoke]``.

    ``--smoke`` runs a two-benchmark serial sweep and prints ``smoke ok``
    — the tier-1 gate that keeps the experiment exercised on every run.
    """
    import argparse
    from repro.experiments.common import ExperimentContext
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sweep + invariant checks")
    parser.add_argument("--size", default=None,
                        help=f"input size (default: ${SIZE_ENV} or M)")
    args = parser.parse_args(argv)
    if args.smoke:
        ctx = ExperimentContext(repetitions=1, quick=True, jobs=1)
        benchmarks = [b for b in ctx.benchmarks()
                      if b.name in ("atax", "SHA")]
        ctx.benchmarks = lambda: benchmarks
        result = startup_frontier(ctx, size=args.size or "S")
        browsers = [h for h, e in result["data"].items()
                    if e["kind"] == "browser"]
        standalone = [h for h, e in result["data"].items()
                      if e["kind"] == "standalone"]
        assert len(browsers) >= 3, browsers
        assert len(standalone) >= 2, standalone
        policies = next(iter(result["data"].values()))["policies"]
        assert len(policies) >= 4, list(policies)
        print(f"frontier: {len(result['data'])} hosts x "
              f"{len(policies)} policies over "
              f"{len(result['benchmarks'])} benchmark(s)")
        print("smoke ok")
        return 0
    ctx = ExperimentContext()
    result = startup_frontier(ctx, size=args.size)
    print(result["text"])
    report = ctx.failure_report()
    if report:
        print(report)
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
