#!/usr/bin/env python3
"""Observability report: renders the telemetry sections of
``results/summary.json`` into a terminal-friendly digest.

Sections (each skipped gracefully when its metrics are absent):

* **Compile passes** — top pipeline passes by accumulated wall time,
  with how often each ran and how many rewrites it applied
  (``pass.*`` metrics; wall times from the ``metrics_wall`` section,
  counts from the deterministic ``metrics`` section).
* **Opclass profile** — per engine, the operation classes ranked by
  modeled cycles with their execution counts (``opclass.*`` metrics;
  recorded when the run was profiled via ``REPRO_PROFILE=1``).
* **Startup vs steady state** — per execution target, the modeled
  time-to-first-result pipeline (decode/parse, instantiate, startup
  compile) split from steady-state execution, with per-tier compile
  cycles (``startup.*`` metrics from the deterministic section).
* **Startup frontier** — digest of the E14 sweep when
  ``summary["startup_frontier"]`` is present: per host, the default
  policy's startup/steady point plus which tier policy wins each axis.
* **Interpreter (codegen tier)** — per engine, the functions and
  blocks translated, the loop regions structured as nested loops and
  those declined, declined functions and translation-unit cache
  hits/misses (``interp.<engine>.codegen_*`` counters in the
  ``metrics_unstable`` section).
* **Cache / scheduler health** — artifact-cache hit rates and sweep
  scheduler retry/timeout/lost counts (``cache.*`` / ``sched.*`` in the
  ``metrics_unstable`` section).
* **Sweep service** — request/cell admission, dedupe and memo-warm
  serves, scheduler sweeps and shard maintenance (``service.*`` counters in
  the ``metrics_unstable`` section, recorded when the summary came from
  a serving process).

Stdlib-only and import-free of the package, so it can be pointed at a
``summary.json`` from any checkout: ``python tools/report.py
[results/summary.json]``.
"""

from __future__ import annotations

import json
import sys

#: Rows shown per ranked table.
TOP_N = 12


def _rule(title):
    return [title, "-" * len(title)]


def _fmt(value):
    if isinstance(value, float):
        return f"{value:,.3f}"
    return f"{value:,}"


def _pass_section(summary):
    det = summary.get("metrics", {})
    wall = summary.get("metrics_wall", {})
    rows = {}
    for name, value in wall.items():
        if name.startswith("pass.") and name.endswith(".wall_ms"):
            key = name[len("pass."):-len(".wall_ms")]
            rows.setdefault(key, {})["wall_ms"] = value
    for name, value in det.items():
        if not name.startswith("pass."):
            continue
        key, _, field = name[len("pass."):].rpartition(".")
        if key and field in ("applied", "rewrites"):
            rows.setdefault(key, {})[field] = value
    if not rows:
        return []
    ranked = sorted(rows.items(),
                    key=lambda kv: (-kv[1].get("wall_ms", 0.0), kv[0]))
    lines = _rule(f"Compile passes (top {min(TOP_N, len(ranked))} "
                  "by wall time)")
    lines.append(f"{'pass':<28} {'wall ms':>12} {'runs':>8} {'rewrites':>10}")
    for name, row in ranked[:TOP_N]:
        lines.append(f"{name:<28} {row.get('wall_ms', 0.0):>12,.3f} "
                     f"{row.get('applied', 0):>8,} "
                     f"{row.get('rewrites', 0):>10,}")
    return lines


def _opclass_section(summary):
    det = summary.get("metrics", {})
    engines = {}
    for name, value in det.items():
        if not name.startswith("opclass."):
            continue
        parts = name.split(".")
        if len(parts) != 4:
            continue
        _, engine, cls, field = parts
        engines.setdefault(engine, {}).setdefault(cls, {})[field] = value
    lines = []
    for engine in sorted(engines):
        table = engines[engine]
        ranked = sorted(table.items(),
                        key=lambda kv: (-kv[1].get("cycles", 0), kv[0]))
        total = sum(row.get("cycles", 0) for row in table.values())
        if lines:
            lines.append("")
        lines.extend(_rule(f"Opclass profile: {engine} "
                           f"(top {min(TOP_N, len(ranked))} by cycles)"))
        lines.append(f"{'opclass':<14} {'cycles':>16} {'ops':>14} {'share':>7}")
        for cls, row in ranked[:TOP_N]:
            cycles = row.get("cycles", 0)
            share = (100.0 * cycles / total) if total else 0.0
            lines.append(f"{cls:<14} {_fmt(cycles):>16} "
                         f"{row.get('count', 0):>14,} {share:>6.1f}%")
    return lines


def _interp_section(summary):
    unstable = summary.get("metrics_unstable", {})
    engines = {}
    for name, value in unstable.items():
        engine, sep, what = name[len("interp."):].partition(".codegen_")
        if name.startswith("interp.") and sep \
                and isinstance(value, (int, float)):
            engines.setdefault(engine, {})[what] = value
    if not engines:
        return []
    lines = _rule("Interpreter (codegen tier)")
    for engine in sorted(engines):
        row = engines[engine]
        lines.append(
            f"{engine}: {row.get('functions', 0):,} function(s) "
            f"({row.get('blocks', 0):,} blocks), "
            f"{row.get('loops', 0):,} loop(s) structured, "
            f"{row.get('loops_declined', 0):,} declined; "
            f"{row.get('declined', 0):,} function(s) declined; units "
            f"{row.get('cache_hits', 0):,} hit(s) / "
            f"{row.get('cache_misses', 0):,} miss(es)")
    return lines


def _health_section(summary):
    unstable = summary.get("metrics_unstable", {})
    cache = {k.split(".", 1)[1]: v for k, v in unstable.items()
             if k.startswith("cache.") and isinstance(v, (int, float))}
    sched = {k.split(".", 1)[1]: v for k, v in unstable.items()
             if k.startswith("sched.") and isinstance(v, (int, float))}
    lines = []
    if cache or sched:
        lines.extend(_rule("Cache / scheduler health"))
    if cache:
        probes = cache.get("hits", 0) + cache.get("misses", 0)
        rate = (100.0 * cache.get("hits", 0) / probes) if probes else 0.0
        lines.append(
            f"artifact cache: {cache.get('hits', 0):,} hit(s) "
            f"({cache.get('memory_hits', 0):,} memory / "
            f"{cache.get('disk_hits', 0):,} disk), "
            f"{cache.get('misses', 0):,} miss(es), "
            f"{cache.get('stale', 0):,} stale, "
            f"{cache.get('puts', 0):,} write(s), "
            f"{cache.get('evictions', 0):,} eviction(s) — "
            f"{rate:.1f}% hit rate")
    if sched:
        lines.append(
            f"scheduler: {sched.get('cells', 0):,} cell(s), "
            f"{sched.get('completed', 0):,} completed, "
            f"{sched.get('failures', 0):,} failed, "
            f"{sched.get('retries', 0):,} retried attempt(s), "
            f"{sched.get('timeouts', 0):,} timeout(s), "
            f"{sched.get('lost', 0):,} lost worker(s)")
    return lines


def _service_section(summary):
    unstable = summary.get("metrics_unstable", {})
    service = {k.split(".", 1)[1]: v for k, v in unstable.items()
               if k.startswith("service.") and isinstance(v, (int, float))}
    if not service:
        return []
    lines = _rule("Sweep service")
    requested = service.get("cells.requested", 0)
    deduped = service.get("cells.deduped", 0)
    warm = service.get("cells.warm", 0)
    swept = service.get("cells.swept", 0)
    lines.append(
        f"requests: {service.get('requests', 0):,} admitted, "
        f"{service.get('rejected', 0):,} rejected "
        f"(capacity/budget)")
    lines.append(
        f"cells: {requested:,} requested — {deduped:,} deduped against "
        f"in-flight work, {warm:,} served memo-warm, {swept:,} swept")
    if swept:
        sweeps = service.get("sweeps", 0)
        per = (swept / sweeps) if sweeps else 0.0
        lines.append(f"sweeps: {sweeps:,} scheduler sweep(s), "
                     f"{per:.1f} cell(s)/sweep")
    if service.get("tmp_swept"):
        lines.append(f"shard maintenance: {service['tmp_swept']:,} "
                     f"orphaned temp file(s) removed")
    return lines


def _measure_section(summary):
    det = summary.get("metrics", {})
    runs = {k.split(".")[1]: v for k, v in det.items()
            if k.startswith("measure.") and k.endswith(".runs")}
    if not runs:
        return []
    lines = _rule("Measurements")
    for target in sorted(runs):
        reps = det.get(f"measure.{target}.reps", 0)
        lines.append(f"{target}: {runs[target]:,} run(s), "
                     f"{reps:,} repetition(s)")
    total = det.get("measure.time_ms_total")
    if total is not None:
        lines.append(f"modeled execution time, all runs: {total:,.3f} ms")
    return lines


#: Scalar ``startup.<target>.*`` counters rendered per target, in
#: pipeline order (cycles before first result, then steady state).
_STARTUP_ROWS = (
    ("parse_cycles", "parse"),
    ("decode_cycles", "decode"),
    ("instantiate_cycles", "instantiate"),
    ("startup_compile_cycles", "startup compile"),
    ("ttfr_cycles", "time to first result"),
    ("tier_up_compile_cycles", "tier-up compile"),
    ("exec_cycles", "steady-state exec"),
)


def _startup_section(summary):
    det = summary.get("metrics", {})
    targets = {}
    for name, value in det.items():
        if not name.startswith("startup."):
            continue
        rest = name[len("startup."):]
        target, _, key = rest.partition(".")
        if not key:
            continue
        entry = targets.setdefault(target, {"scalars": {}, "tiers": {}})
        if key.startswith("tier.") and key.endswith(".cycles"):
            entry["tiers"][key[len("tier."):-len(".cycles")]] = value
        elif "." not in key:
            entry["scalars"][key] = value
    lines = []
    for target in sorted(targets):
        entry = targets[target]
        if lines:
            lines.append("")
        lines.extend(_rule(f"Startup vs steady state: {target}"))
        for key, label in _STARTUP_ROWS:
            if key in entry["scalars"]:
                lines.append(f"{label:<22} {entry['scalars'][key]:>18,.1f} "
                             f"cycles")
        ranked = sorted(entry["tiers"].items(),
                        key=lambda kv: (-kv[1], kv[0]))
        for tier, cycles in ranked:
            lines.append(f"  compile tier {tier:<12} {cycles:>14,.1f} cycles")
        tier_ups = entry["scalars"].get("tier_ups")
        tiered_up = entry["scalars"].get("tiered_up")
        if tier_ups is not None:
            lines.append(f"{'functions tiered up':<22} {tier_ups:>18,}")
        elif tiered_up is not None:
            lines.append(f"{'module tiered up':<22} "
                         f"{'yes' if tiered_up else 'no':>18}")
    return lines


def _frontier_section(summary):
    frontier = summary.get("startup_frontier")
    if not isinstance(frontier, dict) or not frontier:
        return []
    lines = _rule("Startup frontier (E14, geomean per host)")
    lines.append(f"{'host':<16} {'kind':<11} {'default ttfr':>13} "
                 f"{'steady':>8}   fastest start / fastest steady")
    for host in sorted(frontier):
        entry = frontier[host]
        policies = entry.get("policies", {})
        if not policies:
            continue
        default = policies.get("default") or next(iter(policies.values()))
        best_start = min(policies, key=lambda p: policies[p]["ttfr_ms"])
        best_steady = max(policies,
                          key=lambda p: policies[p]["steady_speed"])
        lines.append(
            f"{host:<16} {entry.get('kind', '?'):<11} "
            f"{default['ttfr_ms']:>11.3f}ms "
            f"{default['steady_speed']:>7.2f}x   "
            f"{best_start} / {best_steady}")
    return lines


def render_report(summary):
    """The full report text for one ``summary.json`` payload."""
    sections = [
        _measure_section(summary),
        _startup_section(summary),
        _frontier_section(summary),
        _pass_section(summary),
        _opclass_section(summary),
        _interp_section(summary),
        _health_section(summary),
        _service_section(summary),
    ]
    populated = [section for section in sections if section]
    if not populated:
        return ("no telemetry in summary: run with --report (or "
                "REPRO_PROFILE=1) to record metrics")
    return "\n\n".join("\n".join(section) for section in populated)


def main(argv):
    path = argv[1] if len(argv) > 1 else "results/summary.json"
    try:
        with open(path) as handle:
            summary = json.load(handle)
    except FileNotFoundError:
        print(f"report: {path} not found — run results/run_all.py first",
              file=sys.stderr)
        return 1
    print(render_report(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
