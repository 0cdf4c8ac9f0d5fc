"""Determinism of the count/cycle metrics: the deterministic (``det``)
slice of the registry must come out byte-identical

* between a serial sweep (``jobs=1``) and a parallel one (``jobs>1``),
  including when flaky cells are retried (failed attempts roll back);
* between a cold run and a memoizer-warm rerun of the same measurement
  (the DET counters replay from the memoized payload);
* between ``REPRO_FAST_INTERP=0`` and ``=1`` (covered at the opclass
  level here; per-op parity lives in test_profile_parity.py).

Also: the report tool renders a populated summary (smoke, via a real
subprocess the way CI invokes it).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.parallel import FaultPlan, run_sweep
from repro.obs import DET, get_registry, reset_registry

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
double g[32];
int main() {
  double acc = 0.0;
  for (int i = 0; i < 32; i++) g[i] = i * 0.25;
  for (int i = 0; i < 32; i++) acc = acc + g[i] * 3.0;
  printf("%d", (int)acc);
  return 0;
}
"""


@pytest.fixture(autouse=True)
def _fresh_registry(store_restored):
    reset_registry()
    yield
    reset_registry()


def _measure_cell(opt_level):
    """Module-level worker: compile + run one cell, record metrics."""
    from repro.compilers import CheerpCompiler
    from repro.env import DESKTOP, chrome_desktop
    from repro.harness import PageRunner

    compiler = CheerpCompiler(linear_heap_size=1024 * 1024)
    artifact = compiler.compile_wasm(PROGRAM, opt_level=opt_level)
    runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=2)
    return runner.run_wasm(artifact).time_ms


def test_det_metrics_identical_serial_vs_parallel():
    items = ["O0", "O1", "O2", "O3"]

    serial = run_sweep(_measure_cell, items, jobs=1, sleep=lambda s: None)
    det_serial = get_registry().export([DET])

    reset_registry()
    parallel = run_sweep(_measure_cell, items, jobs=2, sleep=lambda s: None)
    det_parallel = get_registry().export([DET])

    assert serial.ok and parallel.ok
    assert serial.values == parallel.values
    assert det_serial            # the sweep recorded pass/measure counters
    assert json.dumps(det_serial, sort_keys=True) == \
        json.dumps(det_parallel, sort_keys=True)


def test_det_metrics_survive_flaky_retries():
    """A flaking cell's failed attempt must leave no metric residue in
    either execution mode: the rolled-back attempt makes serial and
    parallel registries agree exactly."""
    items = ["O0", "O1", "O2"]
    labels = ["a", "b", "c"]
    plan = FaultPlan({"b": "flake:1"})

    serial = run_sweep(_measure_cell, items, jobs=1, labels=labels,
                       fault_plan=plan, sleep=lambda s: None)
    det_serial = get_registry().export([DET])

    reset_registry()
    parallel = run_sweep(_measure_cell, items, jobs=3, labels=labels,
                         fault_plan=plan, sleep=lambda s: None)
    det_parallel = get_registry().export([DET])

    assert serial.ok and parallel.ok
    assert det_serial == det_parallel


def test_det_metrics_identical_cold_vs_memo_warm(fresh_store, monkeypatch):
    """With the result memoizer armed, a warm rerun serves measurements
    from the cache — and must still replay the same DET counters the
    cold run recorded (compile.pass counters ride the artifact, measure
    counters re-apply per run)."""
    from repro.compilers import CheerpCompiler
    from repro.env import DESKTOP, chrome_desktop
    from repro.harness import PageRunner

    monkeypatch.setenv("REPRO_RESULT_CACHE", "1")

    def one_run():
        compiler = CheerpCompiler(linear_heap_size=1024 * 1024)
        artifact = compiler.compile_wasm(PROGRAM, opt_level="O2")
        runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=2)
        return runner.run_wasm(artifact).time_ms

    cold_value = one_run()
    det_cold = get_registry().export([DET])

    reset_registry()
    warm_value = one_run()
    det_warm = get_registry().export([DET])

    assert cold_value == warm_value
    assert det_cold              # pass.* and measure.* counters present
    assert any(k.startswith("pass.") for k in det_cold)
    # Startup decomposition counters (modeled compile pipeline) must ride
    # the memoized payload like every other DET metric: same keys, same
    # bytes, whether the measurement ran live or replayed from cache.
    startup_cold = {k: v for k, v in det_cold.items()
                    if k.startswith("startup.")}
    startup_warm = {k: v for k, v in det_warm.items()
                    if k.startswith("startup.")}
    assert "startup.wasm.ttfr_cycles" in startup_cold
    assert "startup.wasm.startup_compile_cycles" in startup_cold
    assert any(k.startswith("startup.wasm.tier.") for k in startup_cold)
    assert json.dumps(startup_cold, sort_keys=True) == \
        json.dumps(startup_warm, sort_keys=True)
    assert det_cold == det_warm
    # And the warm run really was served from the caches.
    assert get_registry().export().get("cache.hits", 0) > 0


def test_det_metrics_identical_across_interpreter_tiers(monkeypatch):
    """Opclass-level DET parity between the reference ladder and the
    codegen tier, through the full runner path."""
    monkeypatch.setenv("REPRO_PROFILE", "1")

    exports = {}
    for fast in ("0", "1"):
        monkeypatch.setenv("REPRO_FAST_INTERP", fast)
        reset_registry()
        _measure_cell("O2")
        exports[fast] = get_registry().export([DET])

    assert any(k.startswith("opclass.wasm.") for k in exports["0"])
    assert exports["0"] == exports["1"]


def test_cached_result_replays_det_metrics(fresh_store, monkeypatch):
    """A memoized computation that records DET counters internally (the
    real-world app drivers, which compile inside ``compute``) replays
    exactly those counters on a warm serve — and only those: sched/wall
    entries reflect the actual (cached) execution."""
    from repro.cache import cached_result
    from repro.obs import SCHED, WALL

    monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
    calls = []

    def compute():
        calls.append(1)
        reg = get_registry()
        reg.counter_add("app.compiles", 3, DET)
        reg.counter_add("app.frac", 0.1, DET)
        reg.counter_add("app.cache_probes", 7, SCHED)
        reg.counter_add("app.wall_ms", 5.0, WALL)
        return {"ok": True}

    cold = cached_result("unit-app", ("k",), compute, replay_metrics=True)
    det_cold = get_registry().export([DET])

    reset_registry()
    warm = cached_result("unit-app", ("k",), compute, replay_metrics=True)
    det_warm = get_registry().export([DET])

    assert cold == warm == {"ok": True}
    assert len(calls) == 1                   # second serve was a hit
    assert det_cold == {"app.compiles": 3, "app.frac": 0.1}
    assert det_warm == det_cold
    # The compute's schedule/wallclock entries were *not* replayed (the
    # warm serve records its own cache.hits, which is the point: sched
    # metrics reflect the actual execution).
    exported = get_registry().export()
    assert "app.cache_probes" not in exported
    assert "app.wall_ms" not in exported


def test_report_tool_renders_summary(tmp_path):
    summary = {
        "metrics": {
            "measure.wasm.runs": 3,
            "measure.wasm.reps": 6,
            "measure.time_ms_total": 1.5,
            "pass.dce.applied": 3,
            "pass.dce.rewrites": 7,
            "opclass.wasm.add.count": 100,
            "opclass.wasm.add.cycles": 100.0,
            "opclass.wasm.mul.count": 10,
            "opclass.wasm.mul.cycles": 30.0,
            "startup.wasm.decode_cycles": 120.0,
            "startup.wasm.startup_compile_cycles": 500.0,
            "startup.wasm.ttfr_cycles": 620.0,
            "startup.wasm.exec_cycles": 9000.0,
            "startup.wasm.tier.LiftOff.cycles": 500.0,
        },
        "startup_frontier": {
            "chrome-79": {"kind": "browser", "policies": {
                "default": {"ttfr_ms": 0.2, "exec_ms": 1.0,
                            "total_ms": 1.2, "steady_speed": 0.9},
                "eager": {"ttfr_ms": 0.6, "exec_ms": 0.8,
                          "total_ms": 1.4, "steady_speed": 1.1},
            }},
        },
        "metrics_unstable": {
            "cache.hits": 5, "cache.misses": 2, "cache.puts": 2,
            "sched.cells": 4, "sched.completed": 4, "sched.retries": 1,
            "interp.wasm.codegen_functions": 3,
            "interp.wasm.codegen_blocks": 40,
            "interp.wasm.codegen_loops": 5,
            "interp.wasm.codegen_loops_declined": 1,
        },
        "metrics_wall": {"pass.dce.wall_ms": 1.25},
    }
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report.py"), str(path)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "Compile passes" in out
    assert "dce" in out
    assert "Opclass profile: wasm" in out
    assert "add" in out
    assert "Startup vs steady state: wasm" in out
    assert "time to first result" in out
    assert "compile tier LiftOff" in out
    assert "Startup frontier" in out
    assert "default / eager" in out
    assert "Cache / scheduler health" in out
    assert "71.4% hit rate" in out
    assert "1 retried attempt(s)" in out
    assert "Interpreter (codegen tier)" in out
    assert "wasm: 3 function(s) (40 blocks), 5 loop(s) structured, " \
        "1 declined" in out


def test_report_tool_degrades_without_metrics(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps({"table2": {}}))
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report.py"), str(path)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "no telemetry" in result.stdout


def test_failure_report_includes_health_lines():
    from repro.experiments.common import health_lines
    from repro.obs import SCHED

    reg = get_registry()
    reg.counter_add("cache.hits", 3, SCHED)
    reg.counter_add("cache.misses", 1, SCHED)
    reg.counter_add("sched.cells", 2, SCHED)
    reg.counter_add("sched.retries", 1, SCHED)
    lines = health_lines()
    assert any("cache health" in line and "3 hit(s)" in line
               for line in lines)
    assert any("scheduler health" in line and "1 retried" in line
               for line in lines)
