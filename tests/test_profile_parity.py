"""Per-opclass profiler parity: the reference interpreter ladders
(``REPRO_FAST_INTERP=0``) and the generated-Python codegen tier (the
default) must record *identical* profiles — same per-function op-count
dicts, same call counts — for all three engines.  The profiles are
integer counts at matching charge points, so equality is exact, not
approximate.

Also covered: the wasm cycle decomposition invariant (every wasm op cost
is a dyadic rational, so ``sum(count × OP_COST)`` reproduces
``stats.cycles`` with no float error) and the profile plumbing through
the page runner (``Measurement.detail["profile"]``, opclass registry
counters, rep_details stripping).
"""

from __future__ import annotations

import pytest

from repro.engine.profdecode import decode_profile, opclass_fractions
from repro.obs import DET, get_registry, reset_registry

PROGRAM = """
double g[48];
int unused_global;
double scale(double x) { return x * 2.5; }
int main() {
  double acc = 0.0;
  int n = 6;
  unused_global = 3;
  for (int i = 0; i < 48; i++) g[i] = i * 0.5;
  for (int i = 0; i < 48; i++) {
    acc = acc + scale(g[i]) * (n * 2);
    if (i > 40) acc = acc - 1.0;
  }
  printf("%d", (int)acc);
  return 0;
}
"""


@pytest.fixture(autouse=True)
def _profiled(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "1")
    reset_registry()
    yield
    reset_registry()


TIERS = ("ref", "codegen")


def _set_tier(monkeypatch, tier):
    monkeypatch.setenv("REPRO_FAST_INTERP", "0" if tier == "ref" else "1")


def _wasm_profile(cheerp):
    from repro.engine.hostlib import wasm_host_imports
    from repro.wasm import WasmVM

    artifact = cheerp.compile_wasm(PROGRAM, opt_level="O2")
    output = []
    vm = WasmVM()
    inst = vm.instantiate(artifact.module, wasm_host_imports(output, None))
    inst.invoke("main")
    return inst._profile.to_dict(), inst.stats, output


def _js_profile(cheerp):
    from repro.engine.hostlib import install_js_host
    from repro.jsengine import JsEngine

    artifact = cheerp.compile_js(PROGRAM, opt_level="O2")
    output = []
    engine = JsEngine()
    install_js_host(engine, output)
    engine.load_script(artifact.source)
    engine.call_global("main")
    return engine._profile.to_dict(), engine.stats, output


def _native_profile(llvm_x86):
    from repro.native.machine import _Machine

    artifact = llvm_x86.compile(PROGRAM, opt_level="Ofast")
    machine = _Machine(artifact.program)
    machine.call("main")
    return machine._profile.to_dict(), machine.stats, machine.stats.prints


@pytest.mark.parametrize("engine", ["wasm", "js", "native"])
def test_profiles_identical_across_interpreter_tiers(
        engine, cheerp, llvm_x86, monkeypatch):
    collect = {"wasm": lambda: _wasm_profile(cheerp),
               "js": lambda: _js_profile(cheerp),
               "native": lambda: _native_profile(llvm_x86)}[engine]
    _set_tier(monkeypatch, "ref")
    ref_profile, ref_stats, ref_out = collect()
    _set_tier(monkeypatch, "codegen")
    profile, stats, out = collect()
    assert ref_out == out
    assert ref_stats.cycles == stats.cycles
    assert ref_profile == profile              # exact dict equality
    assert ref_profile["calls"]                # call counting actually ran
    assert any(ref_profile["ops"].values())


def test_wasm_profile_decomposes_stats_cycles_exactly(cheerp, monkeypatch):
    """Every wasm op cost is a multiple of 0.25 and totals stay far below
    2**50, so the decoded per-opclass cycles must sum to *exactly* the
    interpreter's cycle counter — not approximately."""
    for tier in TIERS:
        _set_tier(monkeypatch, tier)
        profile, stats, _ = _wasm_profile(cheerp)
        decoded = decode_profile(profile)
        assert decoded["total_cycles"] == stats.cycles
        assert decoded["total_count"] == stats.instructions


def test_js_profile_splits_tiers(cheerp, monkeypatch):
    """A hot function that tiers up records ops under both the entry tier
    (bit 8 clear) and the optimizing tier (bit 8 set)."""
    _set_tier(monkeypatch, "codegen")
    profile, stats, _ = _js_profile(cheerp)
    keys = {int(k) for cells in profile["ops"].values() for k in cells}
    assert any(k < 256 for k in keys)           # entry-tier ops
    if stats.tier_ups:
        assert any(k >= 256 for k in keys)      # optimized-tier ops


def test_decode_profile_shapes(cheerp, monkeypatch):
    _set_tier(monkeypatch, "codegen")
    profile, _stats, _ = _wasm_profile(cheerp)
    decoded = decode_profile(profile)
    assert decoded["engine"] == "wasm"
    assert "main" in decoded["functions"]
    main = decoded["functions"]["main"]
    assert main["calls"] == 1
    assert main["opclasses"]
    for cls, row in decoded["opclasses"].items():
        assert row["count"] > 0
        assert row["cycles"] >= 0.0
    fracs = opclass_fractions(profile)
    assert set(fracs) == set(decoded["opclasses"])


def test_runner_attaches_profile_and_registry_counters(cheerp):
    from repro.env import DESKTOP, chrome_desktop
    from repro.harness import PageRunner

    artifact = cheerp.compile_wasm(PROGRAM, opt_level="O2")
    runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=2)
    result = runner.run_wasm(artifact)
    profile = result.detail["profile"]
    assert profile["engine"] == "wasm"
    # rep_details stay lean: the (identical) profile is kept once.
    assert all("profile" not in d for d in result.rep_details)
    exported = get_registry().export([DET])
    counts = {k: v for k, v in exported.items()
              if k.startswith("opclass.wasm.") and k.endswith(".count")}
    assert counts
    assert exported["measure.wasm.runs"] == 1
    assert exported["measure.wasm.reps"] == 2
    # Registry counters equal the decoded profile totals.
    for cls, (count, _cycles) in opclass_fractions(profile).items():
        assert exported[f"opclass.wasm.{cls}.count"] == count


def test_profiler_off_leaves_no_profile(cheerp, monkeypatch):
    from repro.env import DESKTOP, chrome_desktop
    from repro.harness import PageRunner

    monkeypatch.setenv("REPRO_PROFILE", "0")
    artifact = cheerp.compile_wasm(PROGRAM, opt_level="O2")
    runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=1)
    result = runner.run_wasm(artifact)
    assert "profile" not in result.detail
    assert not any(k.startswith("opclass.")
                   for k in get_registry().export())
