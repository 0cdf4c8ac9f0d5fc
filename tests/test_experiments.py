"""Experiment entry points: structure and cheap shape checks.

Heavy sweeps run in benchmarks/; here each experiment is exercised on the
quick subset with 1 repetition and reduced sizes, asserting the output
structure plus the paper findings that are cheap to check.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentContext, compare_cheerp_emscripten, context_switch_overhead,
    figure10_jit_improvement, figure5_opt_levels, table11_chrome_flags,
    table2_summary, table7_tier_comparison,
)
from repro.experiments.common import QUICK_SET
from repro.experiments.input_sizes import input_size_tables
from repro.suites import benchmark_names

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", autouse=True)
def _result_cache():
    """These tests assert shape properties of deterministic experiment
    results, so measurement memoization is sound: with a warm
    ``REPRO_CACHE_DIR`` this module skips its measurement runs entirely
    (the CI fast path).  ``REPRO_RESULT_CACHE=0`` forces live runs.
    Module-scoped so the expensive module fixtures below see it too."""
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_RESULT_CACHE",
                   os.environ.get("REPRO_RESULT_CACHE", "1"))
    yield
    patcher.undo()


@pytest.fixture(scope="module")
def ctx():
    context = ExperimentContext(quick=True, repetitions=1)
    # Narrow further for test speed: five representative benchmarks.
    keep = {"gemm", "jacobi-2d", "SHA", "DFADD", "MIPS"}
    context.benchmarks = lambda: [b for b in __import__(
        "repro.suites", fromlist=["all_benchmarks"]).all_benchmarks()
        if b.name in keep]
    return context


def test_quick_set_is_valid():
    names = set(benchmark_names())
    assert set(QUICK_SET) <= names


def _benchmarks_quick():
    """``benchmarks/conftest.py``'s quick/full selection."""
    spec = importlib.util.spec_from_file_location(
        "repro_bench_conftest", ROOT / "benchmarks" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._quick()


@pytest.mark.parametrize("raw, quick", [
    (None, False), ("", False), ("0", False), ("off", False),
    ("1", True), ("on", True), ("yes", True),
])
def test_quick_knob_is_a_flag(monkeypatch, raw, quick):
    """``REPRO_QUICK`` parses like every boolean knob: ``0``/``off`` and
    unset select the full suite (five repetitions), ``1``/``on`` the
    quick subset (two).  ``benchmarks/`` reads the same knob with the
    other default: unset or empty is quick there, and only an explicit
    ``0``/``off`` sweeps the full suite."""
    if raw is None:
        monkeypatch.delenv("REPRO_QUICK", raising=False)
    else:
        monkeypatch.setenv("REPRO_QUICK", raw)
    ctx = ExperimentContext(jobs=1)
    assert ctx.quick is quick
    assert ctx.repetitions == (2 if quick else 5)
    assert _benchmarks_quick() is (quick or not raw)


def test_context_switch_firefox_fastest():
    result = context_switch_overhead(calls=2000)
    data = result["data"]
    # §4.5: Firefox's boundary calls are far cheaper than Chrome's.
    assert data["firefox"]["vs_chrome"] < 0.35
    assert data["edge"]["vs_chrome"] >= 1.0
    assert "ratio vs Chrome" in result["text"]


def test_table11_flag_catalogue():
    result = table11_chrome_flags()
    assert "--no-opt" in result["text"]
    assert "--liftoff" in result["text"]
    assert any(flags.wasm_optimizing_only
               for _s, _f, flags in result["data"])


class TestOptLevels:
    @pytest.fixture(scope="class")
    def table2(self, request):
        context = ExperimentContext(quick=True, repetitions=1)
        keep = {"gemm", "jacobi-2d", "covariance", "ADPCM", "SHA",
                "trisolv", "lu", "atax"}
        from repro.suites import all_benchmarks
        context.benchmarks = lambda: [b for b in all_benchmarks()
                                      if b.name in keep]
        return table2_summary(context)

    def test_structure(self, table2):
        assert ("Exec. Time", "Oz/O2") in table2["data"]
        assert "Table 2" in table2["text"]

    def test_x86_behaves_as_intended(self, table2):
        # Fig. 6: on x86, -O1 and -Oz are clearly slower than -O2.
        data = table2["data"]
        assert data[("Exec. Time", "O1/O2")]["x86"] > 1.1
        assert data[("Exec. Time", "Oz/O2")]["x86"] > 1.05

    def test_wasm_counterintuitive(self, table2):
        # Table 2: -Oz produces the fastest Wasm; -O1 also beats -O2.
        data = table2["data"]
        assert data[("Exec. Time", "Oz/O2")]["wasm"] < 1.0
        assert data[("Exec. Time", "O1/O2")]["wasm"] < 1.0

    def test_code_sizes_stable_for_wasm_js(self, table2):
        # Paper: near-identical sizes (<2% variance on ~1000-LOC
        # programs).  Our modules are kernel-dominated, so the same
        # mechanisms (CSE temps, vector bookkeeping) show up as a
        # somewhat wider — but still small — spread.
        data = table2["data"]
        for level in ("O1/O2", "Ofast/O2", "Oz/O2"):
            assert 0.7 < data[("Code Size", level)]["wasm"] < 1.15
            assert 0.7 < data[("Code Size", level)]["js"] < 1.15

    def test_memory_flat_across_levels(self, table2):
        data = table2["data"]
        for level in ("O1/O2", "Ofast/O2", "Oz/O2"):
            assert 0.95 < data[("Memory", level)]["wasm"] < 1.05


class TestCompilers:
    def test_emscripten_faster_more_memory(self, ctx):
        result = compare_cheerp_emscripten(ctx)
        # §4.2.2 shape: faster, and much more memory.
        assert result["summary"]["speedup_gmean"] > 1.1
        assert result["summary"]["memory_gmean"] > 2.0

    def test_grow_counts_explain_it(self, ctx):
        result = compare_cheerp_emscripten(ctx)
        for entry in result["data"].values():
            assert entry["emcc_grows"] <= entry["cheerp_grows"]


class TestJit:
    def test_js_gains_wasm_does_not(self, ctx):
        result = figure10_jit_improvement(ctx)
        js = [e["improvement"] for e in result["data"]["js"].values()]
        wasm = [e["improvement"] for e in result["data"]["wasm"].values()]
        # Fig. 10: JS gains are large; Wasm ratios stay near 1.
        assert max(js) > 3.0
        assert all(0.7 < v < 1.8 for v in wasm)

    def test_tier_table_shape(self, ctx):
        result = table7_tier_comparison(ctx)
        overall = result["summary"]["Overall"]
        # Table 7: default beats basic-only, roughly matches opt-only.
        assert overall["LiftOff"] > 1.0
        assert overall["Baseline"] > 1.0
        assert 0.7 < overall["TurboFan"] < 1.3
        assert 0.8 < overall["Ion"] <= 1.05


class TestInputSizes:
    def test_chrome_tables(self, ctx):
        result = input_size_tables(ctx, "chrome", sizes=("XS", "M"))
        stats = result["exec"]
        # Wasm dominates at XS; the gap narrows by M (§4.3).
        assert stats["XS"]["all_gmean"] > stats["M"]["all_gmean"]
        assert result["memory"]["XS"]["wasm_kb"] > \
            result["memory"]["XS"]["js_kb"]

    def test_memory_flat_js_growing_wasm(self, ctx):
        result = input_size_tables(ctx, "chrome", sizes=("XS", "XL"))
        mem = result["memory"]
        assert mem["XL"]["js_kb"] < 1.5 * mem["XS"]["js_kb"]
        assert mem["XL"]["wasm_kb"] > 5 * mem["XS"]["wasm_kb"]


def test_figure5_raw_structure():
    context = ExperimentContext(quick=True, repetitions=1)
    from repro.suites import all_benchmarks
    context.benchmarks = lambda: [b for b in all_benchmarks()
                                  if b.name == "gemm"]
    result = figure5_opt_levels(context)
    entry = result["data"]["wasm"]["gemm"]
    assert set(entry["time"]) == {"O1/O2", "Ofast/O2", "Oz/O2"}
    assert entry["raw_time_ms"]["O2"] > 0
