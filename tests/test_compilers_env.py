"""Toolchain facades and execution environments."""

import pytest

from repro.compilers import CheerpCompiler, EmscriptenCompiler, \
    LlvmX86Compiler
from repro.env import (
    ChromeFlags, DESKTOP, MOBILE, chrome_desktop, chrome_mobile,
    edge_desktop, edge_mobile, firefox_desktop, firefox_mobile,
)
from repro.env.adb import AdbCollector
from repro.errors import LinkError
from repro.harness import HtmlPage, PageRunner

from tests.conftest import TINY_C, TINY_C_CHECKSUM


class TestToolchains:
    def test_all_levels_defined(self, cheerp, emscripten, llvm_x86):
        for toolchain in (cheerp, emscripten, llvm_x86):
            pipelines = toolchain.pipelines()
            for level in ("O0", "O1", "O2", "O3", "O4", "Os", "Oz",
                          "Ofast"):
                assert level in pipelines

    def test_cheerp_o3_drops_inliner(self, cheerp):
        # The "less inlining at O3" behaviour the paper ties to LLVM
        # bug 37449.
        assert "inline" in cheerp.pipelines()["O2"]
        assert "inline" not in cheerp.pipelines()["O3"]

    def test_x86_ofast_reruns_globalopt(self, llvm_x86):
        ofast = llvm_x86.pipelines()["Ofast"]
        assert ofast.count("globalopt") >= 2 or \
            ofast[-1] in ("dce", "globalopt")

    def test_precompiled_libs_conflict(self):
        cheerp = CheerpCompiler(use_precompiled_libs=True)
        source = "double sqrt(double x) { return x; }\n" + TINY_C
        with pytest.raises(LinkError, match="conflicting symbol"):
            cheerp.compile_wasm(source)

    def test_precompiled_libs_disabled_by_default(self, cheerp):
        source = "double mysq(double x) { return x * x; }\n" + TINY_C
        cheerp.compile_wasm(source)  # no LinkError

    def test_heap_flag_changes_memory(self):
        small = CheerpCompiler(linear_heap_size=256 * 1024)
        big = CheerpCompiler(linear_heap_size=8 * 1024 * 1024)
        a = small.compile_wasm(TINY_C)
        b = big.compile_wasm(TINY_C)
        assert b.meta["target_pages"] > a.meta["target_pages"]

    def test_emscripten_has_no_js_target(self, emscripten):
        # §2.1.1: Emscripten produces asm.js, not standard JavaScript.
        assert not hasattr(emscripten, "compile_js")

    def test_emscripten_granule(self, emscripten):
        artifact = emscripten.compile_wasm(TINY_C)
        assert artifact.meta["toolchain"] == "emscripten"
        # 16 MiB granule → target pages multiple of 256.
        assert artifact.meta["target_pages"] % 256 == 0

    def test_artifact_code_sizes(self, cheerp, llvm_x86):
        wasm = cheerp.compile_wasm(TINY_C)
        js = cheerp.compile_js(TINY_C)
        x86 = llvm_x86.compile(TINY_C)
        assert wasm.code_size == len(wasm.binary) > 100
        assert js.code_size > 100
        assert x86.code_size > 100

    def test_defines_select_input_size(self, cheerp):
        small = cheerp.compile_wasm(TINY_C, {"N": 4})
        # The source has its own #define N 8; -D must override it... the
        # preprocessor applies CLI defines first, so the in-file #define
        # wins only if the name is still undefined.
        assert small.module is not None


class TestChromeFlags:
    def test_parse_incognito(self):
        flags = ChromeFlags.parse("chrome.exe --incognito bench.html")
        assert flags.incognito and not flags.js_flags

    def test_parse_no_opt(self):
        flags = ChromeFlags.parse(
            'chrome.exe --js-flags="--no-opt" --incognito')
        assert flags.jit_disabled

    def test_parse_liftoff_only(self):
        flags = ChromeFlags.parse(
            'chrome.exe --js-flags="--liftoff --no-wasm-tier-up"')
        assert flags.wasm_basic_only and not flags.wasm_optimizing_only

    def test_parse_turbofan_only(self):
        flags = ChromeFlags.parse(
            'chrome.exe --js-flags="--no-liftoff --no-wasm-tier-up"')
        assert flags.wasm_optimizing_only

    def test_apply_disables_jit(self):
        profile = ChromeFlags.parse(
            'chrome.exe --js-flags="--no-opt"').apply(chrome_desktop())
        assert not profile.js.jit_enabled

    def test_apply_tier_selection(self):
        basic = ChromeFlags.parse(
            'chrome.exe --js-flags="--liftoff --no-wasm-tier-up"'
        ).apply(chrome_desktop())
        assert not basic.wasm.tiers.optimizing_enabled
        opt = ChromeFlags.parse(
            'chrome.exe --js-flags="--no-liftoff --no-wasm-tier-up"'
        ).apply(chrome_desktop())
        assert not opt.wasm.tiers.basic_enabled

    def test_command_line_roundtrip(self):
        flags = ChromeFlags(incognito=True, js_flags=["--no-opt"])
        line = flags.command_line()
        assert ChromeFlags.parse(line).jit_disabled


class TestProfiles:
    def test_six_settings_exist(self):
        profiles = [chrome_desktop(), firefox_desktop(), edge_desktop(),
                    chrome_mobile(), firefox_mobile(), edge_mobile()]
        names = {(p.name, p.platform_kind) for p in profiles}
        assert len(names) == 6

    def test_firefox_fast_boundary(self):
        # §4.5: Firefox's JS↔Wasm calls are much cheaper.
        assert firefox_desktop().wasm.boundary_cost < \
            0.2 * chrome_desktop().wasm.boundary_cost

    def test_firefox_wasm_code_quality_leads_desktop(self):
        assert firefox_desktop().wasm.tiers.optimizing.exec_factor < \
            chrome_desktop().wasm.tiers.optimizing.exec_factor

    def test_cranelift_on_mobile_firefox(self):
        profile = firefox_mobile()
        assert profile.wasm.tiers.optimizing.name == "Cranelift"
        assert profile.wasm.tiers.optimizing.exec_factor > \
            chrome_mobile().wasm.tiers.optimizing.exec_factor

    def test_platforms(self):
        assert DESKTOP.kind == "desktop" and MOBILE.kind == "mobile"
        assert MOBILE.cycles_per_ms < DESKTOP.cycles_per_ms
        assert DESKTOP.ms(DESKTOP.cycles_per_ms) == 1.0

    def test_with_wasm_does_not_mutate(self):
        profile = chrome_desktop()
        clone = profile.with_wasm(basic_enabled=False)
        assert profile.wasm.tiers.basic_enabled
        assert not clone.wasm.tiers.basic_enabled


class TestHarness:
    def test_page_html_minimal(self, cheerp):
        js = cheerp.compile_js(TINY_C)
        page = HtmlPage.for_js(js)
        assert page.html.startswith("<!DOCTYPE html>")
        assert page.html.count("<script>") == 1
        assert "performance.now()" in page.script

    def test_wasm_loader_page(self, cheerp):
        wasm = cheerp.compile_wasm(TINY_C)
        page = HtmlPage.for_wasm(wasm)
        assert "WebAssembly.instantiate" in page.script

    def test_runner_js_measurement(self, cheerp, runner):
        result = runner.run_js(cheerp.compile_js(TINY_C))
        assert result.output[0] == pytest.approx(TINY_C_CHECKSUM)
        assert result.time_ms > 0
        assert result.memory_kb > 100
        assert result.detail["timer_ms"] is not None

    def test_runner_wasm_measurement(self, cheerp, runner):
        result = runner.run_wasm(cheerp.compile_wasm(TINY_C))
        assert result.output[0] == pytest.approx(TINY_C_CHECKSUM)
        assert result.detail["linear_pages"] > 0

    def test_repetitions_deterministic(self, cheerp):
        runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=3)
        result = runner.run_js(cheerp.compile_js(TINY_C))
        assert len(result.times_ms) == 3
        assert max(result.times_ms) == min(result.times_ms)

    def test_jit_flags_slow_js_down(self, cheerp):
        fast = PageRunner(chrome_desktop(), DESKTOP, repetitions=1)
        slow = PageRunner(chrome_desktop(), DESKTOP,
                          flags=ChromeFlags.parse(
                              'chrome.exe --js-flags="--no-opt"'),
                          repetitions=1)
        js = cheerp.compile_js(TINY_C)
        assert slow.run_js(js).time_ms > fast.run_js(js).time_ms

    def test_tier_settings_order_wasm(self, cheerp):
        wasm = cheerp.compile_wasm(TINY_C)
        default = PageRunner(chrome_desktop(), DESKTOP,
                             repetitions=1).run_wasm(wasm).time_ms
        basic_only = PageRunner(
            chrome_desktop().with_wasm(optimizing_enabled=False),
            DESKTOP, repetitions=1).run_wasm(wasm).time_ms
        assert basic_only >= default * 0.9

    def test_adb_requires_mobile(self):
        with pytest.raises(ValueError):
            AdbCollector(DESKTOP, chrome_desktop())

    def test_mobile_runner_uses_adb(self, cheerp):
        runner = PageRunner(chrome_mobile(), MOBILE, repetitions=1)
        assert isinstance(runner.collector, AdbCollector)
        result = runner.run_js(cheerp.compile_js(TINY_C))
        assert result.output[0] == pytest.approx(TINY_C_CHECKSUM)
        assert runner.collector.transcript  # adb commands were "issued"

    def test_mobile_slower_than_desktop(self, cheerp):
        js = cheerp.compile_js(TINY_C)
        desktop = PageRunner(chrome_desktop(), DESKTOP,
                             repetitions=1).run_js(js).time_ms
        mobile = PageRunner(chrome_mobile(), MOBILE,
                            repetitions=1).run_js(js).time_ms
        assert mobile > 2 * desktop
