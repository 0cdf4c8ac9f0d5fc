"""Manually-written JavaScript programs (§4.1.2 / Table 9)."""

import hashlib

import pytest

from repro.engine.hostlib import install_js_host
from repro.jsengine import JsEngine
from repro.manualjs import get_manual_program, manual_programs


def run_manual(name):
    program = get_manual_program(name)
    engine = JsEngine()
    install_js_host(engine, [])
    engine.load_script(program.source)
    return engine.call_global(program.entry), engine


class TestRegistry:
    def test_eleven_table9_rows(self):
        programs = manual_programs()
        assert len(programs) == 11
        names = {p.name for p in programs}
        assert "Heat-3d (W3C)" in names and "Heat-3d (math.js)" in names
        assert "SHA (W3C)" in names and "SHA (jsSHA)" in names

    def test_nine_distinct_benchmarks(self):
        assert len({p.benchmark for p in manual_programs()}) == 9

    def test_libraries_attributed(self):
        libraries = {p.library for p in manual_programs()}
        assert {"math.js", "jsSHA", "W3C", "plain"} <= libraries


class TestExecution:
    @pytest.mark.parametrize("name",
                             [p.name for p in manual_programs()])
    def test_runs_and_returns_number(self, name):
        result, _ = run_manual(name)
        assert isinstance(result, float)
        assert result == result  # not NaN

    def test_heat3d_variants_agree(self):
        w3c, _ = run_manual("Heat-3d (W3C)")
        mathjs, _ = run_manual("Heat-3d (math.js)")
        assert w3c == pytest.approx(mathjs)

    def test_sha_jssha_matches_hashlib(self):
        result, _ = run_manual("SHA (jsSHA)")
        v = 19088743
        message = bytearray()
        for _ in range(1280):
            v = (v * 69069 + 1234567) & 0xFFFFFFFF
            message.append((v >> 16) & 255)
        digest = hashlib.sha1(bytes(message)).digest()
        words = [int.from_bytes(digest[i:i + 4], "big")
                 for i in range(0, 20, 4)]
        expected = words[0] ^ words[1] ^ words[2] ^ words[3] ^ words[4]
        if expected >= 1 << 31:
            expected -= 1 << 32
        assert int(result) == expected

    def test_sha_w3c_uses_native_crypto(self):
        result, engine = run_manual("SHA (W3C)")
        # Native hashing leaves almost no interpreter arithmetic behind.
        profile = engine.stats.arithmetic_profile()
        jssha_result, jssha_engine = run_manual("SHA (jsSHA)")
        jssha_profile = jssha_engine.stats.arithmetic_profile()
        # (both run the message generator; only jsSHA runs 80-round
        # compression in JS)
        assert sum(profile.values()) < 0.5 * sum(jssha_profile.values())

    def test_w3c_sha_faster_than_jssha(self):
        _, w3c = run_manual("SHA (W3C)")
        _, jssha = run_manual("SHA (jsSHA)")
        assert w3c.total_cycles() < jssha.total_cycles()

    def test_manual_aes_matches_generated(self):
        """The hand-written AES and the Cheerp-compiled CHStone AES run
        the same cipher: same key schedule, same blocks, same xor."""
        from repro.compilers import CheerpCompiler
        from repro.suites import get_benchmark
        from tests.conftest import run_wasm_main
        result, _ = run_manual("AES")
        benchmark = get_benchmark("AES")
        defines = benchmark.defines("M")
        defines["BLOCKS"] = 5       # match the manual program
        cheerp = CheerpCompiler(linear_heap_size=512 * 1024)
        artifact = cheerp.compile_wasm(benchmark.source, defines, "O0",
                                       "AES")
        outputs, _ = run_wasm_main(artifact.module)
        assert int(result) == int(outputs[0])

    def test_manual_blowfish_matches_generated(self):
        from repro.compilers import CheerpCompiler
        from repro.suites import get_benchmark
        from tests.conftest import run_wasm_main
        result, _ = run_manual("BLOWFISH")
        benchmark = get_benchmark("BLOWFISH")
        defines = benchmark.defines("M")
        defines["BLOCKS"] = 40
        cheerp = CheerpCompiler(linear_heap_size=512 * 1024)
        artifact = cheerp.compile_wasm(benchmark.source, defines, "O0",
                                       "BLOWFISH")
        outputs, _ = run_wasm_main(artifact.module)
        assert int(result) == int(outputs[0])

    def test_mathjs_programs_allocate_on_js_heap(self):
        # Table 9's memory column: plain-array programs show multi-MB
        # heaps where typed-array (Cheerp) programs stay flat.
        _, engine = run_manual("3mm")
        assert engine.heap.devtools_bytes() > \
            engine.heap.baseline_bytes + 8 * 1024
