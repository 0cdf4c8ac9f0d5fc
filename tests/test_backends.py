"""Backends: cross-target equivalence and target-specific lowering."""

import pytest

from repro.backends import (
    WasmCodegenOptions, generate_js, generate_wasm, generate_x86,
)
from repro.backends.wasm_gen import peephole
from repro.cfront import parse_c, preprocess
from repro.engine.hostlib import install_js_host
from repro.jsengine import JsEngine
from repro.native import execute_program
from repro.wasm import validate_module
from repro.wasm.instructions import Op, instr as I

from tests.conftest import TINY_C, TINY_C_CHECKSUM, run_wasm_main


def compile_ir(source, defines=None):
    return parse_c(preprocess(source, defines))


def run_js_main(js_source):
    engine = JsEngine()
    output = []
    install_js_host(engine, output)
    engine.load_script(js_source)
    engine.call_global("main")
    return output, engine


def run_all_targets(source, defines=None):
    """Compile one C program to all three targets; returns the outputs."""
    wasm_module = generate_wasm(compile_ir(source, defines))
    validate_module(wasm_module)
    wasm_out, _ = run_wasm_main(wasm_module)
    js_out, _ = run_js_main(generate_js(compile_ir(source, defines)))
    program = generate_x86(compile_ir(source, defines))
    _, stats = execute_program(program, "main")
    return wasm_out, js_out, stats.prints


CROSS_TARGET_PROGRAMS = [
    # Signed/unsigned 32-bit arithmetic and shifts.
    """
    int main() {
      int a = -7, s = 0;
      unsigned u = 3000000000U;
      s = a / 2 + a % 3;
      s = s ^ (int)(u >> 3);
      s = s + (a << 4);
      printf("%d", s);
      return 0;
    }
    """,
    # 64-bit arithmetic (the i64-legalisation path in JS).
    """
    int main() {
      long h = 1469598103934665603L;
      unsigned long u = 18446744073709551615UL;
      h = h * 1099511628211L;
      h = h ^ (long)(u >> 17);
      h = h / 1234567L;
      h = h % 1000003L;
      printf("%ld", h);
      return 0;
    }
    """,
    # Floating point incl. library calls.
    """
    int main() {
      double x = 2.0;
      double y = sqrt(x) + fabs(-1.5) + floor(2.7) + pow(2.0, 10.0);
      printf("%f", y);
      return 0;
    }
    """,
    # Control flow: breaks, continues, nested loops.
    """
    int main() {
      int i, j, s = 0;
      for (i = 0; i < 10; i++) {
        if (i == 7) break;
        for (j = 0; j < 10; j++) {
          if (j % 2 == 0) continue;
          s += i * j;
        }
      }
      printf("%d", s);
      return 0;
    }
    """,
    # Byte arrays and bit manipulation.
    """
    unsigned char buf[32];
    int main() {
      int i, s = 0;
      for (i = 0; i < 32; i++)
        buf[i] = (i * 37 + 11) & 255;
      for (i = 0; i < 32; i++)
        s = (s << 1) ^ buf[i];
      printf("%d", s);
      return 0;
    }
    """,
]


@pytest.mark.parametrize("index", range(len(CROSS_TARGET_PROGRAMS)))
def test_cross_target_equivalence(index):
    source = CROSS_TARGET_PROGRAMS[index]
    wasm_out, js_out, x86_out = run_all_targets(source)
    assert len(wasm_out) == len(js_out) == len(x86_out) >= 1
    for a, b, c in zip(wasm_out, js_out, x86_out):
        if isinstance(a, float):
            assert a == pytest.approx(b) and a == pytest.approx(c)
        else:
            assert int(a) == int(b) == int(c)


class TestWasmBackend:
    def test_tiny_c_result(self):
        module = generate_wasm(compile_ir(TINY_C))
        validate_module(module)
        outputs, _ = run_wasm_main(module)
        assert outputs[0] == pytest.approx(TINY_C_CHECKSUM)

    def test_memory_layout_metadata(self):
        module = generate_wasm(compile_ir(TINY_C))
        assert module.meta["data_bytes"] >= 8 * 8 * 8  # A alone
        assert module.meta["target_pages"] >= module.meta["initial_pages"]

    def test_mem_init_grows_to_target(self):
        options = WasmCodegenOptions(heap_bytes=512 * 1024,
                                     growth_granule_pages=1)
        module = generate_wasm(compile_ir(TINY_C), options)
        _, instance = run_wasm_main(module)
        assert instance.memory.pages >= module.meta["target_pages"]
        assert instance.stats.memory_grows >= 8

    def test_granule_reduces_grow_calls(self):
        fine = WasmCodegenOptions(heap_bytes=2 * 1024 * 1024,
                                  growth_granule_pages=1)
        coarse = WasmCodegenOptions(heap_bytes=2 * 1024 * 1024,
                                    growth_granule_pages=256)
        _, fine_inst = run_wasm_main(generate_wasm(compile_ir(TINY_C),
                                                   fine))
        _, coarse_inst = run_wasm_main(generate_wasm(compile_ir(TINY_C),
                                                     coarse))
        assert coarse_inst.stats.memory_grows < fine_inst.stats.memory_grows
        assert coarse_inst.memory.byte_size >= fine_inst.memory.byte_size

    def test_peephole_shrinks_and_preserves(self):
        plain = WasmCodegenOptions(peephole=False)
        opt = WasmCodegenOptions(peephole=True)
        m1 = generate_wasm(compile_ir(TINY_C), plain)
        m2 = generate_wasm(compile_ir(TINY_C), opt)
        validate_module(m2)
        out1, _ = run_wasm_main(m1)
        out2, _ = run_wasm_main(m2)
        assert out1 == out2
        assert m2.static_instruction_count <= m1.static_instruction_count

    def test_peephole_tee_rewrite(self):
        body = [(int(Op.LOCAL_SET), 3), (int(Op.LOCAL_GET), 3)]
        assert peephole(body) == [(int(Op.LOCAL_TEE), 3)]

    def test_vector_annotation_adds_instructions(self):
        from repro.ir.passes import vectorize_loops
        plain_ir = compile_ir(TINY_C)
        vector_ir = compile_ir(TINY_C)
        from repro.ir.passes import dead_code_elimination
        dead_code_elimination(vector_ir)
        vectorize_loops(vector_ir)
        plain = generate_wasm(plain_ir)
        vector = generate_wasm(vector_ir)
        _, p_inst = run_wasm_main(plain)
        _, v_inst = run_wasm_main(vector)
        # Scalarisation overhead: more dynamic instructions, same result.
        assert v_inst.stats.instructions > p_inst.stats.instructions


class TestJsBackend:
    def test_tiny_c_result(self):
        outputs, _ = run_js_main(generate_js(compile_ir(TINY_C)))
        assert outputs[0] == pytest.approx(TINY_C_CHECKSUM)

    def test_typed_arrays_used(self):
        source = generate_js(compile_ir(TINY_C))
        assert "new Float64Array(" in source

    def test_int_coercions_emitted(self):
        source = generate_js(compile_ir(
            "int f(int a, int b) { return a + b; }"))
        assert "| 0" in source

    def test_imul_for_i32_multiplication(self):
        source = generate_js(compile_ir(
            "int f(int a, int b) { return a * b; }"))
        assert "Math.imul(a, b)" in source

    def test_i64_runtime_included_when_needed(self):
        with_i64 = generate_js(compile_ir(
            "long f(long a) { return a * 3L; }"))
        without = generate_js(compile_ir(
            "int f(int a) { return a * 3; }"))
        assert "__i64_mul" in with_i64
        assert "__i64_mul" not in without

    def test_i64_array_split_into_halves(self):
        source = generate_js(compile_ir(
            "long data[4]; void f() { data[0] = 7L; }"))
        assert "data__lo" in source and "data__hi" in source

    def test_unsigned_comparison_coerced(self):
        source = generate_js(compile_ir(
            "int f(unsigned a, unsigned b) { return a < b; }"))
        assert ">>> 0" in source

    def test_unsigned_to_signed_cast_resigns(self):
        """A u32 carried in raw unsigned form (here a rematerialized
        constant >= 2^31) must be coerced back to |0 form when it
        enters signed context — a later signed compare would otherwise
        see a huge positive JS number."""
        from repro.compilers import CheerpCompiler
        program = """
        int main() {
          unsigned u = 2147483648u;
          int s = (int)(u >> 0);
          printf("%d", s < 0 ? 1 : 0);
          return 0;
        }
        """
        artifact = CheerpCompiler().compile_js(program, name="resign")
        output, _ = run_js_main(artifact.source)
        assert output == [1]


class TestX86Backend:
    def test_tiny_c_result(self):
        program = generate_x86(compile_ir(TINY_C))
        _, stats = execute_program(program, "main")
        assert stats.prints[0] == pytest.approx(TINY_C_CHECKSUM)

    def test_vector_flag_cuts_cost(self):
        from repro.ir.passes import dead_code_elimination, vectorize_loops
        plain = generate_x86(compile_ir(TINY_C))
        vector_ir = compile_ir(TINY_C)
        dead_code_elimination(vector_ir)
        vectorize_loops(vector_ir)
        vector = generate_x86(vector_ir)
        _, p_stats = execute_program(plain, "main")
        _, v_stats = execute_program(vector, "main")
        assert v_stats.cycles < p_stats.cycles
        assert v_stats.prints == p_stats.prints

    def test_code_size_metric(self):
        from repro.native import program_byte_size
        program = generate_x86(compile_ir(TINY_C))
        assert program_byte_size(program) > 100
