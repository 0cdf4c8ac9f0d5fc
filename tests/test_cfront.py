"""C frontend: preprocessor, parser, type system, §3.1 transforms."""

import pytest

from repro.cfront import parse_c, preprocess, remove_exceptions, tokenize_c, \
    replace_unions, transform_source
from repro.errors import ParseError
from repro.ir.nodes import (
    EBin, EConst, ELoad, ESelect, SFor, SIf, SStore, walk_stmts,
)


class TestPreprocessor:
    def test_define_substitution(self):
        out = preprocess("#define N 8\nint a[N];")
        assert "int a[8];" in out

    def test_cli_defines_win(self):
        out = preprocess("int a[N];", {"N": 16})
        assert "int a[16];" in out

    def test_macro_chains(self):
        out = preprocess("#define A 4\n#define B A\nint x[B];")
        assert "int x[4];" in out

    def test_ifdef_else_endif(self):
        src = ("#ifdef BIG\nint n = 100;\n#else\nint n = 1;\n#endif\n")
        assert "int n = 1;" in preprocess(src)
        assert "int n = 100;" in preprocess(src, {"BIG": 1})

    def test_ifndef(self):
        out = preprocess("#ifndef X\nint y = 2;\n#endif")
        assert "int y = 2;" in out

    def test_include_ignored(self):
        out = preprocess("#include <stdio.h>\nint x = 1;")
        assert "stdio" not in out

    def test_comments_stripped(self):
        out = preprocess("int /* mid */ x = 1; // end")
        assert "mid" not in out and "end" not in out

    def test_undef(self):
        out = preprocess("#define N 9\n#undef N\nint a = N;")
        assert "int a = N;" in out

    def test_unterminated_if_rejected(self):
        with pytest.raises(ParseError):
            preprocess("#ifdef X\nint a;")

    def test_identifier_prefixes_not_substituted(self):
        out = preprocess("#define PN 8\nint a[PNI];", {"PNI": 3})
        assert "int a[3];" in out


class TestLexer:
    @pytest.mark.parametrize("literal", ["3e", "1..2", "1.2.3", "0x"])
    def test_malformed_number_is_parse_error(self, literal):
        with pytest.raises(ParseError, match="malformed number") as info:
            tokenize_c(f"int a;\ndouble x = {literal};")
        assert info.value.line == 2

    @pytest.mark.parametrize("tail", ["'", "'\\", "'a"])
    def test_char_literal_cut_off_at_end_is_parse_error(self, tail):
        with pytest.raises(ParseError, match="malformed char literal"):
            tokenize_c(f"char c = {tail}")

    def test_char_literals(self):
        tokens = tokenize_c(r"'a' '\n' '\''")
        assert [t.value for t in tokens[:3]] == [97, 10, 39]


class TestParserBasics:
    def test_globals_and_arrays(self):
        module = parse_c("int g = 5; double a[4][6]; unsigned long u;")
        assert module.globals["g"].init == 5
        assert module.arrays["a"].dims == [4, 6]
        assert module.arrays["a"].elem_type == "f64"
        assert module.globals["u"].type == "u64"

    def test_char_array_storage(self):
        module = parse_c("unsigned char buf[10]; char s[4];")
        assert module.arrays["buf"].elem_type == "u8"
        assert module.arrays["s"].elem_type == "i8"

    def test_array_initialiser(self):
        module = parse_c("int t[4] = {1, 2, 3, 4};")
        assert module.arrays["t"].init == [1, 2, 3, 4]

    def test_function_params_and_ret(self):
        module = parse_c("double f(int a, double b) { return a + b; }")
        f = module.functions["f"]
        assert f.params == [("a", "i32"), ("b", "f64")]
        assert f.ret == "f64"

    def test_prototype_then_definition(self):
        module = parse_c("""
        int helper(int x);
        int main() { return helper(3); }
        int helper(int x) { return x * 2; }
        """)
        assert module.functions["helper"].body

    def test_local_array_rejected(self):
        with pytest.raises(ParseError, match="local arrays"):
            parse_c("void f() { int a[10]; }")

    def test_undeclared_identifier_rejected(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_c("int f() { return nope; }")

    def test_undeclared_function_rejected(self):
        with pytest.raises(ParseError, match="prototype"):
            parse_c("int f() { return g(); }")

    def test_struct_lowered_to_scalars(self):
        module = parse_c("""
        struct Point { int x; int y; };
        struct Point p;
        int f() { p.x = 3; p.y = 4; return p.x + p.y; }
        """)
        assert "p__x" in module.globals
        assert "p__y" in module.globals

    def test_struct_array_lowered_to_member_arrays(self):
        module = parse_c("""
        struct Item { double w; int k; };
        struct Item items[8];
        double f() { items[2].w = 1.5; return items[2].w; }
        """)
        assert module.arrays["items__w"].elem_type == "f64"
        assert module.arrays["items__k"].dims == [8]


class TestTypeSystem:
    def test_usual_conversions_to_double(self):
        module = parse_c("double f(int a, double b) { return a * b; }")
        ret = module.functions["f"].body[-1].expr
        assert ret.type == "f64"

    def test_unsigned_wins(self):
        module = parse_c("unsigned f(int a, unsigned b) { return a + b; }")
        assert module.functions["f"].body[-1].expr.type == "u32"

    def test_long_literal(self):
        module = parse_c("long f() { return 1099511628211L; }")
        assert module.functions["f"].body[-1].expr.type == "i64"

    def test_big_literal_promotes(self):
        module = parse_c("long f() { return 4294967296; }")
        assert module.functions["f"].body[-1].expr.type in ("i64", "u64")

    def test_comparison_yields_i32(self):
        module = parse_c("int f(double a) { return a < 1.0; }")
        assert module.functions["f"].body[-1].expr.type == "i32"

    def test_explicit_cast(self):
        module = parse_c("int f(double d) { return (int)d + 1; }")
        assert module.functions["f"].body[-1].expr.type == "i32"


class TestLowering:
    def test_logical_and_pure_becomes_bitwise(self):
        module = parse_c("int f(int a, int b) "
                         "{ return a > 0 && b > 0; }")
        expr = module.functions["f"].body[-1].expr
        assert isinstance(expr, EBin) and expr.op == "&"

    def test_logical_with_call_short_circuits(self):
        module = parse_c("""
        int g(int x) { return x + 1; }
        int f(int a) { return a > 0 && g(a) > 2; }
        """)
        body = module.functions["f"].body
        assert any(isinstance(s, SIf) for s in body)

    def test_pure_ternary_becomes_select(self):
        module = parse_c("int f(int a) { return a > 0 ? a : -a; }")
        assert isinstance(module.functions["f"].body[-1].expr, ESelect)

    def test_impure_ternary_uses_if(self):
        module = parse_c("""
        int g(int x) { return x; }
        int f(int a) { return a ? g(1) : g(2); }
        """)
        assert any(isinstance(s, SIf)
                   for s in module.functions["f"].body)

    def test_printf_lowered_per_value(self):
        module = parse_c('int main() { printf("%d %f", 1, 2.0);'
                         " return 0; }")
        calls = [s.expr.name for s in module.functions["main"].body
                 if hasattr(s, "expr") and hasattr(s.expr, "name")]
        assert "__print_i32" in calls
        assert "__print_f64" in calls

    def test_compound_assignment_on_array(self):
        module = parse_c("double a[4]; void f(int i) { a[i] += 2.0; }")
        store = module.functions["f"].body[0]
        assert isinstance(store, SStore)
        assert isinstance(store.expr, EBin) and store.expr.op == "+"

    def test_for_loop_structure(self):
        module = parse_c(
            "int f(int n) { int i, s; s = 0;"
            " for (i = 0; i < n; i++) s += i; return s; }")
        loops = [s for s in walk_stmts(module.functions["f"].body)
                 if isinstance(s, SFor)]
        assert len(loops) == 1
        assert loops[0].cond.op == "<"

    def test_while_cond_with_call_rotated(self):
        module = parse_c("""
        int next() { return 1; }
        int f() {
          int n = 0;
          while (next() < 1 && n < 10)
            n = n + 1;
          return n;
        }
        """)
        loops = [s for s in walk_stmts(module.functions["f"].body)
                 if s.__class__.__name__ == "SWhile"]
        assert loops and isinstance(loops[0].cond, EConst)


class TestTransforms:
    def test_remove_exceptions(self):
        src = """
        try {
          if (x <= 0) throw bad_value;
          done = 1;
        }
        catch (...) {
          done = 0;
        }
        """
        out = remove_exceptions(src)
        assert "throw" not in out
        assert "catch" not in out
        assert "try" not in out
        assert "__error = 1;" in out
        assert "if (__error)" in out

    def test_exception_transform_compiles(self):
        # The paper's Fig. 3(a) pattern end-to-end through the frontend.
        src = """
        int isFinished = 0;
        int check(int v) {
          try {
            if (v <= 0) throw range_error;
            isFinished = 1;
          }
          catch (...) {
            isFinished = 0;
          }
          return isFinished;
        }
        int main() { printf("%d", check(5)); return 0; }
        """
        module = parse_c(transform_source(src))
        assert "check" in module.functions

    def test_replace_unions(self):
        out = replace_unions("union T { double d; long ll; };")
        assert out.startswith("struct T")

    def test_union_transform_compiles(self):
        src = """
        union T { double d; long ll; };
        union T t;
        long f() { t.ll = 5; return t.ll; }
        """
        module = parse_c(transform_source(src))
        assert "t__ll" in module.globals

    def test_untouched_source_passthrough(self):
        src = "int main() { return 0; }"
        assert transform_source(src) == src
