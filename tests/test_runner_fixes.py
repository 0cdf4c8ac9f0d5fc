"""Regression tests for the repetition-aggregation and libm-shim fixes.

Each test here fails against the pre-fix runner/host-import code:

* memory was overwritten per repetition (last-run value instead of the
  §3.3.2 high-water mark);
* output/detail were overwritten per repetition, and differing outputs
  between repetitions went undetected;
* ``run_js`` recorded ``timer_ms`` from only the final repetition;
* the ``pow``/``log``/``fmod`` host shims raised Python exceptions (or
  returned NaN) where C99 libm returns inf/NaN values.
"""

import math
from types import SimpleNamespace

import pytest

from repro.env import DESKTOP, chrome_desktop
from repro.env.devtools import Metrics
from repro.errors import MeasurementError
from repro.harness import PageRunner
from repro.harness.runner import wasm_host_imports
from tests.conftest import TINY_C


def _fake_instance():
    return SimpleNamespace(stats=SimpleNamespace(cycles=0.0))


# -- libm shims (C99 Annex F semantics) --------------------------------------

class TestHostLibm:
    @pytest.fixture(scope="class")
    def imports(self):
        return wasm_host_imports([], None)

    def test_pow_zero_to_negative_is_inf(self, imports):
        # C99 F.9.4.4: pow(±0, y<0) raises div-by-zero and returns
        # ±HUGE_VAL; math.pow raises ValueError instead.
        assert imports[("env", "pow")](_fake_instance(), 0.0, -1.0) \
            == math.inf
        assert imports[("env", "pow")](_fake_instance(), -0.0, -3.0) \
            == -math.inf
        assert imports[("env", "pow")](_fake_instance(), -0.0, -2.0) \
            == math.inf

    def test_pow_overflow_saturates(self, imports):
        assert imports[("env", "pow")](_fake_instance(), 2.0, 1e9) \
            == math.inf
        # Negative base, odd integral exponent: overflow keeps the sign.
        assert imports[("env", "pow")](_fake_instance(), -10.0, 311.0) \
            == -math.inf
        assert imports[("env", "pow")](_fake_instance(), -10.0, 312.0) \
            == math.inf

    def test_pow_special_operands(self, imports):
        p = imports[("env", "pow")]
        assert p(_fake_instance(), float("nan"), 0.0) == 1.0
        assert p(_fake_instance(), 1.0, float("nan")) == 1.0
        assert p(_fake_instance(), -1.0, math.inf) == 1.0
        assert math.isnan(p(_fake_instance(), -2.0, 0.5))
        assert p(_fake_instance(), -2.0, 3.0) == -8.0

    def test_fmod_infinite_dividend_is_nan(self, imports):
        # C99: fmod(±inf, y) is NaN; math.fmod raises ValueError.
        assert math.isnan(imports[("env", "fmod")](_fake_instance(),
                                                   math.inf, 2.0))
        assert math.isnan(imports[("env", "fmod")](_fake_instance(),
                                                   1.0, 0.0))
        assert imports[("env", "fmod")](_fake_instance(), 3.5, math.inf) \
            == 3.5

    def test_log_edge_cases(self, imports):
        assert imports[("env", "log")](_fake_instance(), 0.0) == -math.inf
        assert math.isnan(imports[("env", "log")](_fake_instance(), -1.0))
        assert imports[("env", "log")](_fake_instance(), math.inf) \
            == math.inf


# -- repetition aggregation ---------------------------------------------------

class _ScriptedCollector:
    """Stands in for DevTools/AdbCollector, returning canned metrics so
    repetitions can differ (the real engines are deterministic)."""

    def __init__(self, memories):
        self.memories = list(memories)
        self.calls = 0

    def _next(self):
        memory = self.memories[self.calls % len(self.memories)]
        self.calls += 1
        return Metrics(execution_time_ms=float(self.calls),
                       memory_kb=memory,
                       detail={"call": self.calls})

    def js_metrics(self, engine):
        return self._next()

    def wasm_metrics(self, cycles, instance):
        return self._next()


@pytest.fixture()
def compiled(cheerp):
    return {"wasm": cheerp.compile_wasm(TINY_C, name="tiny"),
            "js": cheerp.compile_js(TINY_C, name="tiny")}


def _runner(repetitions, memories):
    runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=repetitions)
    runner.collector = _ScriptedCollector(memories)
    return runner


class TestRepetitionAggregation:
    def test_memory_is_high_water_mark_wasm(self, compiled):
        result = _runner(3, [10.0, 30.0, 20.0]).run_wasm(compiled["wasm"])
        assert result.memory_kb == 30.0          # pre-fix: 20.0 (last rep)

    def test_memory_is_high_water_mark_js(self, compiled):
        result = _runner(3, [5.0, 40.0, 15.0]).run_js(compiled["js"])
        assert result.memory_kb == 40.0

    def test_per_repetition_details_kept(self, compiled):
        result = _runner(3, [1.0]).run_wasm(compiled["wasm"])
        assert len(result.rep_details) == 3
        assert [d["call"] for d in result.rep_details] == [1, 2, 3]
        assert len(result.times_ms) == 3

    def test_js_timer_recorded_per_repetition(self, cheerp):
        runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=3)
        result = runner.run_js(cheerp.compile_js(TINY_C, name="tiny"))
        per_rep = result.detail["timer_ms_per_rep"]
        assert len(per_rep) == 3                 # pre-fix: key missing
        assert all(value == per_rep[0] for value in per_rep)
        assert result.detail["timer_ms"] == per_rep[-1]

    def test_output_must_match_across_repetitions(self, compiled,
                                                  monkeypatch):
        # Make the host imports nondeterministic: each instantiation's
        # prints are tagged with a fresh counter value, so repetition 2
        # "computes" different output than repetition 1.
        counter = {"n": 0}

        def tagged_imports(output, instance_box):
            counter["n"] += 1
            tag = counter["n"]
            imports = wasm_host_imports(output, instance_box)
            for name in ("__print_i32", "__print_i64", "__print_f64"):
                imports[("env", name)] = (
                    lambda inst, value, _tag=tag: output.append(
                        (value, _tag)))
            return imports

        monkeypatch.setattr("repro.harness.runner.wasm_host_imports",
                            tagged_imports)
        runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=2)
        with pytest.raises(MeasurementError):
            runner.run_wasm(compiled["wasm"])    # pre-fix: silent

    def test_identical_outputs_pass(self, compiled):
        result = PageRunner(chrome_desktop(), DESKTOP,
                            repetitions=2).run_wasm(compiled["wasm"])
        assert result.output                      # TINY_C prints a checksum

# -- libm sign-of-zero and copysign propagation -------------------------------

SIGNED_ZERO_C = r"""
double cs(double x, double y) { return copysign(x, y); }
double fmz(double x, double y) { return fmod(x, y); }
double pwz(double x, double y) { return pow(x, y); }
int main() { return 0; }
"""


class TestLibmSignedZero:
    """The zero results of fmod/pow must keep their C99 sign, and
    copysign must exist in every host-shim registry — it used to be
    absent from all of them."""

    @pytest.fixture(scope="class")
    def imports(self):
        return wasm_host_imports([], None)

    def test_fmod_sign_of_zero(self, imports):
        fm = imports[("env", "fmod")]
        assert repr(fm(_fake_instance(), -6.0, 3.0)) == "-0.0"
        assert repr(fm(_fake_instance(), -0.0, 3.0)) == "-0.0"
        assert repr(fm(_fake_instance(), 6.0, -3.0)) == "0.0"
        assert repr(fm(_fake_instance(), -0.0, math.inf)) == "-0.0"

    def test_pow_negative_zero_base_odd_exponent(self, imports):
        p = imports[("env", "pow")]
        assert repr(p(_fake_instance(), -0.0, 3.0)) == "-0.0"
        assert p(_fake_instance(), -0.0, -3.0) == -math.inf
        assert repr(p(_fake_instance(), -0.0, 2.0)) == "0.0"
        assert p(_fake_instance(), -0.0, -2.0) == math.inf

    def test_copysign_in_every_registry(self, imports):
        from repro.engine.hostlib import JS_MATH, LIBM, native_libm
        assert "copysign" in LIBM and "copysign" in JS_MATH
        assert native_libm("copysign")(3.0, -0.0) == -3.0
        cs = imports[("env", "copysign")]
        assert cs(_fake_instance(), 3.0, -0.0) == -3.0
        assert repr(cs(_fake_instance(), -0.0, 1.0)) == "0.0"
        assert math.isnan(cs(_fake_instance(), math.nan, -1.0))

    def test_copysign_charges_host_cycles(self, imports):
        instance = _fake_instance()
        imports[("env", "copysign")](instance, 1.0, -1.0)
        assert instance.stats.cycles > 0


class TestCopysignEndToEnd:
    """copysign through the real pipelines: C source → each backend →
    each engine, with the sign of zero intact."""

    CASES = [("cs", (3.0, -0.0), "-3.0"), ("cs", (-3.0, 0.0), "3.0"),
             ("cs", (-0.0, 1.0), "0.0"), ("fmz", (-6.0, 3.0), "-0.0"),
             ("pwz", (-0.0, 3.0), "-0.0")]

    def test_wasm(self, cheerp):
        art = cheerp.compile_wasm(SIGNED_ZERO_C, name="signedzero")
        from repro.wasm import WasmVM
        instance = WasmVM().instantiate(art.module,
                                        wasm_host_imports([], None))
        for fn, args, expected in self.CASES:
            assert repr(instance.invoke(fn, *args)) == expected

    def test_native(self, llvm_x86):
        from repro.native import execute_program
        art = llvm_x86.compile(SIGNED_ZERO_C, name="signedzero")
        for fn, args, expected in self.CASES:
            assert repr(execute_program(art.program, fn, args)[0]) \
                == expected

    def test_js(self, cheerp):
        from repro.engine.hostlib import install_js_host
        from repro.jsengine import JsEngine
        art = cheerp.compile_js(SIGNED_ZERO_C, name="signedzero")
        engine = JsEngine()
        install_js_host(engine, [])
        engine.load_script(art.source)
        for fn, args, expected in self.CASES:
            assert repr(engine.call_global(fn, *args)) == expected
