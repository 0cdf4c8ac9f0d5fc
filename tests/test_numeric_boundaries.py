"""Differential numeric-boundary tests: the Wasm VM and the native
register machine, fed the *same IR* through their real backends, must
agree on both the value and the trap behavior at the edges Jangda et
al. show dominate Wasm/native divergence — f64→int truncation limits,
shift counts at and past the mask, and the ±2^31 / ±2^63 extremes."""

import math

import pytest

from repro.backends import generate_wasm, generate_x86
from repro.engine.hostlib import wasm_host_imports
from repro.errors import TrapError
from repro.ir import EBin, ECast, EConst, ELocal, Function, Module, SReturn
from repro.native import execute_program
from repro.wasm import WasmVM, validate_module

TRAP = "trap"

I32_MIN, I32_MAX = -(1 << 31), (1 << 31) - 1
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def _module(fn):
    module = Module("boundaries")
    module.functions[fn.name] = fn
    return module


def _cast_fn(src_t, dst_t):
    """``dst_t f(src_t x) { return (dst_t)x; }``"""
    x = ELocal("x", src_t)
    return _module(Function("f", [("x", src_t)], dst_t,
                            body=[SReturn(ECast(x, dst_t))],
                            exported=True))


def _shift_fn(op, value_t):
    """``value_t f(value_t x, value_t k) { return x <op> k; }``"""
    x = ELocal("x", value_t)
    k = ELocal("k", value_t)
    return _module(Function("f", [("x", value_t), ("k", value_t)],
                            value_t,
                            body=[SReturn(EBin(op, x, k, value_t))],
                            exported=True))


def _wasm_outcome(module, args):
    wasm = generate_wasm(module)
    validate_module(wasm)
    instance = WasmVM().instantiate(wasm, wasm_host_imports([], None))
    try:
        return instance.invoke("f", *args)
    except TrapError:
        return TRAP


def _native_outcome(module, args):
    program = generate_x86(module)
    try:
        return execute_program(program, "f", args)[0]
    except TrapError:
        return TRAP


def _differential(module, args):
    """Run the same IR through both engines; they must agree exactly."""
    wasm = _wasm_outcome(module, args)
    native = _native_outcome(module, args)
    assert wasm == native, (f"engines disagree for args {args!r}: "
                            f"wasm={wasm!r} native={native!r}")
    return wasm


# ---------------------------------------------------------------------------
# f64 -> int truncation limits
# ---------------------------------------------------------------------------

#: (input, expected outcome) for ``(int)(double)`` — both boundary doubles
#: around 2^31 and the one representable below -2^31 - 1.
F64_TO_I32_CASES = [
    (0.0, 0),
    (-1.5, -1),
    (float(I32_MAX), I32_MAX),
    (math.nextafter(float(1 << 31), 0.0), I32_MAX),   # 2147483647.9999998
    (float(1 << 31), TRAP),                           # 2^31: out of range
    (float(I32_MIN), I32_MIN),                        # -2^31 is valid
    (-2147483648.5, I32_MIN),                         # truncates up
    (math.nextafter(-2147483649.0, 0.0), I32_MIN),
    (-2147483649.0, TRAP),                            # trunc = -2^31 - 1
    (math.nan, TRAP),
    (math.inf, TRAP),
    (-math.inf, TRAP),
]

#: Around ±2^63 double spacing is 2048, so the interesting inputs are the
#: exactly-representable powers and their floating-point neighbours.
F64_TO_I64_CASES = [
    (0.0, 0),
    (float(I64_MIN), I64_MIN),                        # -2^63 is valid
    (math.nextafter(float(I64_MIN), -math.inf), TRAP),
    (math.nextafter(float(1 << 63), 0.0), 9223372036854774784),
    (float(1 << 63), TRAP),                           # 2^63: out of range
    (math.nan, TRAP),
    (math.inf, TRAP),
    (-math.inf, TRAP),
]


class TestTruncationBoundaries:
    @pytest.mark.parametrize("value,expected", F64_TO_I32_CASES,
                             ids=[repr(v) for v, _ in F64_TO_I32_CASES])
    def test_f64_to_i32(self, value, expected):
        assert _differential(_cast_fn("f64", "i32"), (value,)) == expected

    @pytest.mark.parametrize("value,expected", F64_TO_I64_CASES,
                             ids=[repr(v) for v, _ in F64_TO_I64_CASES])
    def test_f64_to_i64(self, value, expected):
        assert _differential(_cast_fn("f64", "i64"), (value,)) == expected


# ---------------------------------------------------------------------------
# Shifts: counts 0 / 31 / 32 / 63 and sign-boundary operands
# ---------------------------------------------------------------------------

SHIFT_COUNTS_32 = [0, 1, 31, 32, 33, 63]
SHIFT_VALUES_32 = [0, 1, -1, I32_MAX, I32_MIN, 0x55555555]
SHIFT_COUNTS_64 = [0, 1, 63, 64, 127]
SHIFT_VALUES_64 = [0, 1, -1, I64_MAX, I64_MIN]


def _wrap(v, bits):
    v &= (1 << bits) - 1
    return v - (1 << bits) if v >> (bits - 1) else v


class TestShiftBoundaries:
    @pytest.mark.parametrize("count", SHIFT_COUNTS_32)
    @pytest.mark.parametrize("value", SHIFT_VALUES_32)
    def test_i32_shr_u(self, value, count):
        result = _differential(_shift_fn(">>", "u32"), (value, count))
        assert result == _wrap((value & 0xFFFFFFFF) >> (count & 31), 32)

    @pytest.mark.parametrize("count", SHIFT_COUNTS_32)
    @pytest.mark.parametrize("value", SHIFT_VALUES_32)
    def test_i32_shr_s(self, value, count):
        result = _differential(_shift_fn(">>", "i32"), (value, count))
        assert result == value >> (count & 31)

    @pytest.mark.parametrize("count", SHIFT_COUNTS_32)
    @pytest.mark.parametrize("value", SHIFT_VALUES_32)
    def test_i32_shl(self, value, count):
        result = _differential(_shift_fn("<<", "i32"), (value, count))
        assert result == _wrap(value << (count & 31), 32)

    @pytest.mark.parametrize("count", SHIFT_COUNTS_64)
    @pytest.mark.parametrize("value", SHIFT_VALUES_64)
    def test_i64_shr_u(self, value, count):
        result = _differential(_shift_fn(">>", "u64"), (value, count))
        assert result == _wrap(
            (value & 0xFFFFFFFFFFFFFFFF) >> (count & 63), 64)

    @pytest.mark.parametrize("count", SHIFT_COUNTS_64)
    @pytest.mark.parametrize("value", SHIFT_VALUES_64)
    def test_i64_shl(self, value, count):
        result = _differential(_shift_fn("<<", "i64"), (value, count))
        assert result == _wrap(value << (count & 63), 64)


# ---------------------------------------------------------------------------
# The VM's signed-i32 stack invariant
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Two-tier probe: reference ladder vs codegen
# ---------------------------------------------------------------------------

#: REPRO_FAST_INTERP per execution tier: reference ladder, codegen.
TIERS = ("0", "1")


def _both_tiers(outcome_fn, module, args, monkeypatch):
    """Run one backend on both execution tiers; the tiers must produce
    the same value (or the same trap)."""
    results = []
    for fast in TIERS:
        monkeypatch.setenv("REPRO_FAST_INTERP", fast)
        results.append(outcome_fn(module, args))
    normed = [repr(r) for r in results]
    assert normed[0] == normed[1], (
        f"tiers disagree for args {args!r}: ref={normed[0]} "
        f"codegen={normed[1]}")
    return results[0]


def _rotl_fn():
    """The C rotate idiom ``(x << n) | (x >> (32 - n))`` on u32 — both
    shift counts pass through the engines' ``& 31`` masking, so the idiom
    is total for every count including 0, >= 32, and negative."""
    x = ELocal("x", "u32")
    n = ELocal("n", "u32")
    left = EBin("<<", x, n, "u32")
    right = EBin(">>", x, EBin("-", EConst(32, "u32"), n, "u32"), "u32")
    return _module(Function("f", [("x", "u32"), ("n", "u32")], "u32",
                            body=[SReturn(EBin("|", left, right, "u32"))],
                            exported=True))


def _py_rotl32(value, count):
    u, b = value & 0xFFFFFFFF, count & 31
    v = ((u << b) | (u >> (32 - b))) & 0xFFFFFFFF if b else u
    return _wrap(v, 32)


class TestThreeTierRotates:
    """Rotate counts at and past the width, and negative, through the
    real IR backends on every tier of both engines."""

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 63, -1, -31])
    @pytest.mark.parametrize("value", [0, 1, -1, I32_MIN, 0x12345678])
    def test_rotl_idiom(self, value, count, monkeypatch):
        module = _rotl_fn()
        # n == 0 makes the idiom's right shift count 32 & 31 == 0, i.e.
        # x | x — still rotl(x, 0).  Expected value mirrors the VM's
        # rotl masking exactly.
        expected = _py_rotl32(value, count)
        wasm = _both_tiers(_wasm_outcome, module, (value, count),
                           monkeypatch)
        native = _both_tiers(_native_outcome, module, (value, count),
                             monkeypatch)
        assert wasm == native == expected


class TestThreeTierBitcounts:
    """clz/ctz/popcnt only exist as Wasm opcodes (no IR spelling), so
    they run as direct modules on both of the VM's tiers."""

    def _bitcount_module(self, opname):
        from repro.wasm import FuncType, Function as WFunction, WasmModule
        from repro.wasm.instructions import Op, instr as I
        module = WasmModule()
        module.add_function(WFunction(
            "f", FuncType(("i32",), ("i32",)), [],
            [I(Op.LOCAL_GET, 0), I(getattr(Op, opname))], exported=True))
        validate_module(module)
        return module

    @pytest.mark.parametrize("opname,value,expected", [
        ("I32_CLZ", 0, 32), ("I32_CLZ", -1, 0), ("I32_CLZ", 1, 31),
        ("I32_CLZ", I32_MIN, 0),
        ("I32_CTZ", 0, 32), ("I32_CTZ", -1, 0), ("I32_CTZ", 1, 0),
        ("I32_CTZ", I32_MIN, 31),
        ("I32_POPCNT", 0, 0), ("I32_POPCNT", -1, 32),
        ("I32_POPCNT", I32_MIN, 1), ("I32_POPCNT", 0x55555555, 16),
    ])
    def test_bitcount_all_tiers(self, opname, value, expected,
                                monkeypatch):
        module = self._bitcount_module(opname)

        def outcome(mod, args):
            instance = WasmVM().instantiate(mod, wasm_host_imports([], None))
            return instance.invoke("f", *args)

        assert _both_tiers(outcome, module, (value,),
                           monkeypatch) == expected


class TestThreeTierCanonicalization:
    """shl/shr_s results must stay in the canonical signed form on every
    tier — a raw unsigned leak shows up the moment the value feeds a
    signed compare."""

    @pytest.mark.parametrize("value,count", [
        (1, 31), (-1, 0), (I32_MIN, 0), (0x40000000, 1), (-1, 31),
    ])
    def test_shl_feeds_signed_compare(self, value, count, monkeypatch):
        x = ELocal("x", "i32")
        k = ELocal("k", "i32")
        cmp = EBin("<", EBin("<<", x, k, "i32"), EConst(0, "i32"), "i32")
        module = _module(Function("f", [("x", "i32"), ("k", "i32")], "i32",
                                  body=[SReturn(cmp)], exported=True))
        expected = 1 if _wrap(value << (count & 31), 32) < 0 else 0
        wasm = _both_tiers(_wasm_outcome, module, (value, count),
                           monkeypatch)
        native = _both_tiers(_native_outcome, module, (value, count),
                             monkeypatch)
        assert wasm == native == expected

    @pytest.mark.parametrize("value,count", [(-1, 1), (I32_MIN, 31),
                                             (-2, 63)])
    def test_shr_s_stays_negative(self, value, count, monkeypatch):
        module = _shift_fn(">>", "i32")
        expected = value >> (count & 31)
        wasm = _both_tiers(_wasm_outcome, module, (value, count),
                           monkeypatch)
        native = _both_tiers(_native_outcome, module, (value, count),
                             monkeypatch)
        assert wasm == native == expected

    @pytest.mark.parametrize("value,expected", [
        (float(1 << 31), TRAP), (-2147483649.0, TRAP), (math.nan, TRAP),
        (float(I32_MIN), I32_MIN),
    ])
    def test_trunc_traps_all_tiers(self, value, expected, monkeypatch):
        """Trap agreement: every tier of every engine traps (or not) on
        the same truncation input."""
        module = _cast_fn("f64", "i32")
        wasm = _both_tiers(_wasm_outcome, module, (value,), monkeypatch)
        native = _both_tiers(_native_outcome, module, (value,),
                             monkeypatch)
        assert wasm == native == expected


# ---------------------------------------------------------------------------
# Constant folding must match runtime f64 division exactly
# ---------------------------------------------------------------------------


class TestConstfoldDivisionParity:
    """The folded value of ``x / y`` must be bit-identical to what the
    engines compute at runtime — the folder used to turn ``nan / 0.0``
    into ±inf and ignore the sign of a ``-0.0`` divisor."""

    CASES = [(math.nan, 0.0), (math.nan, -0.0), (1.0, -0.0),
             (-1.0, -0.0), (0.0, 0.0), (-0.0, -0.0), (1.0, 0.0),
             (-1.0, 0.0), (1.0, 2.0), (-0.0, 2.0)]

    @pytest.mark.parametrize("x,y", CASES,
                             ids=[f"{x!r}/{y!r}" for x, y in CASES])
    def test_folded_equals_runtime(self, x, y):
        from repro.ir.passes.constfold import _eval_bin
        folded = _eval_bin(EBin("/", EConst(x, "f64"), EConst(y, "f64"),
                                "f64"), x, y)
        assert isinstance(folded, EConst)
        module = _module(
            Function("f", [("x", "f64"), ("y", "f64")], "f64",
                     body=[SReturn(EBin("/", ELocal("x", "f64"),
                                        ELocal("y", "f64"), "f64"))],
                     exported=True))
        # repr-compare: nan != nan, and the sign of zero/inf matters.
        wasm = _wasm_outcome(module, (x, y))
        native = _native_outcome(module, (x, y))
        assert repr(wasm) == repr(native)
        assert repr(folded.value) == repr(wasm)


class TestStackRepresentationInvariant:
    """Every i32 the VM pushes must use the canonical signed form that
    ``_wrap32`` produces — ``shr_u`` used to leak raw unsigned values."""

    def test_shr_u_result_is_resigned(self):
        module = _shift_fn(">>", "u32")
        assert _wasm_outcome(module, (I32_MIN, 0)) == I32_MIN
        assert _wasm_outcome(module, (-1, 0)) == -1
        assert _wasm_outcome(module, (-1, 31)) == 1

    def test_shr_u_feeds_signed_compare_correctly(self):
        """(x >>u 0) < 0 — with the raw unsigned representation the
        signed compare saw a huge positive number and answered 0."""
        x = ELocal("x", "u32")
        k = ELocal("k", "u32")
        shifted = ECast(EBin(">>", x, k, "u32"), "i32")
        cmp = EBin("<", shifted, EConst(0, "i32"), "i32")
        module = _module(Function("f", [("x", "u32"), ("k", "u32")], "i32",
                                  body=[SReturn(cmp)], exported=True))
        assert _differential(module, (I32_MIN, 0)) == 1
        assert _differential(module, (1, 0)) == 0
