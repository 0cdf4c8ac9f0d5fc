"""Long.js reproduction (§4.6.2, Table 10 rows 1–3, Table 12/Appendix D).

Two faithful implementations of 64-bit two's-complement arithmetic:

* **JavaScript** — the Long.js approach: a long is ``{low, high}`` (two
  32-bit halves) and multiplication splits each half again into 16-bit
  chunks "to avoid overflow" (the paper cites Long.js' own comment);
  division uses the floating-point-approximation loop Long.js uses.
* **WebAssembly** — native ``i64`` instructions, as in Long.js' wasm.wat:
  one ``i64.mul``/``i64.div_s``/``i64.rem_s`` per operation.

The operation-count asymmetry of Table 12 (hundreds of thousands of JS
adds/muls/shifts vs tens of thousands of Wasm ops for 10,000 long
operations) is measured directly from the two engines' per-class counters.
"""

from __future__ import annotations

from repro.engine.hostlib import install_js_host
from repro.env import DESKTOP, chrome_desktop
from repro.jsengine import JsEngine
from repro.wasm import FuncType, Function, WasmModule, WasmVM
from repro.wasm.instructions import Op, instr as I

LONGJS_JS = r"""
function long_make(low, high) {
  return {low: low | 0, high: high | 0};
}

function long_fromInt(value) {
  return long_make(value, value < 0 ? -1 : 0);
}

function long_fromNumber(value) {
  if (value < 0) {
    return long_neg(long_fromNumber(-value));
  }
  var high = Math.floor(value / 4294967296);
  var low = value - high * 4294967296;
  return long_make(low, high);
}

function long_toNumber(a) {
  return a.high * 4294967296 + (a.low >>> 0);
}

function long_isNegative(a) {
  return a.high < 0;
}

function long_isZero(a) {
  return a.low === 0 && a.high === 0;
}

function long_eq(a, b) {
  return a.low === b.low && a.high === b.high;
}

function long_not(a) {
  return long_make(~a.low, ~a.high);
}

function long_add(a, b) {
  var a48 = a.high >>> 16;
  var a32 = a.high & 65535;
  var a16 = a.low >>> 16;
  var a00 = a.low & 65535;
  var b48 = b.high >>> 16;
  var b32 = b.high & 65535;
  var b16 = b.low >>> 16;
  var b00 = b.low & 65535;
  var c48 = 0, c32 = 0, c16 = 0, c00 = 0;
  c00 += a00 + b00;
  c16 += c00 >>> 16;
  c00 &= 65535;
  c16 += a16 + b16;
  c32 += c16 >>> 16;
  c16 &= 65535;
  c32 += a32 + b32;
  c48 += c32 >>> 16;
  c32 &= 65535;
  c48 += a48 + b48;
  c48 &= 65535;
  return long_make((c16 << 16) | c00, (c48 << 16) | c32);
}

function long_neg(a) {
  return long_add(long_not(a), long_fromInt(1));
}

function long_sub(a, b) {
  return long_add(a, long_neg(b));
}

function long_lt(a, b) {
  if (a.high !== b.high) {
    return a.high < b.high;
  }
  return (a.low >>> 0) < (b.low >>> 0);
}

function long_ge(a, b) {
  return !long_lt(a, b);
}

function long_mul(a, b) {
  /* Long.js: split into four 16-bit chunks to avoid overflow of JS
     doubles (long.js#L56-L59, cited by the paper's Appendix D). */
  var a48 = a.high >>> 16;
  var a32 = a.high & 65535;
  var a16 = a.low >>> 16;
  var a00 = a.low & 65535;
  var b48 = b.high >>> 16;
  var b32 = b.high & 65535;
  var b16 = b.low >>> 16;
  var b00 = b.low & 65535;
  var c48 = 0, c32 = 0, c16 = 0, c00 = 0;
  c00 += a00 * b00;
  c16 += c00 >>> 16;
  c00 &= 65535;
  c16 += a16 * b00;
  c32 += c16 >>> 16;
  c16 &= 65535;
  c16 += a00 * b16;
  c32 += c16 >>> 16;
  c16 &= 65535;
  c32 += a32 * b00;
  c48 += c32 >>> 16;
  c32 &= 65535;
  c32 += a16 * b16;
  c48 += c32 >>> 16;
  c32 &= 65535;
  c32 += a00 * b32;
  c48 += c32 >>> 16;
  c32 &= 65535;
  c48 += a48 * b00 + a32 * b16 + a16 * b32 + a00 * b48;
  c48 &= 65535;
  return long_make((c16 << 16) | c00, (c48 << 16) | c32);
}

function long_div(a, b) {
  /* Long.js division: float approximation with correction loop. */
  var neg, rem, res, approx, approxLong, delta;
  if (long_isZero(b)) {
    return long_fromInt(0);
  }
  neg = false;
  if (long_isNegative(a)) {
    a = long_neg(a);
    neg = !neg;
  }
  if (long_isNegative(b)) {
    b = long_neg(b);
    neg = !neg;
  }
  res = long_fromInt(0);
  rem = a;
  while (long_ge(rem, b)) {
    approx = Math.max(1, Math.floor(long_toNumber(rem) /
                                    long_toNumber(b)));
    approxLong = long_fromNumber(approx);
    delta = long_mul(approxLong, b);
    while (long_lt(rem, delta)) {
      approx = approx - 1;
      approxLong = long_fromNumber(approx);
      delta = long_mul(approxLong, b);
    }
    res = long_add(res, approxLong);
    rem = long_sub(rem, delta);
  }
  return neg ? long_neg(res) : res;
}

function long_mod(a, b) {
  return long_sub(a, long_mul(long_div(a, b), b));
}
"""

_DRIVER = r"""
function run_ops(op, iterations, lhs, rhs) {
  var acc = long_fromInt(0);
  var a = long_fromInt(lhs);
  var b = long_fromInt(rhs);
  var i, r;
  for (i = 0; i < iterations; i++) {
    if (op === 0) {
      r = long_mul(a, b);
    } else if (op === 1) {
      r = long_div(a, b);
    } else {
      r = long_mod(a, b);
    }
    acc = long_add(acc, r);
    a = long_add(a, long_fromInt(1));
  }
  return acc.low ^ acc.high;
}
"""

#: Table 10's three experiments: (label, op code, iterations, lhs, rhs).
EXPERIMENTS = (
    ("multiplication", 0, 10000, 36, -2),
    ("division", 1, 10000, -2, -2),
    ("remainder", 2, 10000, 36, 5),
)


def _wasm_module():
    """Long.js' wasm.wat equivalent: exported per-operation functions, one
    i64 instruction each (plus the wat file's operand-splitting shifts/ors
    that reconstruct i64 values from the 32-bit halves JS hands over —
    where Table 12's Wasm SHIFT/OR counts come from)."""
    module = WasmModule(name="longjs-wasm")
    ft = FuncType(("i32", "i32", "i32", "i32"), ("i64",))

    def combine(lo_index, hi_index):
        # (hi zext << 32) | (lo zext)
        return [
            I(Op.LOCAL_GET, hi_index), I(Op.I64_EXTEND_I32_U),
            I(Op.I64_CONST, 32), I(Op.I64_SHL),
            I(Op.LOCAL_GET, lo_index), I(Op.I64_EXTEND_I32_U),
            I(Op.I64_OR),
        ]

    for name, opcode in (("mul", Op.I64_MUL), ("div_s", Op.I64_DIV_S),
                         ("rem_s", Op.I64_REM_S)):
        body = combine(0, 1) + combine(2, 3) + [I(opcode)]
        module.add_function(Function(name, ft, [], body, exported=True))
    return module


def _split64(value):
    value = int(value) & 0xFFFFFFFFFFFFFFFF
    lo = value & 0xFFFFFFFF
    hi = value >> 32
    return (_sign32(lo), _sign32(hi))


def _sign32(v):
    return v - 0x100000000 if v & 0x80000000 else v


class LongJsApp:
    """Runs Table 10's three Long.js experiments on both implementations."""

    def __init__(self, profile=None, platform=None, iterations=None):
        self.profile = profile or chrome_desktop()
        self.platform = platform or DESKTOP
        #: Override the paper's 10,000 operations (tests use fewer).
        self.iterations = iterations

    def run(self):
        results = {}
        wasm_module = _wasm_module()
        mask = 0xFFFFFFFFFFFFFFFF
        for label, opcode, iterations, lhs, rhs in EXPERIMENTS:
            if self.iterations is not None:
                iterations = self.iterations
            # JavaScript implementation.
            engine = JsEngine(self.profile.js,
                              cycles_per_ms=self.platform.cycles_per_ms)
            install_js_host(engine, [])
            engine.load_script(LONGJS_JS + _DRIVER)
            js_checksum = engine.call_global(
                "run_ops", float(opcode), float(iterations),
                float(lhs), float(rhs))
            js_ms = self.platform.ms(engine.total_cycles())
            js_profile = engine.stats.arithmetic_profile()

            # WebAssembly implementation: Long.js calls the exported wasm
            # function once per operation, crossing the JS↔Wasm boundary
            # each time (instance.exports.mul(alo, ahi, blo, bhi)).
            vm = WasmVM(boundary_cost=self.profile.wasm.boundary_cost)
            instance = vm.instantiate(wasm_module)
            entry = {0: "mul", 1: "div_s", 2: "rem_s"}[opcode]
            acc = 0
            a = lhs & mask
            b = rhs & mask
            for _ in range(iterations):
                alo, ahi = _split64(a)
                blo, bhi = _split64(b)
                result = instance.invoke(entry, alo, ahi, blo, bhi)
                acc = (acc + result) & mask
                a = (a + 1) & mask
            wasm_checksum = _sign32((acc & 0xFFFFFFFF) ^ (acc >> 32))
            wasm_cycles = (instance.stats.cycles *
                           self.profile.wasm.tiers.optimizing.exec_factor +
                           instance.stats.boundary_cycles)
            wasm_ms = self.platform.ms(wasm_cycles)
            results[label] = {
                "iterations": iterations,
                "js_ms": js_ms,
                "wasm_ms": wasm_ms,
                "ratio": wasm_ms / js_ms,
                "js_checksum": int(js_checksum),
                "wasm_checksum": wasm_checksum,
                "js_ops": js_profile,
                "wasm_ops": instance.stats.arithmetic_profile(),
            }
        return results
