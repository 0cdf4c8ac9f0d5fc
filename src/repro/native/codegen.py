"""Codegen execution tier for the native register machine.

Emits each function's basic blocks as generated Python: registers become
locals ``r0..rN``, the frame accumulators become locals ``cyc``/``ic``,
and dispatch is the resumable ``bi`` if-chain of the shared skeleton
(:class:`repro.engine.codegen.FnEmitter`), each loop nested as a
``while True`` of its own.  The exactness rules of
:mod:`repro.engine.codegen` map onto emitted source directly:

* **Cycles self-charge per op** — vector-marked instructions are charged
  ``N_COST[op] * VECTOR_COST_FACTOR`` (0.29 — not dyadic), so per-block
  float batching would reorder the sum; every op emits its own
  ``cyc += c`` statement with the pre-scaled charge as a literal, so the
  float sum associates in the reference's left-fold order.  The integer
  counters batch per block (instructions in the frame-local ``ic``),
  and a trap guard rewinds their suffix.
* **The RETV double-flush is intentional** — the reference ``RETV`` arm
  flushes the frame-local accumulators and returns *without zeroing
  them*, so the ``finally`` flush runs a second time.  The generated
  ``RETV`` arm flushes ``cyc``/``ic`` without zeroing and returns through
  the ``finally`` flush, duplicating the float addition bit for bit.
* **Budgets run on the ladder** — a machine built with
  ``max_instructions`` never enters this tier: the reference ladder
  decrements ``machine.budget`` per instruction and traps at the exact
  instruction with the exact partial stats.

Registers make this translator simpler than the Wasm one: there is no
stack-depth analysis.  The one decline is a ``MOVI`` immediate the
source emitter cannot spell as a literal; the machine then runs that
function on the reference ladder.
"""

from __future__ import annotations

import math as _math
import struct as _struct
from typing import NamedTuple

from repro.engine.codegen import (
    DECLINED, LOST_DISPATCH, M32, M64, S32, W32, FnEmitter, LoopLayout,
    block_ranges, block_successors, class_deltas, declined, emit_wrap,
    literal, literalizable, load_factory, split_term, translated, unit_key,
)
from repro.errors import TrapError
from repro.native.machine import (
    N_COST, N_OP_CLASS, VECTOR_COST_FACTOR, _MASK32, _MASK64, _w32, _w64,
)

__all__ = ["translate", "DECLINED"]

_UNPACK_D = _struct.Struct("<d").unpack_from
_UNPACK_I = _struct.Struct("<i").unpack_from
_UNPACK_Q = _struct.Struct("<q").unpack_from
_PACK_D = _struct.Struct("<d").pack_into
_PACK_I = _struct.Struct("<I").pack_into
_PACK_Q = _struct.Struct("<Q").pack_into

#: Comparison operator source per op (unsigned ones add masks below).
_CMP_OPS = {34: "==", 35: "!=", 36: "<", 38: "<=", 40: ">", 42: ">=",
            44: "==", 45: "!=", 46: "<", 48: "<=", 50: ">", 52: ">=",
            54: "==", 55: "!=", 56: "<", 57: "<=", 58: ">", 59: ">="}
_CMP_U32 = {37: "<", 39: "<=", 41: ">", 43: ">="}
_CMP_U64 = {47: "<", 49: "<=", 51: ">", 53: ">="}

_I32_WRAP = {2: "+", 3: "-", 4: "*", 9: "&", 10: "|", 11: "^"}
_I64_WRAP = {18: "+", 19: "-", 20: "*", 25: "&", 26: "|", 27: "^"}
_F_ARITH = {60: "+", 61: "-", 62: "*"}


def _div_s(wrap):
    def div(x, y):
        if y == 0:
            raise TrapError("integer divide by zero")
        q = abs(x) // abs(y)
        return wrap(q if (x < 0) == (y < 0) else -q)
    return div


def _div_u(wrap, mask):
    def div(x, y):
        y &= mask
        if y == 0:
            raise TrapError("integer divide by zero")
        return wrap((x & mask) // y)
    return div


def _rem_s(x, y):
    if y == 0:
        raise TrapError("integer divide by zero")
    r = abs(x) % abs(y)
    return -r if x < 0 else r


def _rem_u(wrap, mask):
    def rem(x, y):
        y &= mask
        if y == 0:
            raise TrapError("integer divide by zero")
        return wrap((x & mask) % y)
    return rem


def _fdiv(x, y):
    if y == 0.0:
        if x == 0.0 or x != x:
            return _math.nan
        return _math.copysign(_math.inf, x) * _math.copysign(1.0, y)
    return x / y


def _f2i32(v):
    if v != v or v >= 2147483648.0 or v <= -2147483649.0:
        raise TrapError("invalid f64→i32 conversion")
    return int(v)


def _f2i64(v):
    if v != v or v >= 9223372036854775808.0 or v < -9223372036854775808.0:
        raise TrapError("invalid f64→i64 conversion")
    return int(v)


#: Trap-capable binary value functions (div/rem; emitted in a guard).
_TRAP_BINVAL = {
    5: _div_s(_w32), 6: _div_u(_w32, _MASK32), 7: _rem_s,
    8: _rem_u(_w32, _MASK32),
    21: _div_s(_w64), 22: _div_u(_w64, _MASK64), 23: _rem_s,
    24: _rem_u(_w64, _MASK64),
}

#: Trap-capable unary value functions (floor/ceil raise through ``math``
#: on inf/NaN exactly as the ladder; f64→int truncations trap on range).
_TRAP_UNVAL = {
    67: lambda v: float(_math.floor(v)),
    68: lambda v: float(_math.ceil(v)),
    72: _f2i32,
    73: _f2i64,
}

_LOADS = frozenset(range(77, 83))
_STORES = frozenset(range(83, 88))
_TERM_OPS = frozenset((88, 89, 90, 91, 92, 93))   # JMP JZ JNZ CALL RET RETV
_BRANCHES = frozenset((88, 89, 90))
_NO_FALL = frozenset((88, 92, 93))                # JMP RET RETV

#: Every opcode the translator handles: the inlined operator tables, the
#: shifts, FDIV, the unary ops, the trap-guarded value functions, memory,
#: control flow, MOVI/MOV, HOSTCALL and SELECT.
SUPPORTED_OPS = (set(_CMP_OPS) | set(_CMP_U32) | set(_CMP_U64)
                 | set(_I32_WRAP) | set(_I64_WRAP) | set(_F_ARITH)
                 | {12, 13, 14, 28, 29, 30, 63}
                 | {15, 16, 17, 31, 32, 33, 64, 65, 66, 69, 70, 71, 74, 75,
                    76}
                 | set(_TRAP_BINVAL) | set(_TRAP_UNVAL) | _LOADS | _STORES
                 | _TERM_OPS | {0, 1, 94, 95})


class _FnEmitter(FnEmitter):
    dispatch_tail = LOST_DISPATCH
    instr_counter = "ic"

    def __init__(self, fn, code, ranges, block_index, layout, profiling):
        super().__init__(fn, code, ranges, block_index, layout, profiling)
        self.callees = {}        # call-target name -> cf_{i} local

    def callee(self, name):
        local = self.callees.get(name)
        if local is None:
            local = self.callees[name] = f"cf_{len(self.callees)}"
        return local

    def emit_exit(self, depth):
        self.out.emit("return None")

    def emit_op(self, instr, classes, idx):
        op, dst, a, b, _vector = instr
        op = int(op)
        out = self.out
        d, ra, rb = f"r{dst}", f"r{a}", f"r{b}"
        if op == 0:                       # MOVI
            out.emit(f"{d} = {literal(a)}")
            return
        if op == 1:                       # MOV
            out.emit(f"{d} = {ra}")
            return
        if op in _I32_WRAP:
            emit_wrap(out, 32, d, f"{ra} {_I32_WRAP[op]} {rb}")
            return
        if op in _I64_WRAP:
            emit_wrap(out, 64, d, f"{ra} {_I64_WRAP[op]} {rb}")
            return
        if op in _F_ARITH:
            out.emit(f"{d} = {ra} {_F_ARITH[op]} {rb}")
            return
        if op == 63:                      # FDIV
            out.emit(f"{d} = {self.use('fdiv')}({ra}, {rb})")
            return
        if op == 12:                      # SHL32
            emit_wrap(out, 32, d, f"{ra} << ({rb} & 31)")
            return
        if op == 13:                      # SHRS32
            out.emit(f"{d} = {ra} >> ({rb} & 31)")
            return
        if op == 14:                      # SHRU32
            emit_wrap(out, 32, d, f"({ra} & {M32}) >> ({rb} & 31)")
            return
        if op == 28:                      # SHL64
            emit_wrap(out, 64, d, f"{ra} << ({rb} & 63)")
            return
        if op == 29:                      # SHRS64
            out.emit(f"{d} = {ra} >> ({rb} & 63)")
            return
        if op == 30:                      # SHRU64
            emit_wrap(out, 64, d, f"({ra} & {M64}) >> ({rb} & 63)")
            return
        if op in _CMP_OPS:
            out.emit(f"{d} = 1 if {ra} {_CMP_OPS[op]} {rb} else 0")
            return
        if op in _CMP_U32:
            out.emit(f"{d} = 1 if ({ra} & {M32}) {_CMP_U32[op]} "
                     f"({rb} & {M32}) else 0")
            return
        if op in _CMP_U64:
            out.emit(f"{d} = 1 if ({ra} & {M64}) {_CMP_U64[op]} "
                     f"({rb} & {M64}) else 0")
            return
        if op in _TRAP_BINVAL:
            self.guarded([f"{d} = {self.use(f'vf{op}')}({ra}, {rb})"],
                         classes, idx)
            return
        if op in (15, 17):                # NEG32 / BNOT32
            expr = f"-{ra}" if op == 15 else f"~{ra}"
            emit_wrap(out, 32, d, expr)
            return
        if op in (31, 32):                # NEG64 / BNOT64
            expr = f"-{ra}" if op == 31 else f"~{ra}"
            emit_wrap(out, 64, d, expr)
            return
        if op in (16, 33):                # NOT32 / NOT64
            out.emit(f"{d} = 1 if {ra} == 0 else 0")
            return
        if op == 64:                      # FSQRT
            out.emit(f"{d} = {self.use('nan')} if {ra} < 0 "
                     f"else {self.use('sqrt')}({ra})")
            return
        if op == 65:
            out.emit(f"{d} = abs({ra})")
            return
        if op == 66:
            out.emit(f"{d} = -{ra}")
            return
        if op in (69, 71):                # I2F_S32 / I2F_S64
            out.emit(f"{d} = float({ra})")
            return
        if op == 70:                      # I2F_U32
            out.emit(f"{d} = float({ra} & {M32})")
            return
        if op == 74:                      # SX32TO64
            out.emit(f"{d} = {ra}")
            return
        if op == 75:                      # ZX32TO64
            out.emit(f"{d} = {ra} & {M32}")
            return
        if op == 76:                      # TRUNC64TO32
            out.emit(f"t_ = {ra} & {M32}")
            out.emit(f"{d} = t_ - {W32} if t_ & {S32} else t_")
            return
        if op in _TRAP_UNVAL:
            self.guarded([f"{d} = {self.use(f'vf{op}')}({ra})"],
                         classes, idx)
            return
        if op in _LOADS:
            addr = f"{ra} + {b}" if b else ra
            if op == 82:
                body = [f"{d} = {self.use('u_d')}({self.use('mem')}, "
                        f"{addr})[0]"]
            elif op == 80:
                body = [f"{d} = {self.use('u_i')}({self.use('mem')}, "
                        f"{addr})[0]"]
            elif op == 81:
                body = [f"{d} = {self.use('u_q')}({self.use('mem')}, "
                        f"{addr})[0]"]
            elif op == 77:
                body = [f"{d} = {self.use('mem')}[{addr}]"]
            elif op == 78:
                body = [f"t_ = {self.use('mem')}[{addr}]",
                        f"{d} = t_ - 256 if t_ >= 128 else t_"]
            else:                         # 79: LOAD16U
                body = [f"a_ = {addr}",
                        f"{d} = {self.use('mem')}[a_] | "
                        f"({self.use('mem')}[a_ + 1] << 8)"]
            self.guarded(body, classes, idx)
            return
        if op in _STORES:
            addr = f"{ra} + {b}" if b else ra
            if op == 87:
                body = [f"{self.use('p_d')}({self.use('mem')}, {addr}, "
                        f"{d})"]
            elif op == 85:
                body = [f"{self.use('p_i')}({self.use('mem')}, {addr}, "
                        f"{d} & {M32})"]
            elif op == 86:
                body = [f"{self.use('p_q')}({self.use('mem')}, {addr}, "
                        f"{d} & {M64})"]
            elif op == 83:
                body = [f"{self.use('mem')}[{addr}] = {d} & 255"]
            else:                         # 84: STORE16
                body = [f"a_ = {addr}",
                        f"t_ = {d} & 65535",
                        f"{self.use('mem')}[a_] = t_ & 255",
                        f"{self.use('mem')}[a_ + 1] = t_ >> 8"]
            self.guarded(body, classes, idx)
            return
        if op == 94:                      # HOSTCALL
            name, arg_regs = a
            arg_list = ", ".join(f"r{r}" for r in arg_regs)
            self.guarded([f"t_ = {self.use('host')}({name!r}, "
                          f"[{arg_list}])"], classes, idx)
            if dst >= 0:
                out.emit(f"{d} = t_")
            return
        if op == 95:                      # SELECT
            cr, tr, er = a
            out.emit(f"{d} = r{tr} if r{cr} else r{er}")
            return
        raise TrapError(
            f"{self.fn.name}: unimplemented native op {op} (codegen tier)")

    def emit_term(self, instr, charge, bi, fall_bi):
        op, dst, a, _b, _vector = instr
        op = int(op)
        out = self.out
        out.emit(f"cyc += {literal(charge)}")
        if op == 88:                      # JMP
            self.emit_jump(self.bi_of(dst))
        elif op in (89, 90):              # JZ / JNZ
            cond = f"r{a}" if op == 90 else f"not r{a}"
            self.emit_branch(cond, self.bi_of(dst), fall_bi)
        elif op == 91:                    # CALL: flush, zero, recurse
            name, arg_regs = a
            out.emit(f"{self.use('stats')}.cycles += cyc")
            out.emit("stats.instructions += ic")
            out.emit("cyc = 0.0")
            out.emit("ic = 0")
            arg_list = ", ".join(f"r{r}" for r in arg_regs)
            call = f"{self.use('run_')}({self.callee(name)}, [{arg_list}])"
            if dst >= 0:
                out.emit(f"r{dst} = {call}")
            else:
                out.emit(call)
            self.emit_jump(fall_bi)
        elif op == 93:                    # RETV: flush WITHOUT zeroing —
            # the finally flush runs again (reference double-count).
            out.emit(f"{self.use('stats')}.cycles += cyc")
            out.emit("stats.instructions += ic")
            out.emit(f"return r{a}")
        else:                             # 92: RET
            self.emit_exit(0)

    def emit_prologue(self):
        out = self.out
        out.emit("_n = len(args)")
        for i in range(self.fn.nregs):
            out.emit(f"r{i} = args[{i}] if {i} < _n else 0")
        out.emit("cyc = 0.0")
        out.emit("ic = 0")
        self.emit_profile_frame()

    def emit_block(self, bi):
        out = self.out
        start, end = self.ranges[bi]
        ops = self.code[start:end]
        classes = [int(N_OP_CLASS[int(i[0])]) for i in ops]
        charges = [N_COST[int(i[0])] * (VECTOR_COST_FACTOR if i[4]
                                        else 1.0) for i in ops]
        # ``ic`` stays eager, because the CALL and RETV flushes hand it
        # to the reference quirks; the op classes batch per block.
        out.emit(f"ic += {len(ops)}")
        self.count_block(bi, classes)
        if self.profiling:
            keys = [int(i[0]) + (256 if i[4] else 0) for i in ops]
            self.prof_cells.append((f"nb{bi}", class_deltas(keys)))
        body, term = split_term(ops, _TERM_OPS)
        for idx, instr in enumerate(body):
            out.emit(f"cyc += {literal(charges[idx])}")
            self.emit_op(instr, classes, idx)
        fall_bi = self.bi_of(end)
        if term is None:
            self.emit_jump(fall_bi)
        else:
            self.emit_term(term, charges[-1], bi, fall_bi)

    def emit_finally(self):
        out = self.out
        out.emit("if ic:")
        with out.block():
            out.emit(f"{self.use('stats')}.cycles += cyc")
            out.emit("stats.instructions += ic")
        self.emit_flush()

    def emit_bindings(self):
        super().emit_bindings()
        for cname, local in sorted(self.callees.items()):
            self.out.emit(f"{local} = ns['callees'][{cname!r}]")


class _Plan(NamedTuple):
    """What translating one function derives from its code and the
    translation flags alone: shared by every machine that runs the
    program."""

    key: str
    ranges: list
    block_index: dict
    layout: LoopLayout


def _plan(fn, profiling):
    """Plan one function's translation; ``None`` when the translator
    declines it (a ``MOVI`` immediate it cannot literalise)."""
    code = fn.code
    for pc, instr in enumerate(code):
        if int(instr[0]) not in SUPPORTED_OPS:
            raise TrapError(
                f"{fn.name}: unimplemented native op {instr[0]} at pc "
                f"{pc} (codegen tier has no handler)")

    for instr in code:
        if int(instr[0]) == 0 and not literalizable(instr[2]):
            # A MOVI immediate the source emitter cannot literalise:
            # decline to the reference ladder rather than fail mid-build.
            return None
    ranges, block_index = block_ranges(code, _TERM_OPS, _BRANCHES)
    key = unit_key("native", (
        repr(code), fn.nregs, profiling))
    layout = LoopLayout(block_successors(code, ranges, block_index,
                                         _BRANCHES, _NO_FALL))
    return _Plan(key, ranges, block_index, layout)


def translate(fn, machine):
    """Build (or load warm) the generated runner for one native function
    on one machine; ``None`` means the translator declined and the
    caller should run the function on the reference ladder.  The plan
    and its compiled factory are memoized on the program's function
    (``fn.plans``); the runner, which pre-binds this machine's state, is
    built every time."""
    profiling = machine._profile is not None
    plan = fn.plans.get(profiling, lambda: _plan(fn, profiling))
    if plan is None:
        return declined("native")

    def build_source():
        emitter = _FnEmitter(fn, fn.code, plan.ranges, plan.block_index,
                             plan.layout, profiling)
        return emitter.build()

    factory = fn.plans.get(
        ("make", profiling),
        lambda: load_factory("native", plan.key, build_source))

    functions = machine.program.functions
    ns = {
        "stats": machine.stats, "counts": machine.stats.op_counts,
        "mem": machine.memory, "fn_name": fn.name,
        "run_": machine._run, "host": machine._host,
        "nan": float("nan"),
        "u_d": _UNPACK_D, "u_i": _UNPACK_I,
        "u_q": _UNPACK_Q, "p_d": _PACK_D,
        "p_i": _PACK_I, "p_q": _PACK_Q,
        "fdiv": _fdiv, "TrapError": TrapError,
        "callees": {name: functions[name] for name in functions},
    }
    ns["sqrt"] = _math.sqrt
    if machine._profile is not None:
        ns["prof_frame"] = machine._profile.frame
    for op, f in _TRAP_BINVAL.items():
        ns[f"vf{op}"] = f
    for op, f in _TRAP_UNVAL.items():
        ns[f"vf{op}"] = f

    translated("native", len(plan.ranges), plan.layout)
    return factory(ns)
