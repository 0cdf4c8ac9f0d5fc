"""Codegen execution tier for the Wasm VM: basic blocks → Python.

Splits each prepared function into basic blocks and emits them as one
generated Python function: the operand stack is lowered to local
variables ``s0..sK`` (depths are static — the validator only branches at
empty-stack statement boundaries, so every join has one depth), locals
to ``l0..lN``, and dispatch to a resumable ``bi`` block index looping
over ``if bi == k`` arms with straight-line bodies.

Exactness (the rules of :mod:`repro.engine.codegen` as they apply here).
Wasm is the one engine whose whole charge stream lives on an exact
0.25-cycle grid, so cycles, instruction counts, op-class counts *and*
the instruction budget are all batched per block:

* block entry charges the batched cycle/instruction/op-class totals as
  folded literals (the ``math.fsum`` block total is exact at any
  association) and decrements the budget by the block length;
* every trap point (loads/stores, div/rem, trunc, floor/ceil,
  ``unreachable``) is wrapped in an explicit guard whose rewind
  statements subtract the charge suffix before re-raising;
* a block entered with fewer budget units than instructions deopts to
  the reference ladder (``_run_from``) at the block start, materialising
  the slot values back into real locals/stack lists;
* unknown opcodes fail loudly at translation with a structured error.

The generated source depends only on the prepared code and translation
flags — instance state (memory, globals, stats, call targets) is bound
by ``make(ns)`` at instantiation — so translation units are served from
the persistent compile cache (see :mod:`repro.engine.codegen`).

``translate`` returns ``None`` (*declines*) when the static stack-depth
analysis finds an inconsistent join; the VM then runs that function on
the reference ladder.
"""

from __future__ import annotations

import math
import struct as _struct

from repro.engine.codegen import (
    DECLINED, Emitter, class_deltas, emit_sum, literal, load_factory,
    scaled, split_blocks, unit_key,
)
from repro.errors import TrapError, ValidationError
from repro.obs import SCHED, get_registry
from repro.wasm.instructions import OP_CLASS, OP_COST
from repro.wasm.memory import (
    PACK_F64, PACK_U32, PACK_U64, UNPACK_F64, UNPACK_I32, UNPACK_I64,
    _FRAME_BITS, _FRAME_MASK,
)

__all__ = ["translate", "DECLINED"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

_M32 = "4294967295"
_S32 = "2147483648"
_W32 = "4294967296"
_M64 = "18446744073709551615"
_S64 = "9223372036854775808"
_W64 = "18446744073709551616"

#: Signed comparison templates (a = top-1, b = top).
_CMP_SIGNED = {52: "==", 53: "!=", 54: "<", 56: ">", 58: "<=", 60: ">=",
               76: "==", 77: "!=", 78: "<", 80: ">", 82: "<=", 83: ">=",
               95: "==", 96: "!=", 97: "<", 98: ">", 99: "<=", 100: ">="}
_CMP_U32 = {55: "<", 57: ">", 59: "<=", 61: ">="}
_CMP_U64 = {79: "<", 81: ">"}
_F64_ARITH = {84: "+", 85: "-", 86: "*"}
_I32_WRAP_ARITH = {34: "+", 35: "-", 36: "*", 41: "&", 42: "|", 43: "^"}
_I64_WRAP_ARITH = {62: "+", 63: "-", 64: "*", 69: "&", 70: "|", 71: "^"}

_PACK_Q = _struct.Struct("<q")
_PACK_D = _struct.Struct("<d")


def _wrap32(v):
    v &= _MASK32
    return v - 0x100000000 if v & 0x80000000 else v


def _wrap64(v):
    v &= _MASK64
    return v - 0x10000000000000000 if v & 0x8000000000000000 else v


# ---------------------------------------------------------------------------
# Value functions for the operators the emitter does not inline, matching
# the reference ladder's arithmetic expression for expression.

def _i32_rotl(a, b):
    b &= 31
    u = a & _MASK32
    return _wrap32(((u << b) | (u >> (32 - b))) & _MASK32 if b else u)


def _f64_div(a, b):
    if b == 0.0:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _div_s(wrap):
    def div(a, b):
        if b == 0:
            raise TrapError("integer divide by zero")
        q = abs(a) // abs(b)
        return wrap(q if (a < 0) == (b < 0) else -q)
    return div


def _div_u(wrap, mask):
    def div(a, b):
        b &= mask
        if b == 0:
            raise TrapError("integer divide by zero")
        return wrap((a & mask) // b)
    return div


def _rem_s(a, b):
    if b == 0:
        raise TrapError("integer divide by zero")
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _rem_u(wrap, mask):
    def rem(a, b):
        b &= mask
        if b == 0:
            raise TrapError("integer divide by zero")
        return wrap((a & mask) % b)
    return rem


def _trunc_f64_i32(v):
    if v != v or v >= 2147483648.0 or v <= -2147483649.0:
        raise TrapError("invalid conversion to integer")
    return int(v)


def _trunc_f64_i64(v):
    if v != v or v >= 9223372036854775808.0 or v < -9223372036854775808.0:
        raise TrapError("invalid conversion to integer")
    return int(v)


#: Trap-free binary operators (pop two, push one): every one the emitter
#: inlines, plus rotl and f64.div, called through ``_VALUE_FNS``.
_BINOPS = (frozenset(_CMP_SIGNED) | frozenset(_CMP_U32)
           | frozenset(_CMP_U64) | frozenset(_F64_ARITH)
           | frozenset(_I32_WRAP_ARITH) | frozenset(_I64_WRAP_ARITH)
           | {44, 45, 46, 47, 72, 73, 74, 87, 91, 92})

#: Trap-capable binary operators (div/rem; emitted inside a guard).
_TRAP_BINOPS = {
    37: _div_s(_wrap32), 38: _div_u(_wrap32, _MASK32),
    39: _rem_s, 40: _rem_u(_wrap32, _MASK32),
    65: _div_s(_wrap64), 66: _div_u(_wrap64, _MASK64),
    67: _rem_s, 68: _rem_u(_wrap64, _MASK64),
}

#: Trap-free unary operators (pop one, push one).
_UNOPS = frozenset((48, 49, 50, 51, 75, 88, 89, 90, 101, 102, 103, 104,
                    105, 106, 109, 110))

#: Trap-capable unary operators (f64→int truncations trap on range, and
#: floor/ceil raise through ``math`` on inf/NaN exactly as the ladder).
_TRAP_UNOPS = {
    93: lambda v: float(math.floor(v)),
    94: lambda v: float(math.ceil(v)),
    107: _trunc_f64_i32,
    108: _trunc_f64_i64,
}

#: Every operator the generated source calls as ``vf<op>``.
_VALUE_FNS = {
    47: _i32_rotl,
    48: lambda v: 32 - (v & _MASK32).bit_length(),
    49: lambda v: 32 if v & _MASK32 == 0
    else ((v & _MASK32) & -(v & _MASK32)).bit_length() - 1,
    50: lambda v: bin(v & _MASK32).count("1"),
    87: _f64_div,
    109: lambda v: _wrap64(_PACK_Q.unpack(_PACK_D.pack(v))[0]),
    110: lambda v: _PACK_D.unpack(_PACK_Q.pack(v))[0],
    **_TRAP_BINOPS, **_TRAP_UNOPS,
}

_LOAD_WIDTH = {18: 4, 19: 8, 20: 8, 21: 1, 22: 1, 23: 2}
_STORE_WIDTH = {24: 4, 25: 8, 26: 8, 27: 1, 28: 2}
_CONSTS = (31, 32, 33)
_MARKERS = frozenset((1, 2, 3, 6))        # nop / block / loop / end
_TERM_OPS = frozenset((4, 7, 8, 9, 10))   # if / br / br_if / return / call

#: Every opcode the translator handles.  ``ELSE`` (5) is absent by
#: design: ``_prepare_body`` rewrites it to a resolved ``BR`` before
#: translation, and the reference ladder does not dispatch it either.
SUPPORTED_OPS = (_BINOPS | set(_TRAP_BINOPS) | _UNOPS | set(_TRAP_UNOPS)
                 | set(_LOAD_WIDTH) | set(_STORE_WIDTH) | set(_CONSTS)
                 | _MARKERS | _TERM_OPS
                 | {0, 11, 12, 13, 14, 15, 16, 17, 29, 30})


def _flow(op, arg, call_sigs):
    """(pops, pushes) for one non-terminator opcode."""
    if op in (13, 16, 29) or op in _CONSTS:
        return 0, 1
    if op in (14, 17, 11):
        return 1, 0
    if op == 15 or op == 30 or op in _UNOPS or op in _TRAP_UNOPS \
            or op in _LOAD_WIDTH:
        return 1, 1
    if op in _BINOPS or op in _TRAP_BINOPS:
        return 2, 1
    if op in _STORE_WIDTH:
        return 2, 0
    if op == 12:
        return 3, 1
    return 0, 0      # markers, unreachable


def _analyse(code, ranges, block_index, call_sigs):
    """Static operand-stack depths: per-block entry depth and the max.

    Returns ``(entry_depth, max_depth)`` or ``None`` when a join is
    entered at two different depths or a depth would go negative (the
    validator prevents both for generated code; hand-built modules run
    on the reference ladder).
    """
    if not ranges:
        return {}, 0
    entry = {0: 0}
    work = [0]
    max_d = 0
    n = len(code)

    def join(pc, depth):
        if pc >= n:
            return True
        tbi = block_index[pc]
        if tbi in entry:
            return entry[tbi] == depth
        entry[tbi] = depth
        work.append(tbi)
        return True

    while work:
        bi = work.pop()
        start, end = ranges[bi]
        d = entry[bi]
        ops = code[start:end]
        has_term = bool(ops) and ops[-1][0] in _TERM_OPS
        body = ops[:-1] if has_term else ops
        for op, arg, _extra in body:
            pops, pushes = _flow(op, arg, call_sigs)
            if d < pops:
                return None
            d += pushes - pops
            if d > max_d:
                max_d = d
        if not has_term:
            if not join(end, d):
                return None
            continue
        op, arg, extra = ops[-1]
        if op == 8:                       # br_if
            if d < 1:
                return None
            d -= 1
            h = 0 if extra is None else extra
            if not (join(arg, min(d, h)) and join(end, d)):
                return None
        elif op == 4:                     # if (jump on false)
            if d < 1:
                return None
            d -= 1
            if not (join(arg, d) and join(end, d)):
                return None
        elif op == 7:                     # br
            target_d = d if extra is None else min(d, extra)
            if not join(arg, target_d):
                return None
        elif op == 9:                     # return
            pass
        else:                             # call
            _kind, nargs, has_res = call_sigs[arg]
            if d < nargs:
                return None
            d += (1 if has_res else 0) - nargs
            if d > max_d:
                max_d = d
            if not join(end, d):
                return None
    return entry, max_d


def _emit_i32_wrap(out, target, expr):
    out.emit(f"t_ = ({expr}) & {_M32}")
    out.emit(f"{target} = t_ - {_W32} if t_ & {_S32} else t_")


def _emit_i64_wrap(out, target, expr):
    out.emit(f"t_ = ({expr}) & {_M64}")
    out.emit(f"{target} = t_ - {_W64} if t_ & {_S64} else t_")


class _FnEmitter:
    """Emits the ``run`` body for one prepared function."""

    def __init__(self, fn, code, ranges, block_index, entry_depth,
                 max_depth, budget_mode, profiling, call_sigs):
        self.fn = fn
        self.code = code
        self.ranges = ranges
        self.block_index = block_index
        self.entry_depth = entry_depth
        self.max_depth = max_depth
        self.budget_mode = budget_mode
        self.profiling = profiling
        self.call_sigs = call_sigs
        self.results = bool(fn.results)
        self.names = set()                # ns names the source references
        #: Per-block charge batch, flushed lazily (see ``emit_flush``):
        #: ``{bi: (cycles, n_ops, [(class, d)], [(op, d)])}``.
        self.block_counts = {}
        self.out = Emitter()

    def use(self, name):
        self.names.add(name)
        return name

    def bi_of(self, pc):
        return -1 if pc >= len(self.code) else self.block_index[pc]

    # -- fragments ------------------------------------------------------

    def emit_return(self, depth):
        if not self.results:
            self.out.emit("return None")
        elif depth > 0:
            self.out.emit(f"return s{depth - 1}")
        else:
            self.out.emit("return 0")

    def emit_jump(self, tbi, depth, fall_bi=None):
        """Transfer to block ``tbi`` arriving at ``depth`` slots."""
        if tbi == -1:
            self.emit_return(depth)
        elif tbi == fall_bi:
            self.out.emit(f"bi = {tbi}")
        else:
            self.out.emit(f"bi = {tbi}")
            self.out.emit("continue")

    def emit_rewind(self, costs, classes, idx):
        """The charge-suffix rewind: restore the reference's charge
        prefix 0..idx before the trap escapes."""
        cyc_sfx = math.fsum(costs[idx + 1:])
        n_sfx = len(costs) - (idx + 1)
        if cyc_sfx:
            self.out.emit(f"{self.use('stats')}.cycles -= "
                          f"{literal(cyc_sfx)}")
        if n_sfx:
            self.out.emit(f"{self.use('stats')}.instructions -= {n_sfx}")
        for ci, d in class_deltas(classes[idx + 1:]):
            self.out.emit(f"{self.use('counts')}[{ci}] -= {d}")
        if self.budget_mode and n_sfx:
            self.out.emit(f"{self.use('inst')}._instr_budget += {n_sfx}")

    def _frame_lookup(self, base, offset, width):
        """Inline of ``LinearMemory._frame``: resolve ``base + offset``
        to ``(f_, o_)`` with the materialised-frame fast path as straight
        statements.  A missing frame, a negative address (whose shifted
        index can never be materialised) or an access past the committed
        limit all fall back to the bound ``frame`` call, which either
        materialises the frame or raises the exact reference trap."""
        return [
            f"a_ = {base} + {offset}",
            f"f_ = {self.use('frames_')}.get(a_ >> {_FRAME_BITS})",
            f"if f_ is None or a_ + {width} > {self.use('mem')}._limit:",
            f"    f_, o_ = {self.use('frame')}(a_, {width})",
            "else:",
            f"    o_ = a_ & {_FRAME_MASK}",
        ]

    def emit_flush(self):
        """Apply the per-block charges accumulated by the dispatch loop.
        Runs once, in the ``finally``, covering returns, deopt handoffs
        and escaping traps alike: one statement per counter (see the
        exactness note in ``emit_block``); profiler cells stay guarded
        per block."""
        out = self.out
        if not self.block_counts:
            out.emit("pass")
            return
        cycles, instructions, classes = [], [], {}
        for bi in sorted(self.block_counts):
            blk_cycles, n_ops, deltas, _prof = self.block_counts[bi]
            if blk_cycles:
                cycles.append(f"{literal(blk_cycles)} * nb{bi}")
            instructions.append(scaled(n_ops, f"nb{bi}"))
            for ci, dc in deltas:
                classes.setdefault(ci, []).append(scaled(dc, f"nb{bi}"))
        stats = self.use("stats")
        if cycles:
            emit_sum(out, f"{stats}.cycles", cycles, fold=True)
        emit_sum(out, f"{stats}.instructions", instructions)
        for ci in sorted(classes):
            emit_sum(out, f"{self.use('counts')}[{ci}]", classes[ci])
        for bi in sorted(self.block_counts):
            prof = self.block_counts[bi][3]
            if prof:
                out.emit(f"if nb{bi}:")
                with out.block():
                    for op, dc in prof:
                        out.emit(f"fprof[{op}] = fprof.get({op}, 0) + "
                                 f"{scaled(dc, f'nb{bi}')}")

    def guarded(self, body_lines, costs, classes, idx):
        self.out.emit("try:")
        with self.out.block():
            for line in body_lines:
                self.out.emit(line)
        self.out.emit("except BaseException:")
        with self.out.block():
            self.emit_rewind(costs, classes, idx)
            self.out.emit("raise")

    # -- one straight-line op at static depth d; returns the new depth --

    def emit_op(self, instr, d, costs, classes, idx):
        op, arg, _extra = instr
        out = self.out
        if op in _MARKERS:
            return d
        if op == 13:
            out.emit(f"s{d} = l{arg}")
            return d + 1
        if op == 14:
            out.emit(f"l{arg} = s{d - 1}")
            return d - 1
        if op == 15:
            out.emit(f"l{arg} = s{d - 1}")
            return d
        if op in _CONSTS:
            out.emit(f"s{d} = {literal(arg)}")
            return d + 1
        if op == 16:
            out.emit(f"s{d} = {self.use('gvals')}[{arg}]")
            return d + 1
        if op == 17:
            out.emit(f"{self.use('gvals')}[{arg}] = s{d - 1}")
            return d - 1
        if op == 11:
            return d - 1
        if op == 12:
            out.emit(f"s{d - 3} = s{d - 3} if s{d - 1} else s{d - 2}")
            return d - 2
        if op == 29:
            out.emit(f"s{d} = {self.use('mem')}.pages")
            return d + 1
        if op == 30:
            out.emit(f"t_ = {self.use('mem')}.grow(s{d - 1})")
            out.emit("if t_ >= 0:")
            with out.block():
                out.emit("mem.grow_count += 1")
                out.emit(f"{self.use('stats')}.memory_grows += 1")
            out.emit(f"s{d - 1} = t_")
            return d
        if op == 0:
            self.emit_rewind(costs, classes, idx)
            out.emit(f"raise {self.use('TrapError')}"
                     f"('unreachable executed')")
            return d
        a, b = f"s{d - 2}", f"s{d - 1}"
        if op in _I32_WRAP_ARITH:
            _emit_i32_wrap(out, a, f"{a} {_I32_WRAP_ARITH[op]} {b}")
            return d - 1
        if op in _I64_WRAP_ARITH:
            _emit_i64_wrap(out, a, f"{a} {_I64_WRAP_ARITH[op]} {b}")
            return d - 1
        if op in _F64_ARITH:
            out.emit(f"{a} = {a} {_F64_ARITH[op]} {b}")
            return d - 1
        if op == 44:
            _emit_i32_wrap(out, a, f"{a} << ({b} & 31)")
            return d - 1
        if op == 45:
            out.emit(f"{a} = {a} >> ({b} & 31)")
            return d - 1
        if op == 46:
            _emit_i32_wrap(out, a, f"({a} & {_M32}) >> ({b} & 31)")
            return d - 1
        if op == 72:
            _emit_i64_wrap(out, a, f"{a} << ({b} & 63)")
            return d - 1
        if op == 73:
            out.emit(f"{a} = {a} >> ({b} & 63)")
            return d - 1
        if op == 74:
            _emit_i64_wrap(out, a, f"({a} & {_M64}) >> ({b} & 63)")
            return d - 1
        if op in _CMP_SIGNED:
            out.emit(f"{a} = 1 if {a} {_CMP_SIGNED[op]} {b} else 0")
            return d - 1
        if op in _CMP_U32:
            out.emit(f"{a} = 1 if ({a} & {_M32}) {_CMP_U32[op]} "
                     f"({b} & {_M32}) else 0")
            return d - 1
        if op in _CMP_U64:
            out.emit(f"{a} = 1 if ({a} & {_M64}) {_CMP_U64[op]} "
                     f"({b} & {_M64}) else 0")
            return d - 1
        if op == 91:
            out.emit(f"{a} = min({a}, {b})")
            return d - 1
        if op == 92:
            out.emit(f"{a} = max({a}, {b})")
            return d - 1
        if op in (47, 87):                # rotl / f64.div via value fn
            out.emit(f"{a} = {self.use(f'vf{op}')}({a}, {b})")
            return d - 1
        if op in _TRAP_BINOPS:
            self.guarded([f"{a} = {self.use(f'vf{op}')}({a}, {b})"],
                         costs, classes, idx)
            return d - 1
        t = f"s{d - 1}"
        if op in (51, 75):
            out.emit(f"{t} = 1 if {t} == 0 else 0")
            return d
        if op == 88:
            out.emit(f"{t} = {self.use('nan')} if {t} < 0 "
                     f"else {self.use('sqrt')}({t})")
            return d
        if op == 89:
            out.emit(f"{t} = abs({t})")
            return d
        if op == 90:
            out.emit(f"{t} = -{t}")
            return d
        if op == 101:
            _emit_i32_wrap(out, t, t)
            return d
        if op == 102:
            return d                      # i64.extend_i32_s: identity
        if op == 103:
            out.emit(f"{t} = {t} & {_M32}")
            return d
        if op in (104, 106):
            out.emit(f"{t} = float({t})")
            return d
        if op == 105:
            out.emit(f"{t} = float({t} & {_M32})")
            return d
        if op in (109, 110):
            out.emit(f"{t} = {self.use(f'vf{op}')}({t})")
            return d
        if op in _TRAP_UNOPS:
            self.guarded([f"{t} = {self.use(f'vf{op}')}({t})"],
                         costs, classes, idx)
            return d
        if op in _UNOPS:             # clz/ctz/popcnt and friends
            out.emit(f"{t} = {self.use(f'vf{op}')}({t})")
            return d
        if op in _LOAD_WIDTH:
            width = _LOAD_WIDTH[op]
            body = self._frame_lookup(f"s{d - 1}", arg, width)
            if op == 18:
                body.append(f"s{d - 1} = {self.use('u_i32')}(f_, o_)[0]")
            elif op == 19:
                body.append(f"s{d - 1} = {self.use('u_i64')}(f_, o_)[0]")
            elif op == 20:
                body.append(f"s{d - 1} = {self.use('u_f64')}(f_, o_)[0]")
            elif op == 21:
                body.append(f"s{d - 1} = f_[o_]")
            elif op == 22:
                body.append("t_ = f_[o_]")
                body.append(f"s{d - 1} = t_ - 256 if t_ >= 128 else t_")
            else:                         # 23: i32.load16_u
                body.append(f"s{d - 1} = f_[o_] | (f_[o_ + 1] << 8)")
            self.guarded(body, costs, classes, idx)
            return d
        if op in _STORE_WIDTH:
            width = _STORE_WIDTH[op]
            v, addr = f"s{d - 1}", f"s{d - 2}"
            body = self._frame_lookup(addr, arg, width)
            if op == 24:
                body.append(f"{self.use('p_u32')}(f_, o_, {v} & {_M32})")
            elif op == 25:
                body.append(f"{self.use('p_u64')}(f_, o_, {v} & {_M64})")
            elif op == 26:
                body.append(f"{self.use('p_f64')}(f_, o_, {v})")
            elif op == 27:
                body.append(f"f_[o_] = {v} & 255")
            else:                         # 28: i32.store16
                body.append(f"t_ = {v} & 65535")
                body.append("f_[o_] = t_ & 255")
                body.append("f_[o_ + 1] = t_ >> 8")
            self.guarded(body, costs, classes, idx)
            return d - 2
        raise ValidationError(
            f"{self.fn.name}: unknown opcode {op} (codegen tier)")

    # -- terminators ----------------------------------------------------

    def emit_term(self, instr, d, bi, fall_bi):
        op, arg, extra = instr
        out = self.out
        if op == 8:                       # br_if
            h = 0 if extra is None else extra
            tbi = self.bi_of(arg)
            out.emit(f"if s{d - 1}:")
            with out.block():
                self.emit_jump(tbi, min(d - 1, h))
            self.emit_jump(fall_bi, d - 1, fall_bi=bi + 1)
        elif op == 4:                     # if: jump on false
            tbi = self.bi_of(arg)
            out.emit(f"if not s{d - 1}:")
            with out.block():
                self.emit_jump(tbi, d - 1)
            self.emit_jump(fall_bi, d - 1, fall_bi=bi + 1)
        elif op == 7:                     # br
            target_d = d if extra is None else min(d, extra)
            self.emit_jump(self.bi_of(arg), target_d)
        elif op == 9:                     # return
            self.emit_return(d)
        else:                             # call
            kind, nargs, has_res = self.call_sigs[arg]
            base = d - nargs
            arg_list = ", ".join(f"s{base + i}" for i in range(nargs))
            out.emit(f"{self.use('stats')}.calls += 1")
            dst = f"s{base} = " if has_res else ""
            if kind == "host":
                out.emit("stats.host_calls += 1")
                out.emit(f"stats.boundary_cycles += "
                         f"{self.use('boundary')}")
                target = self.use(f"host_{arg}")
                call_args = f", {arg_list}" if nargs else ""
                out.emit(f"{dst}{target}({self.use('inst')}{call_args})")
            else:
                target = self.use(f"fn_{arg}")
                out.emit(f"{dst}{self.use('call')}({target}, "
                         f"[{arg_list}])")
            self.emit_jump(fall_bi, base + (1 if has_res else 0),
                           fall_bi=bi + 1)

    # -- whole blocks ---------------------------------------------------

    def emit_block(self, bi):
        out = self.out
        start, end = self.ranges[bi]
        out.emit(f"if bi == {bi}:")
        with out.block():
            if bi not in self.entry_depth:
                # CFG-unreachable: never entered at runtime.
                out.emit(f"raise {self.use('TrapError')}"
                         f"('codegen: entered unreachable block {bi}')")
                return
            ops = self.code[start:end]
            costs = [OP_COST[op] for op, _a, _e in ops]
            classes = [int(OP_CLASS[op]) for op, _a, _e in ops]
            d = self.entry_depth[bi]
            if self.budget_mode:
                out.emit(f"r_ = {self.use('inst')}._instr_budget")
                out.emit(f"if r_ < {len(ops)}:")
                with out.block():
                    out.emit(f"{self.use('deopt')}()")
                    lo = ", ".join(
                        f"l{i}" for i in range(self.fn.num_locals))
                    st = ", ".join(f"s{i}" for i in range(d))
                    out.emit(f"return {self.use('run_from')}"
                             f"({self.use('fn')}, [{lo}], [{st}], "
                             f"{start})")
                out.emit(f"inst._instr_budget = r_ - {len(ops)}")
            if ops:
                # Charges accumulate in a per-block execution counter and
                # flush in the ``finally``.  Every wasm op cost is a
                # dyadic rational and totals stay far below 2**50, so
                # ``blk_cycles * nb`` is the exact float the eager
                # per-block adds would have produced.  The flush sums
                # each integer counter in one statement (integer adds
                # commute; guards rewind the engine counters directly,
                # which deferral does not disturb) and folds cycles as
                # one left-associative chain in block order — the float
                # adds of a per-block ``if nb: cycles += c * nb`` flush,
                # in the same order.  A block that never ran adds
                # ``+0.0``, which leaves any value but ``-0.0`` alone,
                # and cycle totals only ever sum non-negative costs.
                out.emit(f"nb{bi} += 1")
                self.block_counts[bi] = (
                    math.fsum(costs), len(ops),
                    list(class_deltas(classes)),
                    list(class_deltas([o for o, _a, _e in ops]))
                    if self.profiling else [])
            has_term = bool(ops) and ops[-1][0] in _TERM_OPS
            body = ops[:-1] if has_term else ops
            for idx, instr in enumerate(body):
                d = self.emit_op(instr, d, costs, classes, idx)
            if has_term:
                self.emit_term(ops[-1], d, bi, self.bi_of(end))
            else:
                self.emit_jump(self.bi_of(end), d, fall_bi=bi + 1)

    def build(self):
        out = self.out
        body = Emitter()
        self.out = body
        with body.block():                # inside `def run(args):`
            with body.block():
                for i in range(self.fn.num_params):
                    body.emit(f"l{i} = args[{i}]")
                for j, t in enumerate(self.fn.local_types):
                    init = "0.0" if t == "f64" else "0"
                    body.emit(f"l{self.fn.num_params + j} = {init}")
                if self.max_depth:
                    chain = " = ".join(
                        f"s{i}" for i in range(self.max_depth))
                    body.emit(f"{chain} = 0")
                if self.profiling:
                    body.emit(f"fprof = {self.use('prof_frame')}"
                              f"({self.use('fn_name')})")
                if not self.ranges:
                    self.emit_return(0)
                else:
                    live = [bi for bi, (start, end)
                            in enumerate(self.ranges)
                            if bi in self.entry_depth and end > start]
                    if live:
                        body.emit(" = ".join(
                            f"nb{bi}" for bi in live) + " = 0")
                    body.emit("try:")
                    with body.block():
                        body.emit("bi = 0")
                        body.emit("while True:")
                        with body.block():
                            for bi in range(len(self.ranges)):
                                self.emit_block(bi)
                    body.emit("finally:")
                    with body.block():
                        self.emit_flush()
        self.out = out
        out.emit("def make(ns):")
        with out.block():
            for name in sorted(self.names):
                out.emit(f"{name} = ns[{name!r}]")
            out.emit("def run(args):")
            out.lines.extend(body.lines)
            out.emit("return run")
        return out.source()


def translate(fn, inst):
    """Build (or load warm) the generated runner for one prepared
    function on one instance; ``None`` means the translator declined and
    the caller should run the function on the reference ladder."""
    code = fn.code
    for pc, (op, _arg, _extra) in enumerate(code):
        if op not in SUPPORTED_OPS:
            raise ValidationError(
                f"{fn.name}: unknown opcode {op} at pc {pc} "
                f"(codegen tier has no handler)")

    leaders = {0}
    for pc, (op, arg, _extra) in enumerate(code):
        if op in _TERM_OPS:
            leaders.add(pc + 1)
            if op in (4, 7, 8):
                leaders.add(arg)
    ranges = split_blocks(len(code), leaders)
    block_index = {start: bi for bi, (start, _end) in enumerate(ranges)}

    call_sigs = {}
    for pc, (op, arg, _extra) in enumerate(code):
        if op == 10:
            kind, _target, ftype = inst._funcs[arg]
            call_sigs[arg] = (kind, len(ftype.params), bool(ftype.results))

    flow = _analyse(code, ranges, block_index, call_sigs)
    reg = get_registry()
    if flow is None:
        reg.counter_add("interp.wasm.codegen_declined", 1, SCHED)
        return None
    entry_depth, max_depth = flow

    budget_mode = inst.max_instructions is not None
    profiling = inst._profile is not None
    key = unit_key("wasm", (
        repr(code), repr(tuple(fn.local_types)), fn.num_params,
        bool(fn.results), budget_mode, profiling,
        repr(sorted(call_sigs.items()))))

    def build_source():
        emitter = _FnEmitter(fn, code, ranges, block_index, entry_depth,
                             max_depth, budget_mode, profiling, call_sigs)
        return emitter.build()

    factory = load_factory("wasm", key, build_source)

    ns = {
        "inst": inst, "stats": inst.stats, "counts": inst.stats.op_counts,
        "mem": inst.memory, "frame": inst.memory._frame,
        "frames_": inst.memory._frames,
        "gvals": inst._global_values, "fn": fn, "fn_name": fn.name,
        "run_from": inst._run_from, "call": inst._run,
        "boundary": inst.boundary_cost, "TrapError": TrapError,
        "nan": math.nan, "sqrt": math.sqrt,
        "u_i32": UNPACK_I32, "u_i64": UNPACK_I64, "u_f64": UNPACK_F64,
        "p_u32": PACK_U32, "p_u64": PACK_U64, "p_f64": PACK_F64,
        "deopt": lambda: get_registry().counter_add(
            "interp.wasm.codegen_deopts", 1, SCHED),
    }
    if inst._profile is not None:
        ns["prof_frame"] = inst._profile.frame
    for op, f in _VALUE_FNS.items():
        ns[f"vf{op}"] = f
    for arg, (kind, _nargs, _res) in call_sigs.items():
        target = inst._funcs[arg][1]
        ns[f"host_{arg}" if kind == "host" else f"fn_{arg}"] = target

    reg.counter_add("interp.wasm.codegen_functions", 1, SCHED)
    reg.counter_add("interp.wasm.codegen_blocks", len(ranges), SCHED)
    return factory(ns)
