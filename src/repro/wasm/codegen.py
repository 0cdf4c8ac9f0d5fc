"""Codegen execution tier for the Wasm VM: basic blocks → Python.

Splits each prepared function into basic blocks and emits them as one
generated Python function: the operand stack is lowered to local
variables ``s0..sK`` (depths are static — the validator only branches at
empty-stack statement boundaries, so every join has one depth), locals
to ``l0..lN``, and dispatch to a resumable ``bi`` block index looping
over ``if bi == k`` arms with straight-line bodies, each ``loop`` nested
as a ``while True`` of its own (:class:`~repro.engine.codegen.LoopLayout`).

Ops emit through the abstract operand stack
(:class:`~repro.engine.codegen.OperandStack`): ``local.get`` and
constants are forwarded to their consumer, ``local.set``/``local.tee``
write out the entries that read the local first, and comparisons and
``eqz`` are deferred as a test, so a loop header's compare → ``eqz`` →
``br_if`` is one ``if not (l3 < l0):``.  A literal shift count folds its
mask.  Live entries are written out before every terminator with a
successor and before a fall-through, so every block is still entered
with its values in ``s0..``.

Exactness (the rules of :mod:`repro.engine.codegen` as they apply here).
Wasm is the one engine whose whole charge stream lives on an exact
0.25-cycle grid, so cycles, instruction counts and op-class counts are
all batched per block:

* block entry charges the batched cycle/instruction/op-class totals as
  folded literals (the ``math.fsum`` block total is exact at any
  association);
* every trap point (loads/stores, div/rem, trunc, floor/ceil,
  ``unreachable``) that is not its block's last op is wrapped in an
  explicit guard whose rewind subtracts the charge suffix, cycles
  included, before re-raising;
* an instance built with ``max_instructions`` never enters this tier:
  it runs the reference ladder, which traps at the exact instruction;
* unknown opcodes fail loudly at translation with a structured error.

The generated source depends only on the prepared code and translation
flags — instance state (memory, globals, stats, call targets) is bound
by ``make(ns)`` at instantiation — so translation units are served from
the persistent artifact cache (see :mod:`repro.engine.codegen`).

``translate`` returns ``None`` (*declines*) when the static stack-depth
analysis finds an inconsistent join; the VM then runs that function on
the reference ladder.
"""

from __future__ import annotations

import math
import struct as _struct
from typing import NamedTuple

from repro.engine.codegen import (
    DECLINED, M32, M64, UNKNOWN, FnEmitter, LoopLayout, block_ranges,
    block_successors, class_deltas, declined, emit_wrap,
    literal, load_factory, split_term, stack_depths, translated, unit_key,
)
from repro.errors import TrapError, ValidationError
from repro.wasm.instructions import OP_CLASS, OP_COST
from repro.wasm.memory import (
    PACK_F64, PACK_U32, PACK_U64, UNPACK_F64, UNPACK_I32, UNPACK_I64,
    _FRAME_BITS, _FRAME_MASK,
)
from repro.wasm.vm import _MASK32, _MASK64, _wrap32, _wrap64

__all__ = ["translate", "DECLINED"]

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
_BRANCHES = frozenset((4, 7, 8))          # if / br / br_if
_NO_FALL = frozenset((7, 9))              # br / return

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
    on the reference ladder).  The max counts each op's depth after it
    pops and pushes.
    """
    def walk(ops, end, d, join):
        body, term = split_term(ops, _TERM_OPS)
        peak = d
        for op, arg, _extra in body:
            pops, pushes = _flow(op, arg, call_sigs)
            if d < pops:
                return None
            d += pushes - pops
            peak = max(peak, d)
        if term is None:
            return peak if join(end, d) else None
        op, arg, extra = term
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
            if not join(arg, d if extra is None else min(d, extra)):
                return None
        elif op == 10:                    # call
            _kind, nargs, has_res = call_sigs[arg]
            if d < nargs:
                return None
            d += (1 if has_res else 0) - nargs
            if not join(end, d):
                return None
            peak = max(peak, d)
        return peak                       # (a return has no successor)

    return stack_depths(code, ranges, block_index, walk)


class _FnEmitter(FnEmitter):
    """Emits the generated unit for one prepared function."""

    def __init__(self, fn, code, ranges, block_index, layout, entry_depth,
                 max_depth, profiling, call_sigs):
        super().__init__(fn, code, ranges, block_index, layout, profiling,
                         entry_depth, max_depth)
        self.call_sigs = call_sigs
        self.results = bool(fn.results)

    # -- fragments ------------------------------------------------------

    def emit_exit(self, depth):
        if not self.results:
            self.out.emit("return None")
        elif depth > 0:
            self.out.emit(f"return {self.stack[depth - 1].src}")
        else:
            self.out.emit("return 0")

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

    # -- one straight-line op over the abstract stack ------------------

    def emit_op(self, instr, costs, classes, idx):
        op, arg, _extra = instr
        out = self.out
        st = self.stack
        if op in _MARKERS:
            return
        if op == 13:
            st.push_local(arg)
            return
        if op == 14 or op == 15:          # local.set / local.tee
            (v,) = st.pop()
            st.clobber(f"l{arg}")
            out.emit(f"l{arg} = {v.src}")
            if op == 15:
                st.push_local(arg)
            return
        if op in _CONSTS:
            st.push_const(literal(arg), arg)
            return
        if op == 16:
            out.emit(f"{st.slot()} = {self.use('gvals')}[{arg}]")
            return
        if op == 17:
            (v,) = st.pop()
            out.emit(f"{self.use('gvals')}[{arg}] = {v.src}")
            return
        if op == 11:
            st.pop()
            return
        if op == 12:
            a, b, c = st.pop(3)
            out.emit(f"{st.slot()} = {a.src} if {c.cond} else {b.src}")
            return
        if op == 29:
            out.emit(f"{st.slot()} = {self.use('mem')}.pages")
            return
        if op == 30:
            (v,) = st.pop()
            out.emit(f"t_ = {self.use('mem')}.grow({v.src})")
            out.emit("if t_ >= 0:")
            with out.block():
                out.emit("mem.grow_count += 1")
                out.emit(f"{self.use('stats')}.memory_grows += 1")
            out.emit(f"{st.slot()} = t_")
            return
        if op == 0:
            self.emit_rewind(classes, idx, costs)
            out.emit(f"raise {self.use('TrapError')}"
                     f"('unreachable executed')")
            return
        if op in _CMP_SIGNED or op in _CMP_U32 or op in _CMP_U64:
            ea, eb = st.pop(2)
            a, b = ea.src, eb.src
            if op in _CMP_SIGNED:
                test = f"{a} {_CMP_SIGNED[op]} {b}"
            elif op in _CMP_U32:
                test = f"({a} & {M32}) {_CMP_U32[op]} ({b} & {M32})"
            else:
                test = f"({a} & {M64}) {_CMP_U64[op]} ({b} & {M64})"
            # A comparison of a deferred comparison is emitted, so tests
            # never nest (CPython caps nested parentheses at 200).
            if ea.test is None and eb.test is None:
                st.push_test(test, ea.reads | eb.reads)
            else:
                out.emit(f"{st.slot()} = 1 if {test} else 0")
            return
        if op in (51, 75):                # eqz
            (v,) = st.pop()
            if v.test is not None:
                st.push_test(v.test, v.reads, not v.negated)
            else:
                st.push_test(f"{v.src} == 0", v.reads)
            return
        if op == 102:
            return                        # i64.extend_i32_s: identity
        if op in _BINOPS or op in _TRAP_BINOPS:
            ea, eb = st.pop(2)
            self.emit_binop(op, ea.src, eb, st.slot(), costs, classes, idx)
            return
        if op in _STORE_WIDTH:
            addr, v = (e.src for e in st.pop(2))
            width = _STORE_WIDTH[op]
            body = self._frame_lookup(addr, arg, width)
            if op == 24:
                body.append(f"{self.use('p_u32')}(f_, o_, {v} & {M32})")
            elif op == 25:
                body.append(f"{self.use('p_u64')}(f_, o_, {v} & {M64})")
            elif op == 26:
                body.append(f"{self.use('p_f64')}(f_, o_, {v})")
            elif op == 27:
                body.append(f"f_[o_] = {v} & 255")
            else:                         # 28: i32.store16
                body.append(f"t_ = {v} & 65535")
                body.append("f_[o_] = t_ & 255")
                body.append("f_[o_ + 1] = t_ >> 8")
            self.guarded(body, classes, idx, costs)
            return
        (v,) = st.pop()
        self.emit_unop(op, arg, v.src, st.slot(), costs, classes, idx)

    def emit_binop(self, op, a, eb, r, costs, classes, idx):
        """Assign binary operator ``op`` of ``a`` and operand ``eb`` to
        slot ``r``; a literal shift count folds its mask."""
        out = self.out
        b = eb.src

        def count(mask):
            if eb.value is UNKNOWN:
                return f"({b} & {mask})"
            return str(eb.value & mask)

        if op in _I32_WRAP_ARITH:
            emit_wrap(out, 32, r, f"{a} {_I32_WRAP_ARITH[op]} {b}")
        elif op in _I64_WRAP_ARITH:
            emit_wrap(out, 64, r, f"{a} {_I64_WRAP_ARITH[op]} {b}")
        elif op in _F64_ARITH:
            out.emit(f"{r} = {a} {_F64_ARITH[op]} {b}")
        elif op == 44:
            emit_wrap(out, 32, r, f"{a} << {count(31)}")
        elif op == 45:
            out.emit(f"{r} = {a} >> {count(31)}")
        elif op == 46:
            emit_wrap(out, 32, r, f"({a} & {M32}) >> {count(31)}")
        elif op == 72:
            emit_wrap(out, 64, r, f"{a} << {count(63)}")
        elif op == 73:
            out.emit(f"{r} = {a} >> {count(63)}")
        elif op == 74:
            emit_wrap(out, 64, r, f"({a} & {M64}) >> {count(63)}")
        elif op == 91:
            out.emit(f"{r} = min({a}, {b})")
        elif op == 92:
            out.emit(f"{r} = max({a}, {b})")
        elif op in (47, 87):              # rotl / f64.div via value fn
            out.emit(f"{r} = {self.use(f'vf{op}')}({a}, {b})")
        else:                             # _TRAP_BINOPS
            self.guarded([f"{r} = {self.use(f'vf{op}')}({a}, {b})"],
                         classes, idx, costs)

    def emit_unop(self, op, arg, t, r, costs, classes, idx):
        """Assign unary operator ``op`` (a load: ``arg`` is its offset)
        of ``t`` to slot ``r``."""
        out = self.out
        if op == 88:
            out.emit(f"{r} = {self.use('nan')} if {t} < 0 "
                     f"else {self.use('sqrt')}({t})")
        elif op == 89:
            out.emit(f"{r} = abs({t})")
        elif op == 90:
            out.emit(f"{r} = -{t}")
        elif op == 101:
            emit_wrap(out, 32, r, t)
        elif op == 103:
            out.emit(f"{r} = {t} & {M32}")
        elif op in (104, 106):
            out.emit(f"{r} = float({t})")
        elif op == 105:
            out.emit(f"{r} = float({t} & {M32})")
        elif op in _TRAP_UNOPS:
            self.guarded([f"{r} = {self.use(f'vf{op}')}({t})"],
                         classes, idx, costs)
        elif op in _UNOPS:                # clz/ctz/popcnt, reinterprets
            out.emit(f"{r} = {self.use(f'vf{op}')}({t})")
        elif op in _LOAD_WIDTH:
            body = self._frame_lookup(t, arg, _LOAD_WIDTH[op])
            if op == 18:
                body.append(f"{r} = {self.use('u_i32')}(f_, o_)[0]")
            elif op == 19:
                body.append(f"{r} = {self.use('u_i64')}(f_, o_)[0]")
            elif op == 20:
                body.append(f"{r} = {self.use('u_f64')}(f_, o_)[0]")
            elif op == 21:
                body.append(f"{r} = f_[o_]")
            elif op == 22:
                body.append("t_ = f_[o_]")
                body.append(f"{r} = t_ - 256 if t_ >= 128 else t_")
            else:                         # 23: i32.load16_u
                body.append(f"{r} = f_[o_] | (f_[o_ + 1] << 8)")
            self.guarded(body, classes, idx, costs)
        else:
            raise ValidationError(
                f"{self.fn.name}: unknown opcode {op} (codegen tier)")

    # -- terminators ----------------------------------------------------

    def emit_term(self, instr, fall_bi):
        op, arg, extra = instr
        out = self.out
        st = self.stack
        if op == 9:                       # return
            self.emit_exit(len(st))
            return
        if op == 8 or op == 4:            # br_if / if (jump on false)
            (v,) = st.pop()
            st.flush()
            d = len(st)
            if op == 8:
                cond = v.cond
            elif v.test is None:
                cond = f"not {v.src}"
            else:
                cond = v.test if v.negated else f"not ({v.test})"
            h = 0 if extra is None else extra
            self.emit_branch(cond, self.bi_of(arg), fall_bi,
                             min(d, h) if op == 8 else d, d)
        elif op == 7:                     # br
            st.flush()
            d = len(st)
            self.emit_jump(self.bi_of(arg),
                           d if extra is None else min(d, extra))
        else:                             # call
            kind, nargs, has_res = self.call_sigs[arg]
            arg_list = ", ".join(e.src for e in st.pop(nargs))
            st.flush()
            out.emit(f"{self.use('stats')}.calls += 1")
            dst = f"{st.slot()} = " if has_res else ""
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
            self.emit_jump(fall_bi, len(st))

    # -- whole blocks ---------------------------------------------------

    def emit_prologue(self):
        out = self.out
        for i in range(self.fn.num_params):
            out.emit(f"l{i} = args[{i}]")
        for j, t in enumerate(self.fn.local_types):
            init = "0.0" if t == "f64" else "0"
            out.emit(f"l{self.fn.num_params + j} = {init}")
        self.emit_slots("0")
        self.emit_profile_frame()

    def emit_block(self, bi):
        out = self.out
        start, end = self.ranges[bi]
        ops = self.code[start:end]
        costs = [OP_COST[op] for op, _a, _e in ops]
        classes = [int(OP_CLASS[op]) for op, _a, _e in ops]
        d = self.entry_depth[bi]
        # Every wasm op cost is a dyadic rational and totals stay far
        # below 2**50, so the flush's ``blk_cycles * nb`` is the exact
        # float the eager per-block adds would have produced, and its
        # left fold in block order adds them in the same order.  A block
        # that never ran adds ``+0.0``, which leaves any value but
        # ``-0.0`` alone, and cycle totals only ever sum non-negative
        # costs.
        self.count_block(bi, classes, len(ops), math.fsum(costs))
        if self.profiling:
            self.prof_cells.append(
                (f"nb{bi}", class_deltas([o for o, _a, _e in ops])))
        self.stack.enter(out, d)
        body, term = split_term(ops, _TERM_OPS)
        for idx, instr in enumerate(body):
            self.emit_op(instr, costs, classes, idx)
        fall_bi = self.bi_of(end)
        if term is None:
            self.emit_fall(fall_bi)
        else:
            self.emit_term(term, fall_bi)


class _Plan(NamedTuple):
    """What translating one function derives from its prepared code, its
    module's call signatures and the translation flags alone: shared by
    every instance of the module."""

    key: str
    ranges: list
    block_index: dict
    layout: LoopLayout
    entry_depth: dict
    max_depth: int
    call_sigs: dict


def _plan(fn, inst, profiling):
    """Plan one function's translation; ``None`` when the translator
    declines it."""
    code = fn.code
    for pc, (op, _arg, _extra) in enumerate(code):
        if op not in SUPPORTED_OPS:
            raise ValidationError(
                f"{fn.name}: unknown opcode {op} at pc {pc} "
                f"(codegen tier has no handler)")
    ranges, block_index = block_ranges(code, _TERM_OPS, _BRANCHES)

    # Callee kinds and signatures come from the module (imports are
    # always host calls), so they are the same on every instance.
    call_sigs = {}
    for pc, (op, arg, _extra) in enumerate(code):
        if op == 10:
            kind, _target, ftype = inst._funcs[arg]
            call_sigs[arg] = (kind, len(ftype.params), bool(ftype.results))

    flow = _analyse(code, ranges, block_index, call_sigs)
    if flow is None:
        return None
    entry_depth, max_depth = flow

    key = unit_key("wasm", (
        repr(code), repr(tuple(fn.local_types)), fn.num_params,
        bool(fn.results), profiling,
        repr(sorted(call_sigs.items()))))
    layout = LoopLayout(block_successors(code, ranges, block_index,
                                         _BRANCHES, _NO_FALL))
    return _Plan(key, ranges, block_index, layout, entry_depth, max_depth,
                 call_sigs)


def translate(fn, inst):
    """Build (or load warm) the generated runner for one prepared
    function on one instance; ``None`` means the translator declined and
    the caller should run the function on the reference ladder.  The
    plan and its compiled factory are memoized on the module's prepared
    code (``fn.plans``); the runner, which pre-binds this instance's
    state, is built every time."""
    profiling = inst._profile is not None
    plan = fn.plans.get(profiling, lambda: _plan(fn, inst, profiling))
    if plan is None:
        return declined("wasm")
    call_sigs = plan.call_sigs

    def build_source():
        emitter = _FnEmitter(fn, fn.code, plan.ranges, plan.block_index,
                             plan.layout, plan.entry_depth, plan.max_depth,
                             profiling, call_sigs)
        return emitter.build()

    factory = fn.plans.get(
        ("make", profiling),
        lambda: load_factory("wasm", plan.key, build_source))

    ns = {
        "inst": inst, "stats": inst.stats, "counts": inst.stats.op_counts,
        "mem": inst.memory, "frame": inst.memory._frame,
        "frames_": inst.memory._frames,
        "gvals": inst._global_values, "fn_name": fn.name,
        "call": inst._run,
        "boundary": inst.boundary_cost, "TrapError": TrapError,
        "nan": math.nan, "sqrt": math.sqrt,
        "u_i32": UNPACK_I32, "u_i64": UNPACK_I64, "u_f64": UNPACK_F64,
        "p_u32": PACK_U32, "p_u64": PACK_U64, "p_f64": PACK_F64,
    }
    if inst._profile is not None:
        ns["prof_frame"] = inst._profile.frame
    for op, f in _VALUE_FNS.items():
        ns[f"vf{op}"] = f
    for arg, (kind, _nargs, _res) in call_sigs.items():
        target = inst._funcs[arg][1]
        ns[f"host_{arg}" if kind == "host" else f"fn_{arg}"] = target

    translated("wasm", len(plan.ranges), plan.layout)
    return factory(ns)
