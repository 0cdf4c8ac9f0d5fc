"""Codegen execution tier for the JS engine: basic blocks → Python.

Splits each ``JSFunction`` into basic blocks and emits one generated
Python function: the operand stack is lowered to slot variables
``s0..sK`` (depths are static in compiler output; hand-built bytecode
with inconsistent join depths makes the translator decline), locals to
``l0..lN``, and dispatch to a ``bi`` block index looping over
``if bi == k`` arms, each loop nested as a ``while True`` of its own
(:class:`~repro.engine.codegen.LoopLayout`).

Ops emit through the abstract operand stack
(:class:`~repro.engine.codegen.OperandStack`): ``LOADL``, ``CONST``,
``DUP``/``DUP2`` and a store's result are forwarded to their consumer
(``STOREL`` writes out the entries that read the local first, and every
live entry is written out before a terminator with a successor or a
fall-through), and the inline coercions fold on what the block knows:
``ToInt32``/``ToUint32``/``ToNumber`` and ``type(x) is float`` tests on
a float literal or a slot known to hold a float, ``JF``/``JT`` on a slot
known to hold a bool (``if not sK:``) or on a constant (a static
branch), and ``TYPEOF`` of an operand of known type.

Exactness follows the rules of :mod:`repro.engine.codegen`, restated as
they apply to emitted source:

* **Cycles self-charge per op** in the reference ladder's left-fold
  order.  The charge stream is ``JS_OP_COST[op] * tier_factor`` with
  non-dyadic factors (1.12, 0.73, 3.2, ...), so each op adds ``c<op>``,
  a frame local holding the float ``cost[op] * factor`` of the
  function's current tier; dynamic extras (boxed-element penalties
  ``B16``/``B20``, GC pauses, native-call costs priced with ``F``) are
  added at the same points.  Integer counters batch per block and flush
  as one summed statement per counter; trap points get explicit guards
  whose rewind statements subtract the integer suffix.
* **One tier-agnostic body per block.**  A function's tier picks its
  cost table and factor, and can change only at terminators: ``JBACK``
  OSR and the return of a call or constructor that re-entered the
  interpreter.  The per-tier constants (and, when profiling, the tier
  ``tk`` that picks a block's profile cell ``pf[2 * bi + tk]``) are
  unpacked from a ``(tier 0, tier 1)`` pair of tuples bound through
  ``ns``, at frame entry, after ``tier_up`` at ``JBACK`` and after every
  ``JSFunction`` call and ``NEWCALL`` — exactly where the reference
  ladder refreshes its ``factor``/``cost``/``tbit``, so every op is
  priced with the float the reference charges.  Natives never re-enter
  the interpreter, so a native call leaves the tier alone.  Back-edge
  counting at ``JBACK`` runs under ``if not fn.tier:``.
* **GC checks only where the counter can rise.**  The reference checks
  ``allocated_since_gc`` after *every* op, but the counter only moves on
  allocation (``ADD`` string path, ``SETIDX``/``INCIDX`` extends,
  ``NEWARR``/``NEWOBJ``, calls into allocating callees), so the check is
  inlined at exactly those points; frames entered already over-trigger
  run on the reference ladder (the ``execute`` gate).  Every collection
  lands on the same op with the same pause arithmetic.
* **Flush discipline.**  ``cyc`` is flushed to ``stats.cycles`` only
  where the reference flushes its local: before recursing into a
  ``JSFunction`` callee, and in the frame's ``finally``.
  ``performance.now()`` therefore reads identical values mid-run.
  ``NEWCALL`` deliberately does *not* flush (neither does the
  reference).
* **The frame publishes its JS roots where the mark can run.**  The
  collector marks from the globals and one root holder per active frame
  (:mod:`repro.jsengine.gc`).  A generated frame's holder is the ``rt``
  list ``execute`` passes to ``run``; the frame overwrites it with its
  locals and its live operands, a forwarded one by its source
  (``rt[:] = l0, ..., s0, l2, ...``), at the only points a mark can run
  while the frame is live: before each ``JSFunction`` call and
  ``NEWCALL``, and inside its own collection branch.  Dead slots and
  Python temporaries are never roots, so nothing needs clearing.
* **Forwarding moves no charge.**  Each op still adds its ``cyc +=
  c<op>`` in the reference's order, and every trap stays in its guard;
  only trap-free, side-effect-free reads are deferred.

The generated source depends only on the bytecode and translation flags
(JIT enablement, profiling) — instance state and the tier constants are
bound by ``make(ns)`` — so translation units are served from the
persistent artifact cache (:mod:`repro.engine.codegen`), one per function
across every engine configuration.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import NamedTuple

from repro.clibm import c_fmod
from repro.engine.codegen import (
    DECLINED, LOST_DISPATCH, UNKNOWN, FnEmitter, LoopLayout, block_ranges,
    block_successors, class_deltas, declined, literal, literalizable,
    load_factory, split_term, stack_depths, translated, unit_key,
)
from repro.jsengine.bytecode import JS_OP_CLASS, JS_OP_COST, JS_OP_COST_OPT
from repro.jsengine.values import (
    JSArray,
    JSFunction,
    JSObject,
    JSTypedArray,
    NativeFunction,
    SparseItems,
    UNDEFINED,
    js_truthy,
    to_int32,
    to_uint32,
)

__all__ = ["translate", "DECLINED"]

_TERM_OPS = frozenset((27, 28, 29, 30, 31, 32, 33, 34, 44))
_JUMPS = frozenset((27, 28, 29, 30))
_NO_FALL = frozenset((27, 30, 33, 34))    # JMP / JBACK / RET / RETU

#: Ops the translator handles.  ``COMMA`` (48) is absent by design: the
#: compiler never emits it and the reference ladder has no arm for it
#: either — both tiers reject it with a structured error.
SUPPORTED_OPS = frozenset(range(48)) | {49}

#: Pure binary operators (two operands in, one value out), lowered by
#: ``emit_binval``.  ADD is not pure (its string path allocates) and has
#: its own arm.
_BINOPS = frozenset((6, 7, 8, 9, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                     23, 24, 25, 26, 49))


def _cmp(compare):
    """A relational operator: string order for two strings, numeric
    order otherwise (the reference's LT/LE/GT/GE arms)."""
    def value(a, b):
        if isinstance(a, str) and isinstance(b, str):
            return compare(a, b)
        return compare(_to_number(a), _to_number(b))
    return value


#: Value functions for the binops the emitter does not inline (MOD,
#: EQ/NE, and the non-number path of LT/LE/GT/GE), called as ``vf<op>``.
_VALUE_FNS = {
    9: lambda a, b: c_fmod(_to_number(a), _to_number(b)),
    19: _cmp(lambda a, b: a < b), 20: _cmp(lambda a, b: a <= b),
    21: _cmp(lambda a, b: a > b), 22: _cmp(lambda a, b: a >= b),
    23: lambda a, b: _js_loose_eq(a, b),
    24: lambda a, b: not _js_loose_eq(a, b),
}


def _flow(op, arg):
    """(pops, pushes) for one non-terminator opcode."""
    if op in (0, 1, 3):
        return 0, 1
    if op in (2, 4, 42):
        return 1, 0
    if op == 5 or op in _BINOPS:
        return 2, 1
    if op in (10, 11, 12, 43, 39, 47):
        return 1, 1
    if op == 41:
        return 1, 2
    if op == 45:
        return 2, 4
    if op in (37, 40, 46):
        return 2, 1
    if op == 38:
        return 3, 1
    if op == 35:
        return arg, 1
    if op == 36:
        return len(arg), 1
    return 0, 0


def _analyse(code, ranges, block_index):
    """Static operand-stack depths: per-block entry depth and the max.

    Returns ``(entry_depth, max_depth)`` or ``None`` when a join is
    entered at two different depths or a depth would go negative (the
    compiler never produces either; hand-built bytecode runs on the
    reference ladder).  The max adds each op's pushes before its pops,
    an over-count the slot initialisation is emitted from."""
    def walk(ops, end, d, join):
        body, term = split_term(ops, _TERM_OPS)
        peak = d
        for op, arg in body:
            pops, pushes = _flow(op, arg)
            if d < pops:
                return None
            peak = max(peak, d + pushes)
            d += pushes - pops
        if term is None:
            return peak if join(end, d) else None
        op, arg = term
        if op in (28, 29):                # JF / JT
            if d < 1:
                return None
            d -= 1
            if not (join(arg, d) and join(end, d)):
                return None
        elif op in (27, 30):              # JMP / JBACK
            if not join(arg, d):
                return None
        elif op == 33:                    # RET
            if d < 1:
                return None
        elif op != 34:                    # CALL / METHOD / NEWCALL
            nargs = arg[1] if op == 32 else arg
            if d < nargs + 1:
                return None
            if not join(end, d - nargs):
                return None
        return peak

    return stack_depths(code, ranges, block_index, walk)


def _tier_names(code, profiling):
    """The frame locals the per-tier tuple unpacks into, in tuple order:
    the tier itself (profile cells, profiled units only), the native-call
    factor ``F``, the boxed-element penalties ``B16``/``B20``, then one
    ``c<op>`` charge per distinct opcode — each only if the code uses
    it."""
    ops = sorted({op for op, _arg in code})
    names = ["tk"] if profiling else []
    if 31 in ops or 32 in ops:
        names.append("F")
    if 37 in ops:
        names.append("B16")
    if 38 in ops:
        names.append("B20")
    return names + [f"c{op}" for op in ops]


def _tier_values(names, tier, factor):
    """One tier's values for ``names``: the very floats the reference
    ladder computes (``cost[op] * factor``, ``1.6 * factor``, ...)."""
    cost = JS_OP_COST_OPT if tier else JS_OP_COST
    extras = {"tk": tier, "F": factor, "B16": 1.6 * factor,
              "B20": 2.0 * factor}
    return tuple(extras[n] if n in extras else cost[int(n[1:])] * factor
                 for n in names)


#: Kinds (:attr:`~repro.engine.codegen.Operand.kind`) of constants.
_KINDS = {float: "float", bool: "bool", str: "str"}

#: ``typeof`` of each kind.
_TYPEOF = {"float": "number", "bool": "boolean", "str": "string"}


def _typeof(x):
    """``typeof`` of an operand whose type is known at translation time,
    else ``None``."""
    if x.kind is not None:
        return _TYPEOF[x.kind]
    if x.value is None:
        return "object"
    if x.value is UNDEFINED:
        return "undefined"
    return None


def _int_literal(n):
    return f"({n})" if n < 0 else str(n)


def _literalizable(value):
    if isinstance(value, tuple):
        return all(isinstance(v, str) for v in value)
    return literalizable(value)


class _FnEmitter(FnEmitter):
    """Emits the generated unit for one JS function."""

    error_name = "err"
    dispatch_tail = LOST_DISPATCH
    run_params = "args, rt"

    def __init__(self, fn, code, ranges, block_index, layout, entry_depth,
                 max_depth, jit_enabled, profiling, tier_names,
                 const_index):
        super().__init__(fn, code, ranges, block_index, layout, profiling,
                         entry_depth, max_depth)
        self.jit_enabled = jit_enabled
        self.tier_names = tier_names
        self.const_index = const_index

    def const_expr(self, pc, value):
        j = self.const_index.get(pc)
        if j is not None:
            return f"{self.use('K')}[{j}]"
        if isinstance(value, tuple):
            return repr(value)
        return literal(value)

    # -- fragments ------------------------------------------------------

    def emit_rebind(self):
        """Reload the per-tier constants for ``fn``'s current tier."""
        names = ", ".join(self.tier_names)
        if len(self.tier_names) == 1:
            names += ","
        self.out.emit(f"{names} = {self.use('tiers')}"
                      f"[{self.use('fn')}.tier]")

    def emit_roots(self, depth=None):
        """Publish the frame's JS roots to its holder for the mark: every
        local and the live operands below ``depth`` (default: all), a
        forwarded one by its source."""
        live = [f"l{j}" for j in range(self.fn.num_locals)] + \
            [e.src for e in self.stack.entries[:depth]]
        self.out.emit(f"rt[:] = ({', '.join(live)}"
                      f"{',' if len(live) == 1 else ''})")

    def emit_gc_check(self):
        """Collect if the allocation budget is full."""
        heap = self.use("heap")
        self.out.emit(f"if {heap}.allocated_since_gc >= "
                      f"{heap}.trigger_bytes:")
        with self.out.block():
            self.emit_roots()
            self.out.emit(f"p_ = {heap}.collect()")
            self.out.emit(f"{self.use('stats')}.gc_runs += 1")
            self.out.emit("stats.gc_pause_cycles += p_")
            self.out.emit("cyc += p_")

    # -- one straight-line op over the abstract stack ------------------

    def i32(self, x):
        """Inline ToInt32 of one operand: a constant folds; a float takes
        the finite-in-range fast path as an expression (``int()``
        truncates toward zero exactly like the wrap-around), anything
        else falls back to the bound coercion."""
        if isinstance(x.value, float):
            return _int_literal(to_int32(x.value))
        v = x.src
        test = "" if x.kind == "float" else f"type({v}) is float and "
        return (f"(int({v}) if {test}-2147483648.0 <= {v} <= 2147483647.0 "
                f"else {self.use('ti32')}({v}))")

    def u32(self, x):
        """Inline ToUint32 of one operand (same fast path, wrapped)."""
        if isinstance(x.value, float):
            return _int_literal(to_uint32(x.value))
        v = x.src
        test = "" if x.kind == "float" else f"type({v}) is float and "
        return (f"(int({v}) & 0xFFFFFFFF if {test}-2147483648.0 <= {v} "
                f"<= 2147483647.0 else {self.use('tu32')}({v}))")

    def num(self, x):
        """Inline ToNumber of one operand."""
        if x.kind == "float":
            return x.src
        return f"({x.src} if type({x.src}) is float else " \
               f"{self.use('tonum')}({x.src}))"

    @staticmethod
    def float_test(*xs):
        """The runtime test that every operand is a float: ``""`` when
        each is known to be one, ``None`` when one is known not to be."""
        if any(x.kind not in (None, "float") for x in xs):
            return None
        return " and ".join(f"type({x.src}) is float" for x in xs
                            if x.kind is None)

    def emit_binval(self, op, a, b):
        """The value computation of one pure binop of operands ``a`` and
        ``b``, assigned to the result slot.  The hot operators are
        inlined as expressions — observably identical to the reference
        arms (same coercions in the same order).  The rest call the bound
        value function (``_VALUE_FNS``)."""
        out = self.out
        st = self.stack
        x, y = a.src, b.src
        if op in (6, 7):                       # SUB / MUL
            out.emit(f"{st.slot('float')} = {self.num(a)} "
                     f"{'-' if op == 6 else '*'} {self.num(b)}")
        elif op == 8:                          # DIV (C99 signed-zero rules)
            out.emit(f"t_ = {self.num(a)}")
            out.emit(f"n_ = {self.num(b)}")
            r = st.slot("float")
            out.emit("if n_ == 0.0:")
            with out.block():
                out.emit(f"{r} = float('nan') if (t_ == 0.0 or t_ != t_) "
                         f"else {self.use('copysign')}(float('inf'), t_) * "
                         f"{self.use('copysign')}(1.0, n_)")
            out.emit("else:")
            with out.block():
                out.emit(f"{r} = t_ / n_")
        elif op in (13, 14, 15):               # BAND / BOR / BXOR
            sym = {13: "&", 14: "|", 15: "^"}[op]
            out.emit(f"{st.slot('float')} = "
                     f"float({self.i32(a)} {sym} {self.i32(b)})")
        elif op == 16:                         # SHL (int32 wrap-around)
            out.emit(f"i_ = ({self.i32(a)} << {self.count(b)}) "
                     f"& 0xFFFFFFFF")
            out.emit(f"{st.slot('float')} = float(i_ - 0x100000000 "
                     f"if i_ & 0x80000000 else i_)")
        elif op == 17:                         # SHR
            out.emit(f"{st.slot('float')} = "
                     f"float({self.i32(a)} >> {self.count(b)})")
        elif op == 18:                         # USHR
            out.emit(f"{st.slot('float')} = "
                     f"float({self.u32(a)} >> {self.count(b)})")
        elif op in (19, 20, 21, 22):           # LT / LE / GT / GE
            # Numbers compare directly (``_to_number`` of a float is the
            # float); anything else takes the full string-aware path.
            sym = {19: "<", 20: "<=", 21: ">", 22: ">="}[op]
            test = self.float_test(a, b)
            slow = f"{self.use(f'vf{op}')}({x}, {y})"
            if test is None:
                value = slow
            elif test:
                value = f"{x} {sym} {y} if {test} else {slow}"
            else:
                value = f"{x} {sym} {y}"
            out.emit(f"{st.slot('bool')} = {value}")
        elif op in (25, 26):                   # SEQ / SNE
            if a.kind and b.kind:
                same = f"{x} == {y}" if a.kind == b.kind else "False"
            else:
                same = f"{self.type_of(a)} is {self.type_of(b)} and " \
                       f"{x} == {y}"
            out.emit(f"{st.slot('bool')} = "
                     f"{same if op == 25 else f'not ({same})'}")
        elif op == 49:                         # IMUL
            out.emit(f"i_ = {self.i32(a)} * {self.i32(b)}")
            out.emit(f"{st.slot('float')} = "
                     f"float(i_ if -2147483648 <= i_ <= 2147483647 "
                     f"else {self.use('ti32')}(i_))")
        else:                                  # MOD / EQ / NE
            kind = None if op == 9 else "bool"
            out.emit(f"{st.slot(kind)} = {self.use(f'vf{op}')}({x}, {y})")

    def count(self, b):
        """A shift count: ``ToUint32(b) & 31``."""
        if isinstance(b.value, float):
            return str(to_uint32(b.value) & 31)
        return f"({self.u32(b)} & 31)"

    @staticmethod
    def type_of(x):
        return x.kind or f"type({x.src})"

    def emit_op(self, pc, instr, classes, idx):
        op, arg = instr
        out = self.out
        st = self.stack
        out.emit(f"cyc += c{op}")
        if op == 1:       # LOADL
            st.push_local(arg)
            return
        if op == 0:       # CONST
            st.push_const(self.const_expr(pc, arg), arg,
                          _KINDS.get(type(arg)))
            return
        if op == 2:       # STOREL
            (v,) = st.pop()
            st.clobber(f"l{arg}")
            out.emit(f"l{arg} = {v.src}")
            return
        if op == 5:       # ADD
            a, b = st.pop(2)
            x, y = a.src, b.src
            test = self.float_test(a, b)
            r = st.slot("float" if test == "" else None)
            if test == "":
                out.emit(f"{r} = {x} + {y}")
                return
            if test:
                out.emit(f"if {test}:")
                with out.block():
                    out.emit(f"{r} = {x} + {y}")
                out.emit("else:")
            with out.block() if test else nullcontext():
                out.emit(f"{r} = {self.use('jadd')}({x}, {y})")
                out.emit(f"if isinstance({r}, str):")
                with out.block():
                    out.emit(f"{self.use('note')}(16 + 2 * len({r}))")
                    self.emit_gc_check()
            return
        if op in _BINOPS:
            a, b = st.pop(2)
            self.emit_binval(op, a, b)
            return
        if op == 37:      # GETIDX
            obj, index = (e.src for e in st.pop(2))
            r = st.slot()
            out.emit(f"if type({obj}) is {self.use('JSArray')}:")
            with out.block():
                out.emit("cyc += B16")
                # Inline of ``_element_get``'s array path.
                self.guarded(
                    [f"i_ = int({index})",
                     f"t_ = {obj}.items",
                     f"{r} = t_[i_] if 0 <= i_ < len(t_) "
                     f"else {self.use('u_')}"], classes, idx)
            out.emit(f"elif type({obj}) is {self.use('JSTypedArray')}:")
            with out.block():
                # Same inline, with the typed-array miss value (0.0) and
                # no JSArray surcharge — mirroring ``_element_get``.  The
                # usual backing store is ``SparseItems``, whose dict we
                # read directly; host code (crypto digests) may swap in a
                # plain list, hence the type guard.
                self.guarded(
                    [f"i_ = int({index})",
                     f"t_ = {obj}.items",
                     f"if type(t_) is {self.use('Sparse')}:",
                     f"    {r} = t_._data.get(i_, 0.0) "
                     f"if 0 <= i_ < t_._length else 0.0",
                     "else:",
                     f"    {r} = t_[i_] if 0 <= i_ < len(t_) else 0.0"],
                    classes, idx)
            out.emit("else:")
            with out.block():
                self.guarded([f"{r} = {self.use('eget')}({obj}, {index})"],
                             classes, idx)
            return
        if op == 38:      # SETIDX
            obj, index, value = st.pop(3)
            out.emit(f"if type({obj.src}) is {self.use('JSArray')}:")
            with out.block():
                out.emit("cyc += B20")
            self.guarded([f"{self.use('setel')}({self.use('heap')}, "
                          f"{obj.src}, {index.src}, {value.src})"],
                         classes, idx)
            st.push_copy(value)           # the stored value is the result
            self.emit_gc_check()
            return
        if op == 10:      # NEG
            (v,) = st.pop()
            value = v.src if v.kind == "float" else \
                f"{self.use('tonum')}({v.src})"
            out.emit(f"{st.slot('float')} = -{value}")
            return
        if op == 11:      # NOT
            (v,) = st.pop()
            out.emit(f"{st.slot('bool')} = not {self.truth(v)}")
            return
        if op == 12:      # BNOT
            (v,) = st.pop()
            out.emit(f"{st.slot('float')} = "
                     f"float(~{self.use('ti32')}({v.src}))")
            return
        if op == 3:       # LOADG
            out.emit(f"{st.slot()} = {self.use('glb')}.get({arg!r}, "
                     f"{self.use('u_')})")
            return
        if op == 4:       # STOREG
            (v,) = st.pop()
            out.emit(f"{self.use('glb')}[{arg!r}] = {v.src}")
            return
        if op == 39:      # GETMEM
            (v,) = st.pop()
            r = st.slot()
            self.guarded([f"{r} = {self.use('mget')}({v.src}, {arg!r})"],
                         classes, idx)
            return
        if op == 40:      # SETMEM
            eo, ev = st.pop(2)
            obj, value = eo.src, ev.src
            body = [f"if isinstance({obj}, {self.use('JSObject')}):",
                    f"    {obj}.props[{arg!r}] = {value}"]
            if arg == "length":
                body += [f"elif isinstance({obj}, {self.use('JSArray')}):",
                         f"    del {obj}.items"
                         f"[int({self.use('tonum')}({value})):]"]
            body += ["else:",
                     f"    raise {self.use('err')}("
                     f"{literal(f'cannot set {arg} on ')}"
                     f" + type({obj}).__name__)"]
            self.guarded(body, classes, idx)
            st.push_copy(ev)              # the stored value is the result
            return
        if op == 35:      # NEWARR
            items = ", ".join(e.src for e in st.pop(arg))
            r = st.slot()
            out.emit(f"{r} = {self.use('JSArray')}([{items}])")
            out.emit(f"{self.use('reg_')}({r})")
            self.emit_gc_check()
            return
        if op == 36:      # NEWOBJ
            values = ", ".join(e.src for e in st.pop(len(arg)))
            r = st.slot()
            out.emit(f"{r} = {self.use('JSObject')}(dict(zip("
                     f"{self.const_expr(pc, tuple(arg))}, [{values}])))")
            out.emit(f"{self.use('reg_')}({r})")
            self.emit_gc_check()
            return
        if op == 41:      # DUP
            st.push_copy(st[-1])
            return
        if op == 45:      # DUP2
            st.push_copy(st[-2])
            st.push_copy(st[-2])
            return
        if op == 42:      # POP
            st.pop()
            return
        if op == 43:      # TYPEOF
            (v,) = st.pop()
            known = _typeof(v)
            if known is not None:
                st.push_const(repr(known), known, "str")
                return
            r = st.slot("str")
            for test, name in (
                    (f"isinstance({v.src}, float)", "number"),
                    (f"isinstance({v.src}, str)", "string"),
                    (f"isinstance({v.src}, bool)", "boolean"),
                    (f"{v.src} is {self.use('u_')}", "undefined"),
                    (f"isinstance({v.src}, ({self.use('JSFunction')}, "
                     f"{self.use('NativeFunction')}))", "function")):
                out.emit(f"{'if' if name == 'number' else 'elif'} {test}:")
                with out.block():
                    out.emit(f"{r} = {name!r}")
            out.emit("else:")
            with out.block():
                out.emit(f"{r} = 'object'")
            return
        if op == 46:      # INCIDX
            delta, is_post = arg
            obj, index = (e.src for e in st.pop(2))
            self.guarded([
                f"t_ = {self.use('tonum')}({self.use('eget')}"
                f"({obj}, {index}))",
                f"n_ = t_ + {literal(delta)}",
                f"{self.use('setel')}({self.use('heap')}, {obj}, {index}, "
                f"n_)",
            ], classes, idx)
            out.emit(f"{st.slot('float')} = {'t_' if is_post else 'n_'}")
            self.emit_gc_check()
            return
        if op == 47:      # INCMEM
            name, delta, is_post = arg
            (v,) = st.pop()
            obj = v.src
            self.guarded([
                f"t_ = {self.use('tonum')}({self.use('mget')}"
                f"({obj}, {name!r}))",
                f"n_ = t_ + {literal(delta)}",
                f"{obj}.props[{name!r}] = n_",
            ], classes, idx)
            out.emit(f"{st.slot('float')} = {'t_' if is_post else 'n_'}")
            return
        raise JsRuntimeError(  # pragma: no cover - pre-checked
            f"{self.fn.name}: unimplemented bytecode op {op} "
            f"(codegen tier)")

    def truth(self, v):
        """ToBoolean of one operand, with the bool and number cases
        inline (and folded when the operand's kind is known)."""
        x = v.src
        if v.kind == "bool":
            return x
        if v.kind == "float":
            return f"({x} != 0.0 and {x} == {x})"
        return (f"({x} if type({x}) is bool else "
                f"({x} != 0.0 and {x} == {x}) if type({x}) is float "
                f"else {self.use('truthy')}({x}))")

    # -- terminators ----------------------------------------------------

    def emit_term(self, instr, fall_bi):
        op, arg = instr
        out = self.out
        st = self.stack
        if op == 33:      # RET
            out.emit(f"cyc += c{op}")
            out.emit(f"return {st[-1].src}")
            return
        if op == 34:      # RETU
            out.emit(f"cyc += c{op}")
            self.emit_exit(0)
            return
        if op in (28, 29):                # JF / JT
            (v,) = st.pop()
            st.flush()
            out.emit(f"cyc += c{op}")
            if v.value is not UNKNOWN:    # a constant: the branch is static
                taken = js_truthy(v.value) == (op == 29)
                self.emit_jump(self.bi_of(arg) if taken else fall_bi)
                return
            self.emit_branch(f"{'' if op == 29 else 'not '}{self.truth(v)}",
                             self.bi_of(arg), fall_bi)
            return
        if op in (27, 30):
            st.flush()
            out.emit(f"cyc += c{op}")
        if op == 27:      # JMP
            self.emit_jump(self.bi_of(arg))
            return
        if op == 30:      # JBACK
            if self.jit_enabled:
                out.emit(f"if not {self.use('fn')}.tier:")
                with out.block():
                    out.emit("fn.backedge_count += 1")
                    out.emit(f"if {self.use('hot')}(fn.backedge_count):")
                    with out.block():
                        out.emit(f"{self.use('tier_up')}(fn)"
                                 "  # on-stack replacement")
                        self.emit_rebind()
            self.emit_jump(self.bi_of(arg))
            return
        # CALL / METHOD / NEWCALL
        is_method = op == 32
        nargs = arg[1] if is_method else arg
        callee, *args = st.pop(nargs + 1)
        st.flush()
        out.emit(f"cyc += c{op}")
        out.emit(f"a_ = [{', '.join(e.src for e in args)}]")
        if op == 44:      # NEWCALL
            self.emit_roots()
            out.emit(f"{st.slot()} = {self.use('construct')}"
                     f"({callee.src}, a_)")
            self.emit_rebind()
            self.emit_gc_check()
            self.emit_jump(fall_bi)
            return
        if is_method:
            out.emit(f"o_ = {callee.src}")
            out.emit(f"f_ = {self.use('mget')}(o_, {arg[0]!r})")
        else:
            out.emit(f"f_ = {callee.src}")
            out.emit(f"o_ = {self.use('u_')}")
        r = st.slot()
        out.emit(f"if isinstance(f_, {self.use('JSFunction')}):")
        with out.block():
            self.emit_roots(len(st) - 1)
            out.emit(f"{self.use('stats')}.cycles += cyc")
            out.emit("cyc = 0.0")
            out.emit(f"{r} = {self.use('call')}({self.use('engine')}, "
                     f"f_, a_, o_)")
            self.emit_rebind()
        out.emit(f"elif isinstance(f_, {self.use('NativeFunction')}):")
        with out.block():
            out.emit("cyc += f_.cycles * F")
            out.emit(f"{r} = f_.fn(engine, o_, a_)")
        out.emit("else:")
        with out.block():
            if is_method:
                out.emit(f"raise {self.use('err')}("
                         f"{literal(f'{arg} is not a function')})")
            else:
                out.emit(f"raise {self.use('err')}(repr(f_)"
                         f" + ' is not a function')")
        self.emit_gc_check()
        self.emit_jump(fall_bi)

    # -- whole blocks ---------------------------------------------------

    def emit_exit(self, depth):
        self.out.emit(f"return {self.use('u_')}")

    def emit_prologue(self):
        out = self.out
        nparams = len(self.fn.params)
        if nparams:
            out.emit("_na = len(args)")
        for i in range(nparams):
            out.emit(f"l{i} = args[{i}] if {i} < _na else {self.use('u_')}")
        for j in range(nparams, self.fn.num_locals):
            out.emit(f"l{j} = {self.use('u_')}")
        self.emit_slots("None")
        out.emit("cyc = 0.0")

    def emit_frame_entry(self):
        self.emit_rebind()
        if self.profiling:
            self.out.emit(f"pf = [0] * {2 * len(self.ranges)}")

    def emit_block(self, bi):
        out = self.out
        start, end = self.ranges[bi]
        ops = self.code[start:end]
        classes = [int(JS_OP_CLASS[op]) for op, _a in ops]
        self.count_block(bi, classes, len(ops))
        if self.profiling:
            # Per-(block, tier) profiler cells, counted in
            # ``pf[2 * bi + tier]``.
            out.emit(f"pf[tk + {2 * bi}] += 1")
            self.use("fprof")             # bound through ns, not a local
            for tier in (0, 1):
                self.prof_cells.append((f"pf[{2 * bi + tier}]", [
                    (op + (tier << 8), dc)
                    for op, dc in class_deltas([o for o, _a in ops])]))
        self.stack.enter(out, self.entry_depth[bi])
        body, term = split_term(ops, _TERM_OPS)
        for idx, instr in enumerate(body):
            self.emit_op(start + idx, instr, classes, idx)
        fall_bi = self.bi_of(end)
        if term is None:
            self.emit_fall(fall_bi)
        else:
            self.emit_term(term, fall_bi)

    def emit_finally(self):
        self.out.emit(f"{self.use('stats')}.cycles += cyc")
        self.emit_flush()


class _Plan(NamedTuple):
    """What translating one function derives from its code and the
    translation flags alone: shared by every engine that runs the code."""

    key: str
    ranges: list
    block_index: dict
    layout: LoopLayout
    entry_depth: dict
    max_depth: int
    tier_names: tuple
    const_index: dict
    consts: tuple


def _plan(fn, jit_enabled, profiling):
    """Plan one function's translation; ``None`` when the translator
    declines it."""
    code = fn.code
    for pc, (op, _arg) in enumerate(code):
        if op not in SUPPORTED_OPS:
            raise JsRuntimeError(
                f"{fn.name}: unimplemented bytecode op {op} at pc {pc} "
                f"(codegen tier has no handler)")

    ranges, block_index = block_ranges(code, _TERM_OPS, _JUMPS)

    flow = _analyse(code, ranges, block_index)
    if flow is None:
        return None
    entry_depth, max_depth = flow

    # Constants the source cannot spell (UNDEFINED, non-string object
    # keys) ride in an ``ns`` tuple; indices are assigned in pc order so
    # a warm cache hit (which skips source generation) rebuilds the exact
    # same tuple.
    const_index = {}
    consts = []
    for pc, (op, arg) in enumerate(code):
        if op == 0 and not _literalizable(arg):
            const_index[pc] = len(consts)
            consts.append(arg)
        elif op == 36 and not _literalizable(tuple(arg)):
            const_index[pc] = len(consts)
            consts.append(tuple(arg))

    key = unit_key("js", (
        repr(code), len(fn.params), fn.num_locals, jit_enabled, profiling))
    layout = LoopLayout(block_successors(code, ranges, block_index, _JUMPS,
                                         _NO_FALL))
    return _Plan(key, ranges, block_index, layout, entry_depth, max_depth,
                 tuple(_tier_names(code, profiling)), const_index,
                 tuple(consts))


def translate(fn, engine):
    """Build (or load warm) the generated runner for one JS function on
    one engine; ``None`` means the translator declined and the caller
    should run the function on the reference ladder.  The plan and its
    compiled factory are memoized on the function's shared code
    (``fn.plans``); the runner, which pre-binds this engine's state, is
    built every time."""
    tiering = engine.tiering
    jit_enabled = engine.config.jit_enabled
    profiling = engine._profile is not None
    plan = fn.plans.get((jit_enabled, profiling),
                        lambda: _plan(fn, jit_enabled, profiling))
    if plan is None:
        return declined("js")

    # The per-tier constants ride in ``ns``, so the source (and its
    # cache key) is shared by every engine configuration.
    tiers = tuple(_tier_values(plan.tier_names, tier,
                               tiering.exec_factor(tier))
                  for tier in (0, 1))

    def build_source():
        emitter = _FnEmitter(fn, fn.code, plan.ranges, plan.block_index,
                             plan.layout, plan.entry_depth, plan.max_depth,
                             jit_enabled, profiling, plan.tier_names,
                             plan.const_index)
        return emitter.build()

    factory = fn.plans.get(
        ("make", jit_enabled, profiling),
        lambda: load_factory("js", plan.key, build_source))

    ns = {
        "engine": engine, "fn": fn, "stats": engine.stats,
        "counts": engine.stats.op_counts, "heap": engine.heap,
        "glb": engine.globals, "u_": UNDEFINED, "K": plan.consts,
        "call": _execute, "construct": engine._construct,
        "mget": engine._member_get, "eget": _element_get,
        "jadd": _js_add, "tonum": _to_number, "truthy": js_truthy,
        "ti32": to_int32, "tu32": to_uint32,
        "copysign": math.copysign, "setel": _set_element,
        "note": engine.heap.note_ephemeral, "reg_": engine.heap.register,
        "err": JsRuntimeError, "JSArray": JSArray,
        "Sparse": SparseItems,
        "JSObject": JSObject, "JSTypedArray": JSTypedArray,
        "JSFunction": JSFunction, "NativeFunction": NativeFunction,
        "hot": tiering.backedge_hot, "tier_up": engine._tier_up,
        "tiers": tiers,
    }
    for op, f in _VALUE_FNS.items():
        ns[f"vf{op}"] = f
    if profiling:
        ns["fprof"] = engine._profile.frame(fn.name)

    translated("js", len(plan.ranges), plan.layout)
    return factory(ns)


# Bound at the bottom to break the import cycle with the interpreter
# (which imports this module at *its* bottom).
from repro.jsengine.interpreter import (  # noqa: E402
    JsRuntimeError, _element_get, _js_add, _js_loose_eq, _set_element,
    _to_number, execute as _execute,
)
