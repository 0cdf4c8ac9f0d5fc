"""Codegen execution tier for the JS engine: basic blocks → Python.

Splits each ``JSFunction`` into basic blocks and emits one generated
Python function: the operand stack is lowered to slot variables
``s0..sK`` (depths are static in compiler output; hand-built bytecode
with inconsistent join depths makes the translator decline), locals to
``l0..lN``, and dispatch to a ``bi`` block index looping over
``if bi == k`` arms.

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
  locals and the operand slots below the current depth
  (``rt[:] = l0, ..., s0, ...``) at the only points a mark can run while
  the frame is live: before each ``JSFunction`` call and ``NEWCALL``,
  and inside its own collection branch.  Slots above the depth and
  Python temporaries are never roots, so nothing needs clearing.

The generated source depends only on the bytecode and translation flags
(JIT enablement, profiling) — instance state and the tier constants are
bound by ``make(ns)`` — so translation units are served from the
persistent compile cache (:mod:`repro.engine.codegen`), one per function
across every engine configuration.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.clibm import c_fmod
from repro.engine.codegen import (
    DECLINED, LOST_DISPATCH, FnEmitter, block_ranges, class_deltas,
    declined, literal, literalizable, load_factory, split_term,
    stack_depths, translated, unit_key,
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


def _literalizable(value):
    if isinstance(value, tuple):
        return all(isinstance(v, str) for v in value)
    return literalizable(value)


class _FnEmitter(FnEmitter):
    """Emits the generated unit for one JS function."""

    error_name = "err"
    dispatch_tail = LOST_DISPATCH
    run_params = "args, rt"

    def __init__(self, fn, code, ranges, block_index, entry_depth,
                 max_depth, jit_enabled, profiling, tier_names,
                 const_index):
        super().__init__(fn, code, ranges, block_index, profiling,
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

    def emit_roots(self, depth):
        """Publish the frame's JS roots to its holder for the mark: every
        local and the operand slots below ``depth``."""
        live = [f"l{j}" for j in range(self.fn.num_locals)] + \
            [f"s{j}" for j in range(depth)]
        self.out.emit(f"rt[:] = ({', '.join(live)}"
                      f"{',' if len(live) == 1 else ''})")

    def emit_gc_check(self, depth):
        """Collect if the allocation budget is full, with ``depth``
        operand slots live."""
        heap = self.use("heap")
        self.out.emit(f"if {heap}.allocated_since_gc >= "
                      f"{heap}.trigger_bytes:")
        with self.out.block():
            self.emit_roots(depth)
            self.out.emit(f"p_ = {heap}.collect()")
            self.out.emit(f"{self.use('stats')}.gc_runs += 1")
            self.out.emit("stats.gc_pause_cycles += p_")
            self.out.emit("cyc += p_")

    def emit_rewind(self, classes, idx):
        n_sfx = len(classes) - (idx + 1)
        if n_sfx:
            self.out.emit(f"{self.use('stats')}.instructions -= {n_sfx}")
        for ci, d in class_deltas(classes[idx + 1:]):
            self.out.emit(f"{self.use('counts')}[{ci}] -= {d}")

    def guarded(self, body_lines, classes, idx):
        """Wrap raising statements in the integer-suffix rewind guard
        (cycles self-charge, so only ``instructions``/``op_counts``
        rewind); a trap on the block's last op has nothing to rewind."""
        if idx + 1 >= len(classes):
            for line in body_lines:
                self.out.emit(line)
            return
        super().guarded(body_lines, classes, idx)

    # -- one straight-line op at static depth d; returns the new depth --

    def i32(self, x):
        """Inline ToInt32 of one slot: the finite-in-range float fast path
        as an expression (``int()`` truncates toward zero exactly like the
        wrap-around), falling back to the bound coercion."""
        return (f"(int({x}) if type({x}) is float and "
                f"-2147483648.0 <= {x} <= 2147483647.0 "
                f"else {self.use('ti32')}({x}))")

    def u32(self, x):
        """Inline ToUint32 of one slot (same fast path, wrapped)."""
        return (f"(int({x}) & 0xFFFFFFFF if type({x}) is float and "
                f"-2147483648.0 <= {x} <= 2147483647.0 "
                f"else {self.use('tu32')}({x}))")

    def emit_binval(self, op, d):
        """The value computation of one pure binop, assigned to the result
        slot.  The hot operators are inlined as expressions over the slot
        variables — observably identical to the reference arms (same
        coercions in the same order).  The rest call the bound value
        function (``_VALUE_FNS``)."""
        out = self.out
        a, b = f"s{d - 2}", f"s{d - 1}"

        def num(x):
            return f"({x} if type({x}) is float else {self.use('tonum')}({x}))"

        if op in (6, 7):                       # SUB / MUL
            out.emit(f"{a} = {num(a)} {'-' if op == 6 else '*'} {num(b)}")
        elif op == 8:                          # DIV (C99 signed-zero rules)
            out.emit(f"t_ = {num(a)}")
            out.emit(f"n_ = {num(b)}")
            out.emit("if n_ == 0.0:")
            with out.block():
                out.emit(f"{a} = float('nan') if (t_ == 0.0 or t_ != t_) "
                         f"else {self.use('copysign')}(float('inf'), t_) * "
                         f"{self.use('copysign')}(1.0, n_)")
            out.emit("else:")
            with out.block():
                out.emit(f"{a} = t_ / n_")
        elif op in (13, 14, 15):               # BAND / BOR / BXOR
            sym = {13: "&", 14: "|", 15: "^"}[op]
            out.emit(f"{a} = float({self.i32(a)} {sym} {self.i32(b)})")
        elif op == 16:                         # SHL (int32 wrap-around)
            out.emit(f"i_ = ({self.i32(a)} << ({self.u32(b)} & 31)) "
                     f"& 0xFFFFFFFF")
            out.emit(f"{a} = float(i_ - 0x100000000 "
                     f"if i_ & 0x80000000 else i_)")
        elif op == 17:                         # SHR
            out.emit(f"{a} = float({self.i32(a)} >> ({self.u32(b)} & 31))")
        elif op == 18:                         # USHR
            out.emit(f"{a} = float({self.u32(a)} >> ({self.u32(b)} & 31))")
        elif op in (19, 20, 21, 22):           # LT / LE / GT / GE
            # Numbers compare directly (``_to_number`` of a float is the
            # float); anything else takes the full string-aware path.
            sym = {19: "<", 20: "<=", 21: ">", 22: ">="}[op]
            out.emit(f"{a} = {a} {sym} {b} "
                     f"if type({a}) is float and type({b}) is float "
                     f"else {self.use(f'vf{op}')}({a}, {b})")
        elif op == 25:                         # SEQ
            out.emit(f"{a} = type({a}) is type({b}) and {a} == {b}")
        elif op == 26:                         # SNE
            out.emit(f"{a} = not (type({a}) is type({b}) and {a} == {b})")
        elif op == 49:                         # IMUL
            out.emit(f"i_ = {self.i32(a)} * {self.i32(b)}")
            out.emit(f"{a} = float(i_ if -2147483648 <= i_ <= 2147483647 "
                     f"else {self.use('ti32')}(i_))")
        else:                                  # MOD / EQ / NE
            out.emit(f"{a} = {self.use(f'vf{op}')}({a}, {b})")

    def emit_op(self, pc, instr, d, classes, idx):
        op, arg = instr
        out = self.out
        out.emit(f"cyc += c{op}")
        if op == 1:       # LOADL
            out.emit(f"s{d} = l{arg}")
            return d + 1
        if op == 0:       # CONST
            out.emit(f"s{d} = {self.const_expr(pc, arg)}")
            return d + 1
        if op == 2:       # STOREL
            out.emit(f"l{arg} = s{d - 1}")
            return d - 1
        if op == 5:       # ADD
            a, b = f"s{d - 2}", f"s{d - 1}"
            out.emit(f"if type({a}) is float and type({b}) is float:")
            with out.block():
                out.emit(f"{a} = {a} + {b}")
            out.emit("else:")
            with out.block():
                out.emit(f"{a} = {self.use('jadd')}({a}, {b})")
                out.emit(f"if isinstance({a}, str):")
                with out.block():
                    out.emit(f"{self.use('note')}(16 + 2 * len({a}))")
                    self.emit_gc_check(d - 1)
            return d - 1
        if op in _BINOPS:
            self.emit_binval(op, d)
            return d - 1
        if op == 37:      # GETIDX
            obj, index = f"s{d - 2}", f"s{d - 1}"
            out.emit(f"if type({obj}) is {self.use('JSArray')}:")
            with out.block():
                out.emit("cyc += B16")
                # Inline of ``_element_get``'s array path.
                self.guarded(
                    [f"i_ = int({index})",
                     f"t_ = {obj}.items",
                     f"{obj} = t_[i_] if 0 <= i_ < len(t_) "
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
                     f"    {obj} = t_._data.get(i_, 0.0) "
                     f"if 0 <= i_ < t_._length else 0.0",
                     "else:",
                     f"    {obj} = t_[i_] if 0 <= i_ < len(t_) else 0.0"],
                    classes, idx)
            out.emit("else:")
            with out.block():
                self.guarded([f"{obj} = {self.use('eget')}({obj}, {index})"],
                             classes, idx)
            return d - 1
        if op == 38:      # SETIDX
            obj = f"s{d - 3}"
            out.emit(f"if type({obj}) is {self.use('JSArray')}:")
            with out.block():
                out.emit("cyc += B20")
            self.guarded([f"{self.use('setel')}({self.use('heap')}, {obj}, "
                          f"s{d - 2}, s{d - 1})"], classes, idx)
            out.emit(f"{obj} = s{d - 1}")
            self.emit_gc_check(d - 2)
            return d - 2
        if op == 10:      # NEG
            out.emit(f"s{d - 1} = -{self.use('tonum')}(s{d - 1})")
            return d
        if op == 11:      # NOT
            out.emit(f"s{d - 1} = not {self.use('truthy')}(s{d - 1})")
            return d
        if op == 12:      # BNOT
            out.emit(f"s{d - 1} = float(~{self.use('ti32')}(s{d - 1}))")
            return d
        if op == 3:       # LOADG
            out.emit(f"s{d} = {self.use('glb')}.get({arg!r}, "
                     f"{self.use('u_')})")
            return d + 1
        if op == 4:       # STOREG
            out.emit(f"{self.use('glb')}[{arg!r}] = s{d - 1}")
            return d - 1
        if op == 39:      # GETMEM
            self.guarded([f"s{d - 1} = {self.use('mget')}(s{d - 1}, "
                          f"{arg!r})"], classes, idx)
            return d
        if op == 40:      # SETMEM
            obj, value = f"s{d - 2}", f"s{d - 1}"
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
            out.emit(f"{obj} = {value}")
            return d - 1
        if op == 35:      # NEWARR
            items = ", ".join(f"s{d - arg + i}" for i in range(arg))
            out.emit(f"s{d - arg} = {self.use('JSArray')}([{items}])")
            out.emit(f"{self.use('reg_')}(s{d - arg})")
            self.emit_gc_check(d - arg + 1)
            return d - arg + 1
        if op == 36:      # NEWOBJ
            nk = len(arg)
            values = ", ".join(f"s{d - nk + i}" for i in range(nk))
            out.emit(f"s{d - nk} = {self.use('JSObject')}(dict(zip("
                     f"{self.const_expr(pc, tuple(arg))}, [{values}])))")
            out.emit(f"{self.use('reg_')}(s{d - nk})")
            self.emit_gc_check(d - nk + 1)
            return d - nk + 1
        if op == 41:      # DUP
            out.emit(f"s{d} = s{d - 1}")
            return d + 1
        if op == 45:      # DUP2
            out.emit(f"s{d} = s{d - 2}")
            out.emit(f"s{d + 1} = s{d - 1}")
            return d + 2
        if op == 42:      # POP
            return d - 1
        if op == 43:      # TYPEOF
            v = f"s{d - 1}"
            out.emit(f"if isinstance({v}, float):")
            with out.block():
                out.emit(f"{v} = 'number'")
            out.emit(f"elif isinstance({v}, str):")
            with out.block():
                out.emit(f"{v} = 'string'")
            out.emit(f"elif isinstance({v}, bool):")
            with out.block():
                out.emit(f"{v} = 'boolean'")
            out.emit(f"elif {v} is {self.use('u_')}:")
            with out.block():
                out.emit(f"{v} = 'undefined'")
            out.emit(f"elif isinstance({v}, ({self.use('JSFunction')}, "
                     f"{self.use('NativeFunction')})):")
            with out.block():
                out.emit(f"{v} = 'function'")
            out.emit("else:")
            with out.block():
                out.emit(f"{v} = 'object'")
            return d
        if op == 46:      # INCIDX
            delta, is_post = arg
            obj, index = f"s{d - 2}", f"s{d - 1}"
            self.guarded([
                f"t_ = {self.use('tonum')}({self.use('eget')}"
                f"({obj}, {index}))",
                f"n_ = t_ + {literal(delta)}",
                f"{self.use('setel')}({self.use('heap')}, {obj}, {index}, "
                f"n_)",
            ], classes, idx)
            out.emit(f"{obj} = {'t_' if is_post else 'n_'}")
            self.emit_gc_check(d - 1)
            return d - 1
        if op == 47:      # INCMEM
            name, delta, is_post = arg
            obj = f"s{d - 1}"
            self.guarded([
                f"t_ = {self.use('tonum')}({self.use('mget')}"
                f"({obj}, {name!r}))",
                f"n_ = t_ + {literal(delta)}",
                f"{obj}.props[{name!r}] = n_",
            ], classes, idx)
            out.emit(f"{obj} = {'t_' if is_post else 'n_'}")
            return d
        raise JsRuntimeError(  # pragma: no cover - pre-checked
            f"{self.fn.name}: unimplemented bytecode op {op} "
            f"(codegen tier)")

    # -- terminators ----------------------------------------------------

    def emit_term(self, instr, d, bi, fall_bi):
        op, arg = instr
        out = self.out
        out.emit(f"cyc += c{op}")
        if op == 27:      # JMP
            self.emit_jump(self.bi_of(arg), fall_bi)
            return
        if op in (28, 29):                # JF / JT
            # ToBoolean, with the bool and number cases inline.
            test = "" if op == 29 else "not "
            v = f"s{d - 1}"
            out.emit(f"if {test}({v} if type({v}) is bool else "
                     f"({v} != 0.0 and {v} == {v}) if type({v}) is float "
                     f"else {self.use('truthy')}({v})):")
            with out.block():
                self.emit_jump(self.bi_of(arg))
            self.emit_jump(fall_bi, fall_bi)
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
            self.emit_jump(self.bi_of(arg), fall_bi)
            return
        if op == 33:      # RET
            out.emit(f"return s{d - 1}")
            return
        if op == 34:      # RETU
            self.emit_exit(0)
            return
        # CALL / METHOD / NEWCALL
        is_method = op == 32
        if is_method:
            name, nargs = arg
        else:
            name, nargs = None, arg
        nd = d - nargs - 1                # depth with args + target popped
        args_list = ", ".join(f"s{nd + 1 + i}" for i in range(nargs))
        out.emit(f"a_ = [{args_list}]")
        if op == 44:      # NEWCALL
            self.emit_roots(nd)
            out.emit(f"s{nd} = {self.use('construct')}(s{nd}, a_)")
            self.emit_rebind()
            self.emit_gc_check(nd + 1)
            self.emit_jump(fall_bi, fall_bi)
            return
        if is_method:
            out.emit(f"o_ = s{nd}")
            out.emit(f"f_ = {self.use('mget')}(o_, {name!r})")
        else:
            out.emit(f"f_ = s{nd}")
            out.emit(f"o_ = {self.use('u_')}")
        out.emit(f"if isinstance(f_, {self.use('JSFunction')}):")
        with out.block():
            self.emit_roots(nd)
            out.emit(f"{self.use('stats')}.cycles += cyc")
            out.emit("cyc = 0.0")
            out.emit(f"s{nd} = {self.use('call')}({self.use('engine')}, "
                     f"f_, a_, o_)")
            self.emit_rebind()
        out.emit(f"elif isinstance(f_, {self.use('NativeFunction')}):")
        with out.block():
            out.emit("cyc += f_.cycles * F")
            out.emit(f"s{nd} = f_.fn(engine, o_, a_)")
        out.emit("else:")
        with out.block():
            if is_method:
                out.emit(f"raise {self.use('err')}("
                         f"{literal(f'{arg} is not a function')})")
            else:
                out.emit(f"raise {self.use('err')}(repr(f_)"
                         f" + ' is not a function')")
        self.emit_gc_check(nd + 1)
        self.emit_jump(fall_bi, fall_bi)

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
        d = self.entry_depth[bi]
        body, term = split_term(ops, _TERM_OPS)
        for idx, instr in enumerate(body):
            d = self.emit_op(start + idx, instr, d, classes, idx)
        fall_bi = self.bi_of(end)
        if term is None:
            self.emit_jump(fall_bi, fall_bi)
        else:
            self.emit_term(term, d, bi, fall_bi)

    def emit_finally(self):
        self.out.emit(f"{self.use('stats')}.cycles += cyc")
        self.emit_flush()


class _Plan(NamedTuple):
    """What translating one function derives from its code and the
    translation flags alone: shared by every engine that runs the code."""

    key: str
    ranges: list
    block_index: dict
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
    return _Plan(key, ranges, block_index, entry_depth, max_depth,
                 tuple(_tier_names(code, profiling)), const_index,
                 tuple(consts))


def translate(fn, engine):
    """Build (or load warm) the generated runner for one JS function on
    one engine; ``None`` means the translator declined and the caller
    should run the function on the reference ladder.  The plan is
    memoized on the function's shared code (``fn.plans``); the runner,
    which pre-binds this engine's state, is built every time."""
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
                             plan.entry_depth, plan.max_depth, jit_enabled,
                             profiling, plan.tier_names, plan.const_index)
        return emitter.build()

    factory = load_factory("js", plan.key, build_source)

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

    translated("js", len(plan.ranges))
    return factory(ns)


# Bound at the bottom to break the import cycle with the interpreter
# (which imports this module at *its* bottom).
from repro.jsengine.interpreter import (  # noqa: E402
    JsRuntimeError, _element_get, _js_add, _js_loose_eq, _set_element,
    _to_number, execute as _execute,
)
