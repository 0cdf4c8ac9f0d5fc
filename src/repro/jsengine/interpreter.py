"""Bytecode interpreter with tiered-JIT cost accounting.

Semantics are real (programs compute real results); the performance model
charges each op ``JS_OP_COST[op] * tier_factor`` where the tier factor drops
when a function gets hot (call-count or back-edge thresholds) — V8/
SpiderMonkey-style tiering.  GC pauses are charged when the allocation
budget fills.
"""

from __future__ import annotations

import math

from repro.clibm import c_fmod
from repro.errors import ReproError
from repro.jsengine.bytecode import (
    JS_OP_CLASS, JS_OP_COST, JS_OP_COST_OPT, JsOp,
)
from repro.jsengine.values import (
    JSArray,
    JSFunction,
    JSObject,
    JSTypedArray,
    NativeFunction,
    UNDEFINED,
    js_to_str,
    js_truthy,
    to_int32,
    to_uint32,
)


class JsRuntimeError(ReproError):
    """Raised for runtime type errors in the JS subset."""


def _to_number(value):
    if isinstance(value, float):
        return value
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, str):
        text = value.strip()
        if not text:
            return 0.0
        try:
            return float(text)
        except ValueError:
            return math.nan
    if value is None:
        return 0.0
    return math.nan


def _js_add(a, b):
    if type(a) is float and type(b) is float:
        return a + b
    if isinstance(a, str) or isinstance(b, str):
        return js_to_str(a) + js_to_str(b)
    return _to_number(a) + _to_number(b)


def _js_loose_eq(a, b):
    if type(a) is type(b):
        return a == b
    if a is None and b is UNDEFINED or a is UNDEFINED and b is None:
        return True
    if isinstance(a, (float, bool)) or isinstance(b, (float, bool)):
        return _to_number(a) == _to_number(b)
    return a is b


def _element_get(obj, index):
    if isinstance(obj, (JSArray, JSTypedArray)):
        i = int(index)
        items = obj.items
        if 0 <= i < len(items):
            return items[i]
        return UNDEFINED if isinstance(obj, JSArray) else 0.0
    if isinstance(obj, str):
        i = int(index)
        return obj[i] if 0 <= i < len(obj) else UNDEFINED
    if isinstance(obj, JSObject):
        return obj.props.get(js_to_str(index), UNDEFINED)
    raise JsRuntimeError(f"cannot index {type(obj).__name__}")


def _set_element(heap, obj, index, value):
    """Store ``value`` at ``obj[index]``: the SETIDX store (everything
    after the boxed-element penalty), shared by INCIDX and the codegen
    tier.  Plain arrays grow on demand; typed arrays drop out-of-range
    writes and coerce to their element kind."""
    if isinstance(obj, JSArray):
        i = int(index)
        items = obj.items
        if i >= len(items):
            heap.note_ephemeral(8 * (i + 1 - len(items)))
            items.extend([UNDEFINED] * (i + 1 - len(items)))
        items[i] = value
    elif isinstance(obj, JSTypedArray):
        i = int(index)
        if 0 <= i < len(obj.items):
            if obj.width == 8:
                obj.items[i] = _to_number(value)
            elif obj.kind == "Uint8Array":
                obj.items[i] = float(to_int32(value) & 0xFF)
            elif obj.kind == "Uint16Array":
                obj.items[i] = float(to_int32(value) & 0xFFFF)
            elif obj.kind == "Uint32Array":
                obj.items[i] = float(to_uint32(value))
            else:
                obj.items[i] = float(to_int32(value))
    elif isinstance(obj, JSObject):
        obj.props[js_to_str(index)] = value
    else:
        raise JsRuntimeError(f"cannot index-assign {type(obj).__name__}")


_STRING_METHODS = {
    "charCodeAt": lambda s, args: float(ord(s[int(args[0])]))
    if 0 <= int(args[0]) < len(s) else math.nan,
    "charAt": lambda s, args: s[int(args[0])]
    if 0 <= int(args[0]) < len(s) else "",
    "indexOf": lambda s, args: float(s.find(js_to_str(args[0]),
                                            int(args[1]) if len(args) > 1 else 0)),
    "lastIndexOf": lambda s, args: float(s.rfind(js_to_str(args[0]))),
    "slice": lambda s, args: s[slice(int(args[0]) if args else None,
                                     int(args[1]) if len(args) > 1 else None)],
    "substring": lambda s, args: s[int(args[0]):int(args[1])]
    if len(args) > 1 else s[int(args[0]):],
    "toLowerCase": lambda s, args: s.lower(),
    "toUpperCase": lambda s, args: s.upper(),
    "split": lambda s, args: JSArray(s.split(js_to_str(args[0]))
                                     if args else [s]),
    "replace": lambda s, args: s.replace(js_to_str(args[0]),
                                         js_to_str(args[1]), 1),
    "repeat": lambda s, args: s * int(args[0]),
    "trim": lambda s, args: s.strip(),
}


def execute(engine, fn, args, this=None):
    """Run a :class:`JSFunction` frame to completion; returns its value."""
    cfg = engine.config
    stats = engine.stats
    heap = engine.heap
    globals_ = engine.globals

    tiering = engine.tiering
    if cfg.jit_enabled and fn.tier == 0:
        fn.call_count += 1
        if tiering.call_hot(fn.call_count):
            engine._tier_up(fn)

    prof = engine._profile
    if prof is not None:
        # Frame entry — counted here, before the tier gate, so both
        # execution tiers agree on per-function call counts.
        prof.call(fn.name)

    if engine._fast and engine.trace is None \
            and heap.allocated_since_gc < heap.trigger_bytes:
        # Codegen tier.  Frames entered with the GC already over-trigger
        # (an allocating construct/host call) stay on the reference
        # ladder, whose after-every-op check collects at the exact point;
        # traced runs also stay here so trace events keep their ordering.
        # ``translate`` may decline (non-compiler bytecode shapes): the
        # sentinel pins the decision per engine and the frame falls
        # through to the reference loop below.
        cg = fn.codegen
        if cg is None or cg[0] is not engine:
            cg = (engine,
                  _codegen.translate(fn, engine) or _codegen.DECLINED)
            fn.codegen = cg
        if cg[1] is not _codegen.DECLINED:
            # The frame's GC root holder: the generated code writes its
            # live locals and operand slots into ``roots`` wherever the
            # collector's mark can run (see ``jsengine/gc.py``).
            roots = []
            heap.frames.append((roots,))
            try:
                return cg[1](args, roots)
            finally:
                heap.frames.pop()

    factor = tiering.exec_factor(fn.tier)
    cost = JS_OP_COST_OPT if fn.tier else JS_OP_COST
    # Profile keys pack the executing tier into bits 8+; ``tbit`` follows
    # exactly the same refresh discipline as ``cost`` so the recorded
    # tier always matches the tier that priced the op.
    fprof = prof.frame(fn.name) if prof is not None else None
    tbit = fn.tier << 8

    nparams = len(fn.params)
    locals_ = list(args[:nparams])
    locals_ += [UNDEFINED] * (fn.num_locals - len(locals_))
    stack = []
    push = stack.append
    pop = stack.pop
    code = fn.code
    n = len(code)
    pc = 0
    klass = JS_OP_CLASS
    counts = stats.op_counts
    cycles = 0.0
    instret = 0
    result = UNDEFINED

    heap.frames.append((locals_, stack))     # GC roots, read live
    try:
        while pc < n:
            op, arg = code[pc]
            cycles += cost[op] * factor
            counts[klass[op]] += 1
            instret += 1
            if fprof is not None:
                key = op + tbit
                fprof[key] = fprof.get(key, 0) + 1
            pc += 1

            if op == 1:       # LOADL
                push(locals_[arg])
            elif op == 0:     # CONST
                push(arg)
            elif op == 2:     # STOREL
                locals_[arg] = pop()
            elif op == 37:    # GETIDX
                i = pop()
                obj = pop()
                if type(obj) is JSArray:
                    # Boxed elements: tag/hole checks that typed arrays
                    # (and their elements-kind fast paths) avoid — part
                    # of why hand-written plain-array code loses to
                    # compiler-generated typed-array code (Table 9).
                    cycles += 1.6 * factor
                push(_element_get(obj, i))
            elif op == 38:    # SETIDX
                value = pop()
                index = pop()
                obj = pop()
                if type(obj) is JSArray:
                    cycles += 2.0 * factor
                _set_element(heap, obj, index, value)
                push(value)
            elif op == 5:     # ADD
                b = pop(); a = pop()
                if type(a) is float and type(b) is float:
                    push(a + b)
                else:
                    v = _js_add(a, b)
                    if isinstance(v, str):
                        heap.note_ephemeral(16 + 2 * len(v))
                    push(v)
            elif op == 6:     # SUB
                b = pop(); a = pop()
                push((a if type(a) is float else _to_number(a)) -
                     (b if type(b) is float else _to_number(b)))
            elif op == 7:     # MUL
                b = pop(); a = pop()
                push((a if type(a) is float else _to_number(a)) *
                     (b if type(b) is float else _to_number(b)))
            elif op == 8:     # DIV
                b = pop(); a = pop()
                a = a if type(a) is float else _to_number(a)
                b = b if type(b) is float else _to_number(b)
                if b == 0.0:
                    if a == 0.0 or a != a:
                        push(math.nan)
                    else:
                        push(math.copysign(math.inf, a) *
                             math.copysign(1.0, b))
                else:
                    push(a / b)
            elif op == 9:     # MOD
                b = pop(); a = pop()
                # c_fmod matches the ECMAScript % operator: NaN for a zero
                # divisor, NaN operands, or an infinite dividend.
                push(c_fmod(_to_number(a), _to_number(b)))
            elif op == 28:    # JF
                if not js_truthy(pop()):
                    pc = arg
            elif op == 29:    # JT
                if js_truthy(pop()):
                    pc = arg
            elif op == 27:    # JMP
                pc = arg
            elif op == 30:    # JBACK
                pc = arg
                if fn.tier == 0 and cfg.jit_enabled:
                    fn.backedge_count += 1
                    if tiering.backedge_hot(fn.backedge_count):
                        engine._tier_up(fn)      # on-stack replacement
                        factor = tiering.exec_factor(fn.tier)
                        cost = JS_OP_COST_OPT
                        tbit = fn.tier << 8
            elif op == 19:    # LT
                b = pop(); a = pop()
                if isinstance(a, str) and isinstance(b, str):
                    push(a < b)
                else:
                    push(_to_number(a) < _to_number(b))
            elif op == 20:
                b = pop(); a = pop()
                if isinstance(a, str) and isinstance(b, str):
                    push(a <= b)
                else:
                    push(_to_number(a) <= _to_number(b))
            elif op == 21:
                b = pop(); a = pop()
                if isinstance(a, str) and isinstance(b, str):
                    push(a > b)
                else:
                    push(_to_number(a) > _to_number(b))
            elif op == 22:
                b = pop(); a = pop()
                if isinstance(a, str) and isinstance(b, str):
                    push(a >= b)
                else:
                    push(_to_number(a) >= _to_number(b))
            elif op == 23:    # EQ
                b = pop(); push(_js_loose_eq(pop(), b))
            elif op == 24:    # NE
                b = pop(); push(not _js_loose_eq(pop(), b))
            elif op == 25:    # SEQ
                b = pop(); a = pop()
                push(type(a) is type(b) and a == b)
            elif op == 26:    # SNE
                b = pop(); a = pop()
                push(not (type(a) is type(b) and a == b))
            elif op == 13:    # BAND
                b = pop(); push(float(to_int32(pop()) & to_int32(b)))
            elif op == 14:    # BOR
                b = pop(); push(float(to_int32(pop()) | to_int32(b)))
            elif op == 15:    # BXOR
                b = pop(); push(float(to_int32(pop()) ^ to_int32(b)))
            elif op == 16:    # SHL
                b = to_uint32(pop()) & 31
                v = (to_int32(pop()) << b) & 0xFFFFFFFF
                push(float(v - 0x100000000 if v & 0x80000000 else v))
            elif op == 17:    # SHR
                b = to_uint32(pop()) & 31
                push(float(to_int32(pop()) >> b))
            elif op == 18:    # USHR
                b = to_uint32(pop()) & 31
                push(float(to_uint32(pop()) >> b))
            elif op == 10:    # NEG
                push(-_to_number(pop()))
            elif op == 11:    # NOT
                push(not js_truthy(pop()))
            elif op == 12:    # BNOT
                push(float(~to_int32(pop())))
            elif op == 3:     # LOADG
                if arg in globals_:
                    push(globals_[arg])
                else:
                    push(UNDEFINED)
            elif op == 4:     # STOREG
                globals_[arg] = pop()
            elif op == 39:    # GETMEM
                obj = pop()
                push(engine._member_get(obj, arg))
            elif op == 40:    # SETMEM
                value = pop()
                obj = pop()
                if isinstance(obj, JSObject):
                    obj.props[arg] = value
                elif isinstance(obj, JSArray) and arg == "length":
                    new_len = int(_to_number(value))
                    del obj.items[new_len:]
                else:
                    raise JsRuntimeError(
                        f"cannot set {arg} on {type(obj).__name__}")
                push(value)
            elif op == 31 or op == 32:   # CALL / METHOD
                if op == 31:
                    nargs = arg
                    call_args = stack[len(stack) - nargs:]
                    del stack[len(stack) - nargs:]
                    callee = pop()
                    this_val = UNDEFINED
                else:
                    name, nargs = arg
                    call_args = stack[len(stack) - nargs:]
                    del stack[len(stack) - nargs:]
                    this_val = pop()
                    callee = engine._member_get(this_val, name)
                if isinstance(callee, JSFunction):
                    stats.cycles += cycles
                    stats.instructions += instret
                    cycles = 0.0
                    instret = 0
                    push(execute(engine, callee, call_args, this_val))
                    factor = tiering.exec_factor(fn.tier)
                    cost = JS_OP_COST_OPT if fn.tier else JS_OP_COST
                    tbit = fn.tier << 8
                elif isinstance(callee, NativeFunction):
                    cycles += callee.cycles * factor
                    push(callee.fn(engine, this_val, call_args))
                else:
                    raise JsRuntimeError(
                        f"{arg if op == 32 else callee!r} is not a function")
            elif op == 33:    # RET
                result = pop()
                break
            elif op == 34:    # RETU
                result = UNDEFINED
                break
            elif op == 35:    # NEWARR
                items = stack[len(stack) - arg:] if arg else []
                if arg:
                    del stack[len(stack) - arg:]
                array = JSArray(items)
                heap.register(array)
                push(array)
            elif op == 36:    # NEWOBJ
                keys = arg
                nkeys = len(keys)
                values = stack[len(stack) - nkeys:] if nkeys else []
                if nkeys:
                    del stack[len(stack) - nkeys:]
                obj = JSObject(dict(zip(keys, values)))
                heap.register(obj)
                push(obj)
            elif op == 44:    # NEWCALL
                nargs = arg
                call_args = stack[len(stack) - nargs:] if nargs else []
                if nargs:
                    del stack[len(stack) - nargs:]
                ctor = pop()
                push(engine._construct(ctor, call_args))
                # A JS constructor may re-enter this function and tier
                # it up under the live frame (call_hot).
                factor = tiering.exec_factor(fn.tier)
                cost = JS_OP_COST_OPT if fn.tier else JS_OP_COST
                tbit = fn.tier << 8
            elif op == 41:    # DUP
                push(stack[-1])
            elif op == 45:    # DUP2
                push(stack[-2])
                push(stack[-2])
            elif op == 42:    # POP
                pop()
            elif op == 43:    # TYPEOF
                v = pop()
                if isinstance(v, float):
                    push("number")
                elif isinstance(v, str):
                    push("string")
                elif isinstance(v, bool):
                    push("boolean")
                elif v is UNDEFINED:
                    push("undefined")
                elif isinstance(v, (JSFunction, NativeFunction)):
                    push("function")
                else:
                    push("object")
            elif op == 46:    # INCIDX
                delta, is_post = arg
                index = pop()
                obj = pop()
                old = _to_number(_element_get(obj, index))
                new = old + delta
                _set_element(heap, obj, index, new)
                push(old if is_post else new)
            elif op == 49:    # IMUL
                b = pop(); a = pop()
                push(float(to_int32(to_int32(a) * to_int32(b))))
            elif op == 47:    # INCMEM
                name, delta, is_post = arg
                obj = pop()
                old = _to_number(engine._member_get(obj, name))
                new = old + delta
                obj.props[name] = new
                push(old if is_post else new)
            else:
                raise JsRuntimeError(f"unimplemented bytecode op {op}")

            if heap.allocated_since_gc >= heap.trigger_bytes:
                pause = heap.collect()
                stats.gc_runs += 1
                stats.gc_pause_cycles += pause
                if engine.trace is not None:
                    engine.trace.emit(
                        "gc",
                        stats.parse_cycles + stats.compile_cycles +
                        stats.cycles + cycles, pause)
                cycles += pause
    finally:
        heap.frames.pop()
        stats.cycles += cycles
        stats.instructions += instret

    return result


# Bound at the bottom to break the cycle with the codegen tier, which
# imports this module's helpers (the cycle resolves in either load order).
from repro.jsengine import codegen as _codegen  # noqa: E402
