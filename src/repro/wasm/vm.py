"""Stack-machine interpreter for the Wasm substrate.

Design notes
------------

* Function bodies are *prepared* once per module object (and process):
  structured control (``block``/``loop``/``if``/``else``/``end``) is
  resolved to direct jump targets with recorded operand-stack heights, so
  the runtime needs no label stack.  This mirrors what baseline compilers
  (LiftOff/Baseline) do.  Every instance of the module shares the
  prepared code, which is why a module must not change once instantiated.
* Every executed instruction is charged its abstract cycle cost and counted
  by operation class; :class:`ExecutionStats` is the raw material for all of
  the paper's execution-time and operation-count results.
* Calls to host imports (the JavaScript glue) charge an extra context-switch
  cost, the quantity compared across browsers in §4.5.

The reproduction restricts blocks and ifs to empty result types (Cheerp's
output in the paper's figures uses the same MVP-style shape); the validator
enforces this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cache.derived import Derived
from repro.engine.codegen import fast_interp_enabled
from repro.engine.stats import EngineStats
from repro.errors import TrapError, ValidationError
from repro.obs import new_profile
from repro.wasm.instructions import OP_CLASS, OP_COST, Op, OpClass
from repro.wasm.memory import LinearMemory

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SIGN32 = 0x80000000
_SIGN64 = 0x8000000000000000


def _wrap32(v):
    v &= _MASK32
    return v - 0x100000000 if v & _SIGN32 else v


def _wrap64(v):
    v &= _MASK64
    return v - 0x10000000000000000 if v & _SIGN64 else v


@dataclass
class ExecutionStats(EngineStats):
    """Aggregated dynamic execution counters for one instance.

    Extends the shared :class:`~repro.engine.stats.EngineStats` protocol
    with the Wasm-only counters (direct calls, ``memory.grow``)."""

    calls: int = 0
    memory_grows: int = 0


class _PreparedFunction:
    """A function body with branches resolved to absolute targets."""

    __slots__ = ("name", "num_params", "num_locals", "local_types", "code",
                 "results", "codegen", "plans")

    def __init__(self, name, num_params, local_types, code, results,
                 plans):
        self.name = name
        self.num_params = num_params
        self.local_types = local_types
        self.num_locals = num_params + len(local_types)
        self.code = code
        self.results = results
        #: Lazily built generated runner (prepared functions are
        #: per-instance, so the runner's pre-bound instance state can be
        #: cached right here); ``_codegen.DECLINED`` when the translator
        #: declined the function.
        self.codegen = None
        #: The codegen translator's plans for ``code``, shared by every
        #: instance of the module.
        self.plans = plans


def _prepare_module(module):
    """``(code, plans)`` per defined function: each body prepared once
    and frozen, with the translator-plan memo every instance shares."""
    return tuple((tuple(_prepare_body(fn)), Derived())
                 for fn in module.functions)


def _prepare_body(func):
    """Resolve structured control flow to jump targets.

    Returns a list of tuples ``(op, arg, extra)`` where for branch ops
    ``arg`` is the absolute target pc and ``extra`` the stack height to
    truncate to; for other ops ``extra`` is unused.
    """
    body = func.body
    n = len(body)
    # First pass: match each block construct with its else/end.
    matches = {}      # start pc -> (else_pc or None, end_pc)
    else_to_end = {}  # else pc -> end pc
    stack = []
    for pc, (op, arg) in enumerate(body):
        if op in (Op.BLOCK, Op.LOOP, Op.IF):
            stack.append([pc, None])
        elif op == Op.ELSE:
            if not stack or body[stack[-1][0]][0] != Op.IF:
                raise ValidationError(f"{func.name}: else without if at {pc}")
            stack[-1][1] = pc
        elif op == Op.END:
            if not stack:
                raise ValidationError(f"{func.name}: unmatched end at {pc}")
            start, else_pc = stack.pop()
            matches[start] = (else_pc, pc)
            if else_pc is not None:
                else_to_end[else_pc] = pc
    if stack:
        raise ValidationError(f"{func.name}: unterminated block")

    # Second pass: track the control stack so branches know where to jump.
    # Our code generators only branch at statement boundaries, where the
    # operand stack is empty (the validator enforces this), so every branch
    # unwinds to height zero.
    code = [None] * n
    ctrl = []  # entries: (opcode, start_pc, entry_height)
    for pc, (op, arg) in enumerate(body):
        if op in (Op.BLOCK, Op.LOOP, Op.IF):
            ctrl.append((op, pc, 0))
        elif op == Op.END and ctrl:
            ctrl.pop()
        if op in (Op.BR, Op.BR_IF):
            depth = arg
            if depth >= len(ctrl):
                raise ValidationError(
                    f"{func.name}: branch depth {depth} too deep at {pc}")
            t_op, t_pc, t_height = ctrl[-1 - depth]
            if t_op == Op.LOOP:
                target = t_pc + 1      # back-edge: first instr in the loop
            else:
                target = matches[t_pc][1] + 1  # forward: after the end
            code[pc] = (int(op), target, t_height)
        elif op == Op.IF:
            else_pc, end_pc = matches[pc]
            # False path enters the else arm (or skips to after end).
            false_target = else_pc + 1 if else_pc is not None else end_pc + 1
            code[pc] = (int(op), false_target, None)
        elif op == Op.ELSE:
            # Reached only by falling out of the then-arm: skip to the end.
            code[pc] = (int(Op.BR), else_to_end[pc] + 1, None)
        else:
            code[pc] = (int(op), arg, None)
    return code


class WasmInstance:
    """An instantiated module: memory + globals + prepared code."""

    def __init__(self, module, imports=None, boundary_cost=40.0,
                 max_instructions=None, tier_policy=None):
        self.module = module
        #: Optional :class:`~repro.engine.tiering.TierPolicy`.  Browser
        #: runs leave it ``None`` (the page runner composes the pipeline
        #: from the profile); standalone hosts attach a policy so the
        #: instance itself charges its modeled startup compiles.
        self.tier_policy = tier_policy
        spec = module.memory
        self.memory = LinearMemory(spec.min_pages, spec.max_pages,
                                   spec.page_size)
        for seg in module.data:
            self.memory.write_bytes(seg.offset, seg.data)
        self.globals = {}
        self._global_values = []
        self._global_index = {}
        for i, g in enumerate(module.globals):
            self._global_index[g.name] = i
            self._global_values.append(g.init)
        self.stats = ExecutionStats()
        self.boundary_cost = boundary_cost
        self.max_instructions = max_instructions
        self._instr_budget = max_instructions
        # A budgeted instance runs the reference ladder, which traps at
        # the exact instruction with the exact stats.
        self._fast = fast_interp_enabled() and max_instructions is None
        self._profile = new_profile("wasm")

        imports = imports or {}
        self._funcs = []
        for imp in module.imports:
            key = (imp.module, imp.name)
            fn = imports.get(key, imp.func)
            if fn is None:
                raise ValidationError(f"unresolved import {key}")
            self._funcs.append(("host", fn, imp.type))
        self._prepared = {}
        bodies = module.derived.get("prepared",
                                    lambda: _prepare_module(module))
        for fn, (code, plans) in zip(module.functions, bodies):
            prepared = _PreparedFunction(
                fn.name, fn.num_params, fn.locals, code, fn.type.results,
                plans)
            self._prepared[fn.name] = prepared
            self._funcs.append(("wasm", prepared, fn.type))

        if tier_policy is not None:
            # Standalone-host mode: charge the startup compiles the
            # policy's models price for this module (the tier-up compile,
            # if any, is dynamic and stays with the plan layer).
            from repro.engine.tiering import TierController
            startup_plan = TierController(tier_policy).plan(
                module.code_unit(), 0)
            self.stats.compile_cycles += startup_plan.startup_compile_cycles

        if module.start:
            self.invoke(module.start)

    def global_value(self, name):
        return self._global_values[self._global_index[name]]

    def invoke(self, name, *args):
        """Call an exported function from the host side.

        Charges the host→wasm context-switch cost, mirroring the JS loader's
        entry into the module.
        """
        prepared = self._prepared[name]
        self.stats.boundary_cycles += self.boundary_cost
        return self._run(prepared, list(args))

    def _run(self, fn, args):
        if self._profile is not None:
            self._profile.call(fn.name)
        if self._fast:
            cg = fn.codegen
            if cg is None:
                cg = _codegen.translate(fn, self) or _codegen.DECLINED
                fn.codegen = cg
            if cg is not _codegen.DECLINED:
                return cg(args)
        locals_ = args + [0.0 if t == "f64" else 0 for t in fn.local_types]
        return self._run_from(fn, locals_)

    def _run_from(self, fn, locals_):
        # Reference interpreter loop — the differential oracle for the
        # codegen tier, and where declined functions and budgeted
        # instances run.  Locals are a flat list: params then locals
        # (zero-initialised, typed by fn.local_types).
        stack = []
        pc = 0
        push = stack.append
        pop = stack.pop
        code = fn.code
        n = len(code)
        stats = self.stats
        mem = self.memory
        gvals = self._global_values
        cost = OP_COST
        klass = OP_CLASS
        counts = stats.op_counts
        prof = self._profile
        fprof = prof.frame(fn.name) if prof is not None else None
        cycles = 0.0
        instret = 0
        budget = self._instr_budget

        try:
            while pc < n:
                op, arg, extra = code[pc]
                cycles += cost[op]
                counts[klass[op]] += 1
                instret += 1
                if fprof is not None:
                    fprof[op] = fprof.get(op, 0) + 1
                if budget is not None:
                    budget -= 1
                    if budget < 0:
                        raise TrapError("instruction budget exhausted")
                pc += 1

                if op == 13:      # local.get
                    push(locals_[arg])
                elif op == 14:    # local.set
                    locals_[arg] = pop()
                elif op == 31 or op == 32 or op == 33:  # consts
                    push(arg)
                elif op == 34:    # i32.add
                    b = pop(); a = pop()
                    v = (a + b) & _MASK32
                    push(v - 0x100000000 if v & _SIGN32 else v)
                elif op == 35:    # i32.sub
                    b = pop(); a = pop()
                    v = (a - b) & _MASK32
                    push(v - 0x100000000 if v & _SIGN32 else v)
                elif op == 36:    # i32.mul
                    b = pop(); a = pop()
                    v = (a * b) & _MASK32
                    push(v - 0x100000000 if v & _SIGN32 else v)
                elif op == 84:    # f64.add
                    b = pop(); push(pop() + b)
                elif op == 85:    # f64.sub
                    b = pop(); push(pop() - b)
                elif op == 86:    # f64.mul
                    b = pop(); push(pop() * b)
                elif op == 87:    # f64.div
                    b = pop(); a = pop()
                    if b == 0.0:
                        if a == 0.0 or a != a:
                            push(math.nan)
                        else:
                            push(math.copysign(math.inf, a) *
                                 math.copysign(1.0, b))
                    else:
                        push(a / b)
                elif op == 8:     # br_if (resolved)
                    if pop():
                        del stack[extra:]
                        pc = arg
                elif op == 7:     # br (resolved; also synthesised for else)
                    if extra is not None:
                        del stack[extra:]
                    pc = arg
                elif op == 4:     # if (resolved false-target)
                    if not pop():
                        pc = arg
                elif op in (2, 3, 6, 1):  # block/loop/end/nop markers
                    pass
                elif op == 15:    # local.tee
                    locals_[arg] = stack[-1]
                elif op == 18:    # i32.load
                    push(mem.load_i32(pop() + arg))
                elif op == 24:    # i32.store
                    v = pop(); mem.store_i32(pop() + arg, v)
                elif op == 20:    # f64.load
                    push(mem.load_f64(pop() + arg))
                elif op == 26:    # f64.store
                    v = pop(); mem.store_f64(pop() + arg, v)
                elif op == 19:    # i64.load
                    push(mem.load_i64(pop() + arg))
                elif op == 25:    # i64.store
                    v = pop(); mem.store_i64(pop() + arg, v)
                elif op == 21:    # i32.load8_u
                    push(mem.load_u8(pop() + arg))
                elif op == 22:    # i32.load8_s
                    push(mem.load_s8(pop() + arg))
                elif op == 23:    # i32.load16_u
                    push(mem.load_u16(pop() + arg))
                elif op == 27:    # i32.store8
                    v = pop(); mem.store_u8(pop() + arg, v)
                elif op == 28:    # i32.store16
                    v = pop(); mem.store_u16(pop() + arg, v)
                elif op == 16:    # global.get
                    push(gvals[arg])
                elif op == 17:    # global.set
                    gvals[arg] = pop()
                elif op == 10:    # call
                    kind, target, ftype = self._funcs[arg]
                    nargs = len(ftype.params)
                    call_args = stack[len(stack) - nargs:] if nargs else []
                    if nargs:
                        del stack[len(stack) - nargs:]
                    stats.calls += 1
                    if kind == "host":
                        stats.host_calls += 1
                        stats.boundary_cycles += self.boundary_cost
                        result = target(self, *call_args)
                    else:
                        # Flush counters so callee accumulates correctly.
                        stats.cycles += cycles
                        stats.instructions += instret
                        cycles = 0.0
                        instret = 0
                        self._instr_budget = budget
                        result = self._run(target, call_args)
                        budget = self._instr_budget
                    if ftype.results:
                        push(result)
                elif op == 9:     # return
                    break
                # Comparisons (i32).
                elif op == 51:    # i32.eqz
                    push(1 if pop() == 0 else 0)
                elif op == 52:
                    b = pop(); push(1 if pop() == b else 0)
                elif op == 53:
                    b = pop(); push(1 if pop() != b else 0)
                elif op == 54:
                    b = pop(); push(1 if pop() < b else 0)
                elif op == 55:
                    b = pop(); push(1 if (pop() & _MASK32) < (b & _MASK32) else 0)
                elif op == 56:
                    b = pop(); push(1 if pop() > b else 0)
                elif op == 57:
                    b = pop(); push(1 if (pop() & _MASK32) > (b & _MASK32) else 0)
                elif op == 58:
                    b = pop(); push(1 if pop() <= b else 0)
                elif op == 59:
                    b = pop(); push(1 if (pop() & _MASK32) <= (b & _MASK32) else 0)
                elif op == 60:
                    b = pop(); push(1 if pop() >= b else 0)
                elif op == 61:
                    b = pop(); push(1 if (pop() & _MASK32) >= (b & _MASK32) else 0)
                # f64 comparisons.
                elif op == 95:
                    b = pop(); push(1 if pop() == b else 0)
                elif op == 96:
                    b = pop(); push(1 if pop() != b else 0)
                elif op == 97:
                    b = pop(); push(1 if pop() < b else 0)
                elif op == 98:
                    b = pop(); push(1 if pop() > b else 0)
                elif op == 99:
                    b = pop(); push(1 if pop() <= b else 0)
                elif op == 100:
                    b = pop(); push(1 if pop() >= b else 0)
                # i32 bitwise / shifts / division.
                elif op == 41:    # i32.and
                    b = pop(); push(_wrap32(pop() & b))
                elif op == 42:    # i32.or
                    b = pop(); push(_wrap32(pop() | b))
                elif op == 43:    # i32.xor
                    b = pop(); push(_wrap32(pop() ^ b))
                elif op == 44:    # i32.shl
                    b = pop() & 31
                    v = (pop() << b) & _MASK32
                    push(v - 0x100000000 if v & _SIGN32 else v)
                elif op == 45:    # i32.shr_s
                    b = pop() & 31; push(pop() >> b)
                elif op == 46:    # i32.shr_u
                    b = pop() & 31
                    v = (pop() & _MASK32) >> b
                    push(v - 0x100000000 if v & _SIGN32 else v)
                elif op == 47:    # i32.rotl
                    b = pop() & 31; u = pop() & _MASK32
                    v = ((u << b) | (u >> (32 - b))) & _MASK32 if b else u
                    push(v - 0x100000000 if v & _SIGN32 else v)
                elif op == 37:    # i32.div_s
                    b = pop(); a = pop()
                    if b == 0:
                        raise TrapError("integer divide by zero")
                    q = abs(a) // abs(b)
                    push(_wrap32(q if (a < 0) == (b < 0) else -q))
                elif op == 38:    # i32.div_u
                    b = pop() & _MASK32; a = pop() & _MASK32
                    if b == 0:
                        raise TrapError("integer divide by zero")
                    push(_wrap32(a // b))
                elif op == 39:    # i32.rem_s
                    b = pop(); a = pop()
                    if b == 0:
                        raise TrapError("integer divide by zero")
                    r = abs(a) % abs(b)
                    push(-r if a < 0 else r)
                elif op == 40:    # i32.rem_u
                    b = pop() & _MASK32; a = pop() & _MASK32
                    if b == 0:
                        raise TrapError("integer divide by zero")
                    push(_wrap32(a % b))
                # i64.
                elif op == 62:
                    b = pop(); push(_wrap64(pop() + b))
                elif op == 63:
                    b = pop(); push(_wrap64(pop() - b))
                elif op == 64:
                    b = pop(); push(_wrap64(pop() * b))
                elif op == 65:    # i64.div_s
                    b = pop(); a = pop()
                    if b == 0:
                        raise TrapError("integer divide by zero")
                    q = abs(a) // abs(b)
                    push(_wrap64(q if (a < 0) == (b < 0) else -q))
                elif op == 66:    # i64.div_u
                    b = pop() & _MASK64; a = pop() & _MASK64
                    if b == 0:
                        raise TrapError("integer divide by zero")
                    push(_wrap64(a // b))
                elif op == 67:    # i64.rem_s
                    b = pop(); a = pop()
                    if b == 0:
                        raise TrapError("integer divide by zero")
                    r = abs(a) % abs(b)
                    push(-r if a < 0 else r)
                elif op == 68:    # i64.rem_u
                    b = pop() & _MASK64; a = pop() & _MASK64
                    if b == 0:
                        raise TrapError("integer divide by zero")
                    push(_wrap64(a % b))
                elif op == 69:
                    b = pop(); push(_wrap64(pop() & b))
                elif op == 70:
                    b = pop(); push(_wrap64(pop() | b))
                elif op == 71:
                    b = pop(); push(_wrap64(pop() ^ b))
                elif op == 72:    # i64.shl
                    b = pop() & 63; push(_wrap64(pop() << b))
                elif op == 73:    # i64.shr_s
                    b = pop() & 63; push(pop() >> b)
                elif op == 74:    # i64.shr_u
                    b = pop() & 63; push(_wrap64((pop() & _MASK64) >> b))
                elif op == 75:
                    push(1 if pop() == 0 else 0)
                elif op == 76:
                    b = pop(); push(1 if pop() == b else 0)
                elif op == 77:
                    b = pop(); push(1 if pop() != b else 0)
                elif op == 78:
                    b = pop(); push(1 if pop() < b else 0)
                elif op == 79:
                    b = pop(); push(1 if (pop() & _MASK64) < (b & _MASK64) else 0)
                elif op == 80:
                    b = pop(); push(1 if pop() > b else 0)
                elif op == 81:
                    b = pop(); push(1 if (pop() & _MASK64) > (b & _MASK64) else 0)
                elif op == 82:
                    b = pop(); push(1 if pop() <= b else 0)
                elif op == 83:
                    b = pop(); push(1 if pop() >= b else 0)
                # Unary f64 / misc.
                elif op == 88:    # f64.sqrt (NaN for negative input, per spec)
                    v = pop()
                    push(math.nan if v < 0 else math.sqrt(v))
                elif op == 89:
                    push(abs(pop()))
                elif op == 90:
                    push(-pop())
                elif op == 91:
                    b = pop(); a = pop(); push(min(a, b))
                elif op == 92:
                    b = pop(); a = pop(); push(max(a, b))
                elif op == 93:
                    push(float(math.floor(pop())))
                elif op == 94:
                    push(float(math.ceil(pop())))
                # Conversions.
                elif op == 101:   # i32.wrap_i64
                    push(_wrap32(pop()))
                elif op == 102 or op == 103:  # i64.extend_i32_s/u
                    v = pop()
                    push(v if op == 102 else v & _MASK32)
                elif op == 104:   # f64.convert_i32_s
                    push(float(pop()))
                elif op == 105:   # f64.convert_i32_u
                    push(float(pop() & _MASK32))
                elif op == 106:   # f64.convert_i64_s
                    push(float(pop()))
                elif op == 107:   # i32.trunc_f64_s
                    v = pop()
                    # Valid iff trunc(v) fits i32, i.e. v strictly inside
                    # (-2^31 - 1, 2^31): both boundary doubles trap.
                    if v != v or v >= 2147483648.0 or v <= -2147483649.0:
                        raise TrapError("invalid conversion to integer")
                    push(int(v))
                elif op == 108:   # i64.trunc_f64_s
                    v = pop()
                    # Only the upper bound is exclusive: -2^63 is exactly
                    # representable as f64 and is a valid i64, while no
                    # double lies strictly between -2^63 - 1 and -2^63.
                    if v != v or v >= 9223372036854775808.0 \
                            or v < -9223372036854775808.0:
                        raise TrapError("invalid conversion to integer")
                    push(int(v))
                elif op == 109:   # i64.reinterpret_f64
                    import struct as _s
                    push(_wrap64(_s.unpack("<q", _s.pack("<d", pop()))[0]))
                elif op == 110:   # f64.reinterpret_i64
                    import struct as _s
                    push(_s.unpack("<d", _s.pack("<q", pop()))[0])
                elif op == 48:    # i32.clz
                    v = pop() & _MASK32
                    push(32 - v.bit_length())
                elif op == 49:    # i32.ctz
                    v = pop() & _MASK32
                    push(32 if v == 0 else (v & -v).bit_length() - 1)
                elif op == 50:    # i32.popcnt
                    push(bin(pop() & _MASK32).count("1"))
                elif op == 11:    # drop
                    pop()
                elif op == 12:    # select
                    c = pop(); b = pop(); a = pop()
                    push(a if c else b)
                elif op == 30:    # memory.grow
                    old = mem.grow(pop())
                    if old >= 0:
                        mem.grow_count += 1
                        stats.memory_grows += 1
                    push(old)
                elif op == 29:    # memory.size
                    push(mem.pages)
                elif op == 0:     # unreachable
                    raise TrapError("unreachable executed")
                else:
                    raise TrapError(f"unimplemented opcode {op}")
        finally:
            stats.cycles += cycles
            stats.instructions += instret
            self._instr_budget = budget

        if fn.results:
            return stack[-1] if stack else 0
        return None


class WasmVM:
    """Factory tying modules to execution parameters.

    The engine profile layer (``repro.env``) supplies ``boundary_cost`` and
    converts the instance's cycle counts into milliseconds.
    """

    def __init__(self, boundary_cost=40.0, max_instructions=None,
                 tier_policy=None):
        self.boundary_cost = boundary_cost
        self.max_instructions = max_instructions
        self.tier_policy = tier_policy

    def instantiate(self, module, imports=None):
        return WasmInstance(module, imports=imports,
                            boundary_cost=self.boundary_cost,
                            max_instructions=self.max_instructions,
                            tier_policy=self.tier_policy)


# Bound at the bottom to break the cycle: the codegen tier imports this
# module's wrap helpers (_wrap32, _wrap64, ...) at its top.
from repro.wasm import codegen as _codegen    # noqa: E402
