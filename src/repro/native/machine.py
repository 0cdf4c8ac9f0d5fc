"""Register-machine ISA and executor for the x86 model.

Instructions are tuples ``(op, dst, a, b, vector)``:

* ``dst``/``a``/``b`` are virtual register indices (immediates are loaded
  with ``MOVI``); loads/stores use ``a`` as the address register and ``b``
  as a constant byte offset.
* ``vector`` marks instructions inside a vectorized loop body: they execute
  normally (per-lane semantics are preserved because the loop still runs
  every iteration) but are charged at SIMD throughput — 4 lanes per issue
  with a small overhead factor.

The cost model is a classic per-op latency table; the byte-size model gives
the Fig. 6 code-size axis (SIMD encodings with VEX prefixes are longer,
which is why ``-Ofast``'s x86 output is ~10% larger).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.cache.derived import Derived
from repro.engine.codegen import fast_interp_enabled
from repro.engine.hostlib import native_libm
from repro.engine.opclass import OpClass
from repro.engine.stats import EngineStats
from repro.errors import TrapError
from repro.obs import new_profile

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _w32(v):
    v &= _MASK32
    return v - 0x100000000 if v & 0x80000000 else v


def _w64(v):
    v &= _MASK64
    return v - 0x10000000000000000 if v & 0x8000000000000000 else v


class NOp(enum.IntEnum):
    MOVI = 0
    MOV = 1
    # 32-bit integer ALU.
    ADD32 = 2; SUB32 = 3; MUL32 = 4; DIVS32 = 5; DIVU32 = 6
    REMS32 = 7; REMU32 = 8; AND32 = 9; OR32 = 10; XOR32 = 11
    SHL32 = 12; SHRS32 = 13; SHRU32 = 14; NEG32 = 15; NOT32 = 16
    BNOT32 = 17
    # 64-bit integer ALU.
    ADD64 = 18; SUB64 = 19; MUL64 = 20; DIVS64 = 21; DIVU64 = 22
    REMS64 = 23; REMU64 = 24; AND64 = 25; OR64 = 26; XOR64 = 27
    SHL64 = 28; SHRS64 = 29; SHRU64 = 30; NEG64 = 31; BNOT64 = 32
    NOT64 = 33
    # Comparisons (set 0/1).
    EQ32 = 34; NE32 = 35; LTS32 = 36; LTU32 = 37; LES32 = 38; LEU32 = 39
    GTS32 = 40; GTU32 = 41; GES32 = 42; GEU32 = 43
    EQ64 = 44; NE64 = 45; LTS64 = 46; LTU64 = 47; LES64 = 48; LEU64 = 49
    GTS64 = 50; GTU64 = 51; GES64 = 52; GEU64 = 53
    FEQ = 54; FNE = 55; FLT = 56; FLE = 57; FGT = 58; FGE = 59
    # Floating point.
    FADD = 60; FSUB = 61; FMUL = 62; FDIV = 63; FSQRT = 64; FABS = 65
    FNEG = 66; FFLOOR = 67; FCEIL = 68
    # Conversions.
    I2F_S32 = 69; I2F_U32 = 70; I2F_S64 = 71; F2I32 = 72; F2I64 = 73
    SX32TO64 = 74; ZX32TO64 = 75; TRUNC64TO32 = 76
    # Memory.
    LOAD8U = 77; LOAD8S = 78; LOAD16U = 79; LOAD32 = 80; LOAD64 = 81
    LOADF = 82
    STORE8 = 83; STORE16 = 84; STORE32 = 85; STORE64 = 86; STOREF = 87
    # Control.
    JMP = 88; JZ = 89; JNZ = 90; CALL = 91; RET = 92; RETV = 93
    # Host (print / libm handled natively at full speed on x86).
    HOSTCALL = 94
    SELECT = 95


def _cost_table():
    cost = [1.0] * (max(NOp) + 1)
    for op in (NOp.MUL32, NOp.MUL64, NOp.FMUL):
        cost[op] = 3.0
    for op in (NOp.DIVS32, NOp.DIVU32, NOp.REMS32, NOp.REMU32):
        cost[op] = 18.0
    for op in (NOp.DIVS64, NOp.DIVU64, NOp.REMS64, NOp.REMU64):
        cost[op] = 24.0
    cost[NOp.FDIV] = 14.0
    cost[NOp.FSQRT] = 13.0
    for op in range(NOp.LOAD8U, NOp.LOADF + 1):
        cost[op] = 2.0
    for op in range(NOp.STORE8, NOp.STOREF + 1):
        cost[op] = 2.0
    cost[NOp.CALL] = 6.0
    cost[NOp.HOSTCALL] = 20.0
    cost[NOp.JMP] = 1.0
    cost[NOp.JZ] = 1.2
    cost[NOp.JNZ] = 1.2
    cost[NOp.MOVI] = 0.5
    cost[NOp.MOV] = 0.5
    for op in (NOp.RET, NOp.RETV):
        cost[op] = 2.0
    return cost


N_COST = _cost_table()


def _class_table():
    """Attribute each native op to the shared :class:`OpClass` taxonomy so
    Table 12-style operation profiles can be compared across engines."""
    table = [OpClass.OTHER] * (max(NOp) + 1)
    groups = {
        OpClass.CONST: (NOp.MOVI,),
        OpClass.LOCAL: (NOp.MOV,),
        OpClass.ADD: (NOp.ADD32, NOp.SUB32, NOp.NEG32, NOp.ADD64, NOp.SUB64,
                      NOp.NEG64, NOp.FADD, NOp.FSUB, NOp.FNEG),
        OpClass.MUL: (NOp.MUL32, NOp.MUL64, NOp.FMUL),
        OpClass.DIV: (NOp.DIVS32, NOp.DIVU32, NOp.DIVS64, NOp.DIVU64,
                      NOp.FDIV),
        OpClass.REM: (NOp.REMS32, NOp.REMU32, NOp.REMS64, NOp.REMU64),
        OpClass.SHIFT: (NOp.SHL32, NOp.SHRS32, NOp.SHRU32, NOp.SHL64,
                        NOp.SHRS64, NOp.SHRU64),
        OpClass.AND: (NOp.AND32, NOp.AND64),
        OpClass.OR: (NOp.OR32, NOp.OR64),
        OpClass.XOR: (NOp.XOR32, NOp.XOR64),
        OpClass.CMP: tuple(NOp(i) for i in range(NOp.EQ32, NOp.FGE + 1)) +
                     (NOp.NOT32, NOp.NOT64),
        OpClass.CONVERT: (NOp.I2F_S32, NOp.I2F_U32, NOp.I2F_S64, NOp.F2I32,
                          NOp.F2I64, NOp.SX32TO64, NOp.ZX32TO64,
                          NOp.TRUNC64TO32),
        OpClass.LOAD: tuple(NOp(i) for i in range(NOp.LOAD8U,
                                                  NOp.LOADF + 1)),
        OpClass.STORE: tuple(NOp(i) for i in range(NOp.STORE8,
                                                   NOp.STOREF + 1)),
        OpClass.CONTROL: (NOp.JMP, NOp.JZ, NOp.JNZ, NOp.RET, NOp.RETV,
                          NOp.SELECT),
        OpClass.CALL: (NOp.CALL, NOp.HOSTCALL),
    }
    for cls, ops in groups.items():
        for op in ops:
            table[op] = cls
    return table


N_OP_CLASS = _class_table()

#: Fraction of scalar cost charged per vector-marked instruction: 4 lanes
#: per issue with ~15% packing overhead.
VECTOR_COST_FACTOR = 0.29
#: Vector (VEX-prefixed) encodings are longer.
VECTOR_EXTRA_BYTES = 2


def _byte_size(op, vector):
    if op == NOp.MOVI:
        base = 7
    elif op in (NOp.JMP, NOp.JZ, NOp.JNZ, NOp.CALL):
        base = 5
    elif NOp.LOAD8U <= op <= NOp.STOREF:
        base = 4
    elif op in (NOp.HOSTCALL,):
        base = 7
    else:
        base = 3
    return base + (VECTOR_EXTRA_BYTES if vector else 0)


@dataclass
class NativeFunction:
    name: str
    nparams: int
    nregs: int
    code: list                     # list of (op, dst, a, b, vector)
    returns_value: bool = False
    #: The codegen translator's plans for ``code``, shared by every
    #: machine that runs the program; pickles empty.
    plans: Derived = field(default_factory=Derived, repr=False,
                           compare=False)


@dataclass
class NativeProgram:
    name: str = "program"
    functions: dict = field(default_factory=dict)
    memory_bytes: int = 0
    data: list = field(default_factory=list)   # (offset, bytes)
    meta: dict = field(default_factory=dict)


@dataclass
class NativeStats(EngineStats):
    """Shared :class:`~repro.engine.stats.EngineStats` protocol plus the
    native machine's captured stdout."""

    prints: list = field(default_factory=list)


def program_byte_size(program):
    """Code size in bytes (the Fig. 6 metric)."""
    total = 64  # ELF-ish header/fixed overhead
    for fn in program.functions.values():
        for op, _d, _a, _b, vector in fn.code:
            total += _byte_size(op, vector)
    return total


def program_code_unit(program):
    """The program as a :class:`~repro.engine.compilemodel.CodeUnit`
    (static opclass census + byte size), so an ahead-of-time compile can
    be priced by a modeled compiler."""
    from repro.engine.compilemodel import CodeUnit, normalize_telemetry
    counts = [0] * (max(OpClass) + 1)
    total_ops = 0
    for fn in program.functions.values():
        for op, _d, _a, _b, _vector in fn.code:
            counts[N_OP_CLASS[op]] += 1
            total_ops += 1
    return CodeUnit(
        name=program.name,
        static_instrs=total_ops,
        code_bytes=program_byte_size(program),
        functions=len(program.functions),
        opclass_counts=tuple(counts),
        pass_telemetry=normalize_telemetry(
            program.meta.get("pass_telemetry", ())))


class _Machine:
    def __init__(self, program, max_instructions=None, compile_model=None):
        self.program = program
        self.memory = bytearray(program.memory_bytes)
        for offset, data in program.data:
            self.memory[offset:offset + len(data)] = data
        self.stats = NativeStats()
        if compile_model is not None:
            # Native code is compiled ahead of time: one charge for the
            # whole program, priced by the model (no tiering).
            self.stats.compile_cycles += \
                compile_model.compile_cycles(program_code_unit(program))
        self.budget = max_instructions
        # A budgeted machine runs the reference ladder, which traps at
        # the exact instruction with the exact stats.
        self._fast = fast_interp_enabled() and max_instructions is None
        self._profile = new_profile("native")
        #: id(fn) → generated runner (or ``_codegen.DECLINED``); runners
        #: pre-bind this machine's stats/memory, so the cache is per
        #: machine.  Keyed by id because NativeFunction is an (unhashable)
        #: dataclass; the program keeps every function alive, so ids are
        #: stable for the machine's life.
        self._codegen = {}

    def call(self, name, *args):
        fn = self.program.functions[name]
        return self._run(fn, list(args))

    def _run(self, fn, args):
        if self._profile is not None:
            self._profile.call(fn.name)
        if self._fast:
            cg = self._codegen.get(id(fn))
            if cg is None:
                cg = _codegen.translate(fn, self) or _codegen.DECLINED
                self._codegen[id(fn)] = cg
            if cg is not _codegen.DECLINED:
                return cg(args)
        regs = [0] * fn.nregs
        regs[:len(args)] = args
        return self._run_from(fn, regs)

    def _run_from(self, fn, regs):
        """Reference interpreter loop — the differential oracle for the
        codegen tier, and where declined functions and budgeted machines
        run."""
        import struct as _s
        code = fn.code
        n = len(code)
        stats = self.stats
        mem = self.memory
        klass = N_OP_CLASS
        counts = stats.op_counts
        prof = self._profile
        fprof = prof.frame(fn.name) if prof is not None else None
        pc = 0
        cycles = 0.0
        instret = 0
        try:
            while pc < n:
                op, dst, a, b, vector = code[pc]
                cycles += N_COST[op] * (VECTOR_COST_FACTOR if vector
                                        else 1.0)
                counts[klass[op]] += 1
                instret += 1
                if fprof is not None:
                    # int() flattens the NOp enum so profile keys pickle
                    # and stringify as plain integers.
                    key = int(op) + (256 if vector else 0)
                    fprof[key] = fprof.get(key, 0) + 1
                if self.budget is not None:
                    self.budget -= 1
                    if self.budget < 0:
                        raise TrapError("instruction budget exhausted")
                pc += 1
                if op == NOp.MOVI:
                    regs[dst] = a
                elif op == NOp.MOV:
                    regs[dst] = regs[a]
                elif op == NOp.ADD32:
                    regs[dst] = _w32(regs[a] + regs[b])
                elif op == NOp.SUB32:
                    regs[dst] = _w32(regs[a] - regs[b])
                elif op == NOp.MUL32:
                    regs[dst] = _w32(regs[a] * regs[b])
                elif op == NOp.FADD:
                    regs[dst] = regs[a] + regs[b]
                elif op == NOp.FSUB:
                    regs[dst] = regs[a] - regs[b]
                elif op == NOp.FMUL:
                    regs[dst] = regs[a] * regs[b]
                elif op == NOp.FDIV:
                    x, y = regs[a], regs[b]
                    if y == 0.0:
                        regs[dst] = (math.nan if x == 0.0 or x != x else
                                     math.copysign(math.inf, x) *
                                     math.copysign(1.0, y))
                    else:
                        regs[dst] = x / y
                elif op == NOp.JZ:
                    if not regs[a]:
                        pc = dst
                elif op == NOp.JNZ:
                    if regs[a]:
                        pc = dst
                elif op == NOp.JMP:
                    pc = dst
                elif op == NOp.LOADF:
                    regs[dst] = _s.unpack_from("<d", mem, regs[a] + b)[0]
                elif op == NOp.STOREF:
                    _s.pack_into("<d", mem, regs[a] + b, regs[dst])
                elif op == NOp.LOAD32:
                    regs[dst] = _s.unpack_from("<i", mem, regs[a] + b)[0]
                elif op == NOp.STORE32:
                    _s.pack_into("<I", mem, regs[a] + b,
                                 regs[dst] & _MASK32)
                elif op == NOp.LOAD64:
                    regs[dst] = _s.unpack_from("<q", mem, regs[a] + b)[0]
                elif op == NOp.STORE64:
                    _s.pack_into("<Q", mem, regs[a] + b,
                                 regs[dst] & _MASK64)
                elif op == NOp.LOAD8U:
                    regs[dst] = mem[regs[a] + b]
                elif op == NOp.LOAD8S:
                    v = mem[regs[a] + b]
                    regs[dst] = v - 256 if v >= 128 else v
                elif op == NOp.LOAD16U:
                    addr = regs[a] + b
                    regs[dst] = mem[addr] | (mem[addr + 1] << 8)
                elif op == NOp.STORE8:
                    mem[regs[a] + b] = regs[dst] & 0xFF
                elif op == NOp.STORE16:
                    addr = regs[a] + b
                    v = regs[dst] & 0xFFFF
                    mem[addr] = v & 0xFF
                    mem[addr + 1] = v >> 8
                elif NOp.EQ32 <= op <= NOp.FGE:
                    x, y = regs[a], regs[b]
                    regs[dst] = 1 if _compare(op, x, y) else 0
                elif op == NOp.DIVS32 or op == NOp.DIVS64:
                    x, y = regs[a], regs[b]
                    if y == 0:
                        raise TrapError("integer divide by zero")
                    q = abs(x) // abs(y)
                    q = q if (x < 0) == (y < 0) else -q
                    regs[dst] = _w32(q) if op == NOp.DIVS32 else _w64(q)
                elif op == NOp.DIVU32:
                    y = regs[b] & _MASK32
                    if y == 0:
                        raise TrapError("integer divide by zero")
                    regs[dst] = _w32((regs[a] & _MASK32) // y)
                elif op == NOp.DIVU64:
                    y = regs[b] & _MASK64
                    if y == 0:
                        raise TrapError("integer divide by zero")
                    regs[dst] = _w64((regs[a] & _MASK64) // y)
                elif op == NOp.REMS32 or op == NOp.REMS64:
                    x, y = regs[a], regs[b]
                    if y == 0:
                        raise TrapError("integer divide by zero")
                    r = abs(x) % abs(y)
                    regs[dst] = -r if x < 0 else r
                elif op == NOp.REMU32:
                    y = regs[b] & _MASK32
                    if y == 0:
                        raise TrapError("integer divide by zero")
                    regs[dst] = _w32((regs[a] & _MASK32) % y)
                elif op == NOp.REMU64:
                    y = regs[b] & _MASK64
                    if y == 0:
                        raise TrapError("integer divide by zero")
                    regs[dst] = _w64((regs[a] & _MASK64) % y)
                elif op == NOp.AND32:
                    regs[dst] = _w32(regs[a] & regs[b])
                elif op == NOp.OR32:
                    regs[dst] = _w32(regs[a] | regs[b])
                elif op == NOp.XOR32:
                    regs[dst] = _w32(regs[a] ^ regs[b])
                elif op == NOp.SHL32:
                    regs[dst] = _w32(regs[a] << (regs[b] & 31))
                elif op == NOp.SHRS32:
                    regs[dst] = regs[a] >> (regs[b] & 31)
                elif op == NOp.SHRU32:
                    regs[dst] = _w32((regs[a] & _MASK32) >> (regs[b] & 31))
                elif op == NOp.ADD64:
                    regs[dst] = _w64(regs[a] + regs[b])
                elif op == NOp.SUB64:
                    regs[dst] = _w64(regs[a] - regs[b])
                elif op == NOp.MUL64:
                    regs[dst] = _w64(regs[a] * regs[b])
                elif op == NOp.AND64:
                    regs[dst] = _w64(regs[a] & regs[b])
                elif op == NOp.OR64:
                    regs[dst] = _w64(regs[a] | regs[b])
                elif op == NOp.XOR64:
                    regs[dst] = _w64(regs[a] ^ regs[b])
                elif op == NOp.SHL64:
                    regs[dst] = _w64(regs[a] << (regs[b] & 63))
                elif op == NOp.SHRS64:
                    regs[dst] = regs[a] >> (regs[b] & 63)
                elif op == NOp.SHRU64:
                    regs[dst] = _w64((regs[a] & _MASK64) >> (regs[b] & 63))
                elif op == NOp.NEG32:
                    regs[dst] = _w32(-regs[a])
                elif op == NOp.NEG64:
                    regs[dst] = _w64(-regs[a])
                elif op == NOp.NOT32 or op == NOp.NOT64:
                    regs[dst] = 1 if regs[a] == 0 else 0
                elif op == NOp.BNOT32:
                    regs[dst] = _w32(~regs[a])
                elif op == NOp.BNOT64:
                    regs[dst] = _w64(~regs[a])
                elif op == NOp.FSQRT:
                    v = regs[a]
                    regs[dst] = math.nan if v < 0 else math.sqrt(v)
                elif op == NOp.FABS:
                    regs[dst] = abs(regs[a])
                elif op == NOp.FNEG:
                    regs[dst] = -regs[a]
                elif op == NOp.FFLOOR:
                    regs[dst] = float(math.floor(regs[a]))
                elif op == NOp.FCEIL:
                    regs[dst] = float(math.ceil(regs[a]))
                elif op == NOp.I2F_S32 or op == NOp.I2F_S64:
                    regs[dst] = float(regs[a])
                elif op == NOp.I2F_U32:
                    regs[dst] = float(regs[a] & _MASK32)
                elif op == NOp.F2I32:
                    v = regs[a]
                    # Same boundary semantics as the Wasm VM's
                    # i32.trunc_f64_s: valid iff trunc(v) fits i32, so
                    # doubles down to (but excluding) -2^31 - 1 convert.
                    if v != v or v >= 2147483648.0 or v <= -2147483649.0:
                        raise TrapError("invalid f64→i32 conversion")
                    regs[dst] = int(v)
                elif op == NOp.F2I64:
                    v = regs[a]
                    # -2^63 is representable and valid; only the upper
                    # bound is exclusive (mirrors i64.trunc_f64_s).
                    if v != v or v >= 9223372036854775808.0 \
                            or v < -9223372036854775808.0:
                        raise TrapError("invalid f64→i64 conversion")
                    regs[dst] = int(v)
                elif op == NOp.SX32TO64:
                    regs[dst] = regs[a]
                elif op == NOp.ZX32TO64:
                    regs[dst] = regs[a] & _MASK32
                elif op == NOp.TRUNC64TO32:
                    regs[dst] = _w32(regs[a])
                elif op == NOp.CALL:
                    name, arg_regs = a
                    callee = self.program.functions[name]
                    stats.cycles += cycles
                    stats.instructions += instret
                    cycles = 0.0
                    instret = 0
                    result = self._run(callee, [regs[r] for r in arg_regs])
                    if dst >= 0:
                        regs[dst] = result
                elif op == NOp.HOSTCALL:
                    name, arg_regs = a
                    result = self._host(name, [regs[r] for r in arg_regs])
                    if dst >= 0:
                        regs[dst] = result
                elif op == NOp.SELECT:
                    cond_reg, then_reg, else_reg = a
                    regs[dst] = regs[then_reg] if regs[cond_reg] \
                        else regs[else_reg]
                elif op == NOp.RETV:
                    stats.cycles += cycles
                    stats.instructions += instret
                    return regs[a]
                elif op == NOp.RET:
                    break
                else:
                    raise TrapError(f"unimplemented native op {op}")
        finally:
            if instret:
                stats.cycles += cycles
                stats.instructions += instret
        return None

    def _host(self, name, args):
        self.stats.host_calls += 1
        if name.startswith("__print"):
            self.stats.prints.append(args[0])
            return 0
        # libm runs at home on x86: HOSTCALL's op cost already covers it.
        return native_libm(name)(*args)


def _compare(op, x, y):
    if op in (NOp.EQ32, NOp.EQ64, NOp.FEQ):
        return x == y
    if op in (NOp.NE32, NOp.NE64, NOp.FNE):
        return x != y
    if op in (NOp.LTS32, NOp.LTS64, NOp.FLT):
        return x < y
    if op in (NOp.LES32, NOp.LES64, NOp.FLE):
        return x <= y
    if op in (NOp.GTS32, NOp.GTS64, NOp.FGT):
        return x > y
    if op in (NOp.GES32, NOp.GES64, NOp.FGE):
        return x >= y
    if op == NOp.LTU32:
        return (x & _MASK32) < (y & _MASK32)
    if op == NOp.LEU32:
        return (x & _MASK32) <= (y & _MASK32)
    if op == NOp.GTU32:
        return (x & _MASK32) > (y & _MASK32)
    if op == NOp.GEU32:
        return (x & _MASK32) >= (y & _MASK32)
    if op == NOp.LTU64:
        return (x & _MASK64) < (y & _MASK64)
    if op == NOp.LEU64:
        return (x & _MASK64) <= (y & _MASK64)
    if op == NOp.GTU64:
        return (x & _MASK64) > (y & _MASK64)
    if op == NOp.GEU64:
        return (x & _MASK64) >= (y & _MASK64)
    raise TrapError(f"bad comparison op {op}")


def execute_program(program, entry="main", args=(), max_instructions=None,
                    compile_model=None):
    """Run a native program; returns (result, NativeStats).

    ``compile_model`` (a :class:`~repro.engine.compilemodel.
    CompilerModel`) charges the ahead-of-time compile of the whole
    program into ``stats.compile_cycles``; ``None`` keeps the legacy
    free-compile accounting."""
    machine = _Machine(program, max_instructions,
                       compile_model=compile_model)
    result = machine.call(entry, *args)
    return result, machine.stats


# Bound at the bottom to break the cycle: the codegen tier imports this
# module's tables (N_COST, _w32, ...) at its top.
from repro.native import codegen as _codegen    # noqa: E402
