"""Modeled startup compilation: cost models per compiler tier.

Before this module existed, startup latency was an *input*: every profile
carried fixed per-instruction compile constants and the tier controller
multiplied them by a size.  Titzer's baseline-compiler study frames the
real tradeoff — compile speed vs code quality — as a frontier, and walking
that frontier needs compile cost to be *computed* from what the compiler
actually does.  This module supplies the three cost models the rest of the
stack shares:

* :class:`PerInstrCompiler` — the calibrated legacy model: cost strictly
  proportional to static size.  Default browser profiles use it, which is
  what keeps the golden outputs byte-identical across the refactor.
* :class:`SinglePassCompiler` — a baseline (single-pass) compiler: one
  linear scan over the code, with per-op-class emit weights (memory ops
  carry bounds-check emission, calls carry trampoline setup) and a
  per-function prologue overhead.  Cost depends on the *opclass mix* of
  the unit, not just its size.
* :class:`PassPipelineCompiler` — an optimizing compiler whose cost is
  derived from recorded per-pass telemetry (``pass_telemetry`` entries:
  IR nodes visited and rewrites applied per pass) plus a backend lowering
  term ∝ static size.

A :class:`CodeUnit` is the static description a model prices: instruction
count, byte size, function count, opclass census, pass telemetry.  The
tier controller (:mod:`repro.engine.tiering`) combines two models with a
promotion policy and emits a structured :class:`CompilePlan`.

Layering: this module is a leaf below the engines — it may import only the
neutral opclass taxonomy (enforced by ``tools/check_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.opclass import NUM_OP_CLASSES


def normalize_telemetry(entries):
    """Canonical tuple form of ``artifact.meta["pass_telemetry"]``.

    Accepts the recorder's dict entries or already-normalized tuples;
    returns ``((pass_name, nodes_in, nodes_out, rewrites), ...)``.  Wall
    times are dropped on purpose: they are WALL-stability data and must
    not leak into deterministic compile-cost arithmetic.
    """
    out = []
    for entry in entries or ():
        if isinstance(entry, dict):
            out.append((entry["pass"], int(entry["nodes_in"]),
                        int(entry["nodes_out"]), int(entry["rewrites"])))
        else:
            name, nodes_in, nodes_out, rewrites = entry[:4]
            out.append((name, int(nodes_in), int(nodes_out), int(rewrites)))
    return tuple(out)


@dataclass(frozen=True)
class CodeUnit:
    """Static description of one compilation unit (module or program)."""

    name: str = "unit"
    #: Static instruction / bytecode-op count (the legacy size axis).
    static_instrs: int = 0
    #: Encoded size in bytes (drives decode/validate costs).
    code_bytes: int = 0
    #: Number of functions (per-function prologue overhead).
    functions: int = 1
    #: Static count per :class:`~repro.engine.opclass.OpClass` index;
    #: empty when the producer only knows the total size.
    opclass_counts: tuple = ()
    #: Normalized per-pass telemetry ``(pass, nodes_in, nodes_out,
    #: rewrites)`` recorded while the unit was optimized.
    pass_telemetry: tuple = ()

    @classmethod
    def from_counts(cls, name, opclass_counts, *, code_bytes=0,
                    functions=1, pass_telemetry=()):
        """Unit whose size is implied by its opclass census."""
        counts = tuple(int(c) for c in opclass_counts)
        return cls(name=name, static_instrs=sum(counts),
                   code_bytes=code_bytes, functions=functions,
                   opclass_counts=counts,
                   pass_telemetry=normalize_telemetry(pass_telemetry))


@dataclass(frozen=True)
class CompilerModel:
    """One tier's compiler: a name, the code quality it produces
    (execution-cycle multiplier), and a cost model."""

    name: str = "tier"
    #: Execution-cycle multiplier of the code this tier generates.
    exec_factor: float = 1.0

    def compile_cycles(self, unit):
        """Modeled cycles to compile ``unit`` with this tier."""
        raise NotImplementedError

    def function_compile_cycles(self, num_ops):
        """Cycles to promote one function of ``num_ops`` bytecode ops
        (JS-style function tiering, where only the size is known)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PerInstrCompiler(CompilerModel):
    """The calibrated legacy model: cost strictly ∝ static size."""

    cycles_per_instr: float = 1.0

    def compile_cycles(self, unit):
        return unit.static_instrs * self.cycles_per_instr

    def function_compile_cycles(self, num_ops):
        return num_ops * self.cycles_per_instr


@dataclass(frozen=True)
class SinglePassCompiler(CompilerModel):
    """A baseline compiler: one linear pass over the code.

    Cost is the scan itself (∝ instruction count) scaled per op class by
    ``opclass_weights`` — emitting a memory access costs more than an
    ALU op (bounds checks), a call more still (trampolines) — plus a
    fixed prologue/epilogue overhead per function.  Opclasses without an
    explicit weight (and any instructions not covered by the census) emit
    at weight 1.0.
    """

    cycles_per_instr: float = 1.0
    #: ``(opclass_index, weight)`` pairs; kept sparse so the model's repr
    #: stays readable in profile dumps.
    opclass_weights: tuple = ()
    function_overhead_cycles: float = 0.0

    def compile_cycles(self, unit):
        total = self.function_overhead_cycles * unit.functions
        total += unit.static_instrs * self.cycles_per_instr
        counts = unit.opclass_counts
        for idx, weight in self.opclass_weights:
            if idx < len(counts):
                total += counts[idx] * (weight - 1.0) * self.cycles_per_instr
        return total

    def function_compile_cycles(self, num_ops):
        return (num_ops * self.cycles_per_instr
                + self.function_overhead_cycles)


@dataclass(frozen=True)
class PassPipelineCompiler(CompilerModel):
    """An optimizing compiler priced from its own pass telemetry.

    Each recorded pass visits ``nodes_in`` IR nodes and applies
    ``rewrites`` rewrites; the backend then lowers the final code
    (∝ static instruction count).  A unit with no recorded telemetry
    (e.g. ``O0``) pays only the backend term.
    """

    cycles_per_node: float = 1.0
    cycles_per_rewrite: float = 0.0
    backend_cycles_per_instr: float = 1.0

    def compile_cycles(self, unit):
        total = unit.static_instrs * self.backend_cycles_per_instr
        for _name, nodes_in, _nodes_out, rewrites in unit.pass_telemetry:
            total += nodes_in * self.cycles_per_node
            total += rewrites * self.cycles_per_rewrite
        return total

    def function_compile_cycles(self, num_ops):
        # Function promotion re-runs the pipeline over one function's
        # body: ops stand in for IR nodes, plus the backend lowering.
        return num_ops * (self.cycles_per_node
                          + self.backend_cycles_per_instr)


@dataclass(frozen=True)
class CompileCharge:
    """One compile event in a plan."""

    #: ``"compile"`` (at startup) or ``"tier-up"`` (hotness-triggered).
    phase: str
    #: Display name — eager plans use ``"basic+opt"`` for the combined
    #: instantiate-time charge, mirroring the engines' behavior.
    tier: str
    cycles: float
    #: Charged before the first result (startup latency) rather than
    #: concurrently with execution.
    at_startup: bool = True
    #: Per-tier breakdown ``((tier_name, cycles), ...)`` — splits the
    #: combined eager charge for reporting.
    parts: tuple = ()

    def tier_parts(self):
        return self.parts or ((self.tier, self.cycles),)


@dataclass
class CompilePlan:
    """Structured outcome of module tiering: every compile charge, the
    tier-switch point, and the blended execution factor."""

    #: Ordered :class:`CompileCharge` events.
    charges: list
    #: Execution-cycle multiplier (blended across tiers for a lazy
    #: promotion that happened mid-run).
    exec_factor: float
    #: True when the optimizing tier was entered via the hotness threshold.
    tiered_up: bool
    #: Dynamic instruction count at which the tier switch completed
    #: (``None`` when no lazy switch happened).
    switch_instructions: int = None
    #: The unit the plan was computed for.
    unit: CodeUnit = None

    @property
    def compile_cycles(self):
        return sum(c.cycles for c in self.charges)

    @property
    def startup_compile_cycles(self):
        """Compile cycles paid before the first result."""
        return sum(c.cycles for c in self.charges if c.at_startup)

    @property
    def tier_up_cycles(self):
        """Compile cycles charged concurrently with execution."""
        return sum(c.cycles for c in self.charges if not c.at_startup)

    def cycles_by_tier(self):
        """Compile cycles attributed per tier name (eager combined
        charges are split via their recorded parts)."""
        out = {}
        for charge in self.charges:
            for tier, cycles in charge.tier_parts():
                out[tier] = out.get(tier, 0.0) + cycles
        return out


def empty_census():
    """A fresh per-op-class static counter vector."""
    return [0] * NUM_OP_CLASSES
