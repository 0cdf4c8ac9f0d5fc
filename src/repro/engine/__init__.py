"""The shared engine core.

All three execution engines — the Wasm VM (:mod:`repro.wasm.vm`), the JS
engine (:mod:`repro.jsengine`), and the native x86 machine
(:mod:`repro.native.machine`) — plug into this package instead of
duplicating the mechanisms the paper's comparisons hinge on:

* :mod:`repro.engine.opclass` — the neutral operation-class taxonomy
  (Table 12's ADD/MUL/DIV/... attribution) shared by every instruction
  set, plus the unified :class:`~repro.engine.stats.EngineStats`
  accounting protocol;
* :mod:`repro.engine.tiering` — one parameterized
  :class:`~repro.engine.tiering.TierPolicy` /
  :class:`~repro.engine.tiering.TierController` modeling
  LiftOff→TurboFan and Baseline→Ion (thresholds, per-tier compile cost,
  per-tier code quality), consumed by both the Wasm pipeline and the JS
  JIT;
* :mod:`repro.engine.hostlib` — the single host-shim registry wiring
  ``clibm`` and the ``__print_*``/timer hooks for all engines;
* :mod:`repro.engine.trace` — the structured execution trace (ordered
  phase events with cycle spans, JSON-exportable);
* :mod:`repro.engine.adapter` — the :class:`EngineAdapter` interface the
  harness runs artifacts through.

Layering rule (enforced by ``tests/test_layering.py``): ``wasm``,
``jsengine``, and ``native`` may import from this package but never from
each other.
"""

from repro.engine.adapter import EngineAdapter
from repro.engine.compilemodel import (
    CodeUnit,
    CompileCharge,
    CompilePlan,
    CompilerModel,
    PassPipelineCompiler,
    PerInstrCompiler,
    SinglePassCompiler,
)
from repro.engine.opclass import NUM_OP_CLASSES, OpClass
from repro.engine.stats import EngineStats, new_op_counts
from repro.engine.tiering import TierController, TierPolicy
from repro.engine.trace import ExecutionTrace, TraceEvent

__all__ = [
    "CodeUnit",
    "CompileCharge",
    "CompilePlan",
    "CompilerModel",
    "EngineAdapter",
    "EngineStats",
    "ExecutionTrace",
    "NUM_OP_CLASSES",
    "OpClass",
    "PassPipelineCompiler",
    "PerInstrCompiler",
    "SinglePassCompiler",
    "TierController",
    "TierPolicy",
    "TraceEvent",
    "new_op_counts",
]
