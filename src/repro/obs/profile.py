"""Per-function / per-op execution profiler (``REPRO_PROFILE=1``).

The profile is **integer op-execution counts keyed by raw opcode** (plus
an engine-specific variant bit: JS packs the tier into bits 8+, native
packs the vector flag into bit 8).  Both interpreter tiers execute the
same abstract op stream, so counting ops — never cycles — makes the
profile bit-identical under ``REPRO_FAST_INTERP=0`` and ``=1``: the
reference ladders bump a per-op cell at the charge site, while the
generated code counts block entries and applies precomputed per-block
``(op, count)`` deltas when the frame exits.  Cycles per opclass are
*derived* afterwards from the static cost tables
(``repro.engine.profdecode``).

When profiling is off (the default) ``new_profile`` returns ``None`` and
the engines' hot loops pay one pointer test per frame (reference) or
nothing at all (the codegen tier emits no profiling code) — nothing per
op.

Granularity caveat: the codegen tier attributes a whole block once the
block is entered, so a *trapping* block's ops after the trap are counted
too (the reference ladder counts exactly up to the trap).  The measured
benchmarks never trap, and an engine built with an instruction budget
runs the reference ladder, so its profile is exact wherever the budget
runs out.
"""

from __future__ import annotations

from repro.obs.envflags import env_flag

PROFILE_ENV = "REPRO_PROFILE"


def profile_enabled():
    return env_flag(PROFILE_ENV, default=False)


class EngineProfile:
    """Per-function call counts + per-function {op_key: executed}."""

    __slots__ = ("engine", "calls", "ops")

    def __init__(self, engine):
        self.engine = engine
        self.calls = {}
        self.ops = {}

    def call(self, fname):
        self.calls[fname] = self.calls.get(fname, 0) + 1

    def frame(self, fname):
        """The mutable ``{op_key: count}`` dict for one function — bound
        once per frame by the interpreter loops."""
        cells = self.ops.get(fname)
        if cells is None:
            cells = self.ops[fname] = {}
        return cells

    def to_dict(self):
        """JSON/pickle-clean form with sorted, stringified op keys."""
        return {
            "engine": self.engine,
            "calls": {fn: self.calls[fn] for fn in sorted(self.calls)},
            "ops": {fn: {str(k): v for k, v in sorted(cells.items())}
                    for fn, cells in sorted(self.ops.items())},
        }


def new_profile(engine):
    """An :class:`EngineProfile` when profiling is on, else ``None``."""
    return EngineProfile(engine) if profile_enabled() else None
