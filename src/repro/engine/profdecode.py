"""Decode raw engine profiles into per-opclass count/cycle tables.

``repro.obs.profile`` collects *op-execution counts* keyed by raw opcode
(plus an engine variant bit); this module joins them against the static
cost/class tables to produce the attribution the report shows: which
operation classes a function (and a whole run) spent its cycles in.

Cycle attribution is modeled, per engine:

* **wasm** — ``count × OP_COST[op]``.  Every wasm cost is a multiple of
  0.25 and run totals stay far below 2**50, so float addition never
  rounds: the decoded cycles decompose ``stats.cycles`` exactly (the
  boundary/tiering glue charged outside the interpreter loop is not part
  of the profile).
* **js** — ``count × (JS_OP_COST_OPT if tier else JS_OP_COST)[op]``.
  The browser profile's tier execution factors and the dynamic typed
  extras (JSArray index paths, GC pauses) are deliberately excluded:
  the profile attributes *static bytecode cost* so the split between
  entry-tier and optimized-tier execution is visible per opclass.
* **native** — ``count × N_COST[op]``, times the 0.29 vector factor when
  the vector bit (bit 8) is set on the key.

Engine tables are imported lazily (engine core must not import engine
packages at module level).
"""

from __future__ import annotations

from fractions import Fraction

from repro.engine.opclass import OpClass

#: JS profile keys pack the executing tier into bits 8+ of the opcode.
JS_TIER_SHIFT = 8

#: Native profile keys set bit 8 when the instruction issued as vector.
NATIVE_VECTOR_BIT = 0x100


def _wasm_decoder():
    from repro.wasm.instructions import OP_CLASS, OP_COST

    def decode(key):
        return OpClass(OP_CLASS[key]).name.lower(), Fraction(OP_COST[key])
    return decode


def _js_decoder():
    from repro.jsengine.bytecode import (
        JS_OP_CLASS, JS_OP_COST, JS_OP_COST_OPT,
    )

    def decode(key):
        tier, op = key >> JS_TIER_SHIFT, key & 0xFF
        cost = JS_OP_COST_OPT[op] if tier else JS_OP_COST[op]
        return OpClass(JS_OP_CLASS[op]).name.lower(), Fraction(cost)
    return decode


def _native_decoder():
    from repro.native.machine import N_COST, N_OP_CLASS, VECTOR_COST_FACTOR
    vector = Fraction(VECTOR_COST_FACTOR)

    def decode(key):
        op = key & (NATIVE_VECTOR_BIT - 1)
        cost = Fraction(N_COST[op])
        if key & NATIVE_VECTOR_BIT:
            cost *= vector
        return OpClass(N_OP_CLASS[op]).name.lower(), cost
    return decode


_DECODERS = {"wasm": _wasm_decoder, "js": _js_decoder,
             "native": _native_decoder}


def _function_tables(profile):
    """``{fn: {cls: [count, Fraction cycles]}}``: one decode pass over
    ``profile["ops"]``, the single loop both entry points total."""
    decode = _DECODERS[profile["engine"]]()
    tables = {}
    for fname, cells in profile["ops"].items():
        table = tables[fname] = {}
        for key, count in cells.items():
            cls, cost = decode(int(key))
            slot = table.get(cls)
            if slot is None:
                slot = table[cls] = [0, Fraction(0)]
            slot[0] += count
            slot[1] += cost * count
    return tables


def _totals(tables):
    totals = {}
    for table in tables.values():
        for cls, (count, cycles) in table.items():
            agg = totals.setdefault(cls, [0, Fraction(0)])
            agg[0] += count
            agg[1] += cycles
    return {cls: (c, cy) for cls, (c, cy) in sorted(totals.items())}


def _as_floats(table):
    return {cls: {"count": c, "cycles": float(cy)}
            for cls, (c, cy) in sorted(table.items())}


def decode_profile(profile):
    """``EngineProfile.to_dict()`` payload -> opclass attribution.

    Returns ``{"engine", "functions": {fn: {"calls", "opclasses"}},
    "opclasses", "total_count", "total_cycles"}`` where each opclass
    entry is ``{"count": int, "cycles": float}`` (cycles summed exactly
    before the single float conversion).
    """
    tables = _function_tables(profile)
    totals = _totals(tables)
    return {
        "engine": profile["engine"],
        "functions": {fname: {"calls": profile["calls"].get(fname, 0),
                              "opclasses": _as_floats(table)}
                      for fname, table in tables.items()},
        "opclasses": _as_floats(totals),
        "total_count": sum(c for c, _ in totals.values()),
        "total_cycles": float(sum((cy for _, cy in totals.values()),
                                  Fraction(0))),
    }


def opclass_fractions(profile):
    """Exact per-opclass ``{cls: (count, Fraction cycles)}`` totals —
    the registry feed (Fractions keep counter accumulation exact)."""
    return _totals(_function_tables(profile))
