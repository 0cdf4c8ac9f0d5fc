"""Shared substrate of the generated-Python (codegen) execution tier.

The three engines (``wasm/vm.py``, ``jsengine/interpreter.py``,
``native/machine.py``) each ship a reference interpreter: a ``while`` loop
that fetches one instruction, charges its cycle cost and operation class,
and dispatches through a ~100-arm ``if/elif`` ladder.  That loop is the
differential oracle — simple, obviously faithful, and slow.

The codegen tier translates each prepared function body *once* into
basic blocks and emits them as straight-line Python source: operand
stack lowered to local variables, batched accounting constants folded
into literal statements, trap points compiled to explicit guards that
rewind the batched charges.  The source is ``compile()``d once per
translation unit and the resulting ``make(ns)`` factory is called per
engine instance to pre-bind that instance's state.

Two tiers, one knob::

    REPRO_FAST_INTERP=0   reference ladders (differential oracle)
    default               generated Python (this tier)

Exactness rules (each engine's translator documents how it applies them):

1. **Integer counters batch freely.**  ``op_counts``, ``instructions``
   and the instruction budget are integers; charging a block's total per
   block entry is exact.  A trap guard subtracts the suffix (the
   instructions after the trapping one), restoring the reference
   ladder's charge-then-execute prefix: at a trap on instruction *k* the
   reference has charged instructions ``0..k`` inclusive.
2. **Float cycle batching needs an exact grid.**  Summing per-op costs in
   a different order than the reference is only bit-identical when every
   addend is dyadic and the partial sums stay exactly representable.
   Wasm's ``OP_COST`` table is entirely quarter-multiples (asserted by
   tests), so its per-block sums are exact at any association.  The JS
   and native charge streams include non-dyadic products
   (``cost × tier_factor``, ``cost × VECTOR_COST_FACTOR``), so their
   generated code adds one constant per source instruction — the same
   left-fold the reference performs, hence the same bits.
3. **Mid-run observers see flushed state only at the reference's flush
   points.**  Frame-local accumulators are flushed exactly where the
   ladder flushes (JS function-call boundaries, native CALL/RETV), so
   ``performance.now()`` and friends read identical values mid-run.
4. **Rare paths run on the oracle.**  When a block cannot be entered
   under batched accounting (instruction budget smaller than the block),
   the frame resumes in the reference loop at the block start; a JS
   frame entered with the GC already over-trigger runs on the reference
   loop from the start.  Both are exact by construction.
5. **Unknown opcodes fail loudly.**  The reference ladders fall through
   to a structured error at execution time; the translators refuse the
   whole function at translation time instead of silently mistranslating.

A translator may also *decline* a function (returning ``None``) when a
static property it relies on does not hold — e.g. an inconsistent
operand-stack depth at a join point.  The engine caches :data:`DECLINED`
for that function and runs it on the reference ladder, which is exact by
construction.

Persistent compile cache: generated source depends only on the prepared
code and a handful of translation flags, never on instance state (state
is handed to ``make`` through ``ns``), so translation units are
content-addressed exactly like compiled artifacts.  Warm runs are served
from the same disk store the compile cache uses (``src/repro/cache/``):
the artifact key pins the source text and a ``marshal`` of the compiled
code object, so a warm process skips both source generation and
``compile()``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal

from repro.obs.envflags import env_flag

#: Bump when the shape of cached translation units changes.
SCHEMA_VERSION = 1

_TAG = "codegen"

#: Sentinel an engine caches on a prepared function when its translator
#: declined it (so the decline is not retried on every call).
DECLINED = object()


def fast_interp_enabled():
    """The ``REPRO_FAST_INTERP`` knob: on unless explicitly falsy
    (``0``/``off``/``false``/``no``), which selects the reference ladders
    (the differential oracle)."""
    return env_flag("REPRO_FAST_INTERP", default=True)


def split_blocks(n, leaders):
    """Partition ``range(n)`` into half-open basic-block ranges.

    ``leaders`` is the set of pcs that must start a block (function entry,
    every jump target, every instruction after a block terminator).
    Out-of-range leaders (e.g. a branch target equal to ``n``) are
    ignored — they denote function exit, not a block.
    """
    starts = sorted(pc for pc in set(leaders) | {0} if 0 <= pc < n)
    return [(start, starts[i + 1] if i + 1 < len(starts) else n)
            for i, start in enumerate(starts)]


def class_deltas(classes):
    """Collapse a per-instruction op-class list into sparse, sorted
    ``(class_index, count)`` pairs — one block's batched ``op_counts``
    charge (or a rewind suffix)."""
    by_class = {}
    for cls in classes:
        by_class[cls] = by_class.get(cls, 0) + 1
    return tuple(sorted(by_class.items()))


# ---------------------------------------------------------------------------
# Source emission helpers shared by the three translators.

def literal(value):
    """Python source for one embedded constant.

    ``repr`` round-trips ints (arbitrary precision) and finite floats
    exactly; the non-literal floats are spelled out so the generated
    module needs no imports.  Strings/bools/None appear in JS bytecode
    arguments and repr cleanly.
    """
    if isinstance(value, float):
        if value != value:
            return "float('nan')"
        if value == float("inf"):
            return "float('inf')"
        if value == float("-inf"):
            return "float('-inf')"
        return repr(value)
    if isinstance(value, (int, str, bytes, bool)) or value is None:
        return repr(value)
    raise ValueError(f"unsupported literal {value!r}")


#: Most terms one flush statement sums.  A ``+`` chain is a left-nested
#: AST that CPython's compiler walks recursively, and translation can run
#: deep inside a recursive guest call, so longer chains are cut into
#: several statements.
FLUSH_TERMS = 100


def scaled(k, acc):
    """Source for ``k`` times the block counter ``acc``."""
    return acc if k == 1 else f"{k} * {acc}"


def emit_sum(out, target, terms, fold=False):
    """Flush one counter: add every source term in ``terms`` to
    ``target``.  An integer counter takes one ``+=`` of the summed terms
    (integer adds commute).  ``fold=True`` spells a float counter as the
    left-associative chain ``target = target + t0 + t1 ...``, which adds
    the terms one at a time in list order."""
    for i in range(0, len(terms), FLUSH_TERMS):
        chunk = " + ".join(terms[i:i + FLUSH_TERMS])
        if fold:
            out.emit(f"{target} = {target} + {chunk}")
        else:
            out.emit(f"{target} += {chunk}")


class _Indent:
    """The reusable context manager behind :meth:`Emitter.block` (one per
    emitter; re-entrant because it only counts levels)."""

    __slots__ = ("emitter",)

    def __init__(self, emitter):
        self.emitter = emitter

    def __enter__(self):
        self.emitter.indent += 1

    def __exit__(self, *exc):
        self.emitter.indent -= 1
        return False


class Emitter:
    """An indentation-tracking line buffer for generated source."""

    def __init__(self):
        self.lines = []
        self.indent = 0
        self._block = _Indent(self)

    def emit(self, text):
        if text:
            self.lines.append("    " * self.indent + text)
        else:
            self.lines.append("")

    def block(self):
        """Context manager raising the indent by one level."""
        return self._block

    def source(self):
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# The translation-unit cache: memory (compiled ``make`` factories) over
# the persistent artifact store (source + marshalled code object).

_FACTORIES = {}          # key -> make() factory (compiled once per process)
_STORE = None            # lazily built ArtifactCache (own stats, shared root)


def _store():
    global _STORE
    if _STORE is None:
        from repro.cache.store import ArtifactCache
        _STORE = ArtifactCache()
    return _STORE


def reset_cache():
    """Drop the in-process layers (tests: cold/warm differentials)."""
    global _STORE
    _FACTORIES.clear()
    _STORE = None


def unit_key(engine, parts):
    """Content-address one translation unit.

    ``parts`` must pin everything the emitted source depends on: the
    prepared code (its repr), and every translation flag folded into the
    source (budget mode, profiling, JIT enablement).  The package
    code fingerprint invalidates on any translator edit; the interpreter
    ``cache_tag`` scopes the marshalled code object to the bytecode
    format that produced it.
    """
    from repro.cache.keys import code_fingerprint
    digest = hashlib.sha256()
    for part in ("repro-codegen", SCHEMA_VERSION, code_fingerprint(),
                 importlib.util.MAGIC_NUMBER.hex(), engine, *parts):
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def load_factory(engine, key, build_source):
    """Return the compiled ``make`` factory for one translation unit.

    Layered lookup: in-process factory cache, then the persistent store
    (source + marshalled code object — skips ``build_source`` *and*
    ``compile``), then a cold build that populates both.  The factory is
    the module-level ``make`` function of the generated source; callers
    invoke it once per engine instance with the pre-bound namespace.
    """
    from repro.obs import SCHED, get_registry
    reg = get_registry()
    factory = _FACTORIES.get(key)
    if factory is not None:
        return factory
    filename = f"<repro-codegen:{engine}:{key[:12]}>"
    store = _store()
    entry = store.get(key)
    code = None
    source = None
    if isinstance(entry, tuple) and len(entry) == 4 \
            and entry[0] == _TAG and entry[1] == SCHEMA_VERSION:
        source = entry[2]
        try:
            code = marshal.loads(entry[3])
        except (ValueError, EOFError, TypeError):
            code = None                   # foreign bytecode: recompile
        reg.counter_add(f"interp.{engine}.codegen_cache_hits", 1, SCHED)
    if source is None:
        source = build_source()
        reg.counter_add(f"interp.{engine}.codegen_cache_misses", 1, SCHED)
    if code is None:
        code = compile(source, filename, "exec")
        store.put(key, (_TAG, SCHEMA_VERSION, source, marshal.dumps(code)))
    namespace = {}
    exec(code, namespace)
    factory = namespace["make"]
    factory.__repro_source__ = source     # tests / debugging
    _FACTORIES[key] = factory
    return factory
