"""Shared substrate of the compiled-Python (codegen) execution tier.

The threaded tier (:mod:`repro.engine.threaded`) replaced the reference
ladders' per-instruction dispatch with per-block handler closures, but it
still pays one Python call per source instruction.  The codegen tier is
the rung above it on the same ladder: each engine's translator walks the
*threaded-code basic blocks* it already knows how to build and emits them
as straight-line Python source — operand stack lowered to local
variables, batched accounting constants folded into literal statements,
trap points compiled to explicit guards that rewind exactly like the
threaded tier's pre-bound rewind closures.  The source is ``compile()``d
once per translation unit and the resulting ``make(ns)`` factory is
called per engine instance to pre-bind that instance's state.

Tier ladder (each knob gates everything above it)::

    REPRO_FAST_INTERP=0   reference ladders (differential oracle)
    REPRO_CODEGEN=0       threaded closures (prepare-once handlers)
    default               generated Python (this tier)

Exactness contract: the generated code must be observably bit-identical
to the threaded tier (and hence to the reference ladders) — same stats,
same traces, same GC pauses, same per-opclass×per-function profiles.
The per-engine translators document how each of the substrate's
exactness rules (see ``engine/threaded.py``) maps onto emitted source.
A translator may also *decline* a function (returning ``None``) when a
static property it relies on does not hold — e.g. an inconsistent
operand-stack depth at a join point — in which case the engine falls
back to the threaded tier for that function, which is exact by
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
import os

from repro.engine.threaded import fast_interp_enabled

#: Bump when the shape of cached translation units changes.
SCHEMA_VERSION = 1

_TAG = "codegen"

#: Sentinel an engine caches on a prepared function when its translator
#: declined it (so the decline is not retried on every call).
DECLINED = object()


def codegen_enabled():
    """The ``REPRO_CODEGEN`` knob: default on, ``0`` drops back to the
    threaded tier.  The codegen tier sits above the threaded tier on the
    same ladder, so ``REPRO_FAST_INTERP=0`` disables both."""
    return os.environ.get("REPRO_CODEGEN", "1") != "0" \
        and fast_interp_enabled()


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
