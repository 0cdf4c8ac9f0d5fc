"""Layer timing from outside the program.

:func:`install` (and, in the server, :func:`install_service`) wraps the
public functions each layer of ``repro`` is entered through, in the
modules that call them, with span recorders.  No
program file changes: the wrappers replace module attributes and class
methods in the running process only.

A span records its layer, start, duration, self time (duration minus the
spans opened inside it on the same thread) and the span that opened it.
Spans are kept in memory; :meth:`Tracer.summary` aggregates them and
:meth:`Tracer.dump` writes them out.  While ``Tracer.enabled`` is false
a wrapper only forwards the call.

Layers (metric prefix: where it is entered):

* ``cfront``: ``preprocess``, ``transform_source``, ``parse_c`` and the
  toolchains' ``frontend``;
* ``ir.passes.<pass>``: every entry of ``repro.ir.passes.PASSES`` and
  the conservative ``globalopt`` the Cheerp and Emscripten pipelines
  hold; ``ir.passes.pipeline``: ``run_pipeline`` itself (IR node counts);
* ``backends.{wasm,js,x86}``: ``generate_wasm/js/x86``;
  ``wasm.encode_validate``: ``encode_module`` + ``validate_module``;
* ``engine.codegen.translate``: ``load_factory`` and the source builds
  it runs on a miss;
* ``wasm.vm``, ``jsengine``, ``native``: ``WasmVM.instantiate`` +
  ``WasmInstance.invoke``, ``JsEngine.load_script``,
  ``execute_program``;
* ``harness.runner``: ``PageRunner.run_wasm`` / ``run_js``;
  ``harness.parallel.sweep``: the service's ``run_sweep``;
* ``cache.get`` / ``cache.put``: ``ArtifactCache.get`` / ``put``;
  ``cache.key``: ``cache_key``; ``cache.lookup``: ``cached_result`` and
  the service's ``lookup`` (result memo, with its DET metric replay);
* ``service.canonicalize``, ``service.admit``, ``service.probe``
  (the executor's warm-probe loop), ``service.stream`` (result and
  failure lines).

``run_cell`` and ``compute_cell`` themselves are not wrapped, and the
``compute`` callable ``cached_result`` is handed runs in an ``other``
span: the time a cell spends outside every layer above (toolchain and
benchmark look-ups, fingerprints, metric spans) is unattributed, and the
run reports it as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict

#: Spans kept in memory per process; later spans are aggregated only.
MAX_SPANS = 200_000

#: The span of work no layer covers.  Its self time is not a layer's.
OTHER = "other"


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self):
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []

    def count(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer, fn, args, kwargs, on_exit=None):
        """Run ``fn`` as one span of ``layer``; ``on_exit(result)`` runs
        after the span closes, when the call returned."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            self_s = duration - frame[1]
            with self._lock:
                self.self_s[layer] += self_s
                self.calls[layer] += 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, layer, start,
                                       duration, self_s,
                                       threading.get_ident()))
        if on_exit is not None:
            on_exit(result)
        return result

    def summary(self):
        with self._lock:
            return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                    "counts": dict(self.counts)}

    def dump(self, path):
        """Write the kept spans as JSON lines
        ``[id, parent, layer, start_s, duration_s, self_s, thread]``."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")


def _wrap(tracer, layer, fn, on_enter=None):
    """``fn`` recorded as a span of ``layer``.  ``on_enter(args,
    kwargs)`` may return an ``on_exit(result)`` callback."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        on_exit = on_enter(args, kwargs) if on_enter is not None else None
        return tracer.span(layer, fn, args, kwargs, on_exit)

    return wrapper


def _patch(tracer, module_name, attr, layer, on_enter=None, owner=None):
    """Replace ``module.attr`` (or ``module.owner.attr``) by its wrapper."""
    target = importlib.import_module(module_name)
    if owner is not None:
        target = getattr(target, owner)
    raw = target.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(target, attr, staticmethod(
            _wrap(tracer, layer, raw.__func__, on_enter)))
    else:
        setattr(target, attr, _wrap(tracer, layer, raw, on_enter))


def _instructions(tracer, layer):
    """``on_enter`` hook adding the retired instructions of the engine
    (``args[0].stats``) during the call to ``<layer>.instructions``."""

    def on_enter(args, _kwargs):
        before = args[0].stats.instructions

        def on_exit(_result):
            tracer.count(f"{layer}.instructions",
                         args[0].stats.instructions - before)
        return on_exit

    return on_enter


def install(tracer):
    """Wrap the layer entry points of the direct path in this process."""
    from repro.ir import passes

    patch = functools.partial(_patch, tracer)

    def rewrites(_args, _kwargs):
        def on_exit(result):
            if isinstance(result, int):
                tracer.count("ir.passes.rewrites", result)
        return on_exit

    def native_instructions(_args, _kwargs):
        def on_exit(result):
            tracer.count("native.instructions", result[1].instructions)
        return on_exit

    # cfront
    for attr in ("preprocess", "transform_source", "parse_c"):
        patch("repro.compilers.base", attr, "cfront")
    patch("repro.compilers.base", "frontend", "cfront", owner="ToolchainBase")
    # ir.passes
    for name in list(passes.PASSES):
        passes.PASSES[name] = _wrap(tracer, f"ir.passes.{name}",
                                    passes.PASSES[name], rewrites)
    for module_name in ("repro.compilers.cheerp", "repro.compilers.emscripten"):
        patch(module_name, "_GLOBALOPT_C", "ir.passes.globalopt", rewrites)
    patch("repro.compilers.base", "run_pipeline", "ir.passes.pipeline")
    # backends and the wasm binary layer
    patch("repro.compilers.cheerp", "generate_wasm", "backends.wasm")
    patch("repro.compilers.cheerp", "generate_js", "backends.js")
    patch("repro.compilers.emscripten", "generate_wasm", "backends.wasm")
    patch("repro.compilers.llvm_x86", "generate_x86", "backends.x86")
    for module_name in ("repro.compilers.cheerp", "repro.compilers.emscripten"):
        patch(module_name, "encode_module", "wasm.encode_validate")
        patch(module_name, "validate_module", "wasm.encode_validate")
    # engine.codegen
    for module_name in ("repro.wasm.codegen", "repro.jsengine.codegen",
                        "repro.native.codegen"):
        module = importlib.import_module(module_name)
        module.load_factory = _load_factory_wrapper(tracer,
                                                    module.load_factory)
    # engines
    patch("repro.wasm.vm", "instantiate", "wasm.vm", owner="WasmVM")
    patch("repro.wasm.vm", "invoke", "wasm.vm", owner="WasmInstance",
          on_enter=_instructions(tracer, "wasm.vm"))
    patch("repro.jsengine.engine", "load_script", "jsengine",
          owner="JsEngine", on_enter=_instructions(tracer, "jsengine"))
    patch("repro.native", "execute_program", "native", native_instructions)
    # harness
    for attr in ("run_wasm", "run_js"):
        patch("repro.harness.runner", attr, "harness.runner",
              owner="PageRunner")
    # cache
    patch("repro.cache.store", "get", "cache.get", owner="ArtifactCache",
          on_enter=_cache_hits(tracer))
    patch("repro.cache.store", "put", "cache.put", owner="ArtifactCache")
    patch("repro.cache", "cache_key", "cache.key")
    cells = importlib.import_module("repro.service.cells")
    cells.cached_result = _cached_result_wrapper(tracer, cells.cached_result)


def install_service(tracer):
    """Wrap the server-side layers (call after :func:`install`)."""
    from repro.obs import SCHED, get_registry

    patch = functools.partial(_patch, tracer)

    def retries():
        return get_registry().export([SCHED]).get("sched.retries", 0)

    def sweep(args, _kwargs):
        tracer.count("harness.parallel.cells", len(args[1]))
        before = retries()

        def on_exit(_result):
            tracer.count("harness.parallel.retries", retries() - before)
        return on_exit

    patch("repro.service.jobs", "canonicalize_request",
          "service.canonicalize")
    patch("repro.service.jobs", "admit", "service.admit",
          owner="SweepService", on_enter=_admit_waits(tracer))
    patch("repro.service.jobs", "_probe_warm", "service.probe",
          owner="SweepService")
    patch("repro.service.jobs", "lookup", "cache.lookup")
    patch("repro.service.jobs", "run_sweep", "harness.parallel.sweep",
          on_enter=sweep)
    patch("repro.service.server", "result_line", "service.stream")
    patch("repro.service.server", "failure_line", "service.stream")


def _cache_hits(tracer):
    def on_enter(_args, _kwargs):
        def on_exit(result):
            tracer.count("cache.gets")
            if result is not None:
                tracer.count("cache.hits")
        return on_exit
    return on_enter


def _admit_waits(tracer):
    """Per admitted cell, the wait from admission to its future settling:
    ``service.probe_wait`` for cells served warm from the result cache,
    ``service.batch_wait`` for cells a sweep computed."""

    def on_enter(_args, _kwargs):
        admitted = time.perf_counter()

        def on_exit(job):
            tracer.count("service.cells.requested", len(job.futures))
            tracer.count("service.cells.deduped", job.deduped)

            def settled(future):
                if future.cancelled() or not tracer.enabled:
                    return
                status = future.result()[0]
                wait = time.perf_counter() - admitted
                name = "probe_wait" if status == "warm" else "batch_wait"
                tracer.count(f"service.{name}_s", wait)
                tracer.count(f"service.{name}_cells")

            for future in job.futures:
                future.add_done_callback(settled)
        return on_exit

    return on_enter


def _cached_result_wrapper(tracer, raw):
    """``cached_result`` as a ``cache.lookup`` span whose ``compute``
    callable runs in an :data:`OTHER` span, so the lookup's self time is
    the probe, the DET metric replay and the put, not the cell."""

    @functools.wraps(raw)
    def wrapper(kind, parts, compute, replay_metrics=False):
        if not tracer.enabled:
            return raw(kind, parts, compute, replay_metrics)

        def unattributed():
            return tracer.span(OTHER, compute, (), {})

        return tracer.span("cache.lookup", raw,
                           (kind, parts, unattributed, replay_metrics), {})

    return wrapper


def _load_factory_wrapper(tracer, raw):
    """``load_factory`` as an ``engine.codegen.translate`` span, counting
    a miss when it has to build the unit's source and a hit otherwise."""

    @functools.wraps(raw)
    def wrapper(engine, key, build_source):
        if not tracer.enabled:
            return raw(engine, key, build_source)
        built = []

        def build():
            built.append(True)
            return tracer.span("engine.codegen.translate", build_source,
                               (), {})

        def on_exit(_factory):
            tracer.count("engine.codegen.misses" if built
                         else "engine.codegen.hits")

        return tracer.span("engine.codegen.translate", raw,
                           (engine, key, build), {}, on_exit)

    return wrapper
