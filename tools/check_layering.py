#!/usr/bin/env python
"""Import-layering checker for the engine core refactor.

Layer rules (bottom to top)::

    cfront -> ir -> backends        (compilation pipeline)
    engine core (repro.engine)      (shared tiering/stats/hostlib/trace)
    wasm | jsengine | native        (the three execution engines)
    env / harness / experiments     (measurement apparatus)
    service                         (benchmark-as-a-service front end)

Enforced here:

* ``repro.wasm``, ``repro.jsengine``, and ``repro.native`` must not
  import from each other — anywhere, even inside functions.  Shared
  mechanisms belong in ``repro.engine``.
* ``repro.engine`` must not import any of the three engine packages at
  module level (lazy function-level imports are allowed so the hostlib
  can build engine-value wrappers without an import cycle).
* Neither the engine packages nor the engine core may import the
  measurement apparatus (``repro.harness``, ``repro.experiments``) —
  anywhere, even inside functions.  Engines are below the harness; a
  back-edge would let an engine reach the sweep scheduler or the page
  runner and make worker-process execution order-dependent.
* ``repro.engine.codegen`` — the codegen-tier substrate — may import
  only the artifact cache that persists compiled units (``repro.cache``)
  and the telemetry leaf (``repro.obs``).  It loads generated code by
  unit key; a dependency on an engine or the pipeline would let compiled
  artifacts observe what they are supposed to replay, and anything else
  it pulled in would become an implicit dependency of all three
  engines.
* Each engine's ``codegen.py`` translator may reach the engine core only
  through the substrate (``repro.engine.codegen``): the translators are
  leaves that pre-bind state handed to them by their host engine, so a
  tie to tiering/stats/hostlib internals would be a hidden layer edge.
* ``repro.obs`` — the telemetry layer — is a leaf below everything:
  any layer may import it, but it must not import any other ``repro.*``
  module, anywhere, even inside functions.  Instrumentation that pulled
  in pipeline or engine code would invert the dependency and make
  metrics collection able to change what it observes.
* ``repro.obs.tracing`` — the distributed-trace context — is the bottom
  of the telemetry layer itself: it may import only the event sink
  (``repro.obs.events``) and the env-flag helpers
  (``repro.obs.envflags``).  The context rides the worker Pipe protocol
  and is stamped by the scheduler, the service and the engine trace —
  an import of any of those (or of the metrics registry, which spans
  feed *through events*, not directly) would cycle the stack through
  its lowest leaf.
* ``repro.engine.compilemodel`` — the compiler cost models — is a leaf
  below the engines: it may import only the neutral opclass taxonomy
  (``repro.engine.opclass``).  Every engine and both profile layers
  price compiles through it, so anything else it pulled in would become
  a hidden dependency of the whole stack.
* ``repro.service`` — the sweep server — is the top of the stack: it
  may import anything in ``repro``, but no other ``repro`` package may
  import it, anywhere, even inside functions.  The service is a client
  of the harness and caches, never a dependency; a back-edge would let
  batch experiment code depend on server lifecycle.
* ``repro.env.runtimes`` — the standalone host profiles — sits beside
  ``repro.env.browser``: module-level imports must stay within
  ``repro.engine`` and ``repro.env`` (plus ``repro.jsengine.config``-free
  config plumbing via the browser module); engines may be reached only
  through lazy function-level imports, and the measurement apparatus
  never (profiles are inputs to the harness, not clients of it).
* ``repro.jsengine`` may not import Python's ``gc`` module or call
  ``sys._getframe``.  JS heap liveness is the collector's mark from JS
  roots (``jsengine/gc.py``); asking CPython what is alive, or walking
  Python frames for roots, would make the modeled numbers depend on the
  interpreter's own bookkeeping again.
* One artifact store per process: no module except
  ``repro.cache.store`` constructs an ``ArtifactCache``.  Everything
  else reaches the store through ``repro.cache.get_cache()``, so
  ``configure()``, the ``REPRO_CACHE*`` knobs and a sweep worker's
  memory cap cover every entry, and the registry's ``cache.*`` counters
  see every get and put.
* Typed environment knobs parse through ``repro.obs.envflags``
  (``env_int``/``env_float``/``env_flag``): outside that module, no
  ``int(…)``, ``float(…)`` or ``bool(…)`` may be applied to an
  ``os.environ``/``os.getenv`` read, directly or through a local name
  bound to one.  A hand-rolled parse drifts from the shared conventions
  (``bool("0")`` is true).  String settings (paths, hosts, specs) stay
  direct reads.

Exits non-zero and prints one line per violation; silent when clean.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The sibling engine packages that must stay independent.
ENGINE_LAYERS = ("wasm", "jsengine", "native")

#: The measurement apparatus sitting above the engines; engines (and the
#: engine core) must never reach up into it.
APPARATUS_LAYERS = ("harness", "experiments")


def _imported_modules(node):
    """Full dotted ``repro.*`` module names imported by one import node."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        names = [node.module]
    else:
        return []
    return [name for name in names
            if name == "repro" or name.startswith("repro.")]


def _imported_packages(node):
    """Top-level ``repro.<pkg>`` names imported by one import node."""
    return [name.split(".")[1] for name in _imported_modules(node)
            if len(name.split(".")) > 1]


#: Builtins that turn a raw environment string into a typed value.
_TYPED_CASTS = ("int", "float", "bool")


def _reads_env(node):
    """``os.environ`` / ``os.getenv`` (subscripted, ``.get``-ed or
    called — every read goes through one of the two attributes)."""
    return (isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _scope_nodes(scope):
    """The nodes of one function (or module) body, nested function
    bodies excluded — each is a scope of its own."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _env_casts(tree):
    """Line numbers where ``int``/``float``/``bool`` is applied to an
    environment read, directly or through a local name bound to one."""
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    lines = set()
    for scope in scopes:
        nodes = list(_scope_nodes(scope))
        tainted = set()

        def from_env(expr):
            return any(_reads_env(sub) or (isinstance(sub, ast.Name)
                                           and sub.id in tainted)
                       for sub in ast.walk(expr))

        changed = True
        while changed:
            changed = False
            for node in nodes:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                                       ast.NamedExpr)):
                    targets = [node.target]
                else:
                    continue
                if node.value is None or not from_env(node.value):
                    continue
                for target in targets:
                    names = target.elts if isinstance(
                        target, (ast.Tuple, ast.List)) else [target]
                    for name in names:
                        if isinstance(name, ast.Name) and \
                                name.id not in tainted:
                            tainted.add(name.id)
                            changed = True
        for node in nodes:
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in _TYPED_CASTS and \
                    any(from_env(arg) for arg in node.args):
                lines.add(node.lineno)
    return sorted(lines)


def _python_liveness(tree):
    """Line numbers where a module imports Python's ``gc`` or reaches
    ``sys._getframe``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "gc"
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and (node.module == "gc" or (
                node.module == "sys" and any(
                    alias.name == "_getframe" for alias in node.names)))
        else:
            hit = isinstance(node, ast.Attribute) and \
                node.attr == "_getframe"
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def _store_constructions(tree):
    """Line numbers of ``ArtifactCache(...)`` calls (bare or dotted)."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and (
                       getattr(node.func, "id", None) == "ArtifactCache"
                       or getattr(node.func, "attr", None)
                       == "ArtifactCache")})


def check(src=SRC):
    violations = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        layer = rel.parts[0] if len(rel.parts) > 1 else None
        tree = ast.parse(path.read_text(), filename=str(path))
        if rel.parts != ("obs", "envflags.py"):
            for lineno in _env_casts(tree):
                violations.append(
                    f"src/repro/{rel}:{lineno}: typed parse of an "
                    f"environment read (use repro.obs.envflags "
                    f"env_int/env_float/env_flag)")
        if rel.parts != ("cache", "store.py"):
            for lineno in _store_constructions(tree):
                violations.append(
                    f"src/repro/{rel}:{lineno}: constructs an "
                    f"ArtifactCache (use repro.cache.get_cache(); only "
                    f"repro.cache.store builds the process's one store)")
        if layer == "jsengine":
            for lineno in _python_liveness(tree):
                violations.append(
                    f"src/repro/{rel}:{lineno}: the JS engine imports "
                    f"Python's gc or calls sys._getframe (heap liveness "
                    f"comes only from the mark over JS roots)")
        module_level_nodes = set()
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and not \
                        isinstance(stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                    module_level_nodes.add(id(node))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for pkg in _imported_packages(node):
                if layer in ENGINE_LAYERS and pkg in ENGINE_LAYERS \
                        and pkg != layer:
                    violations.append(
                        f"src/repro/{rel}:{node.lineno}: {layer} layer "
                        f"imports repro.{pkg} (engine layers must only "
                        f"share code through repro.engine)")
                elif layer in ENGINE_LAYERS + ("engine",) \
                        and pkg in APPARATUS_LAYERS:
                    violations.append(
                        f"src/repro/{rel}:{node.lineno}: {layer} layer "
                        f"imports repro.{pkg} (engines sit below the "
                        f"measurement apparatus and must not reach up "
                        f"into it)")
                elif pkg == "service" and layer != "service":
                    violations.append(
                        f"src/repro/{rel}:{node.lineno}: {layer} layer "
                        f"imports repro.service (the service is the top "
                        f"of the stack — nothing below it may depend "
                        f"on it)")
                elif layer == "engine" and pkg in ENGINE_LAYERS \
                        and id(node) in module_level_nodes:
                    violations.append(
                        f"src/repro/{rel}:{node.lineno}: engine core "
                        f"imports repro.{pkg} at module level (use a "
                        f"lazy function-level import)")
            if layer == "obs":
                for mod in _imported_modules(node):
                    if mod != "repro.obs" and \
                            not mod.startswith("repro.obs."):
                        violations.append(
                            f"src/repro/{rel}:{node.lineno}: the telemetry "
                            f"layer imports {mod} (repro.obs is a leaf — "
                            f"everything may import it, it may import "
                            f"nothing from repro)")
            if rel.parts == ("obs", "tracing.py"):
                for mod in _imported_modules(node):
                    if mod not in ("repro.obs.events",
                                   "repro.obs.envflags"):
                        violations.append(
                            f"src/repro/{rel}:{node.lineno}: the trace "
                            f"context imports {mod} (repro.obs.tracing is "
                            f"the bottom of the telemetry leaf — only "
                            f"repro.obs.events and repro.obs.envflags are "
                            f"allowed)")
            if rel.parts == ("engine", "compilemodel.py"):
                for mod in _imported_modules(node):
                    if mod != "repro.engine.opclass":
                        violations.append(
                            f"src/repro/{rel}:{node.lineno}: the compile-"
                            f"model layer imports {mod} (repro.engine."
                            f"compilemodel is a leaf below the engines — "
                            f"only the opclass taxonomy is allowed)")
            if rel.parts == ("env", "runtimes.py"):
                for mod in _imported_modules(node):
                    allowed = (mod.startswith("repro.engine")
                               or mod.startswith("repro.env"))
                    engine_pkg = mod.split(".")[1] if "." in mod else ""
                    if engine_pkg in ENGINE_LAYERS \
                            and id(node) not in module_level_nodes:
                        continue   # lazy engine import (vm() wiring)
                    if not allowed:
                        violations.append(
                            f"src/repro/{rel}:{node.lineno}: the standalone "
                            f"runtime profiles import {mod} (repro.env."
                            f"runtimes may import the engine core and the "
                            f"env layer; engines only lazily, the "
                            f"measurement apparatus never)")
            if rel.parts == ("engine", "codegen.py"):
                for mod in _imported_modules(node):
                    if not mod.startswith("repro.cache") and \
                            not mod.startswith("repro.obs"):
                        violations.append(
                            f"src/repro/{rel}:{node.lineno}: the codegen "
                            f"substrate imports {mod} (repro.engine."
                            f"codegen may only use repro.cache and "
                            f"repro.obs)")
            elif layer in ENGINE_LAYERS and rel.parts[-1] == "codegen.py":
                for mod in _imported_modules(node):
                    if mod.startswith("repro.engine") \
                            and mod != "repro.engine.codegen":
                        violations.append(
                            f"src/repro/{rel}:{node.lineno}: engine "
                            f"translator imports {mod} (codegen tiers may "
                            f"only use the repro.engine.codegen substrate; "
                            f"other engine-core state must be pre-bound by "
                            f"the host engine)")
    return violations


def main():
    violations = check()
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} layering violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
