"""JavaScript engine model.

A real (small) JavaScript implementation — lexer, parser, bytecode compiler,
stack interpreter — wrapped in the performance model the paper studies:

* **Parsing & startup**: JS source must be lexed/parsed/compiled at load
  time (unlike Wasm, which ships pre-compiled bytecode) — the mechanism
  behind Wasm's startup advantage on small inputs (§4.3).
* **Tiered JIT**: functions start in the interpreter tier; hot functions
  and hot loops (back-edge counters) tier up to the optimizing tier with a
  much lower per-op cost — the mechanism behind Fig. 10's large JS JIT
  speedups.
* **Garbage collection**: a collection marks from the JS roots (globals
  and the active frames' locals and operand stacks); objects the program
  can no longer reach are reclaimed, keeping the JS heap flat across
  input sizes — the mechanism behind Tables 4/6/8's memory results.

Engine tier parameters live in :class:`JsEngineConfig`; browser profiles in
:mod:`repro.env` instantiate them per engine (V8, SpiderMonkey, Chakra-Blink).
"""

from repro.jsengine.config import JsEngineConfig
from repro.jsengine.engine import JsEngine, JsExecutionStats
from repro.jsengine.lexer import tokenize_js
from repro.jsengine.parser import parse_js
from repro.jsengine.values import JSArray, JSObject, JSTypedArray, UNDEFINED

__all__ = [
    "JSArray",
    "JSObject",
    "JSTypedArray",
    "JsEngine",
    "JsEngineConfig",
    "JsExecutionStats",
    "UNDEFINED",
    "parse_js",
    "tokenize_js",
]
