"""The JS engine facade: parse → compile → execute, with full accounting.

One :class:`JsEngine` models one page's JavaScript realm.  ``load_script``
follows the paper's execution pipeline for JavaScript (§2.2.1): source is
parsed at run time (cost ∝ tokens), compiled to bytecode (cost ∝ ops), then
interpreted with JIT tier-up for hot code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cache.derived import memoize
from repro.engine.codegen import fast_interp_enabled
from repro.engine.stats import EngineStats
from repro.engine.tiering import TierController, TierPolicy
from repro.errors import ReproError
from repro.jsengine import host as host_module
from repro.obs import new_profile
from repro.jsengine.compiler import compile_program, script_code_unit
from repro.jsengine.config import JsEngineConfig
from repro.jsengine.gc import GcHeap
from repro.jsengine.interpreter import (
    JsRuntimeError,
    _STRING_METHODS,
    _to_number,
    execute,
)
from repro.jsengine.parser import parse_js
from repro.jsengine.values import (
    JSArray,
    JSFunction,
    JSObject,
    JSTypedArray,
    NativeFunction,
    UNDEFINED,
    js_to_str,
)


#: Script templates kept per process: one per distinct script text.
TEMPLATE_MEMO_SIZE = 32


@dataclass(frozen=True)
class ScriptTemplate:
    """What loading a script derives from its text alone.

    The functions are templates: their bytecode and params are tuples,
    and an engine runs :meth:`~repro.jsengine.values.JSFunction.fresh`
    copies, so tiering state and codegen runners stay per engine while
    the code and the translator's plans are shared."""

    token_count: int
    toplevel: JSFunction
    functions: tuple
    #: The compiled script as a modeled compiler prices it.
    code_unit: object


@memoize(TEMPLATE_MEMO_SIZE)
def script_template(source):
    """Parse and compile one script text into its :class:`ScriptTemplate`."""
    program, token_count = parse_js(source)
    toplevel, functions = compile_program(program)
    return ScriptTemplate(token_count, toplevel, tuple(functions),
                          script_code_unit(toplevel, functions))


@dataclass
class JsExecutionStats(EngineStats):
    """Accounting for one engine realm.

    Extends the shared :class:`~repro.engine.stats.EngineStats` protocol
    with the JS pipeline stages that precede execution (parse, token
    counts) and JIT promotion counts; ``compile_cycles`` lives on the
    shared base now.  ``cycles`` covers execution + GC pauses, as in the
    real engines' profiler attribution."""

    parse_cycles: float = 0.0
    tokens_parsed: int = 0
    tier_ups: int = 0
    #: The slice of ``compile_cycles`` charged by JIT promotions (the
    #: rest is the startup bytecode compile).
    tier_up_compile_cycles: float = 0.0


class JsEngine:
    """A JavaScript realm with the paper's performance model attached."""

    def __init__(self, config=None, cycles_per_ms=400000.0):
        self.config = config or JsEngineConfig()
        self.cycles_per_ms = cycles_per_ms
        self.stats = JsExecutionStats()
        self.tiering = TierController(TierPolicy.from_js_config(self.config))
        #: Optional :class:`repro.engine.trace.ExecutionTrace`; when set,
        #: tier-up and GC events are emitted as they happen.
        self.trace = None
        self._fast = fast_interp_enabled()
        self._profile = new_profile("js")
        self.globals = {}
        self.heap = GcHeap(
            self.globals,
            baseline_bytes=self.config.gc_baseline_bytes,
            trigger_bytes=self.config.gc_trigger_bytes,
            pause_base_cycles=self.config.gc_pause_base_cycles,
            pause_per_live_byte=self.config.gc_pause_per_live_byte)
        self.console_output = []
        self._rng_state = 0x9E3779B97F4A7C15
        self._string_method_cache = {}
        self._array_method_cache = {}
        self.globals.update(host_module.make_global_env(self))
        self.stats.cycles += self.config.startup_cycles

    # -- public API ---------------------------------------------------------

    def load_script(self, source):
        """Parse, compile, and run a script, charging the startup pipeline.

        The parse and the bytecode compile are done once per process per
        script text (:func:`script_template`), but charged on every load,
        like a browser with no code cache: the modeled clock is the same
        whether the template was built or reused."""
        template = script_template(source)
        token_count = template.token_count
        self.stats.tokens_parsed += token_count
        self.stats.parse_cycles += \
            token_count * self.config.parse_cycles_per_token
        # Price the bytecode compile with the policy's entry-tier model
        # (the per-instruction model reproduces the legacy flat-rate
        # arithmetic exactly; modeled compilers see the opclass census).
        self.stats.compile_cycles += \
            self.tiering.policy.basic.compile_cycles(template.code_unit)
        for proto in template.functions:
            fn = proto.fresh()
            self.heap.register(fn)
            self.globals[fn.name] = fn
        return execute(self, template.toplevel.fresh(), [])

    def call_global(self, name, *args):
        """Call a previously loaded global function from the host side."""
        fn = self.globals.get(name)
        if not isinstance(fn, JSFunction):
            raise ReproError(f"no JS function named {name!r}")
        return execute(self, fn, list(args))

    def total_cycles(self):
        return (self.stats.parse_cycles + self.stats.compile_cycles +
                self.stats.cycles)

    def virtual_now_ms(self):
        """The engine's ``performance.now()``: virtual time derived from
        cycles executed so far."""
        return self.total_cycles() / self.cycles_per_ms

    # -- engine internals (used by the interpreter) ---------------------------

    def _tier_up(self, fn):
        """Promote a hot function to the optimizing tier and charge the
        compile time (TurboFan/Ion are slow compilers)."""
        fn.tier = 1
        self.stats.tier_ups += 1
        compile_cycles = self.tiering.tier_up_compile_cycles(len(fn.code))
        self.stats.compile_cycles += compile_cycles
        self.stats.tier_up_compile_cycles += compile_cycles
        if self.trace is not None:
            self.trace.emit("tier-up", self.total_cycles(), compile_cycles,
                            tier=self.tiering.policy.optimizing.name,
                            function=fn.name)

    def _string_method(self, name):
        nf = self._string_method_cache.get(name)
        if nf is None:
            py = _STRING_METHODS.get(name)
            if py is None:
                raise JsRuntimeError(f"string has no method {name!r}")
            nf = NativeFunction(name, lambda e, this, args, _py=py:
                                _register_if_array(e, _py(this, args)), 12.0)
            self._string_method_cache[name] = nf
        return nf

    def _array_method(self, name):
        nf = self._array_method_cache.get(name)
        if nf is None:
            py = _ARRAY_METHODS.get(name)
            if py is None:
                raise JsRuntimeError(f"array has no method {name!r}")
            nf = NativeFunction(name, py, 12.0)
            self._array_method_cache[name] = nf
        return nf

    def _member_get(self, obj, name):
        if isinstance(obj, JSObject):
            value = obj.props.get(name, UNDEFINED)
            return value
        if isinstance(obj, (JSArray, JSTypedArray)):
            if name == "length":
                return float(len(obj.items))
            return self._array_method(name)
        if isinstance(obj, str):
            if name == "length":
                return float(len(obj))
            return self._string_method(name)
        if obj is UNDEFINED or obj is None:
            raise JsRuntimeError(
                f"cannot read property {name!r} of {js_to_str(obj)}")
        raise JsRuntimeError(
            f"cannot read property {name!r} of {type(obj).__name__}")

    def _construct(self, ctor, args):
        if isinstance(ctor, NativeFunction):
            return ctor.fn(self, UNDEFINED, args)
        if isinstance(ctor, JSObject) and "__call__" in ctor.props:
            return ctor.props["__call__"].fn(self, UNDEFINED, args)
        if isinstance(ctor, JSFunction):
            # Constructor-style JS function: create `this`, run, return it.
            this = JSObject()
            self.heap.register(this)
            execute(self, ctor, args, this)
            return this
        raise JsRuntimeError(f"{ctor!r} is not a constructor")


def _register_if_array(engine, value):
    if isinstance(value, (JSArray, JSObject, JSTypedArray)):
        engine.heap.register(value)
    return value


def _arr_push(engine, this, args):
    engine.heap.note_ephemeral(8 * len(args))
    this.items.extend(args)
    return float(len(this.items))


def _arr_pop(engine, this, args):
    return this.items.pop() if this.items else UNDEFINED

def _arr_shift(engine, this, args):
    return this.items.pop(0) if this.items else UNDEFINED


def _arr_index_of(engine, this, args):
    target = args[0]
    for i, value in enumerate(this.items):
        if type(value) is type(target) and value == target:
            return float(i)
    return -1.0


def _arr_join(engine, this, args):
    sep = js_to_str(args[0]) if args else ","
    text = sep.join(js_to_str(v) for v in this.items)
    engine.heap.note_ephemeral(16 + 2 * len(text))
    return text


def _arr_slice(engine, this, args):
    start = int(_to_number(args[0])) if args else 0
    end = int(_to_number(args[1])) if len(args) > 1 else len(this.items)
    out = JSArray(this.items[start:end])
    engine.heap.register(out)
    return out


def _arr_fill(engine, this, args):
    value = args[0] if args else UNDEFINED
    for i in range(len(this.items)):
        this.items[i] = value
    return this


def _arr_concat(engine, this, args):
    items = list(this.items)
    for a in args:
        if isinstance(a, JSArray):
            items.extend(a.items)
        else:
            items.append(a)
    out = JSArray(items)
    engine.heap.register(out)
    return out


_ARRAY_METHODS = {
    "push": _arr_push,
    "pop": _arr_pop,
    "shift": _arr_shift,
    "indexOf": _arr_index_of,
    "join": _arr_join,
    "slice": _arr_slice,
    "fill": _arr_fill,
    "concat": _arr_concat,
}
