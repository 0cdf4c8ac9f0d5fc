"""Runtime value representations for the JS engine.

Numbers are Python floats (JS has only doubles); strings are Python ``str``;
``null`` is ``None``; ``undefined`` is the :data:`UNDEFINED` sentinel.
Arrays/objects/typed arrays are thin wrappers the GC registers and marks
through (array elements and object properties are the JS heap graph, whose
reachability from JS roots the paper's memory findings rest on).
"""

from __future__ import annotations

from repro.cache.derived import Derived


class _Undefined:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undefined"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()

#: Approximate engine object-header size in bytes (V8-like).
HEADER_BYTES = 32


class JSArray:
    """A JS array: elements boxed, 8 bytes per slot plus header."""

    __slots__ = ("items", "__weakref__")

    def __init__(self, items=None):
        self.items = items if items is not None else []

    @property
    def heap_bytes(self):
        return HEADER_BYTES + 8 * len(self.items)

    def __repr__(self):
        return f"JSArray({self.items!r})"


class SparseItems:
    """Zero-filled element storage materialised on write.

    Backs :class:`JSTypedArray` so paper-scale buffers (EXTRALARGE
    PolyBench arrays are tens of MB) cost memory proportional to the
    elements the scaled kernels actually touch."""

    __slots__ = ("_length", "_data")

    def __init__(self, length):
        self._length = int(length)
        self._data = {}

    def __len__(self):
        return self._length

    def __getitem__(self, index):
        return self._data.get(index, 0.0)

    def __setitem__(self, index, value):
        self._data[index] = value

    def __iter__(self):
        get = self._data.get
        for i in range(self._length):
            yield get(i, 0.0)


class JSTypedArray:
    """Float64Array / Int32Array / Uint8Array / Uint32Array.

    Cheerp's genericjs output uses typed arrays as the backing store for C
    memory.  DevTools' *JS heap* metric counts only the wrapper object —
    the backing store is external ArrayBuffer memory — which is why
    compiler-generated JavaScript shows a flat ~0.9 MB heap at every input
    size (Tables 4/6) while hand-written programs using plain arrays show
    multi-MB heaps (Table 9)."""

    __slots__ = ("kind", "items", "width", "__weakref__")

    _WIDTHS = {"Float64Array": 8, "Int32Array": 4, "Uint8Array": 1,
               "Uint32Array": 4, "Uint16Array": 2}

    def __init__(self, kind, length):
        self.kind = kind
        self.width = self._WIDTHS[kind]
        self.items = SparseItems(length)

    @property
    def heap_bytes(self):
        return HEADER_BYTES + self.width * len(self.items)

    @property
    def devtools_bytes(self):
        return HEADER_BYTES

    def __repr__(self):
        return f"{self.kind}(len={len(self.items)})"


class JSObject:
    """A plain JS object (string-keyed properties)."""

    __slots__ = ("props", "__weakref__")

    def __init__(self, props=None):
        self.props = props if props is not None else {}

    @property
    def heap_bytes(self):
        return HEADER_BYTES + 16 * len(self.props)

    def __repr__(self):
        return f"JSObject({list(self.props)})"


class JSFunction:
    """A compiled JS function (parameters + bytecode + tiering state)."""

    __slots__ = ("name", "params", "code", "num_locals",
                 "call_count", "backedge_count", "tier", "codegen",
                 "plans", "__weakref__")

    def __init__(self, name, params, code, num_locals, plans=None):
        self.name = name
        self.params = params
        self.code = code
        self.num_locals = num_locals
        self.call_count = 0
        self.backedge_count = 0
        self.tier = 0
        #: Lazily built ``(engine, run | DECLINED)`` pair for the codegen
        #: tier — the generated runner pre-binds engine state, so it is
        #: keyed by engine.
        self.codegen = None
        #: The codegen translator's plans for ``code``
        #: (:class:`~repro.cache.derived.Derived`), shared by every
        #: function built from the same script template.
        self.plans = plans if plans is not None else Derived()

    def fresh(self):
        """A new function over the same code, params and plans, with its
        own tiering state — one engine's copy of a template function."""
        return JSFunction(self.name, self.params, self.code,
                          self.num_locals, self.plans)

    @property
    def heap_bytes(self):
        return HEADER_BYTES + 16 * len(self.code)

    def __repr__(self):
        return f"JSFunction({self.name})"


class NativeFunction:
    """A host (engine-native) function: Web APIs, Math, console, ...

    ``fn`` receives ``(engine, this, args)``; ``cycles`` is the abstract cost
    charged per call (native code is fast — this is why the W3C WebCrypto
    SHA in Table 9 beats everything)."""

    __slots__ = ("name", "fn", "cycles")

    def __init__(self, name, fn, cycles=10.0):
        self.name = name
        self.fn = fn
        self.cycles = cycles

    def __repr__(self):
        return f"NativeFunction({self.name})"


def js_truthy(value):
    """ECMAScript ToBoolean."""
    if value is UNDEFINED or value is None or value is False:
        return False
    if value is True:
        return True
    if isinstance(value, float):
        return value != 0.0 and value == value
    if isinstance(value, str):
        return len(value) > 0
    return True


def js_number_to_str(value):
    """ECMAScript Number-to-String for the common cases."""
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    if value == int(value) and abs(value) < 1e21:
        return str(int(value))
    return repr(value)


def js_to_str(value):
    """ECMAScript ToString for the subset's value kinds."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return js_number_to_str(value)
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, JSArray):
        return ",".join(js_to_str(v) for v in value.items)
    return str(value)


def to_int32(value):
    """ECMAScript ToInt32 (the `x|0` coercion)."""
    # Fast paths: a finite number already in int32 range — the common
    # case for compiler-produced `x|0` arithmetic.  ``int()`` truncates
    # toward zero exactly like the wrap-around path below, and ``type``
    # (not ``isinstance``) keeps bools on the slow path.
    if type(value) is float:
        if -2147483648.0 <= value <= 2147483647.0:
            return int(value)
    elif type(value) is int:
        if -2147483648 <= value <= 2147483647:
            return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return 0
    if not isinstance(value, (int, float)):
        return 0
    if value != value or value in (float("inf"), float("-inf")):
        return 0
    v = int(value) & 0xFFFFFFFF
    return v - 0x100000000 if v & 0x80000000 else v


def to_uint32(value):
    """ECMAScript ToUint32 (the `x>>>0` coercion)."""
    return to_int32(value) & 0xFFFFFFFF
