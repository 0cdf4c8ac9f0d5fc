"""WebAssembly module model.

Value types are the strings ``"i32"``, ``"i64"``, ``"f64"`` (the reproduction
treats ``f32`` as ``f64``, like Cheerp's genericjs output does for numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.derived import Derived

VALTYPES = ("i32", "i64", "f64")


@dataclass(frozen=True)
class FuncType:
    """A function signature: parameter types and result types."""

    params: tuple
    results: tuple

    def __post_init__(self):
        for t in self.params + self.results:
            if t not in VALTYPES:
                raise ValueError(f"bad value type {t!r}")


@dataclass
class Function:
    """A defined function: explicit locals follow the parameters."""

    name: str
    type: FuncType
    locals: list = field(default_factory=list)
    body: list = field(default_factory=list)
    exported: bool = False

    @property
    def num_params(self):
        return len(self.type.params)


@dataclass
class HostImport:
    """A host (JavaScript glue) function import.

    Calls into host imports model the Wasm↔JS boundary: the VM charges the
    engine profile's context-switch cost for each of them (§4.5).
    """

    module: str
    name: str
    type: FuncType
    func: object = None  # Python callable bound at instantiation.


@dataclass
class GlobalVar:
    name: str
    valtype: str
    mutable: bool = True
    init: float = 0


@dataclass
class MemorySpec:
    """Linear memory limits, in pages of ``page_size`` bytes.

    ``page_size`` is the growth granularity: 64 KiB for Cheerp output and
    16 MiB for Emscripten output (§4.2.2).
    """

    min_pages: int = 1
    max_pages: int = 32768
    page_size: int = 65536


@dataclass
class DataSegment:
    """An active data segment copied into linear memory at instantiation."""

    offset: int
    data: bytes


@dataclass
class WasmModule:
    """A complete module ready for validation, encoding, or instantiation."""

    name: str = "module"
    imports: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    globals: list = field(default_factory=list)
    memory: MemorySpec = field(default_factory=MemorySpec)
    data: list = field(default_factory=list)
    start: str = None
    #: Optional metadata attached by toolchains (e.g. source optimization
    #: level) so the harness can report provenance.
    meta: dict = field(default_factory=dict)
    #: What the VM derives from this module once per process (its
    #: prepared bodies); pickles empty.
    derived: Derived = field(default_factory=Derived, repr=False,
                             compare=False)

    def func_index(self, name):
        """Function-space index of ``name`` (imports come first, as in the
        real wasm binary format)."""
        for i, imp in enumerate(self.imports):
            if imp.name == name:
                return i
        for i, fn in enumerate(self.functions):
            if fn.name == name:
                return len(self.imports) + i
        raise KeyError(name)

    def function(self, name):
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)

    def add_function(self, func):
        self.functions.append(func)
        return len(self.imports) + len(self.functions) - 1

    @property
    def static_instruction_count(self):
        return sum(len(f.body) for f in self.functions)

    def opclass_census(self):
        """Static per-:class:`~repro.engine.opclass.OpClass` instruction
        counts over every function body (what a baseline compiler's emit
        loop walks)."""
        from repro.engine.compilemodel import empty_census
        from repro.wasm.instructions import OP_CLASS
        counts = empty_census()
        for fn in self.functions:
            for op, _arg in fn.body:
                counts[OP_CLASS[op]] += 1
        return counts

    def code_unit(self, binary_size=0, pass_telemetry=None):
        """This module as a :class:`~repro.engine.compilemodel.CodeUnit`
        for the modeled compile pipeline.  ``pass_telemetry`` defaults to
        the telemetry the optimizer recorded into ``meta``."""
        from repro.engine.compilemodel import CodeUnit, normalize_telemetry
        if pass_telemetry is None:
            pass_telemetry = self.meta.get("pass_telemetry", ())
        return CodeUnit(
            name=self.name,
            static_instrs=self.static_instruction_count,
            code_bytes=binary_size,
            functions=len(self.functions),
            opclass_counts=tuple(self.opclass_census()),
            pass_telemetry=normalize_telemetry(pass_telemetry))
