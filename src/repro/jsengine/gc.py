"""Mark-sweep garbage collector model.

The live set is what the JS program can still reach.  A collection marks
from the engine's roots — its globals plus one root holder per active
frame (:attr:`GcHeap.frames`) — through array elements and object
properties, sums the sizes of the registered objects it reached, and
charges a pause cost proportional to that live set.

Each frame's holder is a tuple of value sequences pushed by
``interpreter.execute`` for the frame's lifetime.  A reference-ladder
frame holds its own ``locals_`` and ``stack`` lists, so the mark always
sees its current state.  A codegen frame holds one list that it
overwrites with its locals and the operand slots below the current depth
at the only points where the mark can run while it is active: just
before it calls a JS function or constructs, and inside its own
collection branch.  After a run no frame is active, so a DevTools
snapshot marks from the globals alone.

Registrations are weak references only so that CPython frees garbage
early; which of them are still alive never enters a number.

This is the mechanism behind the paper's memory findings: JS heap usage
stays flat as input grows (Tables 4/6) because temporaries die and are
reclaimed, while Wasm's linear memory only ever grows.
"""

from __future__ import annotations

import weakref

from repro.jsengine.values import JSArray, JSFunction, JSObject, JSTypedArray

_HEAP_TYPES = frozenset((JSArray, JSObject, JSTypedArray, JSFunction))


def _size(obj):
    """GC-heap bytes of one object.  Typed arrays count only their
    wrapper: the backing store is external (ArrayBuffer) memory, outside
    the GC'd JS heap — exactly how V8/SpiderMonkey treat it, and the
    reason Cheerp-generated JS keeps a flat heap at every input size
    (Tables 4/6)."""
    return getattr(obj, "devtools_bytes", obj.heap_bytes)


class GcHeap:
    """Allocation tracker + collection cost model for one engine instance."""

    def __init__(self, globals_, baseline_bytes=262144,
                 trigger_bytes=2 * 1024 * 1024, pause_base_cycles=8000.0,
                 pause_per_live_byte=0.02):
        #: The realm's global bindings: the root every mark starts from.
        self.globals = globals_
        #: One root holder per active frame, innermost last.
        self.frames = []
        #: Fixed engine overhead (contexts, builtins, parsed code metadata).
        self.baseline_bytes = baseline_bytes
        self.trigger_bytes = trigger_bytes
        self.pause_base_cycles = pause_base_cycles
        self.pause_per_live_byte = pause_per_live_byte
        self._registry = []          # weakrefs to registered objects
        self.allocated_since_gc = 0

    def register(self, obj):
        """Track a heap object (array/object/typed array/function)."""
        self._registry.append(weakref.ref(obj))
        self.allocated_since_gc += _size(obj)

    def note_ephemeral(self, nbytes):
        """Account short-lived garbage the registry does not track
        (strings, grown element storage)."""
        self.allocated_since_gc += nbytes

    def _mark(self):
        """Every heap object reachable from the roots."""
        marked = set()
        todo = [self.globals.values()]
        for holder in self.frames:
            todo.extend(holder)
        while todo:
            for value in todo.pop():
                kind = type(value)
                if kind in _HEAP_TYPES and value not in marked:
                    marked.add(value)
                    if kind is JSArray:
                        todo.append(value.items)
                    elif kind is JSObject:
                        todo.append(value.props.values())
        return marked

    def live_bytes(self):
        """GC-heap bytes of the registered objects the mark reaches
        (typed-array backings are external and excluded)."""
        marked = self._mark()
        total = 0
        alive = []
        for ref in self._registry:
            obj = ref()
            if obj is not None:
                alive.append(ref)
                if obj in marked:
                    total += _size(obj)
        self._registry = alive
        return total

    def collect(self):
        """Run a full collection; returns the pause cost in cycles."""
        pause = self.pause_base_cycles + \
            self.pause_per_live_byte * self.live_bytes()
        self.allocated_since_gc = 0
        return pause

    def devtools_bytes(self):
        """DevTools JS-heap snapshot, the paper's reported JS memory
        metric: engine baseline plus the live set."""
        return self.baseline_bytes + self.live_bytes()
