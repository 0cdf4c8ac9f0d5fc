"""In-process memos of values derived from immutable program inputs.

A warm run of an already-compiled program re-derives nothing: the C
preprocessor's expansion, the JS engine's script template, the Wasm VM's
prepared bodies and each codegen translator's plan are computed once per
process and shared by every later run of the same program.  None of them
is persisted: each is cheap next to a compile, and sharing them across
processes would only add a pickle round-trip.

Two shapes of memo:

* :func:`memoize` — a fixed-size LRU over a pure function of hashable
  inputs, for values keyed by content (source text).  Its size is a
  module constant of the caller; there is no setting.
* :class:`Derived` — a memo that lives on the immutable object its values
  derive from (a Wasm module, a native function, a shared JS function
  body), so it lives exactly as long as that object: a compiled artifact
  evicted from the artifact cache's memory layer takes its derived values
  with it.  It pickles empty, so an artifact written to the disk store or
  sent to a worker carries none of them.

:func:`clear` drops both at once (``repro.engine.codegen.reset_cache``
calls it).  Every memoized value is immutable or treated as such by its
readers, and a race between two threads at worst derives one value twice.
"""

from __future__ import annotations

import functools

_memos = []
#: Bumped by :func:`clear`; a :class:`Derived` stamped with an older
#: generation drops its values on the next lookup.
_generation = 0


def memoize(maxsize):
    """Decorator: an LRU memo of at most ``maxsize`` results of a pure
    function, dropped by :func:`clear`."""
    def decorate(fn):
        memo = functools.lru_cache(maxsize=maxsize)(fn)
        _memos.append(memo)
        return memo
    return decorate


class Derived:
    """Values derived from one immutable object, keyed by what else they
    depend on (translation flags, say)."""

    __slots__ = ("_generation", "_values")

    def __init__(self):
        self._generation = _generation
        self._values = {}

    def get(self, key, make):
        """The value for ``key``, computed by ``make()`` on first use."""
        if self._generation != _generation:
            self._generation = _generation
            self._values = {}
        try:
            return self._values[key]
        except KeyError:
            value = self._values[key] = make()
            return value

    def __reduce__(self):
        return Derived, ()


def clear():
    """Drop every in-process derived value."""
    global _generation
    _generation += 1
    for memo in _memos:
        memo.cache_clear()
