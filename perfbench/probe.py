"""How fast the host runs Python right now.

The benchmark's hosts are shared, and their speed moves under it: on a
2-core VM the same 60 ``execute`` cells took from 1.4 to 3.3 s a pass
within one run, for minutes at a time, in CPU time as much as in wall
time.  :func:`probe` times a fixed slice of pure-Python work (dict and
string churn, masked integer arithmetic over a ``bytearray``, and
tokenizing and walking a small tree: the mix of the program's compiler
and its generated engine code).  It never calls the program, so a change
to the program cannot change what it measures.  ``run.py`` scales every
time it reports by :func:`scale` of the probes taken around it, which
turns it into *reference seconds*: the time the work would have taken on
a host where one probe takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import re
import statistics
import time

#: Seconds one probe takes on the reference host (a quiet 2-core Xeon VM,
#: Python 3.11).
REFERENCE_S = 0.0064

_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(.))")
_SOURCE = ("int f(int a, int b) { for (i = 0; i < n; i++) "
           "{ s += a[i] * b[i] + 3; } return s; }\n") * 10


class _Node:
    __slots__ = ("text", "kids")

    def __init__(self, text):
        self.text = text
        self.kids = []


def _dicts():
    table = {}
    texts = []
    total = 0
    for i in range(10000):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + i
        texts.append(str(i))
        total += len(texts[-1])
    return total + len("".join(texts))


def _ints():
    memory = bytearray(65536)
    local = [0] * 4
    for i in range(6000):
        a = (local[0] + i * 31) & 0xFFFFFFFF
        b = (a ^ (a >> 3)) & 0xFFFF
        local[0] = a
        local[1] = (local[1] + b) & 0xFFFFFFFF
        memory[b] = a & 255
        local[2] = (local[2] * 3 + memory[(b * 7) & 0xFFFF]) & 0xFFFFFFFF
        if b & 1:
            local[3] += 1
    return local[2]


def _tree():
    root = _Node("")
    stack = [root]
    for match in _TOKEN.finditer(_SOURCE):
        number, word, op = match.groups()
        node = _Node(number or word or op)
        stack[-1].kids.append(node)
        if op == "{":
            stack.append(node)
        elif op == "}" and len(stack) > 1:
            stack.pop()

    def size(node):
        return 1 + sum(size(kid) for kid in node.kids)
    return size(root)


def probe():
    """Seconds one probe takes now.  Garbage collection is off while it
    runs, so the size of the caller's heap does not enter into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _dicts()
        _ints()
        _tree()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probes(count=3):
    return [probe() for _ in range(count)]


def scale(taken):
    """Reference seconds per second measured while the probes ``taken``
    ran (their mean)."""
    return REFERENCE_S / statistics.fmean(taken)
