"""Minimal C preprocessor.

Supports what the benchmark suites need: object-like ``#define``, ``-D``
command-line definitions (how input sizes are selected, §3.2), ``#ifdef`` /
``#ifndef`` / ``#else`` / ``#endif``, ``#include`` (ignored — the toolchain
facades decide library linkage, §3.2), and comment stripping.
"""

from __future__ import annotations

import re

from repro.cache.derived import memoize
from repro.errors import ParseError

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _strip_comments(source):
    out = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            i = n if j < 0 else j
        elif ch == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            if j < 0:
                raise ParseError("unterminated comment")
            out.append("\n" * source.count("\n", i, j))
            i = j + 2
        elif ch in "'\"":
            j = i + 1
            while j < n and source[j] != ch:
                j += 2 if source[j] == "\\" else 1
            out.append(source[i:j + 1])
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _substitute(line, defines):
    """Replace defined identifiers (token-aware, repeated to a fixed
    point so macros may reference macros)."""
    for _ in range(8):
        changed = False

        def repl(match):
            nonlocal changed
            name = match.group(0)
            if name in defines:
                changed = True
                return str(defines[name])
            return name

        line = _IDENT.sub(repl, line)
        if not changed:
            return line
    return line


#: Expansions kept per process: one per (program, input size) of a sweep.
PREPROCESS_MEMO_SIZE = 64


def preprocess(source, defines=None):
    """Run the preprocessor; returns expanded source text.

    ``defines`` maps macro names to replacement text (ints are accepted and
    stringified) — the ``-D`` mechanism the toolchains use for input sizes.
    The expansion is memoized per process on the source and the
    stringified defines, so the compile cache's key and a cache miss's
    frontend share one expansion, and a warm run expands nothing.
    """
    return _memoized(source, frozenset(
        (name, str(value)) for name, value in (defines or {}).items()))


@memoize(PREPROCESS_MEMO_SIZE)
def _memoized(source, defines):
    return _expand(source, dict(defines))


def _expand(source, defines):
    out = []
    # Stack of booleans: is the current conditional region active?
    active_stack = [True]
    for lineno, raw in enumerate(_strip_comments(source).split("\n"), 1):
        line = raw.strip()
        if line.startswith("#"):
            directive = line[1:].strip()
            if directive.startswith("include"):
                out.append("")
                continue
            if directive.startswith("define"):
                if all(active_stack):
                    rest = directive[len("define"):].strip()
                    match = _IDENT.match(rest)
                    if not match:
                        raise ParseError("malformed #define", lineno)
                    name = match.group(0)
                    body = rest[match.end():].strip()
                    defines[name] = _substitute(body, defines) if body else "1"
                out.append("")
                continue
            if directive.startswith("undef"):
                if all(active_stack):
                    defines.pop(directive[len("undef"):].strip(), None)
                out.append("")
                continue
            if directive.startswith("ifdef"):
                name = directive[len("ifdef"):].strip()
                active_stack.append(name in defines)
                out.append("")
                continue
            if directive.startswith("ifndef"):
                name = directive[len("ifndef"):].strip()
                active_stack.append(name not in defines)
                out.append("")
                continue
            if directive.startswith("else"):
                if len(active_stack) < 2:
                    raise ParseError("#else without #if", lineno)
                active_stack[-1] = not active_stack[-1]
                out.append("")
                continue
            if directive.startswith("endif"):
                if len(active_stack) < 2:
                    raise ParseError("#endif without #if", lineno)
                active_stack.pop()
                out.append("")
                continue
            if directive.startswith("pragma"):
                out.append("")
                continue
            raise ParseError(f"unsupported directive {line!r}", lineno)
        if all(active_stack):
            out.append(_substitute(raw, defines))
        else:
            out.append("")
    if len(active_stack) != 1:
        raise ParseError("unterminated #if block")
    return "\n".join(out)
