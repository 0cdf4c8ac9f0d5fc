"""Source-to-source transformations from §3.1.

Cheerp cannot compile two C/C++ constructs the benchmark suites use:

* **Exceptions** — Cheerp strips ``catch`` blocks but keeps ``throw``
  statements, so any thrown exception segfaults.  :func:`remove_exceptions`
  rewrites ``try``/``catch`` into an error-flag predicate (the paper's
  Fig. 3a).
* **Unions** — unsupported outright.  :func:`replace_unions` rewrites each
  ``union`` into a ``struct`` carrying every member (the paper's Fig. 3b
  uses multiple structs + casts; without pointers our subset expresses the
  same data with one struct whose members alias by convention).

Both transforms are textual/structural (they run before parsing), exactly
like the manual edits the paper's authors applied to 30 of the 41
benchmarks.
"""

from __future__ import annotations

import re

_THROW = re.compile(r"throw\s+[^;]+;")
_CATCH = re.compile(r"catch\s*\([^)]*\)")


def remove_exceptions(source, flag_name="__error"):
    """Rewrite try/catch/throw into flag-predicated error handling.

    ``throw expr;`` becomes ``__error = 1;`` and each ``catch`` block
    becomes ``if (__error) { ... }`` with the exception binding removed —
    the transformation of the paper's Fig. 3(a).
    """
    if "try" not in source and "throw" not in source:
        return source
    out = source
    declared = f"int {flag_name} = 0;\n"

    # throw <expr>; -> set the error flag.
    out = _THROW.sub(f"{flag_name} = 1;", out)

    # try { BODY } -> BODY (braces kept as a plain block).
    while True:
        match = re.search(r"\btry\s*\{", out)
        if not match:
            break
        open_brace = out.index("{", match.start())
        out = out[:match.start()] + out[open_brace:]

    # catch (...) { BODY } -> if (<flag>) { BODY }
    while True:
        match = _CATCH.search(out)
        if not match:
            break
        open_brace = out.index("{", match.end())
        out = (out[:match.start()] + f"if ({flag_name}) " +
               out[open_brace:])

    # References to the bound exception object cannot survive; e.what()
    # style calls are dropped line-wise.
    out = re.sub(r"[^\n;]*e\.what\(\)[^\n;]*;", "", out)
    return declared + out


_UNION = re.compile(r"\bunion\b")


def replace_unions(source):
    """Rewrite ``union X { ... };`` (and every ``union X`` use) into the
    ``struct`` equivalent.

    In the paper's Fig. 3(b) the union is replaced by structs plus casts;
    our pointer-free subset keeps all members in one struct, which
    preserves the benchmarks' observable behaviour (they never rely on
    bit-aliasing between union members after the authors' own transform)."""
    return _UNION.sub("struct", source)


def transform_source(source):
    """Apply all §3.1 transformations in order."""
    return replace_unions(remove_exceptions(source))
