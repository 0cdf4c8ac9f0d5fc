"""Lexer for the C subset. Token kinds: ``num`` (value, is_float, is_long),
``str``, ``char``, ``ident``, ``kw``, ``punct``, ``eof``."""

from __future__ import annotations

from repro.errors import ParseError

C_KEYWORDS = {
    "int", "unsigned", "signed", "long", "short", "char", "double", "float",
    "void", "if", "else", "for", "while", "do", "return", "break",
    "continue", "static", "const", "struct", "union", "sizeof", "typedef",
    "extern", "volatile", "register",
}

_PUNCTUATORS = [
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "+", "-", "*", "/", "%",
    "&", "|", "^", "~", "!", "<", ">", "=", "?", ":",
]

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
            "'": "'", '"': '"'}


class CToken:
    __slots__ = ("kind", "value", "line", "is_float", "is_long",
                 "is_unsigned")

    def __init__(self, kind, value, line, is_float=False, is_long=False,
                 is_unsigned=False):
        self.kind = kind
        self.value = value
        self.line = line
        self.is_float = is_float
        self.is_long = is_long
        self.is_unsigned = is_unsigned

    def __repr__(self):
        return f"CToken({self.kind}, {self.value!r})"


def _number(text, base, line):
    """The value of one numeric literal: ``int`` in ``base``, or a
    ``float`` when ``base`` is :class:`float`.  A malformed one (``3e``,
    ``1..2``, a bare ``0x``) is a :class:`ParseError` on its line."""
    try:
        return float(text) if base is float else int(text, base)
    except ValueError:
        raise ParseError(f"malformed number {text!r}", line) from None


def tokenize_c(source):
    """Tokenize preprocessed C-subset source."""
    tokens = []
    i = 0
    n = len(source)
    line = 1
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and
                            source[i + 1].isdigit()):
            j = i
            is_float = False
            if source.startswith(("0x", "0X"), i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                value = _number(source[i:j], 16, line)
            else:
                while j < n and (source[j].isdigit() or source[j] == "."):
                    if source[j] == ".":
                        is_float = True
                    j += 1
                if j < n and source[j] in "eE":
                    is_float = True
                    j += 1
                    if j < n and source[j] in "+-":
                        j += 1
                    while j < n and source[j].isdigit():
                        j += 1
                value = _number(source[i:j], float if is_float else 10,
                                line)
            is_long = False
            is_unsigned = False
            while j < n and source[j] in "uUlLfF":
                if source[j] in "lL":
                    is_long = True
                elif source[j] in "uU":
                    is_unsigned = True
                elif source[j] in "fF":
                    is_float = True
                    value = float(value)
                j += 1
            tokens.append(CToken("num", value, line, is_float, is_long,
                                 is_unsigned))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            tokens.append(CToken("kw" if word in C_KEYWORDS else "ident",
                                 word, line))
            i = j
            continue
        if ch == "'":
            escaped = source.startswith("\\", i + 1)
            end = i + 3 if escaped else i + 2
            if end >= n or source[end] != "'":
                raise ParseError("malformed char literal", line)
            value = source[end - 1]
            if escaped:
                value = _ESCAPES.get(value, value)
            tokens.append(CToken("char", ord(value), line))
            i = end + 1
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    buf.append(_ESCAPES.get(source[j + 1], source[j + 1]))
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string literal", line)
            tokens.append(CToken("str", "".join(buf), line))
            i = j + 1
            continue
        for punct in _PUNCTUATORS:
            if source.startswith(punct, i):
                tokens.append(CToken("punct", punct, line))
                i += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line)
    tokens.append(CToken("eof", None, line))
    return tokens
