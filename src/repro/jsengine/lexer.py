"""Lexer for the JavaScript subset.

Token kinds: ``num``, ``str``, ``ident``, ``kw``, ``punct``, ``eof``.
The token count is also the engine's parse-cost unit (V8-style parsing is
roughly linear in tokens).
"""

from __future__ import annotations

from repro.errors import ParseError

KEYWORDS = {
    "var", "let", "const", "function", "return", "if", "else", "for",
    "while", "do", "break", "continue", "new", "true", "false", "null",
    "undefined", "typeof", "in", "of",
}

# Longest first so '>>>=' wins over '>>>' etc.
_PUNCTUATORS = [
    ">>>=", "===", "!==", ">>>", "<<=", ">>=", "&&", "||", "==", "!=",
    "<=", ">=", "<<", ">>", "++", "--", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "=>", "{", "}", "(", ")", "[", "]", ";", ",", "<",
    ">", "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "?", ":", "=",
    ".",
]


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


def _number(text, base, line, col):
    """The value of one numeric literal; a malformed one (``3e``,
    ``1..2``, a bare ``0x``) is a :class:`ParseError` at its position."""
    try:
        return float(int(text, 16)) if base == 16 else float(text)
    except ValueError:
        raise ParseError(f"malformed number {text!r}", line, col) from None


def tokenize_js(source):
    """Tokenize JS-subset source; returns a list of :class:`Token` ending
    with an ``eof`` token."""
    tokens = []
    i = 0
    n = len(source)
    line = 1
    line_start = 0
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            line_start = i + 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "/" and i + 1 < n:
            if source[i + 1] == "/":
                while i < n and source[i] != "\n":
                    i += 1
                continue
            if source[i + 1] == "*":
                end = source.find("*/", i + 2)
                if end < 0:
                    raise ParseError("unterminated comment", line)
                line += source.count("\n", i, end)
                i = end + 2
                continue
        col = i - line_start + 1
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                tokens.append(Token("num", _number(source[i:j], 16, line,
                                                   col), line, col))
                i = j
                continue
            while j < n and (source[j].isdigit() or source[j] in ".eE" or
                             (source[j] in "+-" and source[j - 1] in "eE")):
                j += 1
            tokens.append(Token("num", _number(source[i:j], 10, line, col),
                                line, col))
            i = j
            continue
        if ch.isalpha() or ch in "_$":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            word = source[i:j]
            tokens.append(Token("kw" if word in KEYWORDS else "ident",
                                word, line, col))
            i = j
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            buf = []
            while j < n and source[j] != quote:
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    buf.append({"n": "\n", "t": "\t", "r": "\r",
                                "\\": "\\", "'": "'", '"': '"',
                                "0": "\0"}.get(esc, esc))
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line)
            tokens.append(Token("str", "".join(buf), line, col))
            i = j + 1
            continue
        for punct in _PUNCTUATORS:
            if source.startswith(punct, i):
                tokens.append(Token("punct", punct, line, col))
                i += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", None, line, 0))
    return tokens
