"""Tokenizer for program source text.

Tokens carry 1-based line/column positions. `//` starts a line comment.
`op+` and `op*` are single tokens; a trailing apostrophe after a name is
the derivative marker and is produced as its own PRIME token.
"""

from __future__ import annotations

from ..errors import LexError
from ..rational import DIGITS
from ..struct import Struct

KEYWORDS = {
    "nothing",
    "emit",
    "pause",
    "abort",
    "suspend",
    "immediate",
    "if",
    "else",
    "input",
    "output",
    "signal",
    "cont",
    "param",
    "do",
    "until",
    "loop",
    "true",
    "false",
    "ratio",
    "int",
    "boolean",
    "TTL",
}

PUNCT = [
    "op+",
    "op*",
    "||",
    "&&",
    "==",
    "!=",
    "<=",
    ">=",
    "<",
    ">",
    "!",
    "+",
    "-",
    "*",
    "/",
    "=",
    ";",
    ",",
    ":",
    "?",
    "'",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
]


class Token(Struct):
    kind: str  # 'name' | 'keyword' | 'number' | 'punct' | 'eof'
    text: str
    line: int
    col: int


def lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def advance(text: str):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            j = n if j == -1 else j
            advance(source[i:j])
            i = j
            continue
        if ch in DIGITS:
            j = i
            while j < n and source[j] in DIGITS:
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1] in DIGITS:
                j += 1
                while j < n and source[j] in DIGITS:
                    j += 1
            text = source[i:j]
            tokens.append(Token("number", text, line, col))
            advance(text)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            # 'op+' / 'op*' read as one token
            if text == "op" and j < n and source[j] in "+*":
                text = source[i : j + 1]
                j += 1
            kind = "keyword" if text in KEYWORDS or text in ("op+", "op*") else "name"
            tokens.append(Token(kind, text, line, col))
            advance(text)
            i = j
            continue
        for punct in PUNCT:
            if source.startswith(punct, i):
                tokens.append(Token("punct", punct, line, col))
                advance(punct)
                i += len(punct)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
