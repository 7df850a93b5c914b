"""Tokenizer for program source text.

Tokens carry 1-based line/column positions, a column counting characters.
`//` starts a line comment. `op+` and `op*` are single tokens; a trailing
apostrophe after a name is the derivative marker and is produced as its own
`'` token. One pattern (`_TOKEN`) is tried at each position, and the first
of its alternatives to match gives the token.
"""

from __future__ import annotations

import re

from ..errors import LexError
from ..rational import NUMBER
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
    "op+",
    "op*",
}

# Whitespace and comments, a NUMBER, a word (a keyword or a name), or an
# operator or delimiter, longest first. `\w` is what `str.isalnum` takes and
# `_`, so a word may start with a digit that is no NUMBER's, such as '²';
# `lex` refuses it at that character, as a name starts with a letter or `_`.
_TOKEN = re.compile(
    r"(?P<space>(?:[ \t\r\n]|//[^\n]*)+)"
    rf"|(?P<number>{NUMBER})"
    r"|(?P<name>op[+*]|\w+)"
    r"|(?P<punct>\|\||&&|[=!<>]=|[<>!+\-*/=;,:?'(){}\[\]])"
)


class Token(Struct):
    kind: str  # 'name' | 'keyword' | 'number' | 'punct' | 'eof'
    text: str
    line: int
    col: int

    @staticmethod
    def make(kind: str, text: str, line: int, col: int) -> "Token":
        """The token, built past the generic constructor, as
        `kernel.InputAssignment.make` builds a choice: a lex builds one
        per word."""
        token = object.__new__(Token)
        fields = token.__dict__
        fields["kind"] = kind
        fields["text"] = text
        fields["line"] = line
        fields["col"] = col
        return token


def lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # the line's number, and the index of its first character
    i, n = 0, len(source)
    match, make = _TOKEN.match, Token.make
    while i < n:
        found = match(source, i)
        if found is None or found.lastgroup == "name" and not (
            source[i].isalpha() or source[i] == "_"
        ):
            raise LexError(f"unexpected character {source[i]!r}", line, i - start + 1)
        kind, text = found.lastgroup, found.group()
        if kind == "space":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                start = i + text.rindex("\n") + 1
        else:
            if kind == "name" and text in KEYWORDS:
                kind = "keyword"
            tokens.append(make(kind, text, line, i - start + 1))
        i = found.end()
    tokens.append(make("eof", "", line, n - start + 1))
    return tokens
