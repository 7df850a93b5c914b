"""Lexing, parsing, static checking and pretty-printing of source programs.

The printer is imported on first use of `pretty_print` or `print_expr`
(PEP 562), so a command that prints no program does not load it."""

from . import nodes
from .checks import check_program, fold_constant
from .lexer import lex
from .parser import parse, parse_raw

__all__ = [
    "nodes",
    "lex",
    "parse",
    "parse_raw",
    "check_program",
    "fold_constant",
    "pretty_print",
    "print_expr",
]


def __getattr__(name: str):
    if name not in ("pretty_print", "print_expr"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import printer

    value = globals()[name] = getattr(printer, name)
    return value
