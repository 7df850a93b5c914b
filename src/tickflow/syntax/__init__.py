"""Lexing, parsing, static checking and pretty-printing of source programs."""

from . import nodes
from .checks import check_program, fold_constant
from .lexer import lex
from .parser import parse, parse_raw
from .printer import pretty_print, print_expr

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
