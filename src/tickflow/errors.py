"""Exception hierarchy shared by every stage of the toolchain.

Compile-time problems (lexing, parsing, resolution, typing, structural
checks) derive from CompileError and carry a source position when one is
known. Runtime problems raised while a program executes derive from
KernelError and carry the tick index at which they occurred.
"""

from __future__ import annotations


class TickflowError(Exception):
    """Base class for every error raised by this package."""


class CompileError(TickflowError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(self.render())

    def render(self) -> str:
        if self.line is not None:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class LexError(CompileError):
    pass


class ParseError(CompileError):
    pass


class ResolveError(CompileError):
    """A name does not resolve to any declaration in lexical scope."""


class TypeError_(CompileError):
    """An expression or statement is ill-typed."""


class InstantaneousLoopError(CompileError):
    """A loop body has a static path that consumes no tick."""


class NonConstantRateError(CompileError):
    """A rate expression does not fold to a rational constant."""


class CombineError(CompileError):
    """A continuous variable with simultaneous writers, or several rates in
    one `TTL` call, is not declared `op+`."""


class ParamError(CompileError):
    """A named constant is left unbound and has no default."""


class KernelError(TickflowError):
    def __init__(self, message: str, tick: int | None = None):
        self.message = message
        self.tick = tick
        if tick is not None:
            super().__init__(f"tick {tick}: {message}")
        else:
            super().__init__(message)


class ScheduleError(TickflowError):
    """An input schedule, input alphabet, variable map, corpus case, trace
    JSON or command-line automaton file is malformed, and the message names
    it; or an alphabet lacks the values a valued input needs; or, as
    `locate` names it, a flag, an input file or a corpus case's field gives
    an argument the library refuses."""


class _LineError(TickflowError):
    """An error in a file read line by line, at `line` of its text when
    that is known, which the message then starts with."""

    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        super().__init__(message if line is None else f"{line}: {message}")


class MatrixError(_LineError):
    """A matrix file is malformed, at `line` of its text when that is
    known, or dimensions are incompatible."""


class AutomatonError(_LineError):
    """A hybrid-automaton description is malformed, at `line` of its text
    when that is known."""


class DeadlockError(TickflowError):
    """The automaton's location invariant expired with no enabled edge."""

    def __init__(self, message: str, time):
        self.time = time
        super().__init__(message)


class NondeterminismError(TickflowError):
    """Two edges enable at the same instant and no priority orders them."""


class ArgumentError(TickflowError):
    """An argument of a call is out of range, or is an input (a schedule, an
    alphabet, a variable map) whose content the program cannot take; `name`
    is the parameter."""

    def __init__(self, name: str, message: str):
        self.name = name
        self.message = message
        super().__init__(f"{name} {message}")


class SearchLimitError(TickflowError):
    """The reachability search hit its configured node limit."""


class NestingError(TickflowError):
    """A program the parser reads is nested past the recursion limit of a
    later pass: binding, rewriting, checking or compiling."""


def locate(err: BaseException, path: str, table: dict) -> TickflowError:
    """The located error a front end reports for `err`, a library error met
    on the program at `path` (or a `RecursionError`). The caller's input at
    fault is a `ScheduleError`: one that names its file already is
    returned as is, and an `ArgumentError` is named by what supplied its
    parameter, which `table` maps each parameter name to (a flag, an input
    file, or a corpus case's field). The program at fault is a
    `TickflowError`: one nested past a later pass's recursion limit is
    `path: nested too deep to process`, any other is located in the
    program, `path:message`."""
    if isinstance(err, ScheduleError):
        return err
    if isinstance(err, ArgumentError):
        return ScheduleError(f"{table.get(err.name, err.name)}: {err.message}")
    if isinstance(err, (NestingError, RecursionError)):
        return TickflowError(f"{path}: nested too deep to process")
    return TickflowError(f"{path}:{err}")
