"""Command-line interface.

Subcommands: check (parse + static checks), desugar (print the rewritten
program), run (simulate and export a trace), verify (bounded reachability
of a signal emission), lti (observability/controllability rank verdicts),
compare (idealized automaton vs. tick-discretized program).

Exit codes: 0 success / unreachable / property holds; 1 property violation
or witness found; 2 usage, compile or runtime errors. Diagnostics go to
stderr as file:line:col: message.
"""

from __future__ import annotations

import argparse
import errno
import sys
from fractions import Fraction

from .errors import (
    ArgumentError,
    AutomatonError,
    CompileError,
    DeadlockError,
    KernelError,
    NondeterminismError,
    ScheduleError,
    SearchLimitError,
    TickflowError,
)
from .rational import format_rational, format_value, parse_int, parse_rational

# Each subcommand imports the modules it runs when it runs (`json` too, for
# the input files), so `check` and `desugar` never load the kernel, `lti`
# never loads the parser, and a cold command pays only for its own chain.
# Calls go through module attributes, read at call time.


def _read_text(path: str) -> str:
    """The text of the file at `path`. A file that is not UTF-8 raises an
    `OSError` naming it, like a file that cannot be opened."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
            raise OSError(errno.EILSEQ, reason, path) from None


def _load_json(path: str, what: str, shape: type):
    """The parsed JSON document in `path`, whose top level must be a
    `shape` (list or dict); `what` names the file's role in errors. An
    object that repeats a key is an error, never read as its last value."""
    import json

    def object_of(pairs: list) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ScheduleError(f"{path}: key {key!r} repeated in an object")
            obj[key] = value
        return obj

    try:
        doc = json.loads(_read_text(path), object_pairs_hook=object_of)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"{path}: {exc}") from exc
    if not isinstance(doc, shape):
        kind = "array" if shape is list else "object"
        raise ScheduleError(f"{path}: {what} must be a JSON {kind}")
    return doc


def _value(path: str, datum):
    """A value a file gives an input: a JSON boolean as itself, for a
    boolean input, or a rational written as a string."""
    if datum.__class__ is bool:
        return datum
    if isinstance(datum, str):
        try:
            return parse_rational(datum)
        except ValueError:
            pass
    raise ScheduleError(f"{path}: bad rational {datum!r}")


def load_schedule(path: str) -> dict:
    """JSON array of per-tick input objects:
    [{"tick": 1, "present": ["FAULT"], "values": {"S": "3/2", "B": true}}, ...];
    a value is a rational as a string, or a JSON boolean for a boolean
    input. Ticks not mentioned see no inputs. Returns {tick: InputAssignment}."""
    from . import kernel

    doc = _load_json(path, "schedule", list)
    schedule: dict = {}
    for entry in doc:
        if not isinstance(entry, dict) or "tick" not in entry:
            raise ScheduleError(f"{path}: each entry needs a 'tick' field")
        tick = entry["tick"]
        if type(tick) is not int or tick < 1:
            raise ScheduleError(f"{path}: bad tick {tick!r}")
        _known_keys(path, f"tick {tick}", entry, ("tick", "present", "values"))
        present = entry.get("present", [])
        if not isinstance(present, list) or not all(isinstance(n, str) for n in present):
            raise ScheduleError(f"{path}: tick {tick}: 'present' must be a list of names")
        _distinct(path, f"tick {tick}", "present", present)
        texts = entry.get("values", {})
        if not isinstance(texts, dict):
            raise ScheduleError(f"{path}: tick {tick}: 'values' must be a JSON object")
        values = {name: _value(path, text) for name, text in texts.items()}
        if tick in schedule:
            raise ScheduleError(f"{path}: duplicate tick {tick}")
        schedule[tick] = kernel.InputAssignment.make(present=present, values=values)
    return schedule


def load_alphabet(path: str):
    """JSON object: {"FAULT": {}, "LEVEL": {"values": ["1", "3/2"]}} — every
    listed input may be present or absent; valued ones pick from `values`
    (JSON booleans for a boolean input), which only an entry that may be
    present can give.
    Returns a `verify.InputAlphabet`."""
    from . import verify

    doc = _load_json(path, "alphabet", dict)
    statuses = {}
    values = {}
    for name, spec in doc.items():
        if not isinstance(spec, dict):
            raise ScheduleError(f"{path}: alphabet entry {name!r} must be a JSON object")
        _known_keys(path, f"alphabet entry {name!r}", spec, ("statuses", "values"))
        chosen = spec.get("statuses", ["absent", "present"])
        if (
            not isinstance(chosen, list)
            or not chosen
            or not all(c in ("absent", "present") for c in chosen)
        ):
            raise ScheduleError(
                f"{path}: alphabet entry {name!r}: 'statuses' must be a non-empty "
                "list of 'absent' and 'present'"
            )
        statuses[name] = _distinct(path, f"alphabet entry {name!r}", "statuses", chosen)
        if "values" in spec:
            if "present" not in chosen:
                raise ScheduleError(
                    f"{path}: alphabet entry {name!r}: 'values' given but 'present' "
                    "is not among its statuses"
                )
            if not isinstance(spec["values"], list):
                raise ScheduleError(
                    f"{path}: alphabet entry {name!r}: 'values' must be a JSON array"
                )
            picked = [_value(path, v) for v in spec["values"]]
            values[name] = _distinct(path, f"alphabet entry {name!r}", "values", picked)
    return verify.InputAlphabet.make(statuses, values)


def _distinct(path: str, where: str, key: str, items: list) -> tuple:
    """`items`, the list under `key` at `where` in the file, as a tuple. A
    repeat is an error, never merged: in an alphabet it would make the
    search advance the same choice twice. `true` and `1` are two entries:
    only one of them fits the input."""
    if len({(item.__class__, item) for item in items}) < len(items):
        raise ScheduleError(f"{path}: {where}: {key!r} repeats an entry")
    return tuple(items)


def _require_inputs(path: str, where: str, names, program) -> None:
    """Reject a name in an input file that names no input of `program`;
    `where` says where in the file the names sit."""
    undeclared = sorted(set(names) - {d.name for d in program.inputs()})
    if undeclared:
        raise ScheduleError(f"{path}: {where}{undeclared[0]!r} is not a declared input")


def _require_values(path: str, where: str, values, program) -> None:
    """Reject a (name, value) pair of an input file that no input
    declaration of that name can hold, before anything runs; `where` says
    where in the file the values sit. The names are declared inputs."""
    from . import kernel

    inputs = program.inputs()
    for name, value in values:
        errors = []
        for decl in inputs:
            if decl.name == name:
                try:
                    kernel.input_value(value, decl)
                    break
                except KernelError as err:
                    errors.append(err.message)
        else:
            raise ScheduleError(
                f"{path}: {where}value {format_value(value)}: {errors[0]}"
            )


def _known_keys(path: str, where: str, entry: dict, keys: tuple):
    unknown = sorted(set(entry) - set(keys))
    if unknown:
        raise ScheduleError(f"{path}: {where}: unknown key {unknown[0]!r}")


def _flag_rational(flag: str, text: str) -> Fraction:
    """A command-line rational; `flag` names the option in errors."""
    try:
        return parse_rational(text)
    except ValueError:
        raise ArgumentError(flag, f"bad rational {text!r}") from None


def _flag_int(flag: str, text: str) -> int:
    """A command-line integer; `flag` names the option in errors."""
    try:
        return parse_int(text)
    except ValueError:
        raise ArgumentError(flag, f"bad integer {text!r}") from None


def _parse_params(pairs) -> dict:
    values = {}
    for pair in pairs or []:
        name, sep, text = pair.partition("=")
        if not sep or not name:
            raise ArgumentError("--param", f"needs name=value, got {pair!r}")
        if name in values:
            raise ArgumentError("--param", f"{name!r} given twice")
        values[name] = _flag_rational(f"--param {name}", text)
    return values


def _bind(program, values: dict):
    """`program` with `values` bound to its constants. A value for a
    constant the program does not declare is blamed on `--param`."""
    from . import params

    unknown = sorted(set(values) - {d.name for d in program.params()})
    if unknown:
        raise ArgumentError("--param", f"undefined parameter(s): {', '.join(unknown)}")
    return params.bind_params(program, values)


def _load_program(path: str, values: dict, wcrt: Fraction):
    """The program at `path`, parsed, with `values` bound to its constants
    and its flows rewritten for `wcrt`."""
    from . import rewrite, syntax

    bound = _bind(syntax.parse(_read_text(path)), values)
    return rewrite.rewrite_flows(bound, rewrite.RewriteConfig(wcrt))


def _wcrt(text: str) -> Fraction:
    value = _flag_rational("--wcrt", text)
    if value <= 0:
        raise ArgumentError("--wcrt", f"must be strictly positive, got {format_rational(value)}")
    return value


# The flag that supplies each library parameter an `ArgumentError` names.
_FLAGS = {
    "max_ticks": "--ticks", "bound": "--bound", "node_limit": "--node-limit",
    "horizon": "--horizon", "target": "--target",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tickflow",
        description="compile, simulate and verify clocked continuous-flow programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and run the static checks")
    p_check.add_argument("program")
    p_check.add_argument("--param", action="append", metavar="NAME=VALUE")

    p_desugar = sub.add_parser("desugar", help="print the rewritten program")
    p_desugar.add_argument("program")
    p_desugar.add_argument("--wcrt", required=True)
    p_desugar.add_argument("--param", action="append", metavar="NAME=VALUE")

    p_run = sub.add_parser("run", help="simulate and export the trace")
    p_run.add_argument("program")
    p_run.add_argument("--wcrt", required=True)
    p_run.add_argument("--ticks", default="100")
    p_run.add_argument("--schedule", help="JSON input schedule")
    p_run.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_run.add_argument("--out", help="trace file: .csv, .json or .svg by extension")
    p_run.add_argument(
        "--svg-vars", help="comma-separated entities for the .svg timing diagram"
    )

    p_verify = sub.add_parser("verify", help="bounded reachability of an emission")
    p_verify.add_argument("program")
    p_verify.add_argument("--wcrt", required=True)
    p_verify.add_argument("--bound", required=True)
    p_verify.add_argument("--target", required=True)
    p_verify.add_argument(
        "--alphabet",
        help="JSON input alphabet; without it every input stays absent at every tick",
    )
    p_verify.add_argument("--strategy", choices=("bfs", "dfs"), default="bfs")
    p_verify.add_argument("--node-limit", default="200000")
    p_verify.add_argument("--param", action="append", metavar="NAME=VALUE")

    p_lti = sub.add_parser("lti", help="observability/controllability verdicts")
    p_lti.add_argument("matrices", help="matrix file defining A and C and/or B")

    p_compare = sub.add_parser(
        "compare", help="idealized automaton vs. tick-discretized program"
    )
    p_compare.add_argument("--ha", required=True)
    p_compare.add_argument("--program", required=True)
    p_compare.add_argument("--wcrt", required=True)
    p_compare.add_argument("--horizon", required=True)
    p_compare.add_argument("--map", required=True, help="JSON {ha-var: program-var}")
    p_compare.add_argument("--param", action="append", metavar="NAME=VALUE")

    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScheduleError as err:  # names the file beside the program at fault
        print(err, file=sys.stderr)
        return 2
    except ArgumentError as err:  # names the flag at fault
        print(f"{_FLAGS.get(err.name, err.name)}: {err.message}", file=sys.stderr)
        return 2
    except (CompileError, TickflowError) as err:
        prog_path = getattr(args, "program", None) or getattr(args, "matrices", "")
        print(f"{prog_path}:{err}", file=sys.stderr)
        return 2
    except OSError as err:  # a named file that cannot be opened
        if err.filename is None:
            raise
        print(f"{err.filename}: {err.strerror}", file=sys.stderr)
        return 2


def _check(args) -> int:
    from . import syntax

    program = syntax.parse(_read_text(args.program))
    values = _parse_params(args.param)
    if values or not program.params():
        syntax.reject_nonlinear_combine(_bind(program, values))
    else:
        syntax.reject_nonlinear_combine(program)
    print("ok")
    return 0


def _desugar(args) -> int:
    from . import syntax

    rewritten = _load_program(args.program, _parse_params(args.param), _wcrt(args.wcrt))
    sys.stdout.write(syntax.pretty_print(rewritten))
    return 0


def _run(args) -> int:
    from . import kernel, rewrite

    ticks = _flag_int("--ticks", args.ticks)
    export = _exporter(args.out, args.svg_vars)
    wcrt = _wcrt(args.wcrt)
    rewritten = _load_program(args.program, _parse_params(args.param), wcrt)
    schedule = load_schedule(args.schedule) if args.schedule else None
    for tick, inputs in (schedule or {}).items():
        names = inputs.present | {name for name, _ in inputs.values}
        _require_inputs(args.schedule, f"tick {tick}: ", names, rewritten)
        _require_values(args.schedule, f"tick {tick}: ", inputs.values, rewritten)
    result = kernel.run(
        rewritten, rewrite.RewriteConfig(wcrt), schedule=schedule, max_ticks=ticks
    )
    text = export(result)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _exporter(out, svg_vars):
    """The trace exporter that `--out`'s extension selects, checked before
    anything runs. An `--svg-vars` entity the trace lacks, or one given
    twice, is found once the trace is built, and is blamed on the flag too."""
    from . import trace

    if out is None or out.endswith(".csv"):
        return trace.to_csv
    if out.endswith(".json"):
        return trace.to_json
    if not out.endswith(".svg"):
        raise ArgumentError("--out", f"unknown trace format {out!r}: use .csv, .json or .svg")
    if not svg_vars:
        raise ArgumentError("--svg-vars", "required for .svg output")

    def svg(result):
        try:
            return trace.to_svg_timing(result, svg_vars.split(","))
        except TickflowError as err:
            raise ArgumentError("--svg-vars", str(err)) from None

    return svg


def _verify(args) -> int:
    from . import rewrite, verify

    bound = _flag_int("--bound", args.bound)
    node_limit = _flag_int("--node-limit", args.node_limit)
    wcrt = _wcrt(args.wcrt)
    rewritten = _load_program(args.program, _parse_params(args.param), wcrt)
    alphabet = load_alphabet(args.alphabet) if args.alphabet else None
    if alphabet is not None:
        names = [name for name, _ in alphabet.statuses]
        _require_inputs(args.alphabet, "alphabet entry ", names, rewritten)
        for name, picks in alphabet.values:
            where = f"alphabet entry {name!r}: "
            _require_values(args.alphabet, where, [(name, v) for v in picks], rewritten)
    try:
        verdict = verify.check_reachable(
            rewritten,
            rewrite.RewriteConfig(wcrt),
            alphabet,
            bound=bound,
            target=args.target,
            strategy=args.strategy,
            node_limit=node_limit,
        )
    except SearchLimitError as err:
        print(f"--node-limit: {err}", file=sys.stderr)
        return 2
    if isinstance(verdict, verify.Witness):
        print(f"witness: {args.target} settles present at tick {verdict.tick}")
        for i, assignment in enumerate(verdict.schedule, start=1):
            if not assignment.is_empty():
                values = assignment.value_map()
                present = ",".join(
                    f"{name}={format_value(values[name])}" if name in values else name
                    for name in sorted(assignment.present)
                )
                print(f"  tick {i}: present [{present}]")
        for name, kind, value in verdict.snapshot:
            print(f"  {name} {kind} = {value}")
        return 1
    assert isinstance(verdict, verify.Unreachable)
    print(
        f"unreachable within {verdict.bound} ticks "
        f"({verdict.states_explored} transitions explored)"
    )
    return 0


def _lti(args) -> int:
    from . import lti

    system = lti.system_from_file(_read_text(args.matrices))
    ok = True
    if system.c is not None:
        r = lti.rank(lti.observability_matrix(system))
        verdict = "observable" if r == system.n else "NOT observable"
        print(f"observability rank {r}/{system.n}: {verdict}")
        ok = ok and r == system.n
    if system.b is not None:
        r = lti.rank(lti.controllability_matrix(system))
        verdict = "controllable" if r == system.n else "NOT controllable"
        print(f"controllability rank {r}/{system.n}: {verdict}")
        ok = ok and r == system.n
    if system.c is None and system.b is None:
        raise TickflowError("matrix file defines neither C nor B")
    return 0 if ok else 1


def _compare(args) -> int:
    from . import hybrid, rewrite, syntax

    wcrt = _wcrt(args.wcrt)
    values = _parse_params(args.param)
    # bound first: a value for a constant the program does not declare is
    # blamed on `--param`, not on the automaton that then misses one
    program = _bind(syntax.parse(_read_text(args.program)), values)
    try:
        automaton = hybrid.parse_automaton(_read_text(args.ha), values)
    except AutomatonError as err:
        raise ScheduleError(f"{args.ha}:{err}") from None
    mapping = _load_json(args.map, "variable map", dict)
    try:
        hybrid.check_mapping(automaton, program, mapping)
    except AutomatonError as err:
        raise ScheduleError(f"{args.map}: {err}") from None
    horizon = _flag_rational("--horizon", args.horizon)
    try:
        report = hybrid.compare(automaton, program, rewrite.RewriteConfig(wcrt), horizon, mapping)
    except (AutomatonError, DeadlockError, NondeterminismError) as err:
        # the automaton's simulation failed: a livelock, a deadlock or two
        # edges enabling at once
        raise ScheduleError(f"{args.ha}: {err}") from None
    sys.stdout.write(report.to_text())
    return 0 if report.first_divergence_tick is None else 1


_COMMANDS = {
    "check": _check,
    "desugar": _desugar,
    "run": _run,
    "verify": _verify,
    "lti": _lti,
    "compare": _compare,
}


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
