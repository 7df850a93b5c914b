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
import sys
from fractions import Fraction

from . import files
from .errors import (
    ArgumentError,
    AutomatonError,
    DeadlockError,
    NondeterminismError,
    ScheduleError,
    SearchLimitError,
    TickflowError,
    locate,
)
from .rational import format_value, parse_int, parse_rational

# Each subcommand imports the modules it runs when it runs (`files` loads
# `json` only to parse a JSON file), so `check` and `desugar` never load the
# kernel, `lti` never loads the parser, and a cold command pays only for its
# own chain. Calls go through module attributes, read at call time.


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


def _load_program(path: str, values: dict, cfg):
    """The program at `path`, parsed, with `values` bound to its constants
    and its flows rewritten for `cfg`."""
    from . import params, rewrite, syntax

    bound = params.bind_params(syntax.parse(files.read_text(path)), values)
    return rewrite.rewrite_flows(bound, cfg)


def _config(text: str):
    """The `RewriteConfig` of the tick length `--wcrt` gives."""
    from . import rewrite

    return rewrite.RewriteConfig(_flag_rational("--wcrt", text))


# The flag that supplies each library parameter an `ArgumentError` names.
_FLAGS = {
    "max_ticks": "--ticks", "bound": "--bound", "node_limit": "--node-limit",
    "horizon": "--horizon", "target": "--target", "wcrt": "--wcrt", "values": "--param",
}
# the option whose file supplies each library parameter: an error names the file
_FILES = {"schedule": "schedule", "alphabet": "alphabet", "mapping": "map"}


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
    source = getattr(args, "program", None) or getattr(args, "matrices", "")
    table = {**_FLAGS, **{name: getattr(args, flag, None) for name, flag in _FILES.items()}}
    try:
        return _COMMANDS[args.command](args)
    except (TickflowError, RecursionError) as err:
        print(locate(err, source, table), file=sys.stderr)
        return 2
    except OSError as err:  # a named file that cannot be opened
        if err.filename is None:
            raise
        print(f"{err.filename}: {err.strerror}", file=sys.stderr)
        return 2


def _check(args) -> int:
    from . import params, syntax

    program = syntax.parse(files.read_text(args.program))
    values = _parse_params(args.param)
    # binding meets what `run` would; with no `--param`, a program that
    # declares constants is checked unbound
    if values or not program.params():
        params.bind_params(program, values)
    print("ok")
    return 0


def _desugar(args) -> int:
    from . import syntax

    rewritten = _load_program(args.program, _parse_params(args.param), _config(args.wcrt))
    sys.stdout.write(syntax.pretty_print(rewritten))
    return 0


def _run(args) -> int:
    from . import kernel

    ticks = _flag_int("--ticks", args.ticks)
    export = _exporter(args.out, args.svg_vars)
    cfg = _config(args.wcrt)
    rewritten = _load_program(args.program, _parse_params(args.param), cfg)
    schedule = files.load_schedule(args.schedule) if args.schedule else None
    result = kernel.run(rewritten, cfg, schedule=schedule, max_ticks=ticks)
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
    from . import verify

    bound = _flag_int("--bound", args.bound)
    node_limit = _flag_int("--node-limit", args.node_limit)
    cfg = _config(args.wcrt)
    rewritten = _load_program(args.program, _parse_params(args.param), cfg)
    alphabet = files.load_alphabet(args.alphabet) if args.alphabet else None
    try:
        verdict = verify.check_reachable(
            rewritten,
            cfg,
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
                print(f"  tick {i}: {_inputs(assignment)}")
        for name, kind, value in verdict.snapshot:
            print(f"  {name} {kind} = {value}")
        return 1
    assert isinstance(verdict, verify.Unreachable)
    print(
        f"unreachable within {verdict.bound} ticks "
        f"({verdict.states_explored} transitions explored)"
    )
    return 0


def _inputs(assignment) -> str:
    """A witness tick's inputs, as a schedule's entry gives them: `present
    [GO,LEVEL=5]`, each present input and its value if it has one, then
    `absent [L=5]`, each input given a value while absent, if any."""
    values = assignment.value_map()
    absent = [name for name in values if name not in assignment.present]
    parts = []
    for status, names in (("present", sorted(assignment.present)), ("absent", absent)):
        if names:
            shown = (f"{n}={format_value(values[n])}" if n in values else n for n in names)
            parts.append(f"{status} [{','.join(shown)}]")
    return " ".join(parts)


def _lti(args) -> int:
    from . import lti

    system = lti.system_from_file(files.read_text(args.matrices))
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
    from . import hybrid, params, syntax

    cfg = _config(args.wcrt)
    values = _parse_params(args.param)
    # bound first: a value for a constant the program does not declare is
    # blamed on `--param`, not on the automaton that then misses one
    program = params.bind_params(syntax.parse(files.read_text(args.program)), values)
    try:
        automaton = hybrid.parse_automaton(files.read_text(args.ha), values)
    except AutomatonError as err:
        raise ScheduleError(f"{args.ha}:{err}") from None
    mapping = files.load_json(args.map, "variable map", dict)
    horizon = _flag_rational("--horizon", args.horizon)
    try:
        report = hybrid.compare(automaton, program, cfg, horizon, mapping)
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
