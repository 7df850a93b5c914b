"""Golden-case runner for the program corpus.

A case names a program, a tick step, optional constants and inputs, and a
bag of expectations over the resulting trace (settled values, emission
ticks, termination) or over a reachability query. Every case additionally
cross-checks the rewritten program against the kernel's native flow
interpretation tick for tick.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from . import files
from .errors import TickflowError, locate
from .kernel import run
from .params import bind_params
from .rational import format_value
from .rewrite import STOP_PREFIX, RewriteConfig, rewrite_flows
from .struct import Struct
from .syntax import parse
from .syntax.nodes import SignalDecl
from .trace import Trace
from .verify import Witness, check_reachable


class GoldenCase(Struct):
    name: str
    program: str
    wcrt: Fraction
    params: dict
    schedule: dict  # tick -> InputAssignment
    max_ticks: int
    expect: dict
    note: str = ""


class CaseResult(Struct):
    name: str
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


class CorpusReport(Struct):
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> str:
        lines = []
        for result in self.results:
            lines.append(f"{'pass' if result.ok else 'FAIL'}  {result.name}")
            lines.extend(f"      {failure}" for failure in result.failures)
        good = sum(1 for r in self.results if r.ok)
        lines.append(f"{good}/{len(self.results)} cases pass")
        return "\n".join(lines)


# the JSON type of each field of a case, and of each expectation key
_CASE = {"name": str, "program": str, "wcrt": str, "params": dict, "schedule": list,
         "max_ticks": int, "expect": dict, "note": str}
_EXPECT = {"statuses": list, "values": list, "conts": list, "emissions": dict,
           "stop_ticks": list, "final_conts": dict, "terminated": bool, "termination_tick": int,
           "effective_termination_tick": int, "reach": dict}
# the field of a case that gives each library parameter an `ArgumentError` names
_FIELDS = {"max_ticks": "'max_ticks'", "bound": "expect reach: 'bound'",
           "target": "expect reach: 'target'", "wcrt": "'wcrt'", "values": "'params'"}
# each list of [name, tick, wanted] expectations: the reader of its wanted
# datum and the trace query it is compared with
_AT_TICK = {
    "statuses": (files.boolean, Trace.status),
    "values": (files.value, Trace.value),
    "conts": (files.rational, Trace.cont),
}


def load_cases(corpus_dir) -> list:
    """The golden cases of `corpus_dir/cases.json`, {"cases": [case, ...]},
    each read exactly (see README); an error names the file and the case."""
    path = str(Path(corpus_dir) / "cases.json")
    doc = files.parse(files.read_text(path), path)
    files.fields(doc, path, {"cases": list})
    cases = [_case(path, at, entry) for at, entry in enumerate(doc["cases"], start=1)]
    files.refuse_repeats(path, doc)  # the top level's keys, once each case's were
    return cases


def _case(path: str, at: int, entry) -> GoldenCase:
    """Case number `at` of the file `path`, which errors name by its name."""
    name = entry.get("name") if isinstance(entry, dict) else None
    where = f"{path}: case {name!r}" if type(name) is str else f"{path}: case {at}"
    files.refuse_repeats(where, entry)
    files.fields(entry, where, _CASE, ("params", "schedule", "max_ticks", "note"))
    return GoldenCase(
        name=name,
        program=entry["program"],
        wcrt=files.rational(entry["wcrt"], f"{where}: 'wcrt'"),
        params=files.entries(entry.get("params", {}), f"{where}: params", files.rational),
        schedule=files.schedule(where, entry.get("schedule", [])),
        max_ticks=entry.get("max_ticks", 50),
        expect=_expect(entry["expect"], f"{where}: expect"),
        note=entry.get("note", ""),
    )


def _expect(expect: dict, where: str) -> dict:
    """The expectations `expect` at `where`, each wanted datum read."""
    files.fields(expect, where, _EXPECT, _EXPECT)
    get = expect.get
    read = dict(expect)
    for key, (reader, _) in _AT_TICK.items():
        read[key] = [files.at_tick(item, f"{where} {key}", reader) for item in get(key, ())]
    read["emissions"] = files.entries(get("emissions", {}), f"{where} emissions", files.ticks)
    files.ticks(get("stop_ticks", []), f"{where}: 'stop_ticks'")
    conts = get("final_conts", {})
    read["final_conts"] = files.entries(conts, f"{where} final_conts", files.rational)
    if "reach" in expect:
        kinds = {"target": str, "bound": int, "reachable": bool, "witness_tick": int}
        files.fields(expect["reach"], f"{where} reach", kinds, ("witness_tick",))
    return read


def run_case(corpus_dir, case: GoldenCase) -> CaseResult:
    """Run `case` and check it. An error is located as `tickflow run`
    locates it (`errors.locate`). A case's field at fault is a
    `ScheduleError` naming the case and the field: a schedule input the
    program does not declare or a value it cannot hold, a `wcrt` that is
    not positive, a `params` name the program does not declare, a
    negative `max_ticks` or reach `bound`, and a reach `target` that is
    not a declared signal. The program at fault, failing to compile or to
    run, is a `TickflowError` naming the program's file."""
    corpus_dir = Path(corpus_dir)
    result = CaseResult(case.name, [])
    path = str(corpus_dir / case.program)
    where = f"{corpus_dir / 'cases.json'}: case {case.name!r}"
    try:
        program = bind_params(parse(files.read_text(path)), case.params)
        cfg = RewriteConfig(case.wcrt)
        rewritten = rewrite_flows(program, cfg)
        trace = run(rewritten, cfg, schedule=case.schedule, max_ticks=case.max_ticks)
        signals = {d.name for d in rewritten.declarations() if d.__class__ is SignalDecl}
        _check_trace(case.expect, trace, result, signals)
        _check_native(program, trace, cfg, case, result)
        reach = case.expect.get("reach")
        if reach is not None:
            target, bound = reach["target"], reach["bound"]
            verdict = check_reachable(rewritten, cfg, alphabet=None, bound=bound, target=target)
            found = isinstance(verdict, Witness)
            _compare(result, f"reach {target} within {bound}", reach["reachable"], found)
            if found and "witness_tick" in reach:
                _compare(result, "reach witness_tick", reach["witness_tick"], verdict.tick)
    except (TickflowError, RecursionError) as err:
        fields = {name: f"{where}: {field}" for name, field in _FIELDS.items()}
        fields["schedule"] = where
        raise locate(err, path, fields) from None
    return result


def run_corpus(corpus_dir) -> CorpusReport:
    cases = load_cases(corpus_dir)
    return CorpusReport([run_case(corpus_dir, case) for case in cases])


def _compare(result: CaseResult, label: str, want, got) -> None:
    """A failure unless `got` is `want`, compared by type and value; a
    value prints as `format_value` prints it."""
    if (want.__class__, want) != (got.__class__, got):
        result.failures.append(f"{label}: wanted {_show(want)}, got {_show(got)}")


def _lacks(result: CaseResult, label: str, want, why: str) -> None:
    """A failure: `want` has nothing to be compared with, for the reason `why`."""
    result.failures.append(f"{label}: wanted {_show(want)}, but {why}")


def _show(value) -> str:
    return format_value(value) if isinstance(value, (bool, Fraction)) else str(value)


def _check_trace(expect: dict, trace: Trace, result: CaseResult, signals: set) -> None:
    """Each expectation against the trace; a failure names its key. An
    expectation of a tick the trace has no record of, or of an entity it
    does not hold, fails its case and not the run. A record reads a signal
    out of scope as absent, so a status or an emission expectation is
    first checked to name a signal of `signals`, those the program
    declares."""
    for key, (_, query) in _AT_TICK.items():
        for name, tick, want in expect[key]:
            label = f"{key} {name}@{tick}"
            if key == "statuses" and not _names_signal(name, signals):
                _lacks(result, label, want, f"the program declares no signal {name!r}")
                continue
            try:
                got = query(trace, name, tick)
            except KeyError:
                _lacks(result, label, want, f"the trace has no {name!r} at tick {tick}")
            except TickflowError:  # no record of the tick
                _lacks(result, label, want, f"the trace has no tick {tick}")
            else:
                _compare(result, label, want, got)
    for name, ticks in expect["emissions"].items():
        label = f"emissions {name}"
        if _names_signal(name, signals):
            _compare(result, label, ticks, trace.emission_ticks(name))
        else:
            _lacks(result, label, ticks, f"the program declares no signal {name!r}")
    for name, want in expect["final_conts"].items():
        label = f"final_conts {name}"
        try:
            got = trace.final_cont(name)
        except KeyError:
            _lacks(result, label, want, f"the trace has no {name!r}")
        else:
            _compare(result, label, want, got)
    if "stop_ticks" in expect:
        stops = {
            rec.tick for rec in trace.records for name, present in rec.statuses.items()
            if present and name.startswith(STOP_PREFIX)
        }
        _compare(result, "stop_ticks", expect["stop_ticks"], sorted(stops))
    for key in ("terminated", "termination_tick", "effective_termination_tick"):
        if key in expect:
            _compare(result, key, expect[key], getattr(trace, key))


def _names_signal(name: str, signals: set) -> bool:
    """Whether a record may name a signal of `signals` `name`: a signal
    `S`, whose later instances a record names `S:2`, `S:3`, ..."""
    base, colon, count = name.partition(":")
    return base in signals and (not colon or count.isdigit())


def _check_native(program, via_rewrite: Trace, cfg, case: GoldenCase, result: CaseResult) -> None:
    """The trace of the rewritten program and the native flow
    interpretation must agree tick for tick on every user-visible entity."""
    user_names = sorted(program.declared_names())
    native = run(program, cfg, schedule=case.schedule, max_ticks=case.max_ticks, native_flows=True)
    if native.project(user_names) != via_rewrite.project(user_names):
        result.failures.append("native flow interpretation diverges from the rewrite")
    # the termination tick is None exactly while a trace has not terminated
    if native.termination_tick != via_rewrite.termination_tick:
        result.failures.append("native and rewritten termination differ")
