"""Golden-case runner for the program corpus.

A case names a program, a tick step, optional constants and inputs, and a
bag of expectations over the resulting trace (settled values, emission
ticks, termination) or over a reachability query. Every case additionally
cross-checks the rewritten program against the kernel's native flow
interpretation tick for tick.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .kernel import InputAssignment, run
from .params import bind_params
from .rational import format_rational, parse_rational
from .rewrite import STOP_PREFIX, RewriteConfig, rewrite_flows
from .struct import Struct
from .syntax import parse
from .trace import Trace
from .verify import Unreachable, Witness, check_reachable


class GoldenCase(Struct, frozen=False):
    name: str
    program: str
    wcrt: Fraction
    params: dict
    schedule: dict  # tick -> InputAssignment
    max_ticks: int
    expect: dict
    note: str = ""


class CaseResult(Struct, frozen=False):
    name: str
    failures: list

    def __init__(self, name, failures=None):
        self.name = name
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


class CorpusReport(Struct, frozen=False):
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> str:
        lines = []
        for result in self.results:
            mark = "pass" if result.ok else "FAIL"
            lines.append(f"{mark}  {result.name}")
            for failure in result.failures:
                lines.append(f"      {failure}")
        good = sum(1 for r in self.results if r.ok)
        lines.append(f"{good}/{len(self.results)} cases pass")
        return "\n".join(lines)


def load_cases(corpus_dir) -> list:
    corpus_dir = Path(corpus_dir)
    doc = json.loads((corpus_dir / "cases.json").read_text())
    cases = []
    for entry in doc["cases"]:
        schedule = {}
        for item in entry.get("schedule", []):
            schedule[item["tick"]] = InputAssignment.make(
                present=item.get("present", []),
                values={k: parse_rational(v) for k, v in item.get("values", {}).items()},
            )
        cases.append(
            GoldenCase(
                name=entry["name"],
                program=entry["program"],
                wcrt=parse_rational(entry["wcrt"]),
                params={k: parse_rational(v) for k, v in entry.get("params", {}).items()},
                schedule=schedule,
                max_ticks=entry.get("max_ticks", 50),
                expect=entry["expect"],
                note=entry.get("note", ""),
            )
        )
    return cases


def run_case(corpus_dir, case: GoldenCase) -> CaseResult:
    corpus_dir = Path(corpus_dir)
    result = CaseResult(case.name)
    source = (corpus_dir / case.program).read_text()
    program = bind_params(parse(source), case.params)
    cfg = RewriteConfig(case.wcrt)
    rewritten = rewrite_flows(program, cfg)
    trace = run(rewritten, cfg, schedule=case.schedule, max_ticks=case.max_ticks)
    _check_trace(case.expect, trace, result)
    _check_native(program, trace, cfg, case, result)
    reach = case.expect.get("reach")
    if reach is not None:
        _check_reach(rewritten, cfg, reach, result)
    return result


def run_corpus(corpus_dir) -> CorpusReport:
    cases = load_cases(corpus_dir)
    return CorpusReport([run_case(corpus_dir, case) for case in cases])


def _check_trace(expect: dict, trace: Trace, result: CaseResult) -> None:
    for name, tick, want in expect.get("statuses", []):
        got = trace.status(name, tick)
        if got != want:
            result.failures.append(f"status {name}@{tick}: wanted {want}, got {got}")
    for name, tick, want in expect.get("values", []):
        got = trace.value(name, tick)
        if got != parse_rational(want):
            result.failures.append(
                f"value {name}@{tick}: wanted {want}, got {format_rational(got)}"
            )
    for name, tick, want in expect.get("conts", []):
        got = trace.cont(name, tick)
        if got != parse_rational(want):
            result.failures.append(
                f"cont {name}@{tick}: wanted {want}, got {format_rational(got)}"
            )
    for name, ticks in expect.get("emissions", {}).items():
        got = trace.emission_ticks(name)
        if got != list(ticks):
            result.failures.append(f"emissions of {name}: wanted {ticks}, got {got}")
    if "stop_ticks" in expect:
        stops = sorted(
            {
                rec.tick
                for rec in trace.records
                for name, present in rec.statuses.items()
                if present and name.startswith(STOP_PREFIX)
            }
        )
        if stops != list(expect["stop_ticks"]):
            result.failures.append(
                f"generated stop emissions: wanted {expect['stop_ticks']}, got {stops}"
            )
    for name, want in expect.get("final_conts", {}).items():
        got = trace.final_cont(name)
        if got != parse_rational(want):
            result.failures.append(
                f"final {name}: wanted {want}, got {format_rational(got)}"
            )
    if "terminated" in expect and trace.terminated != expect["terminated"]:
        result.failures.append(
            f"terminated: wanted {expect['terminated']}, got {trace.terminated}"
        )
    if "termination_tick" in expect and trace.termination_tick != expect["termination_tick"]:
        result.failures.append(
            f"termination tick: wanted {expect['termination_tick']}, "
            f"got {trace.termination_tick}"
        )
    if "effective_termination_tick" in expect:
        got = trace.effective_termination_tick
        if got != expect["effective_termination_tick"]:
            result.failures.append(
                f"effective termination: wanted "
                f"{expect['effective_termination_tick']}, got {got}"
            )


def _check_native(
    program, via_rewrite: Trace, cfg, case: GoldenCase, result: CaseResult
) -> None:
    """The trace of the rewritten program and the native flow
    interpretation must agree tick for tick on every user-visible entity."""
    user_names = sorted(program.declared_names())
    native = run(
        program, cfg, schedule=case.schedule, max_ticks=case.max_ticks, native_flows=True
    )
    if native.project(user_names) != via_rewrite.project(user_names):
        result.failures.append("native flow interpretation diverges from the rewrite")
    if (native.terminated, native.termination_tick) != (
        via_rewrite.terminated,
        via_rewrite.termination_tick,
    ):
        result.failures.append("native and rewritten termination differ")


def _check_reach(rewritten, cfg, reach: dict, result: CaseResult) -> None:
    verdict = check_reachable(
        rewritten,
        cfg,
        alphabet=None,
        bound=reach["bound"],
        target=reach["target"],
    )
    if reach["reachable"]:
        if not isinstance(verdict, Witness):
            result.failures.append(
                f"expected a witness for {reach['target']} within {reach['bound']}"
            )
        elif "witness_tick" in reach and verdict.tick != reach["witness_tick"]:
            result.failures.append(
                f"witness tick: wanted {reach['witness_tick']}, got {verdict.tick}"
            )
    else:
        if not isinstance(verdict, Unreachable):
            result.failures.append(
                f"{reach['target']} unexpectedly reachable within {reach['bound']}"
            )
