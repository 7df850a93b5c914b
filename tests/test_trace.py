from __future__ import annotations

import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import CORPUS
from helpers import REREGISTERED, random_program
from tickflow.corpus import load_cases
from tickflow.errors import TickflowError
from tickflow.kernel import run
from tickflow.params import bind_params
from tickflow.rational import format_rational
from tickflow.rewrite import RewriteConfig, rewrite_flows
from tickflow.syntax import parse
from tickflow import trace as trace_mod
from tickflow.trace import (
    TickRecord, Trace, from_json, made_record, settled_rows, to_csv, to_json, to_svg_timing,
    trace_equal,
)

DATA = Path(__file__).parent / "data"


def _trace(source: str, wcrt=F(2), max_ticks=20, schedule=None):
    cfg = RewriteConfig(wcrt)
    return run(rewrite_flows(parse(source), cfg), cfg, schedule=schedule, max_ticks=max_ticks)


SINGLE_FLOW = "cont a = 0;\ndo {a' = 1} until (a <= 2)"
PAIR_FLOW = (
    "cont a = 0, b = 0;\n"
    "do {a' = 1} until (a <= 10) || do {b' = 1} until (b <= 6)"
)


def test_csv_single_flow_row():
    text = to_csv(_trace(SINGLE_FLOW))
    lines = text.splitlines()
    assert lines[0] == "tick,time,entity,kind,value"
    assert "1,2,a,cont,2" in lines


def test_csv_slow_flow_final_row():
    assert "5,10,a,cont,10" in to_csv(_trace(PAIR_FLOW)).splitlines()


def test_csv_empty_trace():
    trace = _trace(SINGLE_FLOW, max_ticks=20)
    trace.records = []
    assert to_csv(trace) == "tick,time,entity,kind,value\n"


def test_csv_rows_sorted_and_deterministic():
    trace = _trace(PAIR_FLOW)
    text = to_csv(trace)
    assert text == to_csv(trace)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    keys = [(int(r[0]), r[2]) for r in rows]
    assert keys == sorted(keys)


def test_csv_rationals_never_floats():
    trace = _trace("cont a = 0;\ndo {a' = 1} until (a <= 2)", wcrt=F(1, 3))
    text = to_csv(trace)
    assert "0.3" not in text
    assert "1/3" in text


def _sorted_rows_csv(trace) -> str:
    """The CSV export as a sort of each tick's (entity, kind, datum) rows,
    with the time a `Fraction` product: the reference `to_csv` must match."""

    def datum(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return format_rational(value)

    lines = ["tick,time,entity,kind,value"]
    for rec in trace.records:
        rows = [(name, "status", datum(v)) for name, v in rec.statuses.items()]
        rows += [(name, "value", datum(v)) for name, v in rec.values.items()]
        rows += [(name, "cont", datum(v)) for name, v in rec.conts.items()]
        rows += [(name, "label", "true") for name in rec.labels]
        prefix = f"{rec.tick},{format_rational(trace.wcrt * rec.tick)},"
        lines += [prefix + ",".join(row) for row in sorted(rows)]
    return "\n".join(lines) + "\n"


# Each tick changes the record's shape: `L` and a second `A` label come and
# go, `__stop1` is registered and ended, `S:2` and `S:3` name later
# instances of `S`. `B` holds `true` and `N` holds 1 on every tick, and the
# wcrt of 2/3 prints times as p/q that reduce on every third tick.
SHAPE_CHANGING = (
    "boolean signal B; int signal N; cont a = 0;\n"
    "{ loop { signal S; emit S; ?B = true; ?N = 1; A: pause } ||\n"
    "  loop { do {a' = 1} until (a <= 2); L: pause; a = 0; signal S; emit S; A: pause } }"
)


def _record(tick, statuses: dict, values: dict, conts: dict, labels: tuple) -> TickRecord:
    """The record of these tables, built as `from_json` builds one: laid
    out in their keys' order."""
    layout = trace_mod._tables_layout(tuple(statuses), tuple(values), tuple(conts))
    return made_record(tick, layout, (*statuses.values(), *values.values(), *conts.values()), labels)


def _hand_built_trace():
    # `U` and `V` share one Fraction object; `x` holds an equal, distinct one
    shared = F(1, 3)
    return Trace(F(3, 4), [
        _record(1, {"P": True, "U": False, "V": False},
                {"U": shared, "V": shared}, {"x": F(1, 3)}, ()),
        _record(2, {"P": False, "U": True, "V": False},
                {"U": F(0), "V": shared}, {"x": shared}, ("K",)),
        _record(3, {"V": True, "P": False, "U": False},
                {"V": True, "U": F(1)}, {"x": F(0)}, ("K", "K")),
    ], True)


def _differential_traces():
    traces = {"shape-changing": _trace(SHAPE_CHANGING, wcrt=F(2, 3), max_ticks=12)}
    traces["hand-built"] = _hand_built_trace()
    for seed in range(40):
        source, wcrt, schedule = random_program(random.Random(seed))
        traces[f"random-{seed}"] = _trace(source, wcrt=wcrt, schedule=schedule, max_ticks=40)
    traces["empty"] = Trace(F(2), [], False)
    return traces


@pytest.mark.parametrize(
    "trace", [pytest.param(trace, id=name) for name, trace in _differential_traces().items()]
)
def test_csv_matches_a_per_tick_sort_of_its_rows(trace):
    expected = _sorted_rows_csv(trace)
    assert to_csv(trace) == expected
    # read back, each record's tables come in sorted key order
    back = from_json(to_json(trace))
    assert _sorted_rows_csv(back) == expected
    assert to_csv(back) == expected


def test_json_roundtrip_single():
    trace = _trace(SINGLE_FLOW)
    assert trace_equal(from_json(to_json(trace)), trace)


def test_json_roundtrip_preserves_exact_rationals():
    trace = _trace("cont a = 1/7;\ndo {a' = 1/3} until (a <= 2)", wcrt=F(5, 3))
    back = from_json(to_json(trace))
    assert trace_equal(back, trace)
    assert back.records[0].conts["a"] == F(1, 7) + F(5, 9)


def _kernel_built_traces():
    carousel = bind_params(
        parse((CORPUS / "programs" / "carousel.hsj").read_text()),
        {"alpha": F(1), "beta": F(10), "theta": F(6), "TAG": F(1)},
    )
    cfg = RewriteConfig(F(1))
    yield run(parse(REREGISTERED), cfg, max_ticks=8)
    yield run(rewrite_flows(carousel, cfg), cfg, max_ticks=500)


def test_kernel_built_records_roundtrip_and_compare_by_their_tables():
    # the kernel lays a record out in registration order, JSON in sorted
    # name order: the records read back are equal, hash alike and print
    # the same CSV, and unequal ones tell apart
    for trace in _kernel_built_traces():
        back = from_json(to_json(trace))
        assert trace_equal(back, trace)
        assert to_csv(back) == to_csv(trace)
        for record, read in zip(trace.records, back.records):
            assert record == read and read == record
            assert hash(record) == hash(read)
            built = _record(read.tick, read.statuses, read.values, read.conts, read.labels)
            assert built == record and hash(built) == hash(record)
        first, second = trace.records[:2]
        assert first != second and second != first


def test_a_layout_plans_its_csv_rows_once(monkeypatch):
    # the first export plans each layout's rows once per labels tuple met,
    # and the plan is the layout's: a second export plans nothing
    traces = [*_kernel_built_traces(), _trace(SHAPE_CHANGING, wcrt=F(2, 3), max_ticks=12)]
    calls = []
    planned = trace_mod._row_plan
    monkeypatch.setattr(trace_mod, "_row_plan", lambda *args: calls.append(args) or planned(*args))
    for trace in traces:
        assert all(isinstance(rec.layout, trace_mod.Layout) for rec in trace.records)
        shapes = {(id(rec.layout), rec.labels) for rec in trace.records}
        calls.clear()
        text = to_csv(trace)
        assert len(calls) == len(shapes)
        calls.clear()
        assert to_csv(trace) == text and calls == []


def test_a_trace_read_back_reads_as_the_trace_it_came_from():
    # every reader through the layout `from_json` builds gives what it
    # gives through the kernel's: both exports, the entities, projections
    # and each record's witness rows
    traces = [*_corpus_traces(), *_kernel_built_traces(), *_differential_traces().values()]
    for trace in traces:
        back = from_json(to_json(trace))
        names = trace.entities()
        assert back.entities() == names
        assert (to_csv(back), to_json(back)) == (to_csv(trace), to_json(trace))
        for kept in (names, names[::2], ["nope"]):
            assert back.project(kept) == trace.project(kept), kept
        assert [settled_rows(rec) for rec in back.records] == [
            settled_rows(rec) for rec in trace.records
        ]


def _table_reads(trace: Trace, name: str) -> tuple:
    """What the one-name reads of `trace` give for `name`, each read from
    the record's whole table, a `KeyError` as its name."""

    def read(table: dict):
        return table[name] if name in table else KeyError

    records = trace.records
    final = [rec.conts[name] for rec in records if name in rec.conts]
    initial = trace.initial_conts
    return (
        [rec.statuses.get(name, False) for rec in records],
        [read(rec.values) for rec in records],
        [read(rec.conts) for rec in records],
        [(rec.tick, rec.conts[name]) for rec in records if name in rec.conts],
        final[-1] if final else read(initial),
        [rec.tick for rec in records if rec.statuses.get(name, False)],
        read(initial),
    )


def _name_reads(trace: Trace, name: str) -> tuple:
    """The same reads through `Trace`'s one-name methods."""

    def read(method, *args):
        try:
            return method(name, *args)
        except KeyError:
            return KeyError

    ticks = [rec.tick for rec in trace.records]
    return (
        [trace.status(name, t) for t in ticks],
        [read(trace.value, t) for t in ticks],
        [read(trace.cont, t) for t in ticks],
        trace.series(name),
        read(trace.final_cont),
        trace.emission_ticks(name),
        read(trace.cont, 0),
    )


def _corpus_traces():
    for case in load_cases(CORPUS):
        program = bind_params(parse((CORPUS / case.program).read_text()), case.params)
        cfg = RewriteConfig(case.wcrt)
        try:
            yield run(rewrite_flows(program, cfg), cfg, case.schedule, case.max_ticks)
        except TickflowError:  # a case that pins an error has no trace
            continue


def test_one_name_reads_equal_the_table_reads():
    # every entity of every corpus trace, of the kernel-built traces
    # (`S:2` names) and of the differential ones, and a name none holds,
    # read as the kernel built them and as `from_json` reads them back
    traces = [*_corpus_traces(), *_kernel_built_traces(), *_differential_traces().values()]
    for trace in traces:
        for each in (trace, from_json(to_json(trace))):
            for name in [*each.entities(), "nope"]:
                assert _name_reads(each, name) == _table_reads(each, name), name


def _table_entities(trace: Trace) -> list:
    """`Trace.entities` read from each record's whole tables."""
    names = set(trace.initial_conts)
    for rec in trace.records:
        names.update(rec.statuses)
        names.update(rec.conts)
    return sorted(names)


def _table_lane_points(trace: Trace, name: str) -> list:
    """The points of `name`'s SVG lane read from each record's whole
    tables: a continuous variable's value, else a signal's status."""
    pts = [(0, trace.initial_conts[name])] if name in trace.initial_conts else []
    for rec in trace.records:
        if name in rec.conts:
            pts.append((rec.tick, rec.conts[name]))
        elif name in rec.statuses:
            pts.append((rec.tick, rec.statuses[name]))
    return pts or [(0, False)]


def test_entities_and_lanes_read_through_layouts_equal_the_table_reads(monkeypatch):
    # every corpus trace, the kernel-built ones (`S:2` names and the
    # carousel) and the differential ones, as built and as `from_json`
    # reads them back: the names, each lane (and one of a name none holds)
    # and the SVG of up to three lanes are what the whole tables give
    traces = [*_corpus_traces(), *_kernel_built_traces(), *_differential_traces().values()]
    drawn = []
    for trace in traces:
        for each in (trace, from_json(to_json(trace))):
            names = each.entities()
            assert names == _table_entities(each)
            for name in [*names, "nope"]:
                assert trace_mod._lane_points(each, name) == _table_lane_points(each, name), name
            if names:
                drawn.append((each, names[:3], to_svg_timing(each, names[:3])))
    monkeypatch.setattr(trace_mod, "_lane_points", _table_lane_points)
    for each, names, svg in drawn:
        assert to_svg_timing(each, names) == svg


def _table_json(trace: Trace) -> str:
    """`to_json` of `trace` read from each record's whole tables."""
    p, q = trace.wcrt.as_integer_ratio()
    doc = {
        "wcrt": format_rational(trace.wcrt),
        "terminated": trace.terminated,
        "termination_tick": trace.termination_tick,
        "initial": {k: format_rational(v) for k, v in sorted(trace.initial_conts.items())},
        "ticks": [
            {
                "tick": rec.tick,
                "time": trace_mod._time(p, q, rec.tick),
                "statuses": dict(sorted(rec.statuses.items())),
                "values": {
                    k: v if v.__class__ is bool else format_rational(v)
                    for k, v in sorted(rec.values.items())
                },
                "conts": {k: format_rational(v) for k, v in sorted(rec.conts.items())},
                "labels": list(rec.labels),
            }
            for rec in trace.records
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _table_project(trace: Trace, names) -> list:
    """`Trace.project` of `trace` read from each record's whole tables."""
    keep = set(names)
    return [
        (
            rec.tick,
            *(tuple(sorted((k, v) for k, v in table.items() if k in keep))
              for table in (rec.statuses, rec.values, rec.conts)),
            rec.labels,
        )
        for rec in trace.records
    ]


def test_json_and_projections_read_through_layouts_equal_the_table_reads():
    # every corpus trace, the kernel-built ones and the differential ones,
    # as built and as `from_json` reads them back: the JSON is byte for
    # byte what the whole tables give, and so is the projection on every
    # name, on every other name, and on a name none holds
    traces = [*_corpus_traces(), *_kernel_built_traces(), *_differential_traces().values()]
    for trace in traces:
        for each in (trace, from_json(to_json(trace))):
            assert to_json(each) == _table_json(each)
            names = each.entities()
            for kept in (names, names[::2], ["nope"]):
                assert each.project(kept) == _table_project(each, kept), kept


def test_json_roundtrip_empty():
    # a run cut before its first tick: a terminated trace holds a record
    trace = _trace(SINGLE_FLOW, max_ticks=0)
    assert not trace.terminated and trace.records == []
    assert trace_equal(from_json(to_json(trace)), trace)


def test_json_rejects_ticks_out_of_order():
    doc = json.loads(to_json(_trace(PAIR_FLOW)))
    assert len(doc["ticks"]) >= 3
    for edit, bad in (
        (lambda ticks: ticks.reverse(), "record 1 is for tick"),
        (lambda ticks: ticks.pop(1), "record 2 is for tick 3"),
        (lambda ticks: ticks.insert(1, dict(ticks[0])), "record 2 is for tick 1"),
        (lambda ticks: ticks[0].update(tick=True), "record 1 is for tick True"),
    ):
        edited = json.loads(json.dumps(doc))
        edit(edited["ticks"])
        with pytest.raises(TickflowError, match=bad):
            from_json(json.dumps(edited))


def test_json_rejects_a_time_or_termination_tick_it_does_not_derive():
    # a record's time is wcrt x tick, and the termination tick is the record
    # count of a terminated trace and null otherwise; a file that says
    # anything else is refused, never trusted
    done, cut = _trace(PAIR_FLOW), _trace(PAIR_FLOW, max_ticks=2)
    assert done.terminated and len(done.records) == 6 and not cut.terminated
    for trace, edit, bad in (
        (done, lambda doc: doc["ticks"][0].update(time="7"), "record 1 has time '7'"),
        (done, lambda doc: doc["ticks"][2].update(time="4"), "record 3 has time '4'"),
        (done, lambda doc: doc.update(termination_tick=99), "termination_tick 99"),
        (done, lambda doc: doc.update(termination_tick=None), "termination_tick None"),
        (done, lambda doc: doc.update(terminated=False), "termination_tick 6"),
        (cut, lambda doc: doc.update(termination_tick=2), "termination_tick 2"),
        (cut, lambda doc: doc.update(terminated=True), "termination_tick None"),
    ):
        doc = json.loads(to_json(trace))
        edit(doc)
        with pytest.raises(TickflowError, match=re.escape(bad)):
            from_json(json.dumps(doc))


# a record with a status, a value, a continuous variable and a label
LABELLED = "int signal V = 0; signal S; cont a = 0;\nemit S; ?V = 2; a = 1/2; L: pause"


def _edit_ticks(doc, field, key, value):
    doc["ticks"][0][field][key] = value


@pytest.mark.parametrize("edit, bad", [
    (lambda doc: doc.update(terminated="no"), "trace: 'terminated' must be a boolean, got 'no'"),
    (lambda doc: doc.update(ticks=[]), "'terminated' is true, but a terminated trace holds a record"),
    (lambda doc: doc.clear(), "trace: 'wcrt' is missing"),
    (lambda doc: doc.pop("termination_tick"), "trace: 'termination_tick' is missing"),
    (lambda doc: doc.update(wcrt=2), "trace: 'wcrt' must be a string, got 2"),
    (lambda doc: doc.update(wcrt="2.x"), "trace: 'wcrt': not a rational: '2.x'"),
    (lambda doc: doc["ticks"].append(3), "trace record 3 must be a JSON object, got 3"),
    (lambda doc: _edit_ticks(doc, "statuses", "S", "yes"),
     "trace record 1 statuses: 'S' must be a boolean, got 'yes'"),
    (lambda doc: doc["ticks"][0].update(labels=[3]),
     "trace record 1: 'labels' must list names, got 3"),
    (lambda doc: _edit_ticks(doc, "values", "V", 3),
     "trace record 1 values: 'V' must be a boolean or a string, got 3"),
    (lambda doc: _edit_ticks(doc, "conts", "a", None),
     "trace record 1 conts: 'a' must be a string, got None"),
    (lambda doc: doc["ticks"][0].pop("time"), "trace record 1: 'time' is missing"),
    (lambda doc: doc.update(initial=[]), "trace: 'initial' must be an object, got []"),
], ids=[
    "terminated-string", "terminated-no-record", "empty", "no-termination-tick",
    "wcrt-number", "wcrt-text", "record-number", "status-string", "label-number",
    "value-number", "cont-null", "no-time", "initial-list",
])
def test_json_rejects_a_malformed_field_naming_it(edit, bad):
    trace = _trace(LABELLED)
    assert trace.terminated and len(trace.records) == 2
    assert trace.records[0].labels == ("L",) and trace.records[0].values == {"V": 2}
    doc = json.loads(to_json(trace))
    edit(doc)
    with pytest.raises(TickflowError, match=re.escape(bad)):
        from_json(json.dumps(doc))


def test_json_that_repeats_a_key_is_refused():
    # each last value given makes a valid trace: the earlier one must not be
    # quietly dropped
    text = to_json(_trace(LABELLED))
    for old, new, key in (
        ('"wcrt": ', '"wcrt": "1",\n  "wcrt": ', "wcrt"),
        ('"time": ', '"time": "99",\n      "time": ', "time"),
        ('"S": ', '"S": false,\n        "S": ', "S"),
    ):
        edited = text.replace(old, new, 1)
        assert edited != text and json.loads(edited) == json.loads(text), key
        with pytest.raises(TickflowError, match=f"^trace: key '{key}' repeated in an object$"):
            from_json(edited)


def test_json_that_is_no_object_is_refused():
    for text in ("[]", "{", "3"):
        with pytest.raises(TickflowError, match="trace"):
            from_json(text)


def test_record_by_tick():
    trace = _trace(PAIR_FLOW)
    n = len(trace.records)
    assert [trace.record(t).tick for t in range(1, n + 1)] == list(range(1, n + 1))
    for tick in (0, -1, n + 1):
        with pytest.raises(TickflowError, match=f"no record for tick {tick}"):
            trace.record(tick)


def test_json_deterministic():
    trace = _trace(PAIR_FLOW)
    assert to_json(trace) == to_json(trace)


def test_svg_lanes_and_pulse():
    # the stop signal of the hand-written bounded loop pulses at tick 1
    source = (
        "cont a = 0;\nsignal R;\nabort (R)\n"
        "loop { a = a + 2; if (!TTL([a' = 1], a <= 2, {a})) emit R; pause }"
    )
    trace = _trace(source)
    svg = to_svg_timing(trace, ["a", "R"])
    assert '<g id="lane-a">' in svg
    assert '<g id="lane-R">' in svg
    assert svg == to_svg_timing(trace, ["a", "R"])


def test_svg_golden_file():
    source = (
        "cont a = 0;\nsignal R;\nabort (R)\n"
        "loop { a = a + 2; if (!TTL([a' = 1], a <= 2, {a})) emit R; pause }"
    )
    svg = to_svg_timing(_trace(source), ["a", "R"])
    golden = (DATA / "bounded_flow_timing.svg").read_text()
    assert svg == golden


def test_svg_empty_vars_error():
    with pytest.raises(TickflowError):
        to_svg_timing(_trace(SINGLE_FLOW), [])


def test_svg_unknown_entity_error():
    with pytest.raises(TickflowError):
        to_svg_timing(_trace(SINGLE_FLOW), ["nope"])


def test_svg_repeated_entity_error():
    # a repeated entity would give two lanes the same `lane-a` id
    with pytest.raises(TickflowError, match="^'a' given twice$"):
        to_svg_timing(_trace(SINGLE_FLOW), ["a", "a"])


def test_stepping_lane_values():
    source = """
    cont a op+ = 1;
    input signal FAULT;
    loop { abort (FAULT) { do {a' = 1} until (a <= 5) }; a = 1 }
    """
    from tickflow.kernel import InputAssignment

    trace = _trace(source, schedule={1: InputAssignment.make(present=["FAULT"])}, max_ticks=2)
    svg = to_svg_timing(trace, ["a"])
    assert ">3<" in svg and ">6<" in svg


def test_effective_termination_collapses_quiet_drain():
    trace = _trace(SINGLE_FLOW)
    assert trace.termination_tick == 2
    assert trace.effective_termination_tick == 1


def test_effective_termination_keeps_active_final_tick():
    trace = _trace("signal E;\nemit E", wcrt=F(1))
    assert trace.termination_tick == 1
    assert trace.effective_termination_tick == 1


@pytest.mark.parametrize("source, effective", [
    # a continuous variable or a signal's value that changes at the
    # termination tick makes it active
    ("cont a = 0;\na = 1; pause; a = 2", 2),
    ("int signal V = 1;\npause; ?V = 2", 2),
    # one that keeps its value, or first appears there, does not
    ("int signal V = 1;\npause; ?V = 1", 1),
    ("cont a = 0;\npause; { cont b = 3; nothing }", 1),
    ("cont a = 0;\npause; { int signal V = 3; nothing }", 1),
])
def test_effective_termination_reads_values_at_the_termination_tick(source, effective):
    trace = _trace(source, wcrt=F(1))
    assert trace.termination_tick == 2
    assert trace.effective_termination_tick == effective


def test_trace_equal_tells_every_field_apart():
    trace = _trace(SINGLE_FLOW)
    same = Trace(trace.wcrt, list(trace.records), True, dict(trace.initial_conts), read_log=[])
    assert trace_equal(trace, same)  # the read log is ignored
    for other in (
        Trace(F(3), trace.records, trace.terminated, trace.initial_conts),
        Trace(trace.wcrt, trace.records, not trace.terminated, trace.initial_conts),
        Trace(trace.wcrt, trace.records, trace.terminated, {"a": F(1)}),
        Trace(trace.wcrt, trace.records[:-1], trace.terminated, trace.initial_conts),
    ):
        assert not trace_equal(trace, other) and not trace_equal(other, trace)
