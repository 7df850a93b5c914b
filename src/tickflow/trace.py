"""Trace data structure and its stable machine- and human-readable forms.

A trace is one record per executed tick with the settled status of every
live signal, the settled value of every valued signal and continuous
variable, and the names of labels holding a paused control point. A
record's time, `wcrt × tick`, and a trace's termination tick, its record
count once it has terminated, are derived where they are read, never
stored; the time is printed from the integers of `wcrt` (`_time`).
Rationals are never converted to floating point in any export; CSV, JSON
and SVG output is byte-deterministic for equal traces.

A record is read through a `Layout` shared by the records of one shape,
which places each entity's status or value in the record's one data
tuple: the kernel's in registration order, one built from tables (as
`from_json` builds one) in its tables' order. Every reader reads through
it, and it plans each read once and keeps the plan, so a CSV row plan
outlives one export. The CSV export also prints each rational once,
memoised by the identity of the value object (the trace keeps every value
alive while it is exported).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count
from math import gcd
from typing import Optional

from . import files
from .errors import ScheduleError, TickflowError
from .rational import format_rational, format_value
from .struct import Struct


_KINDS = ("status", "value", "cont")  # of the rows of each table of a layout


class Layout(tuple):
    """A record's layout: the (name, position in the data) pairs of each of
    its three tables, statuses, values and continuous variables, in order,
    so it compares and indexes as the tuple of them. What a reader derives
    from it is derived on first use and kept: `index`, each table's map
    from name to position; `rows`, every (name, kind, position), sorted by
    name, then kind; `entities`, the names of its statuses and continuous
    variables; and `csv`, the CSV row plan of each labels tuple `to_csv`
    meets (`_row_plan`)."""

    def __new__(cls, tables):
        return super().__new__(cls, map(tuple, tables))

    index = cached_property(lambda self: tuple(map(dict, self)))
    rows = cached_property(lambda self: sorted(
        (name, kind, at) for kind, table in zip(_KINDS, self) for name, at in table
    ))
    entities = cached_property(lambda self: frozenset(name for name, _ in (*self[0], *self[2])))
    csv = cached_property(lambda self: {})


@lru_cache(maxsize=256)
def _tables_layout(statuses: tuple, values: tuple, conts: tuple) -> Layout:
    """The layout of a record built from tables with these keys: statuses
    first in its data, then values, then continuous variables."""
    at = count()  # zip stops at a table's end without drawing from it
    return Layout((zip(statuses, at), zip(values, at), zip(conts, at)))


class TickRecord(Struct, frozen=False):
    """One tick's settled tables and labels. A record holds its data in one
    tuple and a `layout`, the (name, position in the data) pairs of each of
    its three tables in order (a `Layout`), shared by the records of one
    shape; it is built by `made_record`. The tables are built when read;
    records compare and hash by them, whatever their layouts."""

    __slots__ = ("tick", "layout", "data", "labels")
    tick: int
    statuses: dict  # name -> bool
    values: dict  # name -> Fraction | bool (valued signals)
    conts: dict  # name -> Fraction
    labels: tuple  # sorted label names with a paused control point

    def _table(self, which: int) -> dict:
        data = self.data
        return {name: data[at] for name, at in self.layout[which]}

    statuses = property(lambda self: self._table(0))
    values = property(lambda self: self._table(1))
    conts = property(lambda self: self._table(2))

    def __hash__(self):
        tables = (self.statuses, self.values, self.conts)
        return hash((self.tick, *(frozenset(table.items()) for table in tables), self.labels))


def made_record(tick: int, layout: Layout, data: tuple, labels: tuple) -> TickRecord:
    """The record of `data` read through `layout`: the one way to build a
    record, which the kernel takes once per tick."""
    record = object.__new__(TickRecord)
    record.tick, record.layout, record.data, record.labels = tick, layout, data, labels
    return record


class Trace(Struct, frozen=False):
    wcrt: Fraction
    records: list
    terminated: bool
    initial_conts: dict
    read_log: Optional[list]

    def __init__(self, wcrt, records, terminated, initial_conts=None, read_log=None):
        self.wcrt = wcrt
        self.records = records
        self.terminated = terminated
        self.initial_conts = {} if initial_conts is None else initial_conts
        self.read_log = read_log

    # -- queries --

    @property
    def termination_tick(self) -> Optional[int]:
        """The tick the program terminated at, its last record's; None
        while it has not terminated."""
        return len(self.records) if self.terminated else None

    def record(self, tick: int) -> TickRecord:
        """The record of `tick`; records hold ticks 1..n in order."""
        if 1 <= tick <= len(self.records):
            rec = self.records[tick - 1]
            if rec.tick == tick:
                return rec
        raise TickflowError(f"no record for tick {tick}")

    # a one-name read looks the name up through each record's layout and
    # builds no table (`_column`)

    def cont(self, name: str, tick: int) -> Fraction:
        if tick == 0:
            return self.initial_conts[name]
        for _, value in _column((self.record(tick),), (2,), name):
            return value
        raise KeyError(name)

    def status(self, name: str, tick: int) -> bool:
        for _, status in _column((self.record(tick),), (0,), name):
            return status
        return False

    def value(self, name: str, tick: int):
        for _, value in _column((self.record(tick),), (1,), name):
            return value
        raise KeyError(name)

    def series(self, name: str) -> list:
        """[(tick, settled value)] of a continuous variable, while live."""
        return [(rec.tick, value) for rec, value in _column(self.records, (2,), name)]

    def final_cont(self, name: str) -> Fraction:
        for _, value in _column(reversed(self.records), (2,), name):
            return value
        return self.initial_conts[name]

    def emission_ticks(self, name: str) -> list:
        return [rec.tick for rec, status in _column(self.records, (0,), name) if status]

    def entities(self) -> list:
        """The names of every signal status and continuous variable the
        trace settles, sorted: read from each record's layout."""
        return sorted(set(self.initial_conts).union(*(rec.layout.entities for rec in self.records)))

    @property
    def effective_termination_tick(self) -> Optional[int]:
        """Termination tick with a trailing activity-free transition
        collapsed: if the last transition only drained finished control
        (no emission, no value change), termination is attributed to the
        tick before it."""
        tick = self.termination_tick
        if tick is None:
            return None
        return tick - 1 if self._quiet(tick) else tick

    def _quiet(self, tick: int) -> bool:
        rec = self.record(tick)
        if any(rec.statuses.values()):
            return False
        if tick == 1:
            return not rec.conts and not rec.values
        prev = self.record(tick - 1)
        for name, value in rec.conts.items():
            if name in prev.conts and prev.conts[name] != value:
                return False
        for name, value in rec.values.items():
            if name in prev.values and prev.values[name] != value:
                return False
        return True

    def project(self, names) -> list:
        """Per-tick view restricted to the given entities, for comparing
        traces that differ only in generated internals: read through each
        record's layout's rows, so no table is built."""
        keep, view = set(names), []
        for rec in self.records:
            tables = {kind: [] for kind in _KINDS}
            for name, kind, at in rec.layout.rows:
                if name in keep:
                    tables[kind].append((name, rec.data[at]))
            view.append((rec.tick, *map(tuple, tables.values()), rec.labels))
        return view


def _column(records, tables: tuple, name: str):
    """(record, datum) for each of `records`, in order, whose tables (0
    statuses, 1 values, 2 conts) hold `name`, the datum from the first of
    `tables` that does: read through the record's layout's `index`, so no
    table is built."""
    for rec in records:
        index = rec.layout.index
        for table in tables:
            at = index[table].get(name)
            if at is not None:
                yield rec, rec.data[at]
                break


# --- CSV ----------------------------------------------------------------------


def _time(p: int, q: int, tick: int) -> str:
    """`wcrt × tick`, for `p, q = wcrt.as_integer_ratio()`, printed as
    `format_rational` prints it, from integers: `p*tick / q` reduced by one
    gcd."""
    num = p * tick
    g = gcd(num, q)
    return str(num // g) if g == q else f"{num // g}/{q // g}"


# A label's row reads the datum past a record's data, which holds True.
_LABEL = (True,)


def settled_rows(rec: TickRecord) -> list:
    """(entity, kind, printed datum) for every settled status, signal value
    and continuous variable of a record, sorted by entity, then kind."""
    return [(name, kind, format_value(rec.data[at])) for name, kind, at in rec.layout.rows]


def _row_plan(layout: Layout, labels: tuple) -> list:
    """(position, "entity,kind,") for each CSV row of a record with
    `layout` and `labels`, in printed order: by entity, then kind. A record
    holds one row per (entity, kind), but for a label held twice, whose rows
    print alike, so the datum never decides the order. A label's row reads
    position -1, `_LABEL` past the data."""
    rows = sorted([*layout.rows, *((name, "label", -1) for name in labels)])
    return [(at, f"{name},{kind},") for name, kind, at in rows]


def to_csv(trace: Trace) -> str:
    """One row per settled entity per tick: tick,time,entity,kind,value,
    each tick's rows sorted by entity, then kind.

    The work a tick would repeat is done once:
    - the rows are planned once per record layout and labels, as positions
      in the record's data in printed order (`_row_plan`), kept in the
      layout's `csv` and reused by every record of that shape, in this
      export and every later one;
    - each datum is printed once per export, memoised by the identity of
      its object, which the trace keeps alive for the call; `True` and
      `False` are seeded as `true` and `false`, so a boolean never shares
      an entry with an equal rational;
    - the time `wcrt × tick` is printed from integers (`_time`)."""
    lines = ["tick,time,entity,kind,value"]
    append = lines.append
    printed = {id(True): "true", id(False): "false"}
    p, q = trace.wcrt.as_integer_ratio()
    for rec in trace.records:
        labels, plans = rec.labels, rec.layout.csv
        plan = plans.get(labels)
        if plan is None:
            plan = plans[labels] = _row_plan(rec.layout, labels)
        data = rec.data + _LABEL if labels else rec.data
        prefix = f"{rec.tick},{_time(p, q, rec.tick)},"
        for at, head in plan:
            value = data[at]
            text = printed.get(id(value))
            if text is None:
                text = printed[id(value)] = format_rational(value)
            append(f"{prefix}{head}{text}")
    return "\n".join(lines) + "\n"


# --- JSON ---------------------------------------------------------------------


def to_json(trace: Trace) -> str:
    """The trace as a JSON document, each record's tables sorted by name
    and read through its layout's rows, a boolean as itself and a rational
    as its text. `json` is imported here, so that a command that writes no
    JSON never loads it (see `files`)."""
    import json

    p, q = trace.wcrt.as_integer_ratio()
    ticks = []
    for rec in trace.records:
        data, tables = rec.data, {kind: {} for kind in _KINDS}
        for name, kind, at in rec.layout.rows:
            datum = data[at]
            tables[kind][name] = datum if datum.__class__ is bool else format_rational(datum)
        ticks.append({
            "tick": rec.tick,
            "time": _time(p, q, rec.tick),
            "statuses": tables["status"],
            "values": tables["value"],
            "conts": tables["cont"],
            "labels": list(rec.labels),
        })
    doc = {
        "wcrt": format_rational(trace.wcrt),
        "terminated": trace.terminated,
        "termination_tick": trace.termination_tick,
        "initial": {k: format_rational(v) for k, v in sorted(trace.initial_conts.items())},
        "ticks": ticks,
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str) -> Trace:
    """The trace a `to_json` document holds. Every field must be there with
    its JSON type and no other, a terminated trace must hold a record, its
    ticks must run 1..n in order, and each time and the termination tick
    must be the values they derive from; anything else is a ScheduleError
    naming the field."""
    doc = files.parse(text, "trace")
    files.refuse_repeats("trace", doc)
    files.fields(doc, "trace", {"wcrt": str, "terminated": bool, "termination_tick": object,
                                "initial": dict, "ticks": list})
    wcrt = files.rational(doc["wcrt"], "trace: 'wcrt'")
    records = []
    for expected, entry in enumerate(doc["ticks"], start=1):
        where = f"trace record {expected}"
        files.fields(entry, where, {"tick": object, "time": str, "statuses": dict,
                                    "values": dict, "conts": dict, "labels": list})
        tick = entry["tick"]
        if type(tick) is not int or tick != expected:
            raise ScheduleError(f"{where} is for tick {tick!r}; ticks must run 1..n in order")
        if files.rational(entry["time"], f"{where}: 'time'") != wcrt * tick:
            raise ScheduleError(
                f"trace record {tick} has time {entry['time']!r}; a tick's time is "
                f"wcrt x tick, {_time(*wcrt.as_integer_ratio(), tick)}"
            )
        for label in entry["labels"]:
            if type(label) is not str:
                raise ScheduleError(f"{where}: 'labels' must list names, got {label!r}")
        tables = (
            files.entries(entry["statuses"], f"{where} statuses", files.boolean),
            files.entries(entry["values"], f"{where} values", files.value),
            files.entries(entry["conts"], f"{where} conts", files.rational),
        )
        layout = _tables_layout(*(tuple(table) for table in tables))
        data = tuple(datum for table in tables for datum in table.values())
        records.append(made_record(tick, layout, data, tuple(entry["labels"])))
    if doc["terminated"] and not records:
        raise ScheduleError("trace: 'terminated' is true, but a terminated trace holds a record")
    initial = files.entries(doc["initial"], "trace initial", files.rational)
    trace = Trace(wcrt, records, doc["terminated"], initial)
    given = doc["termination_tick"]
    if given != trace.termination_tick or type(given) is not type(trace.termination_tick):
        raise ScheduleError(
            f"termination_tick {given!r} disagrees with the trace, which has "
            f"{len(records)} records and terminated {trace.terminated!r}"
        )
    return trace


def trace_equal(a: Trace, b: Trace) -> bool:
    """Equality over everything an exporter would see (the read log is
    diagnostic and ignored)."""
    return (
        a.wcrt == b.wcrt
        and a.terminated == b.terminated
        and a.initial_conts == b.initial_conts
        and a.records == b.records
    )


# --- SVG timing diagram ---------------------------------------------------------

_LANE_H = 40
_LANE_GAP = 14
_TICK_W = 56
_LEFT = 90
_TOP = 24


def to_svg_timing(trace: Trace, vars: list) -> str:
    """Step-plot timing diagram, one lane per entity, each named once.
    Boolean entities draw as low/high pulses; numeric entities as a step
    line with value labels."""
    if not vars:
        raise TickflowError("no entities selected for the timing diagram")
    known = set(trace.entities())
    for row, name in enumerate(vars):
        if name not in known:
            raise TickflowError(f"unknown entity {name!r}")
        if name in vars[:row]:
            # each lane's group is identified by its entity
            raise TickflowError(f"{name!r} given twice")
    ticks = [rec.tick for rec in trace.records]
    last = ticks[-1] if ticks else 0
    width = _LEFT + _TICK_W * (last + 1) + 20
    height = _TOP + len(vars) * (_LANE_H + _LANE_GAP) + 30
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">'
    ]
    for row, name in enumerate(vars):
        y0 = _TOP + row * (_LANE_H + _LANE_GAP)
        out.append(f'<g id="lane-{name}">')
        out.append(
            f'<text x="4" y="{y0 + _LANE_H // 2}" dominant-baseline="middle">'
            f"{name}</text>"
        )
        pts = _lane_points(trace, name)
        if pts and isinstance(pts[0][1], bool):
            out.append(_bool_lane(pts, y0, last))
        else:
            out.append(_num_lane(pts, y0, last))
        out.append("</g>")
    axis_y = _TOP + len(vars) * (_LANE_H + _LANE_GAP) + 4
    for t in range(0, last + 1):
        x = _LEFT + t * _TICK_W
        out.append(
            f'<line x1="{x}" y1="{_TOP - 8}" x2="{x}" y2="{axis_y}" '
            'stroke="#ccc" stroke-width="1"/>'
        )
        out.append(f'<text x="{x + 2}" y="{axis_y + 12}">{t}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _lane_points(trace: Trace, name: str) -> list:
    """[(tick, value)] starting at tick 0; value settled at that boundary."""
    pts = []
    if name in trace.initial_conts:
        pts.append((0, trace.initial_conts[name]))
    # a record's continuous variable `name`, else its signal's status
    pts += [(rec.tick, datum) for rec, datum in _column(trace.records, (2, 0), name)]
    if not pts:
        pts = [(0, False)]
    return pts


def _x(tick: int) -> int:
    return _LEFT + tick * _TICK_W

def _bool_lane(pts: list, y0: int, last: int) -> str:
    low = y0 + _LANE_H
    high = y0 + 8
    segs = []
    prev_level = low  # statuses settle false before the first record
    x_prev = _x(0)
    for tick, value in pts:
        x = _x(tick)
        level = high if value else low
        if x > x_prev:
            segs.append(f"M {x_prev} {prev_level} H {x}")
        if level != prev_level:
            segs.append(f"M {x} {prev_level} V {level}")
        prev_level = level
        x_prev = x
    segs.append(f"M {x_prev} {prev_level} H {_x(last + 1)}")
    path = " ".join(segs)
    return f'<path d="{path}" fill="none" stroke="black" stroke-width="1.5"/>'


def _num_lane(pts: list, y0: int, last: int) -> str:
    mid = y0 + _LANE_H // 2
    parts = []
    x_prev = None
    for tick, value in pts:
        x = _x(tick)
        if x_prev is not None:
            parts.append(
                f'<line x1="{x_prev}" y1="{mid}" x2="{x}" y2="{mid}" '
                'stroke="black" stroke-width="1"/>'
            )
            parts.append(
                f'<line x1="{x}" y1="{y0 + 4}" x2="{x}" y2="{y0 + _LANE_H - 4}" '
                'stroke="black" stroke-width="1"/>'
            )
        parts.append(
            f'<text x="{x + 4}" y="{mid - 4}">{format_value(value)}</text>'
        )
        x_prev = x
    if x_prev is not None:
        parts.append(
            f'<line x1="{x_prev}" y1="{mid}" x2="{_x(last + 1)}" y2="{mid}" '
            'stroke="black" stroke-width="1"/>'
        )
    return "\n".join(parts)
