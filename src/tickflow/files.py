"""Reading the JSON input files exactly: schedules, alphabets, variable
maps, corpus cases and traces. An object may not give a key twice, nor hold
a key its reader does not know; a value is a JSON boolean or a rational
string. Every error is a `ScheduleError` whose message starts with where
the datum sits: the file, then the place in it. Nothing is checked against
a program: `kernel.run`, `verify.check_reachable` and `hybrid.compare` do
that. `json` is imported only where a document is parsed, so a command
that reads no JSON never loads it.
"""

from __future__ import annotations

import errno
from fractions import Fraction

from .errors import ScheduleError
from .rational import parse_rational


def read_text(path: str) -> str:
    """The text of the file at `path`. A file that is not UTF-8 raises an
    `OSError` naming it, like a file that cannot be opened."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
            raise OSError(errno.EILSEQ, reason, path) from None


class _Repeated(dict):
    """A JSON object that gives a key twice, with its (key, value) `pairs`."""

    __slots__ = ("pairs",)


def parse(text: str, origin: str):
    """The JSON document `text`, read from `origin`, which errors name. An
    object that gives a key twice is kept, for `refuse_repeats` to refuse.
    A document nested past the parser's limit is refused as `nested too
    deep to parse`, as a program or an automaton is."""
    import json

    def object_of(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            obj = _Repeated(obj)
            obj.pairs = pairs
        return obj

    try:
        return json.loads(text, object_pairs_hook=object_of)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"{origin}: {exc}") from exc
    except RecursionError:  # nested past the parser's limit
        raise ScheduleError(f"{origin}: nested too deep to parse") from None


def refuse_repeats(origin: str, datum) -> None:
    """Refuse the first object in `datum` that gives a key twice, in the
    order the parser completed them: each object after the objects it
    holds, in document order. The message names the first key given again."""
    if datum.__class__ is list:
        for item in datum:
            refuse_repeats(origin, item)
    elif datum.__class__ is dict:
        for item in datum.values():
            refuse_repeats(origin, item)
    elif datum.__class__ is _Repeated:
        keys = [key for key, _ in datum.pairs]
        for _, item in datum.pairs:
            refuse_repeats(origin, item)
        key = next(key for at, key in enumerate(keys) if key in keys[:at])
        raise ScheduleError(f"{origin}: key {key!r} repeated in an object")


def load_json(path: str, what: str, shape: type):
    """The JSON document in `path`, whose top level must be a `shape` (list
    or dict); `what` names the file's role in errors. No object in it may
    give a key twice."""
    doc = parse(read_text(path), path)
    refuse_repeats(path, doc)
    if not isinstance(doc, shape):
        kind = "array" if shape is list else "object"
        raise ScheduleError(f"{path}: {what} must be a JSON {kind}")
    return doc


_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean", int: "an integer"}


def fields(obj, where: str, kinds: dict, optional=()) -> dict:
    """`obj`, the JSON object at `where`, checked: it holds only keys of
    `kinds`, each with a value of the JSON type `kinds` gives it (`object`
    for any), and every key but those in `optional`."""
    if not isinstance(obj, dict):
        raise ScheduleError(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise ScheduleError(f"{where}: unknown key {unknown[0]!r}")
    for key, kind in kinds.items():
        if key not in obj:
            if key not in optional:
                raise ScheduleError(f"{where}: {key!r} is missing")
        elif kind is not object and type(obj[key]) is not kind:
            raise ScheduleError(f"{where}: {key!r} must be {_KINDS[kind]}, got {obj[key]!r}")
    return obj


def boolean(datum, where: str) -> bool:
    """A JSON boolean, at `where`."""
    if datum.__class__ is not bool:
        raise ScheduleError(f"{where} must be a boolean, got {datum!r}")
    return datum


def rational(datum, where: str) -> Fraction:
    """A rational written as a JSON string, at `where`."""
    if type(datum) is not str:
        raise ScheduleError(f"{where} must be a string, got {datum!r}")
    try:
        return parse_rational(datum)
    except ValueError as err:
        raise ScheduleError(f"{where}: {err}") from None


def value(datum, where: str):
    """A value a file gives a valued signal, at `where`: a JSON boolean as
    itself, for a boolean signal, or a rational written as a string."""
    if datum.__class__ is bool:
        return datum
    if type(datum) is not str:
        raise ScheduleError(f"{where} must be a boolean or a string, got {datum!r}")
    return rational(datum, where)


def entries(obj: dict, where: str, read) -> dict:
    """`obj` with each entry read by `read`, located as `where: 'name'`."""
    return {name: read(datum, f"{where}: {name!r}") for name, datum in obj.items()}


def at_tick(item, where: str, read) -> tuple:
    """An expectation [name, tick, wanted], its wanted datum read by `read`."""
    if type(item) is not list or [type(v) for v in item[:2]] != [str, int] or len(item) != 3:
        raise ScheduleError(f"{where}: each entry must be [name, tick, wanted], got {item!r}")
    name, tick, want = item
    return name, tick, read(want, f"{where}: {name!r}@{tick}")


def ticks(datum, where: str) -> list:
    """A list of ticks, at `where`."""
    if type(datum) is not list or any(type(tick) is not int for tick in datum):
        raise ScheduleError(f"{where} must be a list of ticks, got {datum!r}")
    return datum


def distinct(where: str, key: str, items: list) -> tuple:
    """`items`, the list under `key` at `where` in a file, as a tuple. A
    repeat is an error, never merged: in an alphabet it would make the
    search advance the same choice twice. `true` and `1` are two entries:
    only one of them fits the input. An item may be any JSON value."""
    typed = [(item.__class__, item) for item in items]
    if any(item in typed[:at] for at, item in enumerate(typed)):
        raise ScheduleError(f"{where}: {key!r} repeats an entry")
    return tuple(items)


def schedule(origin: str, doc: list) -> dict:
    """The schedule the JSON array `doc` at `origin` gives, of per-tick input
    objects: [{"tick": 1, "present": ["FAULT"], "values": {"S": "3/2", "B": true}}, ...];
    a value is a rational as a string, or a JSON boolean for a boolean
    input. Ticks not mentioned see no inputs. Returns {tick: InputAssignment}."""
    from . import kernel

    out: dict = {}
    for entry in doc:
        if not isinstance(entry, dict) or "tick" not in entry:
            raise ScheduleError(f"{origin}: each entry needs a 'tick' field")
        tick = entry["tick"]
        if type(tick) is not int or tick < 1:
            raise ScheduleError(f"{origin}: bad tick {tick!r}")
        where = f"{origin}: tick {tick}"
        fields(entry, where, {"tick": int, "present": list, "values": dict}, ("present", "values"))
        present = entry.get("present", [])
        if not all(isinstance(n, str) for n in present):
            raise ScheduleError(f"{where}: 'present' must be a list of names")
        distinct(where, "present", present)
        values = entries(entry.get("values", {}), f"{where} values", value)
        if tick in out:
            raise ScheduleError(f"{origin}: duplicate tick {tick}")
        out[tick] = kernel.InputAssignment.make(present=present, values=values)
    return out


def load_schedule(path: str) -> dict:
    """The schedule in the JSON file `path` (see `schedule`)."""
    return schedule(path, load_json(path, "schedule", list))


def load_alphabet(path: str):
    """JSON object: {"FAULT": {}, "LEVEL": {"values": ["1", "3/2"]}} — every
    listed input may be present or absent, or only take the `statuses` its
    entry lists; a valued one, under each status, carries no value or one
    of its `values` (JSON booleans for a boolean input). Returns a
    `verify.InputAlphabet`, whose statuses `check_reachable` checks."""
    from . import verify

    doc = load_json(path, "alphabet", dict)
    statuses, values = {}, {}
    for name, spec in doc.items():
        where = f"{path}: alphabet entry {name!r}"
        fields(spec, where, {"statuses": list, "values": list}, ("statuses", "values"))
        chosen = spec.get("statuses", ["absent", "present"])
        statuses[name] = distinct(where, "statuses", chosen)
        if "values" in spec:
            picked = [value(v, f"{where} values") for v in spec["values"]]
            values[name] = distinct(where, "values", picked)
    return verify.InputAlphabet.make(statuses, values)

