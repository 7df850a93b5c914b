"""Mutation fuzzing of every kind of file the command line reads, and of
the values of its flags.

Each role's seed file is mutated at the byte level (replace, insert or
delete bytes, which also makes text that is not UTF-8) and at the token
level (delete, repeat, swap or replace tokens), with fixed seeds, and the
command that reads it runs in process. Whatever the input, `main` must
return 0, 1 or 2 without raising; 1 only with a verdict line on stdout and
2 only with a message on stderr that starts with the file or the flag at
fault.

The flags role mutates one flag's value the same two ways, or puts a
pool token in its place or beside it, and an exit 2 must name that flag:
a message that starts with it.

The cases role mutates a small corpus `cases.json` the same two ways and
reads it with `load_cases`: each mutant must load, or raise a
`ScheduleError` or an `OSError` naming the file.

The environment variable TICKFLOW_FUZZ_SCALE multiplies the mutants of
each file role (see `_fuzz_scale`).

The duplicate role repeats, in turn, each item of a seed file that must
not be given twice: a JSON object's key, an entry of a `present`,
`statuses` or `values` list, a name of an automaton's `var` line, a
`location`, `rate` or `init` line, a field of an `edge`, an `init` or a
`reset`, or a matrix block. Each such file must exit 2 with a message that
starts with the file, and with its line for an automaton or a matrix.
Repeats that are legal, such as a second `inv` or `edge` line, are left
out.
"""

from __future__ import annotations

import json
import os
import random
import re
from pathlib import Path

import pytest

from tickflow.cli import main
from tickflow.corpus import load_cases
from tickflow.errors import ScheduleError

CORPUS = Path(__file__).parent.parent / "corpus"
CAROUSEL = str(CORPUS / "programs" / "carousel.hsj")
CAROUSEL_PARAMS = [
    "--param", "alpha=3", "--param", "beta=10", "--param", "theta=6", "--param", "TAG=1",
]
LEVEL = (
    "input int signal LEVEL; input signal GO; signal HIGH;\n"
    "loop { if (GO && ?LEVEL >= 3) emit HIGH; pause }\n"
)
# LEVEL with a boolean input, for the roles whose seeds give values
SWITCH = (
    "input int signal LEVEL; input signal GO; input boolean signal ON; signal HIGH;\n"
    "loop { if (GO && ?LEVEL >= 3 || ?ON) emit HIGH; pause }\n"
)
FILE, PROGRAM, SWITCHED = "<mutated>", "<level program>", "<switch program>"
# each program placeholder, replaced by a file holding the program
PROGRAMS = {PROGRAM: LEVEL, SWITCHED: SWITCH}


def _compare(ha: str, mapping: str) -> list:
    return [
        "compare", "--ha", ha, "--program", CAROUSEL, "--wcrt", "2", "--horizon", "12",
        "--map", mapping, *CAROUSEL_PARAMS,
    ]


# role -> (seed text, the command that reads the mutated file as FILE)
ROLES = {
    "program": (
        (CORPUS / "programs" / "faulty_reset.hsj").read_text(),
        ["run", FILE, "--wcrt", "2", "--ticks", "8"],
    ),
    "program-verify": (
        LEVEL,
        ["verify", FILE, "--wcrt", "1", "--bound", "3", "--target", "HIGH"],
    ),
    "alphabet": (
        '{"GO": {"statuses": ["absent", "present"]}, "LEVEL": {"values": ["1", "5"]}}\n',
        ["verify", PROGRAM, "--wcrt", "1", "--bound", "3", "--target", "HIGH",
         "--alphabet", FILE],
    ),
    "schedule": (
        '[{"tick": 1, "present": ["FAULT"]}, {"tick": 3, "present": []}]\n',
        ["run", str(CORPUS / "programs" / "faulty_reset.hsj"), "--wcrt", "2", "--ticks", "4",
         "--schedule", FILE],
    ),
    "map": (
        (CORPUS / "maps" / "carousel.json").read_text(),
        _compare(str(CORPUS / "automata" / "carousel.ha"), FILE),
    ),
    "automaton": (
        (CORPUS / "automata" / "carousel.ha").read_text(),
        _compare(FILE, str(CORPUS / "maps" / "carousel.json")),
    ),
    "matrix": (
        (CORPUS / "matrices" / "controllable.mat").read_text(),
        ["lti", FILE],
    ),
    # seeds that carry values, integers written as fractions and booleans,
    # so that many mutants reach the value checks: a value that is not an
    # integer, a boolean given to a numeric input or the reverse, or a
    # value given to a pure input
    "alphabet-values": (
        '{"GO": {}, "LEVEL": {"statuses": ["present"], "values": ["4/2", "10/2"]},'
        ' "ON": {"values": [true, false]}}\n',
        ["verify", SWITCHED, "--wcrt", "1", "--bound", "3", "--target", "HIGH",
         "--alphabet", FILE],
    ),
    "schedule-values": (
        '[{"tick": 1, "present": ["LEVEL", "ON"], "values": {"LEVEL": "12/4", "ON": true}}]\n',
        ["run", SWITCHED, "--wcrt", "1", "--ticks", "3", "--schedule", FILE],
    ),
    # an automaton whose lines use every form of expression the reader
    # folds and every edge field, so that mutants reach the linearity fold
    # and the checks for a field given twice
    "automaton-expr": (
        "var x y\n"
        "location A\n  rate x 1\n  rate y 0\n  inv x <= beta && y <= 1\n"
        "location B\n  rate x -1/2\n  rate y 1\n  inv y <= theta\n"
        "init A x = 0, y = 0\n"
        "edge A -> B when 2*x >= alpha && y >= 0 label go delay 1/2 priority 1\n"
        "edge B -> A when y >= 1 label back reset x = x - 1, y = 0\n",
        _compare(FILE, str(CORPUS / "maps" / "carousel.json")),
    ),
}
# each role's random seed; a new role takes the next number, so that the
# mutants of the older roles stay what they were
SEEDS = {
    "alphabet": 0, "automaton": 1, "map": 2, "matrix": 3, "program": 4,
    "program-verify": 5, "schedule": 6, "alphabet-values": 7, "schedule-values": 8,
    "automaton-expr": 9, "cases": 10,
}


def _fuzz_scale() -> int:
    """TICKFLOW_FUZZ_SCALE, a positive integer, 1 if unset: it multiplies
    the mutants per role. Each role's mutants come from one seeded stream,
    so a larger scale runs the default mutants first and then more."""
    text = os.environ.get("TICKFLOW_FUZZ_SCALE", "1")
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise pytest.UsageError(f"TICKFLOW_FUZZ_SCALE must be a positive integer, got {text!r}")
    return int(text)


MUTATIONS = 40 * _fuzz_scale()  # per role and level

_TOKEN = re.compile(r"\w+|\s+|.", re.S)
_POOL = (
    "0", "-1", "1/0", "1/3", "99", "{", "}", "(", ")", "[", "]", ",", ";", '"', ":",
    "||", "&&", "!", "=", "pause", "loop", "abort", "nothing", "null", "true", "x", "A",
)
_VERDICT = re.compile(
    r"^(witness: |first divergence at tick |(observability|controllability) rank .*NOT )",
    re.M,
)


def _byte_mutant(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out) + 1)
        kind = rng.randrange(3)
        # mostly a byte of the file itself, so that most mutants stay text
        byte = rng.randrange(256) if rng.random() < 0.2 else rng.choice(data)
        if kind == 0 and at < len(out):
            out[at] = byte
        elif kind == 1:
            out[at:at] = bytes([byte])
        else:
            del out[at:at + rng.randint(1, 4)]
    return bytes(out)


def _token_mutant(rng: random.Random, text: str) -> bytes:
    tokens = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(tokens))
        kind = rng.randrange(4)
        if kind == 0:
            del tokens[at]
        elif kind == 1:
            tokens.insert(at, tokens[at])
        elif kind == 2:
            other = rng.randrange(len(tokens))
            tokens[at], tokens[other] = tokens[other], tokens[at]
        else:
            tokens[at] = rng.choice(_POOL + tuple(tokens))
        if not tokens:
            break
    return "".join(tokens).encode("utf-8")


def _files_for(argv: list, tmp_path: Path, mutated: Path) -> list:
    """`argv` with FILE replaced by `mutated` and each program placeholder
    by a file in `tmp_path` holding its program."""
    paths = {FILE: str(mutated)}
    for at, (mark, text) in enumerate(PROGRAMS.items()):
        path = tmp_path / f"program{at}.hsj"
        path.write_text(text)
        paths[mark] = str(path)
    return [paths.get(arg, arg) for arg in argv]


@pytest.mark.parametrize("role", sorted(ROLES))
def test_mutated_file_fails_cleanly(role, tmp_path, capsys):
    seed, argv = ROLES[role]
    mutated = tmp_path / "mutated"
    argv = _files_for(argv, tmp_path, mutated)
    # only the mutated file can be at fault, or a flag
    named = (str(mutated), "--")
    rng = random.Random(SEEDS[role])
    for i in range(2 * MUTATIONS):
        if i % 2:
            data = _token_mutant(rng, seed)
        else:
            data = _byte_mutant(rng, seed.encode("utf-8"))
        mutated.write_bytes(data)
        code = main(argv)
        out, err = capsys.readouterr()
        case = f"{role} mutant {i}: {data!r}"
        assert code in (0, 1, 2), case
        if code == 1:
            assert _VERDICT.search(out), case
        elif code == 2:
            assert err.startswith(named), f"{case}\n{err}"


# a corpus file with every field of a case and every expectation key, read
# by `load_cases`, not by a command
CASES = (
    '{"cases": [{"name": "switch", "program": "switch.hsj", "wcrt": "1", "params": {},'
    ' "max_ticks": 3, "schedule": [{"tick": 1, "present": ["ON"], "values": {"ON": true}}],'
    ' "expect": {"statuses": [["HIGH", 2, true]], "values": [["ON", 1, true]],'
    ' "conts": [["a", 1, "1/2"]], "emissions": {"HIGH": [2]}, "stop_ticks": [1],'
    ' "final_conts": {"a": "1"}, "terminated": false, "termination_tick": 3,'
    ' "effective_termination_tick": 3,'
    ' "reach": {"target": "HIGH", "bound": 2, "reachable": true, "witness_tick": 2}},'
    ' "note": "n"}]}\n'
)


def test_mutated_cases_file_loads_or_fails_naming_it(tmp_path):
    mutated = tmp_path / "cases.json"
    rng = random.Random(SEEDS["cases"])
    for i in range(2 * MUTATIONS):
        if i % 2:
            data = _token_mutant(rng, CASES)
        else:
            data = _byte_mutant(rng, CASES.encode("utf-8"))
        mutated.write_bytes(data)
        case = f"cases mutant {i}: {data!r}"
        try:
            load_cases(tmp_path)
        except ScheduleError as err:
            assert str(err).startswith(f"{mutated}: "), f"{case}\n{err}"
        except OSError as err:
            assert err.filename == str(mutated), f"{case}\n{err}"
        except Exception as err:  # any other exception is the fault: name the mutant
            pytest.fail(f"{case}\n{err!r}")


class _Object(list):
    """A JSON object as its (key, value) pairs, so that a key can repeat."""


def _dump(value) -> str:
    if isinstance(value, _Object):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    return json.dumps(value)


def _json_copies(value, key=None):
    """Copies of a JSON value with one object key, or one entry of a list
    under `present`, `statuses` or `values`, repeated."""
    if isinstance(value, _Object):
        for i, (k, v) in enumerate(value):
            yield _Object(value[:i + 1] + value[i:])
            for inner in _json_copies(v, k):
                yield _Object(value[:i] + [(k, inner)] + value[i + 1:])
    elif isinstance(value, list):
        if key in ("present", "statuses", "values"):
            for i in range(len(value)):
                yield value[:i + 1] + value[i:]
        for i, v in enumerate(value):
            for inner in _json_copies(v):
                yield value[:i] + [inner] + value[i + 1:]


def _json_repeats(text: str) -> list:
    """(mutant, None) per repeat of the JSON document `text`: a JSON error
    gives no line."""
    doc = json.loads(text, object_pairs_hook=_Object)
    return [(_dump(copy), None) for copy in _json_copies(doc)]


def _repeat_each(parts: list, sep: str) -> list:
    """`parts` joined by `sep`, once per part, with that part given twice."""
    return [sep.join(parts[:i + 1] + parts[i:]) for i in range(len(parts))]


_FIELD = re.compile(r" (?=(?:when|label|reset|delay|priority) )")


def _automaton_repeats(text: str) -> list:
    """(mutant, line of the repeat) per repeat of the automaton `text`."""
    lines = text.splitlines(keepends=True)
    out = []

    def put(at: int, new: str, line: int):
        out.append(("".join(lines[:at] + [new] + lines[at + 1:]), line))

    for at, line in enumerate(lines):
        words = line.split()
        head = words[0] if words else ""
        if head in ("location", "rate", "init"):
            put(at, line + line, at + 2)  # the second copy is at fault
        if head == "var":
            for new in _repeat_each(words[1:], " "):
                put(at, f"var {new}\n", at + 1)
        if head == "init":
            start = f"init {words[1]} "
            for new in _repeat_each(line.strip()[len(start):].split(", "), ", "):
                put(at, f"{start}{new}\n", at + 1)
        if head == "edge":
            fields = _FIELD.split(line.strip())
            for new in _repeat_each(fields[1:], " "):
                put(at, f"{fields[0]} {new}\n", at + 1)
            for i, field in enumerate(fields):
                if field.startswith("reset "):
                    for new in _repeat_each(field[len("reset "):].split(", "), ", "):
                        edited = fields[:i] + [f"reset {new}"] + fields[i + 1:]
                        put(at, " ".join(edited) + "\n", at + 1)
    return out


def _matrix_repeats(text: str) -> list:
    """(mutant, line of the second header) per matrix block given twice.
    The seed's blocks are a header and their rows, with no blank line."""
    lines = text.splitlines(keepends=True)
    out = []
    for at, line in enumerate(lines):
        words = line.split()
        if len(words) == 3 and words[0].isalpha():
            end = at + 1 + int(words[1])
            out.append(("".join(lines[:end] + lines[at:end] + lines[end:]), end + 1))
    return out


# role -> the repeats of its seed; the program roles have none
REPEATS = {
    "alphabet": _json_repeats, "alphabet-values": _json_repeats, "map": _json_repeats,
    "schedule": _json_repeats, "schedule-values": _json_repeats,
    "automaton": _automaton_repeats, "automaton-expr": _automaton_repeats,
    "matrix": _matrix_repeats,
}


@pytest.mark.parametrize("role", sorted(REPEATS))
def test_duplicate_item_fails_naming_its_file(role, tmp_path, capsys):
    seed, argv = ROLES[role]
    mutated = tmp_path / "mutated"
    argv = _files_for(argv, tmp_path, mutated)
    mutants = REPEATS[role](seed)
    assert mutants, role
    for text, line in mutants:
        mutated.write_text(text)
        code = main(argv)
        out, err = capsys.readouterr()
        case = f"{role} repeat: {text!r}\n{err}"
        named = f"{mutated}: " if line is None else f"{mutated}:{line}: "
        assert code == 2 and out == "" and err.startswith(named), case


VALUE = "<value>"  # replaced by the mutated value of the flag
FAULTY = str(CORPUS / "programs" / "faulty_reset.hsj")
# flag -> (seed value, the command that reads the mutated value as VALUE);
# each command is cheap at any value a mutant of its seed can take
FLAGS = {
    "--wcrt": ("2", ["run", FAULTY, "--wcrt", VALUE, "--ticks", "8"]),
    "--ticks": ("8", ["run", FAULTY, "--wcrt", "2", "--ticks", VALUE]),
    "--param": (
        "alpha=3", ["run", CAROUSEL, "--wcrt", "2", "--ticks", "8", "--param", VALUE,
                    *CAROUSEL_PARAMS[2:]],
    ),
    "--bound": ("3", ["verify", PROGRAM, "--wcrt", "1", "--bound", VALUE, "--target", "HIGH"]),
    # the search makes 2 transitions: the seed's limit is reached, and a
    # mutant may raise it past them
    "--node-limit": (
        "1", ["verify", PROGRAM, "--wcrt", "1", "--bound", "3", "--target", "HIGH",
              "--node-limit", VALUE],
    ),
    "--horizon": (
        "12", [VALUE if arg == "12" else arg for arg in _compare(
            str(CORPUS / "automata" / "carousel.ha"), str(CORPUS / "maps" / "carousel.json"),
        )],
    ),
    # a name that is no signal of the program is blamed on the flag
    "--target": ("HIGH", ["verify", PROGRAM, "--wcrt", "1", "--bound", "3", "--target", VALUE]),
}
# each flag's random seed; a new flag takes the next number, so that the
# mutants of the older flags stay what they were
FLAG_SEEDS = {
    "--bound": 0, "--horizon": 1, "--node-limit": 2, "--param": 3, "--ticks": 4, "--wcrt": 5,
    "--target": 6,
}
FLAG_MUTATIONS = 5  # per flag and kind of mutant


def _flag_mutant(rng: random.Random, seed: str, kind: int) -> str:
    """A byte mutant of `seed` (kind 0), a token mutant (kind 1), or a token
    of the pool alone, before `seed` or after it (kind 2). A seed of one or
    two tokens makes few token mutants, hence the third kind."""
    if kind == 0:
        # capsys cannot write the lone surrogates a shell would pass for
        # bytes that are not UTF-8, so they arrive as U+FFFD
        return _byte_mutant(rng, seed.encode("utf-8")).decode("utf-8", "replace")
    if kind == 1:
        return _token_mutant(rng, seed).decode("utf-8")
    token = rng.choice(_POOL)
    return rng.choice((token, token + seed, seed + token))


@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_mutated_flag_fails_cleanly(flag, tmp_path, capsys):
    seed, argv = FLAGS[flag]
    program = tmp_path / "level.hsj"
    program.write_text(LEVEL)
    rng = random.Random(FLAG_SEEDS[flag])
    for i in range(3 * FLAG_MUTATIONS):
        value = _flag_mutant(rng, seed, i % 3)
        args = [{VALUE: value, PROGRAM: str(program)}.get(arg, arg) for arg in argv]
        case = f"{flag} mutant {i}: {value!r}"
        code = main(args)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), case
        if code == 1:
            assert _VERDICT.search(out), case
        elif code == 2:
            assert err.startswith((f"{flag}:", f"{flag} ")), f"{case}\n{err}"
