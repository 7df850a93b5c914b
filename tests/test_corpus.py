from __future__ import annotations

from pathlib import Path

import pytest

from tickflow import corpus
from tickflow.corpus import load_cases, run_corpus
from tickflow.errors import ScheduleError, TickflowError

from conftest import corpus_sources


def test_every_golden_case_passes(corpus_dir):
    report = run_corpus(corpus_dir)
    assert report.ok, "\n" + report.summary()


def test_every_program_has_a_case(corpus_dir):
    covered = {case.program.split("/")[-1] for case in load_cases(corpus_dir)}
    for path in corpus_sources():
        assert path.name in covered, f"{path.name} has no golden case"


def test_known_divergence_is_marked(corpus_dir):
    cases = {case.name: case for case in load_cases(corpus_dir)}
    assert "divergence" in cases["read-write-parallel"].note


def test_each_case_runs_the_rewritten_and_the_native_program_once(corpus_dir, monkeypatch):
    runs = {False: 0, True: 0}  # native_flows -> runs
    real = corpus.run

    def counting(*args, native_flows=False, **kw):
        runs[native_flows] += 1
        return real(*args, native_flows=native_flows, **kw)

    monkeypatch.setattr(corpus, "run", counting)
    cases = len(load_cases(corpus_dir))
    assert run_corpus(corpus_dir).ok
    assert runs == {False: cases, True: cases}


# one-case corpora, each with a file fault or a boolean input value
DATA = Path(__file__).parent / "data" / "corpora"


# corpus -> the message after its file's name
MALFORMED = {
    "typo_key": "case 'typo-key': expect: unknown key 'emisions'",
    "repeated_expect": "case 'repeated-expect': key 'expect' repeated in an object",
    "repeated_tick": "case 'repeated-tick': duplicate tick 1",
    "missing_name": "case 1: 'name' is missing",
}
UNFIT_INPUTS = {
    "undeclared_input": "case 'undeclared-input': tick 2: 'OFF' is not a declared input",
    "mistyped_input": "case 'mistyped-input': tick 1: value 1: 'ON' holds a boolean value",
}


# expectation -> the message after the case's name: a list of
# [name, tick, wanted] entries or of ticks that is not one
MALFORMED_EXPECTATIONS = {
    '{"statuses": [["HIGH", "1", true]]}':
        "expect statuses: each entry must be [name, tick, wanted], got ['HIGH', '1', True]",
    '{"values": [["ON", 1]]}':
        "expect values: each entry must be [name, tick, wanted], got ['ON', 1]",
    '{"emissions": {"HIGH": [1, "2"]}}':
        "expect emissions: 'HIGH' must be a list of ticks, got [1, '2']",
    '{"stop_ticks": [1, true]}': "expect: 'stop_ticks' must be a list of ticks, got [1, True]",
}


@pytest.mark.parametrize("expect", sorted(MALFORMED_EXPECTATIONS))
def test_malformed_expectation_is_refused_naming_its_key(expect, tmp_path):
    (tmp_path / "cases.json").write_text(
        '{"cases": [{"name": "bad", "program": "p.hsj", "wcrt": "1", "expect": %s}]}' % expect
    )
    with pytest.raises(ScheduleError) as err:
        load_cases(tmp_path)
    want = MALFORMED_EXPECTATIONS[expect]
    assert str(err.value) == f"{tmp_path / 'cases.json'}: case 'bad': {want}"


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_case_is_refused_naming_its_file_and_case(name):
    # a typo, a repeated key or tick is never read as something else: the
    # expectation ignored, or the last one given winning
    corpus_dir = DATA / name
    with pytest.raises(ScheduleError) as err:
        load_cases(corpus_dir)
    assert str(err.value) == f"{corpus_dir / 'cases.json'}: {MALFORMED[name]}"


@pytest.mark.parametrize("name", sorted(UNFIT_INPUTS))
def test_schedule_input_the_program_cannot_take_names_the_case(name):
    corpus_dir = DATA / name
    with pytest.raises(ScheduleError) as err:
        run_corpus(corpus_dir)
    assert str(err.value) == f"{corpus_dir / 'cases.json'}: {UNFIT_INPUTS[name]}"


def test_case_with_a_bad_wcrt_and_a_bad_schedule_names_the_wcrt(tmp_path):
    # the run checks its schedule, and the tick length is checked before it
    (tmp_path / "p.hsj").write_text("input signal ON;\npause")
    (tmp_path / "cases.json").write_text(
        '{"cases": [{"name": "both", "program": "p.hsj", "wcrt": "0",'
        ' "schedule": [{"tick": 1, "present": ["OFF"]}], "expect": {}}]}'
    )
    with pytest.raises(ScheduleError) as err:
        run_corpus(tmp_path)
    assert str(err.value) == (
        f"{tmp_path / 'cases.json'}: case 'both': 'wcrt': must be strictly positive, got 0"
    )


@pytest.mark.parametrize("name", ["boolean_schedule", "boolean_expected"])
def test_boolean_input_values_are_given_and_expected_as_json_booleans(name):
    report = run_corpus(DATA / name)
    assert report.ok, "\n" + report.summary()


def test_boolean_expected_value_is_compared_by_type_and_printed_as_a_boolean():
    report = run_corpus(DATA / "boolean_expected_wrong")
    assert report.summary().splitlines() == [
        "FAIL  boolean-expected-wrong",
        "      values ON@3: wanted true, got false",
        "0/1 cases pass",
    ]


# corpus -> its summary: an expectation the trace cannot answer fails its
# case, labelled by its key, and the run goes on
UNANSWERED = {
    "missing_entity": [
        "FAIL  missing-entity",
        "      values NOPE@1: wanted 1, but the trace has no 'NOPE' at tick 1",
        "      conts x@0: wanted 0, but the trace has no 'x' at tick 0",
        "      conts x@2: wanted 0, but the trace has no 'x' at tick 2",
        "      final_conts x: wanted 0, but the trace has no 'x'",
        "0/1 cases pass",
    ],
    "tick_past_end": [
        "FAIL  tick-past-end",
        "      statuses HIGH@9: wanted true, but the trace has no tick 9",
        "      statuses HIGH@0: wanted false, but the trace has no tick 0",
        "      values ON@4: wanted false, but the trace has no tick 4",
        "0/1 cases pass",
    ],
    # a record reads a signal out of scope as absent, so a name the
    # program does not declare is caught before the trace is asked; a
    # later instance's name (`HIGH:2`) is a declared signal's
    "undeclared_status": [
        "FAIL  undeclared-status",
        "      statuses NOPE@1: wanted false, but the program declares no signal 'NOPE'",
        "0/1 cases pass",
    ],
    "undeclared_emission": [
        "FAIL  undeclared-emission",
        "      emissions GHOST: wanted [], but the program declares no signal 'GHOST'",
        "0/1 cases pass",
    ],
}
# corpus -> the message after its file's name: an argument out of range is
# named by the case's field, not by the library parameter it is passed as
OUT_OF_RANGE = {
    "negative_ticks": "case 'negative-ticks': 'max_ticks': must be non-negative, got -2",
    "negative_bound": "case 'negative-bound': expect reach: 'bound': must be non-negative, got -1",
    "undeclared_target": (
        "case 'undeclared-target': expect reach: 'target': 'NOPE' is not a declared signal"
    ),
    "zero_wcrt": "case 'zero-wcrt': 'wcrt': must be strictly positive, got 0",
    "undeclared_param": "case 'undeclared-param': 'params': undefined parameter(s): nope",
}
# corpus -> its program's file and the message after the file's name: a
# program that fails to compile or to run is located as `tickflow run`
# locates it
PROGRAM_FAULTS = {
    "parse_error": ("bad.hsj", "2:8: unexpected 'S'"),
    "double_write": (
        "double.hsj", "tick 1: 'a' written 2 times in one tick with no combine operator"
    ),
    "unbound_param": ("unbound.hsj", "constant 'k' is unbound and has no default"),
}


@pytest.mark.parametrize("name", sorted(UNANSWERED))
def test_expectation_the_trace_cannot_answer_fails_its_case(name):
    assert run_corpus(DATA / name).summary().splitlines() == UNANSWERED[name]


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_argument_out_of_range_names_the_case_and_its_field(name):
    corpus_dir = DATA / name
    with pytest.raises(ScheduleError) as err:
        run_corpus(corpus_dir)
    assert str(err.value) == f"{corpus_dir / 'cases.json'}: {OUT_OF_RANGE[name]}"


@pytest.mark.parametrize("name", sorted(PROGRAM_FAULTS))
def test_program_that_fails_names_its_file(name):
    corpus_dir = DATA / name
    program, message = PROGRAM_FAULTS[name]
    with pytest.raises(TickflowError) as err:
        run_corpus(corpus_dir)
    assert not isinstance(err.value, ScheduleError)
    assert str(err.value) == f"{corpus_dir / program}:{message}"


# programs the parser reads, nested past the recursion limit of a later pass
DEEP_PROGRAMS = {
    "sum": "cont a = 0;\na = " + " + ".join(["1"] * 500) + ";\npause",
    "decls": "".join(f"signal S{i};\n" for i in range(600)) + "pause",
}


@pytest.mark.parametrize("name", sorted(DEEP_PROGRAMS))
def test_program_nested_too_deep_names_its_file(name, tmp_path):
    # the message `tickflow check` prints for the same file
    (tmp_path / "deep.hsj").write_text(DEEP_PROGRAMS[name])
    (tmp_path / "cases.json").write_text(
        '{"cases": [{"name": "deep", "program": "deep.hsj", "wcrt": "1", "expect": {}}]}'
    )
    with pytest.raises(TickflowError) as err:
        run_corpus(tmp_path)
    assert str(err.value) == f"{tmp_path / 'deep.hsj'}: nested too deep to process"
