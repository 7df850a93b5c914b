from __future__ import annotations

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from tickflow.cli import main
from tickflow.files import load_alphabet, load_schedule
from tickflow.errors import ScheduleError

CORPUS = Path(__file__).parent.parent / "corpus"
CAROUSEL = str(CORPUS / "programs" / "carousel.hsj")
CAROUSEL_PARAMS = [
    "--param", "beta=10", "--param", "theta=6", "--param", "TAG=1",
]


def test_check_ok(capsys):
    assert main(["check", str(CORPUS / "programs" / "flow_single.hsj")]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_garbage_exits_2(tmp_path, capsys):
    bad = tmp_path / "garbage.hsj"
    bad.write_text("this is not a program")
    assert main(["check", str(bad)]) == 2
    assert "expected" in capsys.readouterr().err


def test_check_malformed_ttl_exits_2(tmp_path, capsys):
    bad = tmp_path / "ttl.hsj"
    bad.write_text("cont a, b;\nif (TTL([a' = 1], a <= 5 && b <= 0, {a, b})) pause")
    assert main(["check", str(bad)]) == 2
    assert f"{bad}:2:5: TTL variable set" in capsys.readouterr().err
    bad.write_text("cont a, b;\nif (TTL([a' = 1], TTL([b' = 1], b <= 3, {b}), {a})) pause")
    assert main(["check", str(bad)]) == 2
    assert f"{bad}:2:19: TTL cannot appear" in capsys.readouterr().err


def test_check_undeclared_param_exits_2(tmp_path, capsys):
    good = tmp_path / "p.hsj"
    good.write_text("signal S;\npause")
    assert main(["check", str(good), "--param", "nope=1"]) == 2


def test_check_reports_a_combine_offence_before_a_binding_error(tmp_path, capsys):
    # the offence is found by parse, before the constants are bound
    bad = tmp_path / "p.hsj"
    bad.write_text("param k; cont a = 0;\ndo {a' = 1 || a' = 1} until (a <= 4)")
    assert main(["check", str(bad), "--param", "j=1"]) == 2
    assert capsys.readouterr().err == (
        f"{bad}:1:10: continuous variable 'a' has simultaneous writers but no combine operator\n"
    )


def test_desugar_prints_bounded_loop(capsys):
    code = main(["desugar", str(CORPUS / "programs" / "flow_single.hsj"), "--wcrt", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "abort (" in out and "TTL(" in out and "do {" not in out


def test_desugared_comparison_of_comparisons_passes_check(tmp_path, capsys):
    # the look-ahead's invariant keeps the left comparison bracketed, so the
    # printed program reads back
    source = tmp_path / "p.hsj"
    source.write_text("cont x = 0; do {x' = 1} until ((x < 1) == (x > 2))")
    assert main(["desugar", str(source), "--wcrt", "1"]) == 0
    desugared = tmp_path / "desugared.hsj"
    desugared.write_text(capsys.readouterr().out)
    assert main(["check", str(desugared)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main([
        "run", str(CORPUS / "programs" / "flow_single.hsj"),
        "--wcrt", "2", "--ticks", "10", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tick,time,entity,kind,value"
    assert "1,2,a,cont,2" in lines


def test_run_stdout_csv(capsys):
    code = main(["run", str(CORPUS / "programs" / "flow_single.hsj"), "--wcrt", "2"])
    assert code == 0
    assert "1,2,a,cont,2" in capsys.readouterr().out


def test_run_json_and_svg(tmp_path):
    out_json = tmp_path / "trace.json"
    assert main([
        "run", str(CORPUS / "programs" / "flow_single.hsj"),
        "--wcrt", "2", "--out", str(out_json),
    ]) == 0
    doc = json.loads(out_json.read_text())
    assert doc["terminated"] is True
    out_svg = tmp_path / "trace.svg"
    assert main([
        "run", str(CORPUS / "programs" / "flow_single.hsj"),
        "--wcrt", "2", "--out", str(out_svg), "--svg-vars", "a",
    ]) == 0
    assert out_svg.read_text().startswith("<svg")


def test_run_with_schedule(tmp_path, capsys):
    code = main([
        "run", str(CORPUS / "programs" / "faulty_reset.hsj"),
        "--wcrt", "2", "--ticks", "2",
        "--schedule", str(CORPUS / "schedules" / "fault_tick1.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "2,4,a,cont,6" in out.splitlines()


def test_verify_witness_exit_1(capsys):
    code = main([
        "verify", CAROUSEL, "--wcrt", "2", "--param", "alpha=3", *CAROUSEL_PARAMS,
        "--bound", "12", "--target", "ERROR",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "witness" in out and "tick 2" in out


def test_verify_unreachable_exit_0(capsys):
    code = main([
        "verify", CAROUSEL, "--wcrt", "1", "--param", "alpha=1", *CAROUSEL_PARAMS,
        "--bound", "30", "--target", "ERROR",
    ])
    assert code == 0
    assert "unreachable within 30 ticks (30 transitions explored)" in capsys.readouterr().out


def test_verify_malformed_search_arguments_exit_2(capsys):
    code = main([
        "verify", CAROUSEL, "--wcrt", "1", "--param", "alpha=1", *CAROUSEL_PARAMS,
        "--bound", "-3", "--target", "ERROR",
    ])
    assert code == 2
    assert capsys.readouterr().err == "--bound: must be non-negative, got -3\n"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "verify", CAROUSEL, "--wcrt", "1", "--param", "alpha=1", *CAROUSEL_PARAMS,
            "--bound", "3", "--target", "ERROR", "--strategy", "bogus",
        ])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (
        ["run", CAROUSEL, "--wcrt", "2", "--ticks", "-3"],
        "--ticks: must be non-negative, got -3",
    ),
    (
        ["verify", CAROUSEL, "--wcrt", "2", "--bound", "3", "--target", "ERROR",
         "--node-limit", "-1"],
        "--node-limit: must be positive, got -1",
    ),
    (
        ["compare", "--ha", str(CORPUS / "automata" / "carousel.ha"), "--program", CAROUSEL,
         "--wcrt", "2", "--horizon", "-4", "--map", str(CORPUS / "maps" / "carousel.json")],
        "--horizon: must be positive, got -4",
    ),
    (
        # one tick is 2 long: a horizon of 1 would tabulate no program tick
        ["compare", "--ha", str(CORPUS / "automata" / "carousel.ha"), "--program", CAROUSEL,
         "--wcrt", "2", "--horizon", "1", "--map", str(CORPUS / "maps" / "carousel.json")],
        "--horizon: must be at least one tick, 2, got 1",
    ),
    (
        ["verify", CAROUSEL, "--wcrt", "2", "--bound", "12", "--target", "ERROR",
         "--node-limit", "1"],
        "--node-limit: reachability search exceeded 1 transitions",
    ),
    (["run", CAROUSEL, "--wcrt", "0"], "--wcrt: must be strictly positive, got 0"),
    (["run", CAROUSEL, "--wcrt", "1/0"], "--wcrt: bad rational '1/0'"),
    # the first --param at fault is reported, before the appended ones
    (["run", CAROUSEL, "--wcrt", "2", "--param", "alpha=1/0"], "--param alpha: bad rational '1/0'"),
    (["run", CAROUSEL, "--wcrt", "2", "--param", "alpha"], "--param: needs name=value, got 'alpha'"),
    (["run", CAROUSEL, "--wcrt", "2", "--param", "=3"], "--param: needs name=value, got '=3'"),
    (["run", CAROUSEL, "--wcrt", "2", "--param", "alpha=1"], "--param: 'alpha' given twice"),
    (
        ["run", CAROUSEL, "--wcrt", "2", "--param", "gamma=1"],
        "--param: undefined parameter(s): gamma",
    ),
    (["run", CAROUSEL, "--wcrt", "2", "--ticks", "8.5"], "--ticks: bad integer '8.5'"),
    # digits are ASCII, with no `_`: `int()` reads both
    (["run", CAROUSEL, "--wcrt", "2", "--ticks", "1_0"], "--ticks: bad integer '1_0'"),
    (["run", CAROUSEL, "--wcrt", "2", "--ticks", "\u0663"], "--ticks: bad integer '\u0663'"),
    (
        ["verify", CAROUSEL, "--wcrt", "2", "--bound", "", "--target", "ERROR"],
        "--bound: bad integer ''",
    ),
    (
        ["verify", CAROUSEL, "--wcrt", "2", "--bound", "3", "--target", "ERROR",
         "--node-limit", "1/2"],
        "--node-limit: bad integer '1/2'",
    ),
    (
        ["verify", CAROUSEL, "--wcrt", "2", "--bound", "3", "--target", "NOPE"],
        "--target: 'NOPE' is not a declared signal",
    ),
    (
        ["verify", CAROUSEL, "--wcrt", "2", "--bound", "3", "--target", "x"],
        "--target: 'x' is a continuous variable, not a signal",
    ),
], ids=[
    "ticks", "node-limit", "horizon", "horizon-below-tick", "node-limit-reached", "wcrt",
    "wcrt-rational", "param-rational", "param-no-value", "param-no-name", "param-twice",
    "param-undeclared", "ticks-integer", "ticks-underscore", "ticks-arabic-digit",
    "bound-integer", "node-limit-integer", "target-undeclared", "target-cont",
])
def test_out_of_range_flag_exits_2(argv, message, capsys):
    assert main([*argv, "--param", "alpha=3", *CAROUSEL_PARAMS]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


@pytest.mark.parametrize("flags, message", [
    (["--out", "trace.txt"], "--out: unknown trace format 'trace.txt': use .csv, .json or .svg"),
    (["--out", "trace.svg"], "--svg-vars: required for .svg output"),
], ids=["extension", "svg-without-vars"])
def test_output_flag_error_comes_before_the_run(flags, message, tmp_path, capsys):
    # the program fails at tick 1, so only a check made before the run is
    # reported; nothing is written
    prog = tmp_path / "fails.hsj"
    prog.write_text("cont a;\nemit a")
    assert main(["run", str(prog), "--wcrt", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert list(tmp_path.iterdir()) == [prog]


def test_unknown_svg_entity_names_the_flag(tmp_path, capsys):
    out = tmp_path / "trace.svg"
    code = main([
        "run", str(CORPUS / "programs" / "faulty_reset.hsj"), "--wcrt", "2",
        "--out", str(out), "--svg-vars", "a,NOPE",
    ])
    assert code == 2
    assert capsys.readouterr().err == "--svg-vars: unknown entity 'NOPE'\n"
    assert not out.exists()


def test_repeated_svg_entity_names_the_flag(tmp_path, capsys):
    out = tmp_path / "trace.svg"
    code = main([
        "run", str(CORPUS / "programs" / "faulty_reset.hsj"), "--wcrt", "2",
        "--out", str(out), "--svg-vars", "a,a",
    ])
    assert code == 2
    assert capsys.readouterr().err == "--svg-vars: 'a' given twice\n"
    assert not out.exists()


def test_valued_witness_replays_from_its_output(tmp_path, capsys):
    from tickflow.files import schedule
    from tickflow.kernel import InputAssignment
    from tickflow.params import bind_params
    from tickflow.rational import parse_rational
    from tickflow.rewrite import RewriteConfig, rewrite_flows
    from tickflow.syntax import parse
    from tickflow.verify import Witness, replay

    source = "input int signal LEVEL; signal HIGH;\nloop { if (?LEVEL >= 3) emit HIGH; pause }\n"
    prog = tmp_path / "level.hsj"
    prog.write_text(source)
    alpha = tmp_path / "alpha.json"
    alpha.write_text('{"LEVEL": {"values": ["1", "5"]}}')
    code = main([
        "verify", str(prog), "--wcrt", "1", "--bound", "4", "--target", "HIGH",
        "--alphabet", str(alpha),
    ])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    # the value reaches HIGH whatever LEVEL's status: absent comes first
    assert "  tick 1: absent [LEVEL=5]" in lines
    # rebuild the witness from the printed lines alone
    tick = int(re.fullmatch(r"witness: HIGH settles present at tick (\d+)", lines[0]).group(1))
    given = schedule("witness", _witness_schedule(lines))
    inputs = [given.get(t, InputAssignment()) for t in range(1, tick + 1)]
    snapshot = []
    for line in lines[1:]:
        if not line.startswith("  tick "):
            name, kind, _, value = line.split()
            snapshot.append((name, kind, value))
    cfg = RewriteConfig(parse_rational("1"))
    program = rewrite_flows(bind_params(parse(source), {}), cfg)
    assert replay(program, cfg, Witness(tuple(inputs), tick, tuple(snapshot)))


def _witness_schedule(lines: list) -> list:
    """The JSON schedule the tick lines of a printed witness give: each
    `tick N: present [A,L=5] absent [M=1]` line, as `load_schedule` reads it."""
    entries = []
    for line in lines:
        shown = re.fullmatch(r"  tick (\d+): (.*)", line)
        if not shown:
            continue
        entry = {"tick": int(shown.group(1)), "present": [], "values": {}}
        for status, names in re.findall(r"(present|absent) \[([^]]*)\]", shown.group(2)):
            for name, _, value in (item.partition("=") for item in names.split(",")):
                if status == "present":
                    entry["present"].append(name)
                if value:  # a boolean as JSON, a rational as a string
                    boolean = value in ("true", "false")
                    entry["values"][name] = json.loads(value) if boolean else value
        entries.append(entry)
    return entries


# a valued input's value may reach the target while the input is absent,
# and its status with no value: the witness prints either, and running
# its ticks as a schedule reaches the target at the same tick
STATUS_VALUE_WITNESSES = {
    "absent-with-value": (
        "input int signal LEVEL = 0; signal X;\n"
        "abort (LEVEL) { loop { if (?LEVEL >= 3) emit X; pause } }\n",
        '{"LEVEL": {"values": ["5"]}}', "  tick 1: absent [LEVEL=5]",
    ),
    "present-without-value": (
        "input int signal L = 0; signal X; loop { if (L && ?L == 0) emit X; pause }\n",
        '{"L": {"values": ["5"]}}', "  tick 1: present [L]",
    ),
}


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("name", sorted(STATUS_VALUE_WITNESSES))
def test_witness_of_a_status_without_its_value_runs_as_a_schedule(
    name, strategy, tmp_path, capsys
):
    source, alphabet, line = STATUS_VALUE_WITNESSES[name]
    prog, alpha, sched = tmp_path / "p.hsj", tmp_path / "alpha.json", tmp_path / "sched.json"
    prog.write_text(source)
    alpha.write_text(alphabet)
    code = main([
        "verify", str(prog), "--wcrt", "1", "--bound", "20", "--target", "X",
        "--alphabet", str(alpha), "--strategy", strategy,
    ])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[:2] == ["witness: X settles present at tick 2", line]
    sched.write_text(json.dumps(_witness_schedule(lines)))
    out = tmp_path / "trace.json"
    assert main([
        "run", str(prog), "--wcrt", "1", "--ticks", "3", "--schedule", str(sched),
        "--out", str(out),
    ]) == 0
    ticks = json.loads(out.read_text())["ticks"]
    assert [t["tick"] for t in ticks if t["statuses"]["X"]][0] == 2


def test_lti_verdicts(capsys):
    assert main(["lti", str(CORPUS / "matrices" / "observable.mat")]) == 0
    assert "observable" in capsys.readouterr().out
    assert main(["lti", str(CORPUS / "matrices" / "unobservable.mat")]) == 1
    assert "NOT observable" in capsys.readouterr().out
    assert main(["lti", str(CORPUS / "matrices" / "controllable.mat")]) == 0


def test_compare_reports_divergence(tmp_path, capsys):
    code = main([
        "compare",
        "--ha", str(CORPUS / "automata" / "carousel.ha"),
        "--program", CAROUSEL,
        "--wcrt", "2", "--horizon", "12",
        "--map", str(CORPUS / "maps" / "carousel.json"),
        "--param", "alpha=3", *CAROUSEL_PARAMS,
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "first divergence at tick 2" in out
    assert "ideal switch B->D at t=9 x=9" in out
    assert "delayed switch B->D at t=11 x=11" in out


def test_compare_of_equal_rates_reports_no_divergence(tmp_path, capsys):
    automaton = tmp_path / "one.ha"
    automaton.write_text("var x\nlocation L\n  rate x 3/2\ninit L x = 0\n")
    program = tmp_path / "p.hsj"
    program.write_text("cont x = 0;\ndo {x' = 3/2} until (true)")
    mapping = tmp_path / "map.json"
    mapping.write_text('{"x": "x"}')
    code = main([
        "compare", "--ha", str(automaton), "--program", str(program),
        "--wcrt", "2", "--horizon", "10", "--map", str(mapping),
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["no divergence on the grid", "max deviation 0"]


def test_compare_blames_a_misspelled_param_on_the_flag(capsys):
    # the automaton reads `alpha` too, but the program is bound first, so
    # the misspelling is reported, not the automaton's missing constant
    code = main([
        "compare",
        "--ha", str(CORPUS / "automata" / "carousel.ha"),
        "--program", CAROUSEL,
        "--wcrt", "2", "--horizon", "12",
        "--map", str(CORPUS / "maps" / "carousel.json"),
        "--param", "alphx=3", *CAROUSEL_PARAMS,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "--param: undefined parameter(s): alphx\n" and captured.out == ""


def test_schedule_loader_errors(tmp_path):
    bad = tmp_path / "sched.json"
    bad.write_text("{}")
    with pytest.raises(ScheduleError):
        load_schedule(str(bad))
    bad.write_text('[{"present": ["X"]}]')
    with pytest.raises(ScheduleError):
        load_schedule(str(bad))
    bad.write_text('[{"tick": 1}, {"tick": 1}]')
    with pytest.raises(ScheduleError):
        load_schedule(str(bad))
    for text in (
        '[{"tick": 1',
        '[{"tick": 1, "values": {"S": "zz"}}]',
        '[{"tick": 1, "present": "A"}]',
        '[{"tick": 1, "present": 5}]',
        '[{"tick": 1, "present": ["A", 5]}]',
        '[{"tick": 1, "values": ["A", "1"]}]',
        '[{"tick": 1, "presnt": ["A"]}]',
        '[{"tick": 1, "values": {"S": "1_0"}}]',
    ):
        bad.write_text(text)
        with pytest.raises(ScheduleError, match=re.escape(str(bad))):
            load_schedule(str(bad))


def test_schedule_error_names_only_the_schedule(tmp_path, capsys):
    bad = tmp_path / "sched.json"
    for text, message in (
        ('[{"tick": 0}]', "bad tick 0"),
        ('[{"tick": true, "present": ["FAULT"]}]', "bad tick True"),
        ('[{"tick": 1, "present": ["NOPE"]}]', "tick 1: 'NOPE' is not a declared input"),
        ('[{"tick": 3, "values": {"LEVEL": "1"}}]', "tick 3: 'LEVEL' is not a declared input"),
    ):
        bad.write_text(text)
        code = main([
            "run", str(CORPUS / "programs" / "faulty_reset.hsj"),
            "--wcrt", "2", "--schedule", str(bad),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"{bad}: {message}\n"


def test_schedule_loader_values():
    sched = load_schedule(str(CORPUS / "schedules" / "fault_tick1.json"))
    assert sched[1].present == frozenset({"FAULT"})


def test_alphabet_loader(tmp_path):
    path = tmp_path / "alpha.json"
    path.write_text('{"GO": {}, "LEVEL": {"values": ["1", "3/2"]}}')
    alphabet = load_alphabet(str(path))
    names = [name for name, _ in alphabet.statuses]
    assert names == ["GO", "LEVEL"]
    # GO x {absent,present} x {no value,1,3/2}
    assert len(alphabet.choices()) == 2 * 2 * 3
    path.write_text('{"GO": {"statuses": ["present"]}}')
    assert [a.present for a in load_alphabet(str(path)).choices()] == [frozenset({"GO"})]
    # values apply to each status listed, absent alone included
    path.write_text('{"LEVEL": {"statuses": ["absent"], "values": ["5"]}}')
    choices = load_alphabet(str(path)).choices()
    assert [(a.present, a.value_map()) for a in choices] == [
        (frozenset(), {}), (frozenset(), {"LEVEL": 5}),
    ]


def test_malformed_alphabet_exits_2(tmp_path, capsys):
    prog = tmp_path / "gated.hsj"
    prog.write_text("input signal GO; signal FIRED;\nloop { if (GO) emit FIRED; pause }\n")
    alpha = tmp_path / "alpha.json"
    for text in (
        '{"GO": {', '["GO"]', '{"GO": 1}', '{"GO": {"values": ["x"]}}',
        '{"GO": {"values": "12"}}',
        '{"GO": {"statuses": "present"}}',
        '{"GO": {"statusses": ["present"]}}',
        '{"GO": {"statuses": ["absent", "absent", "absent"]}}',
        '{"GO": {"statuses": ["present", "absent", "present"]}}',
        '{"GO": {"values": ["1", "2", "1"]}}',
        '{"GO": {"values": ["1/2", "0.5"]}}',
        '{"GO": {"values": ["1e3"]}}',
    ):
        alpha.write_text(text)
        with pytest.raises(ScheduleError, match=re.escape(str(alpha))):
            load_alphabet(str(alpha))
        code = main([
            "verify", str(prog), "--wcrt", "1", "--bound", "3", "--target", "FIRED",
            "--alphabet", str(alpha),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{alpha}: ") and str(prog) not in err
    # the file reads; the search refuses what the program cannot take
    statuses = "alphabet entry 'GO': 'statuses' must be a non-empty list of 'absent' and 'present'"
    for text, message in (
        ('{"GO": {"statuses": ["absent", "bogus"]}}', statuses),
        ('{"GO": {"statuses": []}}', statuses),
        ('{"GO": {"statuses": ["absent", {}]}}', statuses),
        ('{"NOPE": {}}', "alphabet entry 'NOPE' is not a declared input"),
    ):
        alpha.write_text(text)
        load_alphabet(str(alpha))
        code = main([
            "verify", str(prog), "--wcrt", "1", "--bound", "3", "--target", "FIRED",
            "--alphabet", str(alpha),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"{alpha}: {message}\n"


def test_malformed_map_exits_2(tmp_path, capsys):
    bad = tmp_path / "map.json"
    for text in ('{"x": "a"', '["x"]'):
        bad.write_text(text)
        code = main([
            "compare",
            "--ha", str(CORPUS / "automata" / "carousel.ha"),
            "--program", CAROUSEL,
            "--wcrt", "2", "--horizon", "12",
            "--map", str(bad),
            "--param", "alpha=3", *CAROUSEL_PARAMS,
        ])
        assert code == 2
        assert str(bad) in capsys.readouterr().err


def test_repeated_json_key_or_name_exits_2(tmp_path, capsys):
    # JSON leaves a repeated key to the reader; the last value must not
    # quietly win, nor may a schedule name one input twice
    prog = tmp_path / "level.hsj"
    prog.write_text("input int signal LEVEL; input signal GO;\nloop { pause }\n")
    bad = tmp_path / "file.json"
    run = ["run", str(prog), "--wcrt", "1", "--ticks", "2", "--schedule", str(bad)]
    verify = ["verify", str(prog), "--wcrt", "1", "--bound", "2", "--target", "GO",
              "--alphabet", str(bad)]
    compare = [
        "compare", "--ha", str(CORPUS / "automata" / "carousel.ha"), "--program", CAROUSEL,
        "--wcrt", "2", "--horizon", "12", "--map", str(bad), "--param", "alpha=3",
        *CAROUSEL_PARAMS,
    ]
    for argv, text, message in (
        (run, '[{"tick": 1, "tick": 2}]', "key 'tick' repeated in an object"),
        (run, '[{"tick": 1, "present": ["GO", "GO"]}]', "tick 1: 'present' repeats an entry"),
        (verify, '{"GO": {}, "LEVEL": {"values": ["1"]}, "GO": {"statuses": ["present"]}}',
         "key 'GO' repeated in an object"),
        (verify, '{"LEVEL": {"values": ["1"], "values": ["2"]}}',
         "key 'values' repeated in an object"),
        (compare, '{"x": "x", "y": "y", "x": "y"}', "key 'x' repeated in an object"),
    ):
        bad.write_text(text)
        code = main(argv)
        assert code == 2, text
        captured = capsys.readouterr()
        assert captured.err == f"{bad}: {message}\n" and captured.out == "", text


def test_deeply_nested_json_exits_2_naming_its_file(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 5000 + "]" * 5000)
    faulty = str(CORPUS / "programs" / "faulty_reset.hsj")
    assert main(["run", faulty, "--wcrt", "2", "--schedule", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}: nested too deep to parse\n"


# programs nested past the interpreter's recursion limit: the parser
# refuses the first two at the token it was reading, and a later pass
# meets the last two, which parse
DEEP_PROGRAMS = (
    ("cont a = 0;\na = " + "(" * 200 + "1" + ")" * 200 + ";\npause",
     r":2:\d+: nested too deep to parse"),
    ("signal S;\n" + "{" * 250 + "emit S" + "}" * 250, r":2:\d+: nested too deep to parse"),
    ("cont a = 0;\na = " + " + ".join(["1"] * 500) + ";\npause", ": nested too deep to process"),
    ("".join(f"signal S{i};\n" for i in range(600)) + "pause", ": nested too deep to process"),
)


@pytest.mark.parametrize("source, message", DEEP_PROGRAMS, ids=("parens", "braces", "sum", "decls"))
def test_program_nested_too_deep_exits_2(source, message, tmp_path, capsys):
    bad = tmp_path / "deep.hsj"
    bad.write_text(source)
    for argv in (["check"], ["desugar", "--wcrt", "1"], ["run", "--wcrt", "1", "--ticks", "2"]):
        assert main([argv[0], str(bad), *argv[1:]]) == 2, argv
        captured = capsys.readouterr()
        assert re.fullmatch(re.escape(str(bad)) + message + "\n", captured.err), argv
        assert captured.out == "", argv


def test_automaton_guard_nested_too_deep_exits_2(tmp_path, capsys):
    text = (CORPUS / "automata" / "carousel.ha").read_text()
    bad = tmp_path / "carousel.ha"
    bad.write_text(text.replace("when x >= alpha", "when x >= " + "(" * 300 + "alpha" + ")" * 300))
    code = main([
        "compare",
        "--ha", str(bad),
        "--program", CAROUSEL,
        "--wcrt", "2", "--horizon", "12",
        "--map", str(CORPUS / "maps" / "carousel.json"),
        "--param", "alpha=3", *CAROUSEL_PARAMS,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"{bad}:19: nested too deep to parse\n"


def test_map_naming_no_program_variable_exits_2(tmp_path, capsys):
    bad = tmp_path / "map.json"
    for text, message in (
        ('{"x": "x", "y": "nope"}', "map target 'nope' is not a continuous variable of the program"),
        ('{"x": ["x"]}', "map target ['x'] is not a continuous variable of the program"),
        ('{"x": "x", "q": "y"}', "unmapped automaton variable 'q'"),
    ):
        bad.write_text(text)
        code = main([
            "compare",
            "--ha", str(CORPUS / "automata" / "carousel.ha"),
            "--program", CAROUSEL,
            "--wcrt", "2", "--horizon", "12",
            "--map", str(bad),
            "--param", "alpha=3", *CAROUSEL_PARAMS,
        ])
        assert code == 2, text
        captured = capsys.readouterr()
        assert captured.err == f"{bad}: {message}\n" and captured.out == "", text


def test_map_target_declared_after_the_horizon_exits_2(tmp_path, capsys):
    automaton = tmp_path / "one.ha"
    automaton.write_text("var x\nlocation L\n  rate x 1\ninit L x = 0\n")
    program = tmp_path / "late.hsj"
    program.write_text("pause; pause; pause; { cont y = 0; pause }")
    mapping = tmp_path / "map.json"
    mapping.write_text('{"x": "y"}')
    code = main([
        "compare", "--ha", str(automaton), "--program", str(program),
        "--wcrt", "1", "--horizon", "2", "--map", str(mapping),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"{mapping}: map target 'y' is not declared within the horizon\n"
    assert captured.out == ""


def test_map_is_checked_after_the_horizon_is_read_and_before_its_range(tmp_path, capsys):
    # the library checks the map, so a horizon that does not read as a
    # rational is named first; one out of range is checked after the map
    bad = tmp_path / "map.json"
    bad.write_text('{"x": "x", "y": "nope"}')
    for horizon, message in (
        ("x", "--horizon: bad rational 'x'"),
        ("0", f"{bad}: map target 'nope' is not a continuous variable of the program"),
    ):
        code = main([
            "compare", "--ha", str(CORPUS / "automata" / "carousel.ha"), "--program", CAROUSEL,
            "--wcrt", "2", "--horizon", horizon, "--map", str(bad),
            "--param", "alpha=3", *CAROUSEL_PARAMS,
        ])
        assert code == 2
        assert capsys.readouterr().err == f"{message}\n"


def test_bad_matrix_entry_exits_2_with_its_line(tmp_path, capsys):
    bad = tmp_path / "m.mat"
    for entry, reason in (
        ("1/0", "zero denominator in '1/0'"), ("x", ""), ("1_0", "not a rational: '1_0'"),
    ):
        bad.write_text(f"A 2 2\n{entry} 1\n0 1\nC 1 2\n1 0\n")
        assert main(["lti", str(bad)]) == 2, entry
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{bad}:2: bad entry in matrix 'A': {reason}"), entry
        assert captured.out == "", entry


def test_malformed_automaton_exits_2(tmp_path, capsys):
    text = (CORPUS / "automata" / "carousel.ha").read_text()
    bad = tmp_path / "carousel.ha"
    for old, new, message in (
        ("delay wcrt", "delay -1", "19: edge A -> B has a negative delay -1"),
        ("delay wcrt", "delay -3", "19: edge A -> B has a negative delay -3"),
        ("delay wcrt", "delay wcrt priority x", "19: bad priority 'x'"),
        ("location D", "bogus line", "14: unrecognized line: 'bogus line'"),
        ("inv y <= theta", "inv y <= gamma", "13: unknown constant 'gamma'"),
        ("inv y <= theta", "inv y <= 1/0", "13: zero denominator in '1/0'"),
        ("init A", "init Z", "18: unknown initial location 'Z'"),
        ("init A x = 0, y = 0", "", "no init line"),
        ("edge D -> A", "edge D -> Q", "21: unknown location 'Q' in edge"),
        ("rate y 0", "rate z 0", "8: unknown variable 'z'"),
        ("init A x = 0, y = 0", "init A x = 0, q = 5", "18: unknown variable 'q'"),
        ("reset x = 0, y = 0", "reset x = 0, w = 0", "21: unknown variable 'w'"),
        ("deliver reset x = 0, y = 0\n", "deliver reset x = 0, y = 0\nlocation A\n  rate x 2\n",
         "22: location 'A' defined twice"),
        ("init A x = 0, y = 0", "init A x = 0, y = 0\ninit B x = 1",
         "19: second init line, the first is line 18"),
        ("var x y", "var x y x", "5: variable 'x' defined twice"),
        ("rate y 0\n  inv x <= alpha", "rate y 0\n  rate x 2\n  inv x <= alpha",
         "9: rate of 'x' defined twice"),
        ("label detect", "label a label b", "19: edge field 'label' defined twice"),
        ("when x >= alpha", "when x >= alpha when x >= 1", "19: edge field 'when' defined twice"),
        ("reset x = 0, y = 0", "reset x = 0 reset y = 0", "21: edge field 'reset' defined twice"),
        ("delay wcrt", "delay wcrt delay 1", "19: edge field 'delay' defined twice"),
        ("delay wcrt", "priority 1 priority 2", "19: edge field 'priority' defined twice"),
        ("reset x = 0, y = 0", "reset x = 0, x = 5", "21: reset of 'x' defined twice"),
        ("init A x = 0, y = 0", "init A x = 0, x = 3", "18: initial value of 'x' defined twice"),
    ):
        bad.write_text(text.replace(old, new))
        code = main([
            "compare",
            "--ha", str(bad),
            "--program", CAROUSEL,
            "--wcrt", "2", "--horizon", "12",
            "--map", str(CORPUS / "maps" / "carousel.json"),
            "--param", "alpha=3", *CAROUSEL_PARAMS,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{bad}:{message}") and CAROUSEL not in err


def test_automaton_failing_in_simulation_names_its_file(tmp_path, capsys):
    text = (CORPUS / "automata" / "carousel.ha").read_text()
    bad = tmp_path / "carousel.ha"
    for old, new, message in (
        ("deliver reset x = 0, y = 0", "deliver", "invariant of 'A' violated on entry"),
        ("edge B -> D when y >= theta label divert\n", "",
         "invariant of 'B' expires with no enabled edge"),
        ("label deliver", "label deliver\nedge A -> D when x >= alpha label skip",
         "edges 'detect' and 'skip' enable simultaneously at t=3"),
    ):
        bad.write_text(text.replace(old, new))
        code = main([
            "compare", "--ha", str(bad), "--program", CAROUSEL, "--wcrt", "2",
            "--horizon", "12", "--map", str(CORPUS / "maps" / "carousel.json"),
            "--param", "alpha=3", *CAROUSEL_PARAMS,
        ])
        assert code == 2, message
        assert capsys.readouterr().err == f"{bad}: {message}\n"


def test_missing_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    flow = str(CORPUS / "programs" / "flow_single.hsj")
    compare = [
        "compare",
        "--ha", str(CORPUS / "automata" / "carousel.ha"),
        "--program", CAROUSEL,
        "--wcrt", "2", "--horizon", "12",
        "--map", str(CORPUS / "maps" / "carousel.json"),
        "--param", "alpha=3", *CAROUSEL_PARAMS,
    ]
    for bad, reason in (
        (missing, "No such file or directory"),
        (str(binary), "not UTF-8 text (invalid start byte at byte 0)"),
    ):
        for argv in (
            ["run", bad, "--wcrt", "1"],
            ["check", bad],
            ["desugar", bad, "--wcrt", "1"],
            ["run", flow, "--wcrt", "2", "--schedule", bad],
            ["verify", flow, "--wcrt", "2", "--bound", "3", "--target", "X", "--alphabet", bad],
            [bad if arg.endswith("carousel.json") else arg for arg in compare],
            [bad if arg.endswith("carousel.ha") else arg for arg in compare],
            [bad if arg == CAROUSEL else arg for arg in compare],
            ["lti", bad],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == f"{bad}: {reason}\n", argv


def test_bad_param_rational_exits_2(capsys):
    flow = str(CORPUS / "programs" / "flow_single.hsj")
    for command, text in (("run", "abc"), ("check", "1/0"), ("run", "")):
        extra = ["--wcrt", "2"] if command == "run" else []
        code = main([command, flow, *extra, "--param", f"k={text}"])
        assert code == 2, (command, text)
        assert f"--param k: bad rational {text!r}" in capsys.readouterr().err


def test_bad_wcrt_rational_exits_2(capsys):
    flow = str(CORPUS / "programs" / "flow_single.hsj")
    # the literal grammar of programs: no exponent, `_`, `+`, inner space,
    # bare point or signed denominator, and ASCII digits only
    for text in (
        "abc", "1/0", "2/x", "1_0", "1e3", ".5", "5.", "+3", "1 /2", "1/-2", "\u0662",
    ):
        assert main(["run", flow, "--wcrt", text]) == 2, text
        assert f"--wcrt: bad rational {text!r}" in capsys.readouterr().err


def test_bad_horizon_rational_exits_2(capsys):
    for text in ("twelve", "12/0"):
        code = main([
            "compare",
            "--ha", str(CORPUS / "automata" / "carousel.ha"),
            "--program", CAROUSEL,
            "--wcrt", "2", "--horizon", text,
            "--map", str(CORPUS / "maps" / "carousel.json"),
            "--param", "alpha=3", *CAROUSEL_PARAMS,
        ])
        assert code == 2, text
        assert f"--horizon: bad rational {text!r}" in capsys.readouterr().err


def test_verify_with_alphabet_and_dfs(tmp_path, capsys):
    prog = tmp_path / "gated.hsj"
    prog.write_text(
        "input signal GO; signal FIRED;\nloop { if (GO) emit FIRED; pause }\n"
    )
    alpha = tmp_path / "alpha.json"
    alpha.write_text('{"GO": {}}')
    code = main([
        "verify", str(prog), "--wcrt", "1", "--bound", "6", "--target", "FIRED",
        "--alphabet", str(alpha), "--strategy", "dfs", "--node-limit", "500",
    ])
    assert code == 1
    assert "FIRED settles present" in capsys.readouterr().out
    # without an alphabet the system is closed: inputs stay absent
    assert main([
        "verify", str(prog), "--wcrt", "1", "--bound", "6", "--target", "FIRED",
    ]) == 0


def test_value_on_pure_signal_in_schedule(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text('[{"tick": 1, "present": ["FAULT"], "values": {"FAULT": "1"}}]')
    code = main([
        "run", str(CORPUS / "programs" / "faulty_reset.hsj"),
        "--wcrt", "2", "--ticks", "2", "--schedule", str(sched),
    ])
    assert code == 2


LEVEL_PROGRAM = (
    "input int signal LEVEL = 0; input signal GO; signal HIGH;\n"
    "loop { if (GO && ?LEVEL >= 3) emit HIGH; pause }\n"
)


def test_alphabet_value_no_input_can_hold_names_the_alphabet(tmp_path, capsys):
    prog = tmp_path / "level.hsj"
    prog.write_text(LEVEL_PROGRAM)
    alpha = tmp_path / "alpha.json"
    for text, message in (
        ('{"LEVEL": {"values": ["3", "1/2"]}}',
         "alphabet entry 'LEVEL': value 1/2: 'LEVEL' holds an integer value"),
        ('{"GO": {"values": ["1"]}}',
         "alphabet entry 'GO': value 1: value supplied for pure input 'GO'"),
    ):
        alpha.write_text(text)
        code = main([
            "verify", str(prog), "--wcrt", "1", "--bound", "3", "--target", "HIGH",
            "--alphabet", str(alpha),
        ])
        assert code == 2, text
        assert capsys.readouterr().err == f"{alpha}: {message}\n"


def test_schedule_value_no_input_can_hold_names_the_schedule(tmp_path, capsys):
    prog = tmp_path / "level.hsj"
    prog.write_text(LEVEL_PROGRAM)
    sched = tmp_path / "sched.json"
    for text, message in (
        ('[{"tick": 1, "present": ["LEVEL"], "values": {"LEVEL": "4"}},'
         ' {"tick": 2, "present": ["LEVEL"], "values": {"LEVEL": "1/2"}}]',
         "tick 2: value 1/2: 'LEVEL' holds an integer value"),
        ('[{"tick": 3, "present": ["GO"], "values": {"GO": "1"}}]',
         "tick 3: value 1: value supplied for pure input 'GO'"),
    ):
        sched.write_text(text)
        code = main(["run", str(prog), "--wcrt", "1", "--ticks", "4", "--schedule", str(sched)])
        assert code == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"{sched}: {message}\n"


def test_value_one_input_of_the_name_can_hold_reaches_the_kernel(tmp_path, capsys):
    # a value that some declaration of its name can hold passes the file
    # check; the kernel still checks it against each live instance
    prog = tmp_path / "two.hsj"
    prog.write_text(
        "input signal GO; signal HIGH;\n"
        "{ input ratio signal L = 0; loop { if (?L > 1) emit HIGH; pause } }\n"
        "|| { pause; input int signal L = 0; loop { pause } }\n"
    )
    sched = tmp_path / "sched.json"
    sched.write_text('[{"tick": 1, "present": ["L"], "values": {"L": "3/2"}}]')
    assert main(["run", str(prog), "--wcrt", "1", "--ticks", "3", "--schedule", str(sched)]) == 0
    assert "HIGH" in capsys.readouterr().out
    sched.write_text('[{"tick": 2, "present": ["L"], "values": {"L": "3/2"}}]')
    assert main(["run", str(prog), "--wcrt", "1", "--ticks", "3", "--schedule", str(sched)]) == 2
    assert capsys.readouterr().err == f"{prog}:tick 2: 'L' holds an integer value\n"


SWITCH_PROGRAM = (
    "input int signal LEVEL = 0; input boolean signal ON; signal HIGH;\n"
    "loop { if (?ON && ?LEVEL >= 3) emit HIGH; pause }\n"
)


def test_boolean_input_values_are_read_from_files(tmp_path, capsys):
    # a boolean input's value is a JSON boolean in a schedule and in an
    # alphabet, and a witness prints it as the schedule gives it
    prog = tmp_path / "switch.hsj"
    prog.write_text(SWITCH_PROGRAM)
    sched = tmp_path / "sched.json"
    sched.write_text(
        '[{"tick": 1, "present": ["ON", "LEVEL"], "values": {"ON": true, "LEVEL": "4"}},'
        ' {"tick": 2, "values": {"ON": false}}]'
    )
    assert main(["run", str(prog), "--wcrt", "1", "--ticks", "3", "--schedule", str(sched)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "1,1,ON,value,true" in out and "2,2,ON,value,false" in out
    assert "2,2,HIGH,status,true" in out and "3,3,HIGH,status,false" in out
    alpha = tmp_path / "alpha.json"
    alpha.write_text('{"ON": {"values": [false, true]}, "LEVEL": {"values": ["5"]}}')
    code = main([
        "verify", str(prog), "--wcrt", "1", "--bound", "3", "--target", "HIGH",
        "--alphabet", str(alpha),
    ])
    assert code == 1
    # the values reach HIGH whatever the statuses: absent comes first
    assert capsys.readouterr().out.splitlines()[:2] == [
        "witness: HIGH settles present at tick 2", "  tick 1: absent [LEVEL=5,ON=true]",
    ]
    # the printed schedule replays
    sched.write_text('[{"tick": 1, "values": {"LEVEL": "5", "ON": true}}]')
    assert main(["run", str(prog), "--wcrt", "1", "--ticks", "2", "--schedule", str(sched)]) == 0
    assert "2,2,HIGH,status,true" in capsys.readouterr().out.splitlines()


def test_witness_lists_a_pure_input_present_with_no_value(tmp_path, capsys):
    # a tick whose choice makes a pure input present, and gives no value,
    # is printed; a tick whose choice is empty is not
    prog = tmp_path / "p.hsj"
    prog.write_text("input signal A;\nsignal HIT;\npause; if (A) emit HIT\n")
    alpha = tmp_path / "alpha.json"
    alpha.write_text('{"A": {}}')
    code = main([
        "verify", str(prog), "--wcrt", "1", "--bound", "3", "--target", "HIT",
        "--alphabet", str(alpha),
    ])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "witness: HIT settles present at tick 2", "  tick 1: present [A]",
        "  A status = false", "  HIT status = true",
    ]


def test_boolean_value_an_input_cannot_hold_names_its_file(tmp_path, capsys):
    # `true` and "1" are two entries, not a repeat: one of them does not fit
    prog = tmp_path / "switch.hsj"
    prog.write_text(SWITCH_PROGRAM)
    alpha = tmp_path / "alpha.json"
    for text, message in (
        ('{"ON": {"values": [true, "1"]}}',
         "alphabet entry 'ON': value 1: 'ON' holds a boolean value"),
        ('{"LEVEL": {"values": ["1", true]}}',
         "alphabet entry 'LEVEL': value true: 'LEVEL' holds a numeric value"),
        ('{"ON": {"values": [true, true]}}', "alphabet entry 'ON': 'values' repeats an entry"),
    ):
        alpha.write_text(text)
        code = main([
            "verify", str(prog), "--wcrt", "1", "--bound", "3", "--target", "HIGH",
            "--alphabet", str(alpha),
        ])
        assert code == 2, text
        assert capsys.readouterr().err == f"{alpha}: {message}\n"
    sched = tmp_path / "sched.json"
    for text, message in (
        ('[{"tick": 2, "present": ["LEVEL"], "values": {"LEVEL": false}}]',
         "tick 2: value false: 'LEVEL' holds a numeric value"),
        ('[{"tick": 1, "values": {"ON": "0"}}]', "tick 1: value 0: 'ON' holds a boolean value"),
    ):
        sched.write_text(text)
        code = main(["run", str(prog), "--wcrt", "1", "--ticks", "3", "--schedule", str(sched)])
        assert code == 2, text
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"{sched}: {message}\n"


# the README's command lines, each with its exit code and the sha256
# prefixes of its stdout and of its `--out` file
_README_COMMANDS = {
    "check corpus/programs/flow_single.hsj": (0, "dc51b8c96c2d", None),
    "desugar corpus/programs/flow_single.hsj --wcrt 2": (0, "af08c1f4fcd5", None),
    "run corpus/programs/flow_single.hsj --wcrt 2 --ticks 10 --out trace.csv":
        (0, "e3b0c44298fc", "daf14b82d8be"),
    "run corpus/programs/faulty_reset.hsj --wcrt 2 --schedule corpus/schedules/fault_tick1.json":
        (0, "becf97e2ba0e", None),
    "verify corpus/programs/carousel.hsj --wcrt 2 --bound 12 --target ERROR"
    " --param alpha=3 --param beta=10 --param theta=6 --param TAG=1": (1, "cc96f8a256e9", None),
    "lti corpus/matrices/observable.mat": (0, "f12b4e657dbd", None),
    "compare --ha corpus/automata/carousel.ha --program corpus/programs/carousel.hsj"
    " --wcrt 2 --horizon 12 --map corpus/maps/carousel.json"
    " --param alpha=3 --param beta=10 --param theta=6 --param TAG=1": (1, "992c39ae941b", None),
}


def _readme_commands() -> list:
    """The argument lists of the README's "Command line" block."""
    text = (CORPUS.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


def test_readme_command_lines_print_what_they_printed(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(CORPUS.parent)
    seen = {}
    for argv in _readme_commands():
        out = None
        if "--out" in argv:  # written beside the test, not in the repository
            at = argv.index("--out") + 1
            out = tmp_path / argv[at]
            argv = [*argv[:at], str(out), *argv[at + 1:]]
        code = main(argv)
        printed = capsys.readouterr()
        assert printed.err == ""
        digest = hashlib.sha256(printed.out.encode()).hexdigest()[:12]
        written = hashlib.sha256(out.read_bytes()).hexdigest()[:12] if out else None
        seen[" ".join(argv).replace(str(tmp_path) + "/", "")] = (code, digest, written)
    assert seen == _README_COMMANDS

