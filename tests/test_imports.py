"""Start-up: importing the package loads no module, and each command loads
only its own chain. Every check runs in a fresh interpreter started with
`-S`, so that no site hook has filled `sys.modules` before the program."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tickflow

SRC = Path(tickflow.__file__).resolve().parent.parent
REPO = Path(__file__).resolve().parent.parent
CAROUSEL_PARAMS = [
    "--param", "alpha=3", "--param", "beta=10", "--param", "theta=6", "--param", "TAG=1",
]
COMMANDS = {
    "check": ["check", "corpus/programs/flow_single.hsj"],
    "desugar": ["desugar", "corpus/programs/flow_single.hsj", "--wcrt", "2"],
    "run": ["run", "corpus/programs/faulty_reset.hsj", "--wcrt", "2",
            "--schedule", "corpus/schedules/fault_tick1.json"],
    "run-unscheduled": ["run", "corpus/programs/faulty_reset.hsj", "--wcrt", "2"],
    "verify": ["verify", "corpus/programs/carousel.hsj", "--wcrt", "2", "--bound", "4",
               "--target", "ERROR", *CAROUSEL_PARAMS],
    "lti": ["lti", "corpus/matrices/observable.mat"],
    "compare": ["compare", "--ha", "corpus/automata/carousel.ha",
                "--program", "corpus/programs/carousel.hsj", "--wcrt", "2",
                "--horizon", "12", "--map", "corpus/maps/carousel.json", *CAROUSEL_PARAMS],
}
ENGINE = {"kernel", "verify", "hybrid", "lti", "corpus", "trace"}
GENERATED = {"dataclasses", "inspect"}


def _loaded(code: str, *argv: str) -> set:
    """The modules in `sys.modules` after `code` runs in a fresh interpreter."""
    probe = code + "\nsys.stderr.write('\\nMODULES ' + ' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys\n" + probe, *argv],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=60,
    )
    last = proc.stderr.rstrip().splitlines()[-1]
    assert last.startswith("MODULES "), proc.stderr
    return set(last.split()[1:])


def _command(name: str) -> set:
    return _loaded("from tickflow.cli import main\nmain(sys.argv[1:])", *COMMANDS[name])


def _tickflow(modules: set) -> set:
    return {m[len("tickflow."):] for m in modules if m.startswith("tickflow.")}


def test_importing_the_package_loads_no_module():
    modules = _loaded("import tickflow")
    assert _tickflow(modules) == set()
    assert not modules & GENERATED


@pytest.mark.parametrize("name", ["import", "check", "desugar"])
def test_cli_import_check_and_desugar_load_no_engine(name):
    modules = _loaded("import tickflow.cli") if name == "import" else _command(name)
    assert not _tickflow(modules) & ENGINE, sorted(_tickflow(modules))


@pytest.mark.parametrize("name", ["check", "desugar", "lti", "verify", "run-unscheduled"])
def test_commands_that_read_no_json_file_do_not_load_json(name):
    assert "json" not in _command(name)


def test_lti_loads_no_parser():
    modules = _command("lti")
    assert not any(m == "syntax" or m.startswith("syntax.") for m in _tickflow(modules))


@pytest.mark.parametrize("name", ["check", "run", "verify", "desugar", "compare"])
def test_only_a_command_that_prints_a_program_loads_the_printer(name):
    assert ("tickflow.syntax.printer" in _command(name)) == (name == "desugar")


@pytest.mark.parametrize("name", [*COMMANDS, "corpus"])
def test_no_command_loads_dataclasses(name):
    if name == "corpus":
        modules = _loaded("import tickflow\ntickflow.run_corpus('corpus')")
    else:
        modules = _command(name)
    assert not modules & GENERATED, sorted(modules & GENERATED)


def test_public_names_resolve_to_their_modules():
    for name in tickflow.__all__:
        obj = getattr(tickflow, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert name in dir(tickflow), name
    with pytest.raises(AttributeError):
        tickflow.no_such_name
