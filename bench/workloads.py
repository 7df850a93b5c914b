"""The four benchmark workloads.

Each workload has a set-up (what a user pays before the first result), an
operation (the unit that is timed) and checks of every operation's output
against answers that do not come from the code under test:

- carousel_run: the paper's case study run for a fixed number of ticks and
  exported as CSV. Known answer: DONE fires at exactly the ticks 11k and
  ERROR never fires (README, detector at 1 and tick of 1).
- flow_bank: a seeded bank of bounded flows. Known answer: the settled
  value of every variable on every tick, derived by `gen.py` from the
  flow's rates; no value exceeds its invariant bound.
- fault_search: BFS reachability on a seeded fault program. Known answer:
  `Unreachable`, proved by the generator's construction.
- cli_cold: the README's command lines as cold subprocesses. Known answer:
  the documented exit codes and output lines, and the same stdout on every
  invocation of a command.

carousel_run and flow_bank are also run once per benchmark run under the
kernel's native flow interpretation, which must show the same user-visible
entities tick for tick; fault_search repeats its search natively.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tickflow
import tickflow.cli
from tickflow import corpus as corpus_mod, hybrid as hybrid_mod
from tickflow.rewrite import STOP_PREFIX
from tickflow.verify import alphabet_for

import gen
from layers import PYTHON, SPAN_NAMES, child_env, run_child

PUBLIC = {
    "parse": tickflow.parse,
    "bind_params": tickflow.bind_params,
    "rewrite_flows": tickflow.rewrite_flows,
    "run": tickflow.run,
    "check_reachable": tickflow.check_reachable,
    "to_csv": tickflow.to_csv,
    "compare": tickflow.compare,
    "rank": tickflow.rank,
    "run_corpus": tickflow.run_corpus,
}


def make_api(tracer=None) -> SimpleNamespace:
    """The public calls a workload makes; spanned when a tracer is given."""
    return SimpleNamespace(
        **{
            name: tracer.wrap(SPAN_NAMES[name], fn) if tracer else fn
            for name, fn in PUBLIC.items()
        }
    )


# Fresh-process set-up: the parent times this child from spawn to exit.
SETUP_CHILD = """
import json, sys
spec = json.loads(sys.argv[1])
if spec["source"] is None:
    import tickflow.cli
else:
    from fractions import Fraction
    import tickflow
    cfg = tickflow.RewriteConfig(Fraction(spec["wcrt"]))
    params = {k: Fraction(v) for k, v in spec["params"].items()}
    program = tickflow.bind_params(tickflow.parse(spec["source"]), params)
    program = tickflow.rewrite_flows(program, cfg)
    if spec["alphabet"]:
        from tickflow.verify import alphabet_for
        alphabet_for(program)
"""


class _Node:
    __slots__ = ("kind", "kids", "weight")

    def __init__(self, kind, kids, weight):
        self.kind, self.kids, self.weight = kind, kids, weight


def _grow(depth: int) -> _Node:
    if depth == 0:
        return _Node(0, (), Fraction(1, 3))
    return _Node(depth % 3, (_grow(depth - 1), _grow(depth - 1)), Fraction(depth, 7))


def _fold(node: _Node, acc: dict) -> None:
    if isinstance(node.kids, tuple) and node.kids:
        for kid in node.kids:
            _fold(kid, acc)
    acc[node.kind] = acc.get(node.kind, Fraction(0)) + node.weight


def reference_s() -> float:
    """Seconds this machine takes right now for a fixed computation with
    the program's instruction mix (objects, recursion, isinstance, dicts,
    Fraction arithmetic, formatting), using the standard library only.

    The host is shared: other tenants slow this process down by up to 2x
    for seconds at a time. Operation times divided by the reference time
    around them cancel most of that, where raw medians do not."""
    start = time.perf_counter()
    acc: dict = {}
    for _ in range(3):
        _fold(_grow(8), acc)
    ",".join(f"{k}={v}" for k, v in sorted(acc.items()))
    return time.perf_counter() - start


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it. With ten or fewer samples, the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], 100 * (n - 10) // n


def user_entities(trace) -> list:
    return [name for name in trace.entities() if not name.startswith(STOP_PREFIX)]


def ir_size(program, rewritten) -> dict:
    return {
        "rewrite.nodes_in": sum(1 for _ in program.walk()),
        "rewrite.nodes_out": sum(1 for _ in rewritten.walk()),
        "rewrite.flow_sites": len(tickflow.stop_signals(rewritten)),
    }


class Workload:
    """Set-up, operation and checks of one workload. The defaults serve the
    in-process workloads; `CliCold` overrides what runs in children."""

    name = ""
    round_len = 1  # operations that make up one full round
    span_setup = True  # parse/bind/rewrite spans come from set-up repeats

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.env = child_env(root / "src")
        self.first = None  # digest of the first operation's output

    def reference_s(self) -> float:
        return reference_s()

    # -- set-up --

    def setup_spec(self) -> dict:
        return {
            "source": self.source,
            "wcrt": str(self.wcrt),
            "params": {k: str(v) for k, v in self.params.items()},
            "alphabet": False,
        }

    def setup_once(self) -> float:
        """Wall seconds of a fresh interpreter doing the set-up."""
        argv = [PYTHON, "-c", SETUP_CHILD, json.dumps(self.setup_spec())]
        seconds, code, _ = run_child(argv, self.root, self.env)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}")
        return seconds

    def prepare(self, api) -> None:
        self.cfg = tickflow.RewriteConfig(self.wcrt)
        self.program = api.bind_params(api.parse(self.source), self.params)
        self.rewritten = api.rewrite_flows(self.program, self.cfg)

    def program_digest(self) -> str:
        return gen.digest(self.source)

    def ir_counts(self) -> dict:
        return ir_size(self.program, self.rewritten)

    # -- operations --

    def same_as_first(self, text: str) -> list:
        d = hashlib.sha256(text.encode()).hexdigest()
        if self.first is None:
            self.first = d
        return [] if d == self.first else ["output differs from the first operation"]

    def native_check(self, ticks: int) -> list:
        """User-visible entities of the rewritten run equal the kernel's
        native interpretation of the flow actions, tick for tick."""
        rewritten = tickflow.run(self.rewritten, self.cfg, max_ticks=ticks)
        native = tickflow.run(self.program, self.cfg, max_ticks=ticks, native_flows=True)
        names = user_entities(rewritten)
        if names != user_entities(native):
            return ["native run has other user-visible entities"]
        if rewritten.project(names) != native.project(names):
            return ["native run differs from the rewritten run"]
        return []

    def units(self, times: list) -> dict:
        """Workload-specific readings of the operation times, for the
        report: name -> (value, unit, note)."""
        return {}


class CarouselRun(Workload):
    name = "carousel_run"
    TICKS = 500
    PARAMS = {"alpha": Fraction(1), "beta": Fraction(10), "theta": Fraction(6), "TAG": Fraction(1)}

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.source = (root / "corpus" / "programs" / "carousel.hsj").read_text()
        self.params = self.PARAMS
        self.wcrt = Fraction(1)
        # README: with the detector at 1 and a tick of 1 the item is
        # delivered and DONE fires at tick 11. Both loops are then back at
        # their start (x = 0), so the cycle repeats every 11 ticks.
        self.done_ticks = list(range(11, self.TICKS + 1, 11))

    def op(self, api, i):
        trace = api.run(self.rewritten, self.cfg, max_ticks=self.TICKS)
        return api.to_csv(trace)

    def check_op(self, text) -> list:
        failures = self.same_as_first(text)
        lines = text.split("\n")
        done = [int(l.split(",", 1)[0]) for l in lines if ",DONE,status,true" in l]
        if done != self.done_ticks:
            failures.append(f"DONE at {done[:5]}..., wanted every 11th tick")
        if any(",ERROR,status,true" in l for l in lines):
            failures.append("ERROR fired")
        if not lines[-2].startswith(f"{self.TICKS},"):
            failures.append("trace ended before the last tick")
        return failures

    def oracle_checks(self) -> list:
        return [("native_flows", self.native_check(self.TICKS))]

    def units(self, times):
        per_s = self.TICKS / statistics.median(times)
        return {"ticks_per_s": (per_s, "ticks/s", f"{self.TICKS} ticks per operation")}


class FlowBank(Workload):
    name = "flow_bank"
    TICKS = 250

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.bank = gen.flow_bank(seed)
        self.source = self.bank.source
        self.params = {}
        self.wcrt = self.bank.wcrt
        self.expected = {
            b.var: [self.bank.expected_value(b, t) for t in range(1, self.TICKS + 1)]
            for b in self.bank.branches
        }

    def op(self, api, i):
        return api.run(self.rewritten, self.cfg, max_ticks=self.TICKS)

    def check_op(self, trace) -> list:
        failures = []
        if len(trace.records) != self.TICKS:
            failures.append("run ended before the last tick")
        for b in self.bank.branches:
            values = [v for _, v in trace.series(b.var)]
            if any(v > b.bound for v in values):
                failures.append(f"{b.var} exceeds its bound {b.bound}")
            if values != self.expected[b.var]:
                failures.append(f"{b.var} differs from its flow cycle")
        return failures

    def oracle_checks(self) -> list:
        return [("native_flows", self.native_check(self.TICKS))]

    def units(self, times):
        per_s = self.TICKS / statistics.median(times)
        return {"ticks_per_s": (per_s, "ticks/s", f"{self.TICKS} ticks per operation")}


class FaultSearch(Workload):
    name = "fault_search"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.case = gen.fault_search(seed)
        self.source = self.case.source
        self.params = {}
        self.wcrt = self.case.wcrt

    def setup_spec(self):
        return {**super().setup_spec(), "alphabet": True}

    def prepare(self, api):
        super().prepare(api)
        self.alphabet = alphabet_for(self.rewritten)

    def op(self, api, i):
        return api.check_reachable(
            self.rewritten, self.cfg, self.alphabet, bound=self.case.bound, target=self.case.target
        )

    def unreachable(self, verdict) -> list:
        if not isinstance(verdict, tickflow.Unreachable) or verdict.bound != self.case.bound:
            return [f"verdict {verdict!r}, wanted Unreachable within {self.case.bound}"]
        return []

    def check_op(self, verdict) -> list:
        return self.unreachable(verdict) or self.same_as_first(str(verdict.states_explored))

    def oracle_checks(self) -> list:
        native = tickflow.check_reachable(
            self.program, self.cfg, self.alphabet, bound=self.case.bound,
            target=self.case.target, native_flows=True,
        )
        return [("native_flows", self.unreachable(native))]

    def units(self, times):
        return {"verdict_s": (statistics.median(times), "s", f"bound {self.case.bound}")}


# --- cli_cold ----------------------------------------------------------------

CAROUSEL_ALPHA3 = [
    "--param", "alpha=3", "--param", "beta=10", "--param", "theta=6", "--param", "TAG=1",
]

# (name, argv after `tickflow`, exit code, lines stdout must contain). The
# exit codes and answers are the README's: check prints ok; flow_single's
# rate 1 at wcrt 2 steps by 2; the schedule makes FAULT present at tick 1
# (time 2); with the detector at 3 and a tick of 2 ERROR is witnessed at the
# second tick; observable.mat's stacked matrix [[1,0],[1,1]] has rank 2;
# the diverter finishes at 9 ideally and at 11 with the reaction delay.
CLI_COMMANDS = (
    ("check", ["check", "corpus/programs/flow_single.hsj"], 0, ["ok"]),
    ("desugar", ["desugar", "corpus/programs/flow_single.hsj", "--wcrt", "2"], 0,
     ["    a = a + 2;"]),
    ("run", ["run", "corpus/programs/faulty_reset.hsj", "--wcrt", "2",
             "--schedule", "corpus/schedules/fault_tick1.json"], 0,
     ["1,2,FAULT,status,true"]),
    ("verify", ["verify", "corpus/programs/carousel.hsj", "--wcrt", "2", "--bound", "12",
                "--target", "ERROR", *CAROUSEL_ALPHA3], 1,
     ["witness: ERROR settles present at tick 2"]),
    ("lti", ["lti", "corpus/matrices/observable.mat"], 0,
     ["observability rank 2/2: observable"]),
    ("compare", ["compare", "--ha", "corpus/automata/carousel.ha",
                 "--program", "corpus/programs/carousel.hsj", "--wcrt", "2",
                 "--horizon", "12", "--map", "corpus/maps/carousel.json", *CAROUSEL_ALPHA3], 1,
     ["ideal switch B->D at t=9 x=9 y=6", "delayed switch B->D at t=11 x=11 y=6"]),
    ("corpus", None, 0, []),  # expected line filled from corpus/cases.json
)

CLI_LAUNCH = "from tickflow.cli import entry; entry()"
CORPUS_LAUNCH = "import tickflow; print(tickflow.run_corpus('corpus').summary())"


class CliCold(Workload):
    name = "cli_cold"
    round_len = len(CLI_COMMANDS)
    span_setup = False

    def __init__(self, root, seed):
        super().__init__(root, seed)
        cases = json.loads((root / "corpus" / "cases.json").read_text())["cases"]
        self.commands = []
        for name, argv, code, lines in CLI_COMMANDS:
            if argv is None:
                argv, lines = None, [f"{len(cases)}/{len(cases)} cases pass"]
            self.commands.append((name, argv, code, lines))
        # The seed only rotates the order in which the commands take turns.
        k = seed % len(self.commands)
        self.commands = self.commands[k:] + self.commands[:k]
        self.stdout: dict = {}

    def setup_spec(self):
        return {"source": None}

    def prepare(self, api):
        pass  # tickflow.cli is imported with the benchmark

    def program_digest(self):
        return "fixed"

    def reference_s(self) -> float:
        """A command runs in a child, maybe on the other core, so its
        reference is a child too: the bare interpreter start, the floor
        no change to the program can move."""
        return run_child([PYTHON, "-c", "pass"], self.root, self.env)[0]

    def cold_argv(self, argv):
        if argv is None:
            return [PYTHON, "-c", CORPUS_LAUNCH]
        return [PYTHON, "-c", CLI_LAUNCH, *argv]

    def op(self, api, i):
        name, argv, _, _ = self.commands[i % len(self.commands)]
        _, code, stdout = run_child(self.cold_argv(argv), self.root, self.env)
        return name, code, stdout

    def check_op(self, result) -> list:
        name, code, stdout = result
        _, _, want_code, want_lines = next(c for c in self.commands if c[0] == name)
        failures = []
        if code != want_code:
            failures.append(f"{name}: exit {code}, wanted {want_code}")
        got = stdout.splitlines()
        for line in want_lines:
            if line not in got:
                failures.append(f"{name}: no line {line!r}")
        if self.stdout.setdefault(name, stdout) != stdout:
            failures.append(f"{name}: stdout differs between invocations")
        return failures

    def oracle_checks(self) -> list:
        return []

    def units(self, times):
        """The README commands' cold times; operation i ran command i mod
        the round."""
        ms = [t * 1000.0 for t in times]
        tail_ms, pct = tail(ms)
        out = {
            "cmd_ms_p50": (statistics.median(ms), "ms", f"median of {len(ms)} invocations"),
            "cmd_ms_tail": (tail_ms, "ms", f"p{pct} of {len(ms)} invocations"),
        }
        for k, (name, *_) in enumerate(self.commands):
            out[f"cmd_ms_p50[{name}]"] = (statistics.median(ms[k :: len(self.commands)]), "ms", "")
        return out

    # -- traced run: the same commands replayed in this process --

    def replay_round(self, api, tracer=None):
        """Run every command once in-process; returns (name, code, stdout)
        per command. With a tracer, the program's own calls between layers
        are spanned too."""
        modules = [tickflow.cli, corpus_mod, hybrid_mod]
        if tracer is None:
            return [self._replay(api, c) for c in self.commands]
        with tracer.patched(modules, PUBLIC):
            return [self._replay(api, c) for c in self.commands]

    def _replay(self, api, command):
        name, argv, _, _ = command
        out = io.StringIO()
        with redirect_stdout(out):
            if argv is None:
                print(api.run_corpus(str(self.root / "corpus")).summary())
                code = 0
            else:
                code = tickflow.cli.main([self._absolute(a) for a in argv])
        return name, code, out.getvalue()

    def _absolute(self, arg: str) -> str:
        return str(self.root / arg) if arg.startswith("corpus/") else arg

    def ir_counts(self):
        total: dict = {}
        for path, params in (
            ("flow_single.hsj", {}),
            ("faulty_reset.hsj", {}),
            ("carousel.hsj", {"alpha": 3, "beta": 10, "theta": 6, "TAG": 1}),
        ):
            source = (self.root / "corpus" / "programs" / path).read_text()
            program = tickflow.bind_params(
                tickflow.parse(source), {k: Fraction(v) for k, v in params.items()}
            )
            rewritten = tickflow.rewrite_flows(program, tickflow.RewriteConfig(Fraction(2)))
            for key, value in ir_size(program, rewritten).items():
                total[key] = total.get(key, 0) + value
        return total


WORKLOADS = {w.name: w for w in (CarouselRun, FlowBank, FaultSearch, CliCold)}
