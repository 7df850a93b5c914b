"""Same behaviour, pinned: sha256 digests of traces, read logs and search
verdicts over seeded program suites, compared with `data/behaviour.json`.

A change that alters behaviour on purpose regenerates the data with
`python tests/data/make_behaviour.py` and says why; any other change must
leave it untouched. Verdicts are serialized canonically (sorted names,
printed rationals), never by `repr`, so the digests do not depend on
`PYTHONHASHSEED`.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

from helpers import random_multirate_flow, random_program, random_search_program
from tickflow.errors import KernelError
from tickflow.kernel import InputAssignment, run
from tickflow.params import bind_params
from tickflow.rational import format_rational
from tickflow.rewrite import RewriteConfig, rewrite_flows
from tickflow.syntax import parse
from tickflow.trace import to_csv, to_json
from tickflow.verify import Witness, alphabet_for, check_reachable

DATA = Path(__file__).parent / "data" / "behaviour.json"
CAROUSEL = Path(__file__).parent.parent / "corpus" / "programs" / "carousel.hsj"

PROGRAM_SEEDS = range(300)
SEARCH_SEEDS = range(200)
MULTIRATE_SEEDS = range(60)
PROGRAM_TICKS = 40
CAROUSEL_TICKS = 500


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _datum(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_rational(value)


def _run_text(program, cfg, schedule, max_ticks, native) -> str:
    """CSV, JSON and read log of one run, or the runtime error it raised."""
    try:
        trace = run(
            program, cfg, schedule=schedule, max_ticks=max_ticks,
            native_flows=native, record_reads=True,
        )
    except KernelError as err:
        return f"error at {err.tick}: {err.message}\n"
    reads = "".join(
        f"{t},{name},{kind},{_datum(value)}\n" for t, name, kind, value in trace.read_log
    )
    return to_csv(trace) + to_json(trace) + reads


def _assignment(inputs) -> dict:
    return {
        "present": sorted(inputs.present),
        "values": [[name, _datum(value)] for name, value in inputs.values],
    }


def _verdict_text(verdict) -> str:
    if isinstance(verdict, Witness):
        doc = {
            "tick": verdict.tick,
            "schedule": [_assignment(a) for a in verdict.schedule],
            "snapshot": [list(row) for row in verdict.snapshot],
        }
    else:
        doc = {"bound": verdict.bound, "transitions": verdict.states_explored}
    return json.dumps(doc, sort_keys=True)


def program_digests() -> dict:
    out = {}
    for seed in PROGRAM_SEEDS:
        source, wcrt, schedule = random_program(random.Random(seed))
        cfg = RewriteConfig(wcrt)
        parsed = parse(source)
        out[str(seed)] = {
            "rewritten": _digest(
                _run_text(rewrite_flows(parsed, cfg), cfg, schedule, PROGRAM_TICKS, False)
            ),
            "native": _digest(_run_text(parsed, cfg, schedule, PROGRAM_TICKS, True)),
        }
    return out


def carousel_digests() -> dict:
    out = {}
    parsed = parse(CAROUSEL.read_text())
    for alpha in (1, 3):
        params = {"alpha": F(alpha), "beta": F(10), "theta": F(6), "TAG": F(1)}
        bound = bind_params(parsed, params)
        for wcrt in (1, 2):
            cfg = RewriteConfig(F(wcrt))
            rewritten = rewrite_flows(bound, cfg)
            out[f"alpha={alpha},wcrt={wcrt}"] = {
                "rewritten": _digest(_run_text(rewritten, cfg, None, CAROUSEL_TICKS, False)),
                "native": _digest(_run_text(bound, cfg, None, CAROUSEL_TICKS, True)),
            }
    return out


def search_digests() -> dict:
    out = {}
    for seed in SEARCH_SEEDS:
        source, wcrt = random_search_program(random.Random(seed))
        cfg = RewriteConfig(wcrt)
        parsed = parse(source)
        program = rewrite_flows(parsed, cfg)
        alphabet = alphabet_for(parsed)
        row = {}
        for strategy in ("bfs", "dfs"):
            for bound in (3, 6):
                verdict = check_reachable(
                    program, cfg, alphabet, bound=bound, target="HIT", strategy=strategy
                )
                row[f"{strategy},{bound}"] = _digest(_verdict_text(verdict))
        out[str(seed)] = row
    return out


def multirate_digests() -> dict:
    """Per seed, a flow with several `op+` rates on one variable (every
    other seed with another variable's rate between two of them): the run
    of the flow alone and of the flow looped under a free input A, each
    rewritten and native, and BFS for HIT in the looped program."""
    out = {}
    for seed in MULTIRATE_SEEDS:
        rng = random.Random(seed)
        case = random_multirate_flow(rng, interleaved=seed % 2 == 1)
        cfg = RewriteConfig(case.wcrt)
        schedule = {rng.randint(2, 9): InputAssignment.make(present=["A"])}
        flow, looped = parse(case.source), parse(case.looped)
        alphabet = alphabet_for(looped)
        row = {}
        for native, side in ((False, "rewritten"), (True, "native")):
            flow_code, looped_code = (p if native else rewrite_flows(p, cfg) for p in (flow, looped))
            row[f"flow,{side}"] = _digest(_run_text(flow_code, cfg, None, PROGRAM_TICKS, native))
            row[f"looped,{side}"] = _digest(
                _run_text(looped_code, cfg, schedule, PROGRAM_TICKS, native)
            )
            verdict = check_reachable(
                looped_code, cfg, alphabet, bound=6, target="HIT", native_flows=native
            )
            row[f"bfs,{side}"] = _digest(_verdict_text(verdict))
        out[str(seed)] = row
    return out


def compute() -> dict:
    return {
        "programs": program_digests(),
        "carousel": carousel_digests(),
        "search": search_digests(),
        "multirate": multirate_digests(),
    }


def _mismatches(expected: dict, actual: dict) -> list:
    return [
        f"{suite} {case} {kind}"
        for suite, cases in expected.items()
        for case, kinds in cases.items()
        for kind, digest in kinds.items()
        if actual.get(suite, {}).get(case, {}).get(kind) != digest
    ]


def test_behaviour_matches_recorded_digests():
    expected = json.loads(DATA.read_text())
    actual = compute()
    assert actual.keys() == expected.keys()
    assert not _mismatches(expected, actual)
    assert not _mismatches(actual, expected)
