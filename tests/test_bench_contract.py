"""The benchmark's calls into the program, each made once.

`bench/workloads.py` and `bench/layers.py` are imported as they are. For
each workload this runs its set-up, one operation (one replayed round of
commands for `cli_cold`), the operation's checks, the oracle checks, the
IR counts and the per-layer metrics of a cProfile of that operation, and
requires that none of them fails. A name the benchmark reads that the
program no longer has then fails here, not in a benchmark run.
"""

from __future__ import annotations

import cProfile
import sys
from pathlib import Path

import pytest

import tickflow

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "bench"))  # the workloads import `gen` and `layers`
import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name):
    workload = workloads.WORKLOADS[name](REPO, 1)
    api = workloads.make_api()
    workload.prepare(api)
    profile = cProfile.Profile()
    profile.enable()
    try:
        if name == "cli_cold":
            results = workload.replay_round(api)
        else:
            results = [workload.op(api, 0)]
    finally:
        profile.disable()
    failures = [failure for result in results for failure in workload.check_op(result)]
    for oracle, found in workload.oracle_checks():
        failures += [f"{oracle}: {failure}" for failure in found]
    assert failures == []
    counts = workload.ir_counts()
    assert counts["rewrite.nodes_out"] >= counts["rewrite.nodes_in"] > 0
    src = Path(tickflow.__file__).resolve().parent.parent  # where the profile's files are
    metrics = layers.profile_metrics(layers.ProfileTotals(profile, 1, src))
    assert metrics["kernel.self_s"] > 0
    assert all(isinstance(value, (int, float)) for value in metrics.values())
