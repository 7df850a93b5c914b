"""tickflow benchmark: one workload, one run.

    python3 bench/run.py --workload carousel_run --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from `src/`. With
`--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it carries the per-layer
metrics instead. Lines before it are a readable report. `--out FILE` also
writes the full record (metadata, report, spans) for `bench/compare.py`.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9  # set-ups per run: fresh processes, or spanned in a traced run
TRACED_OPS = 3  # operations profiled in a traced run
STARTUP_REPEATS = 5  # -X importtime children in a traced run

# Per-layer metrics read from spans: metric -> span name.
SPAN_METRICS = {
    "syntax.parse_s": "syntax.parse",
    "params.bind_s": "params.bind_params",
    "rewrite.rewrite_s": "rewrite.rewrite_flows",
    "trace.export_s": "trace.to_csv",
    "hybrid.compare_s": "hybrid.compare",
    "lti.rank_s": "lti.rank",
    "corpus.replay_s": "corpus.run_corpus",
}
SETUP_SPANS = {"syntax.parse", "params.bind_params", "rewrite.rewrite_flows"}


class Tally:
    """Operations and checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, failures: list, what: str = "operation") -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures[:3]:
                print(f"check failed ({what}): {failure}", file=sys.stderr)


def run_meta(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def timed_ops(wl, api, seconds: float, tally: Tally) -> tuple:
    """Run whole rounds of operations until `seconds` have passed. Returns
    the wall time of each operation, its ratio to the mean of the
    reference times measured just before and just after it, the reference
    times, and the set-up times.

    The fresh-process set-ups are spread evenly over the run, between
    operations, so that their median samples the whole run rather than the
    host's load in its first seconds. Every result is checked outside the
    timed region."""
    times: list = []
    ratios: list = []
    setup: list = []
    refs = [wl.reference_s()]
    begin = time.perf_counter()
    deadline = begin + seconds
    due = [begin + seconds * (k + 0.5) / SETUP_REPEATS for k in range(SETUP_REPEATS)]
    i = 0
    while time.perf_counter() < deadline or i % wl.round_len:
        gc.collect()
        start = time.perf_counter()
        result = wl.op(api, i)
        elapsed = time.perf_counter() - start
        tally.check(wl.check_op(result))
        refs.append(wl.reference_s())
        times.append(elapsed)
        ratios.append(elapsed / ((refs[-2] + refs[-1]) / 2))
        i += 1
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            setup.append(wl.setup_once())
    setup.extend(wl.setup_once() for _ in due)
    return times, ratios, refs, setup


def measure(wl, seconds: int, tally: Tally, report: dict, extra: dict) -> dict:
    import workloads
    from workloads import tail

    wl.setup_once()  # warm-up: fills the file and bytecode caches
    api = workloads.make_api()
    wl.prepare(api)
    for i in range(wl.round_len):  # warm-up round, checked but not timed
        tally.check(wl.check_op(wl.op(api, i)))
    times, ratios, refs, setup = timed_ops(wl, api, seconds, tally)
    who = resource.RUSAGE_CHILDREN if wl.round_len > 1 else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    for name, failures in wl.oracle_checks():
        tally.check(failures, name)

    extra.update(setup_s=setup, op_s=times, op_ref=ratios, ref_s=refs)
    n = len(times)
    tail_ms, pct = tail([t * 1000.0 for t in times])
    tail_ref, _ = tail(ratios)
    report["setup_s"] = (statistics.median(setup), "s", f"median of {len(setup)} fresh processes")
    report["op_ref_p50"] = (statistics.median(ratios), "ref", f"median of {n} operations")
    report["peak_rss_mb"] = (rss_mb, "MB", "largest child" if wl.round_len > 1 else "this process")
    report["op_ms_p50"] = (statistics.median(times) * 1000.0, "ms", f"median of {n} operations")
    report["op_ms_tail"] = (tail_ms, "ms", f"p{pct} of {n} operations")
    report["op_ref_tail"] = (tail_ref, "ref", f"p{pct} of {n} operations")
    report["ref_ms_p50"] = (statistics.median(refs) * 1000.0, "ms", f"median of {len(refs)}")
    for name, (value, unit, note) in wl.units(times).items():
        report[name] = (value, unit, note)
    return {k: v[0] for k, v in report.items()}


def trace(wl, seconds: int, tally: Tally, report: dict, extra: dict) -> dict:
    import layers
    import workloads

    tracer = layers.Tracer()
    traced_api = workloads.make_api(tracer)
    plain_api = workloads.make_api()
    if wl.span_setup:
        for r in range(SETUP_REPEATS):
            tracer.unit = ("setup", r)
            wl.prepare(traced_api)
    tracer.unit = None
    wl.prepare(plain_api)

    def unit_op(api, tr):
        if hasattr(wl, "replay_round"):
            return wl.replay_round(api, tr)
        return [wl.op(api, 0)]

    def timed(api, tr, profile=None) -> float:
        gc.collect()
        start = time.perf_counter()
        if profile:
            profile.enable()
        results = unit_op(api, tr)
        if profile:
            profile.disable()
        elapsed = time.perf_counter() - start
        for result in results:
            tally.check(wl.check_op(result))
        return elapsed

    timed(plain_api, None)  # warm-up
    plain: list = []
    deadline = time.perf_counter() + seconds / 2
    while time.perf_counter() < deadline or len(plain) < 3:
        plain.append(timed(plain_api, None))
    # Spans and cProfile in separate passes, so that span times do not
    # carry the profiler's cost.
    for k in range(TRACED_OPS):
        tracer.unit = ("op", k)
        timed(traced_api, tracer)
    tracer.unit = None
    profile = cProfile.Profile()
    profiled = [timed(plain_api, None, profile) for _ in range(TRACED_OPS)]

    totals = layers.ProfileTotals(profile, TRACED_OPS, SRC)
    m = layers.profile_metrics(totals)
    for metric, span in SPAN_METRICS.items():
        kind = "setup" if wl.span_setup and span in SETUP_SPANS else "op"
        m[metric] = tracer.per_unit(span, kind)
    m["trace.bytes"] = tracer.per_unit("trace.to_csv", "op", "bytes")
    m.update(wl.ir_counts())
    m.update(layers.startup_metrics(layers.PYTHON, wl.env, ROOT, STARTUP_REPEATS))
    m["trace_overhead_ratio"] = statistics.median(profiled) / statistics.median(plain)

    extra["spans"] = tracer.spans
    extra["span_summary"] = tracer.summary()
    extra["self_s_by_module"] = totals.self_by_module()
    for name, value in m.items():
        report[name] = (value, "", "")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tickflow benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "tickflow" / "__init__.py").is_file():
        print(f"error: no tickflow sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    meta = run_meta(args)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    meta["program_digest"] = wl.program_digest()
    tally = Tally()
    report: dict = {}
    extra: dict = {}
    if args.trace:
        values = trace(wl, args.seconds, tally, report, extra)
        listed = spec["per_layer"]
    else:
        values = measure(wl, args.seconds, tally, report, extra)
        listed = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in listed}
    print(f"# tickflow benchmark {json.dumps(meta)}")
    for name, (value, unit, note) in report.items():
        unit = unit or units.get(name, "")
        print(f"{args.workload:<13} {name:<26} {value:>14.6g} {unit:<8} {note}".rstrip())
    for name, row in extra.get("span_summary", {}).items():
        print(f"{args.workload:<13} span {name:<21} {row['count']:>6} calls "
              f"{row['total_s']:.6f} s total {row['self_s']:.6f} s self")
    for module, self_s in sorted(extra.get("self_s_by_module", {}).items(), key=lambda kv: -kv[1]):
        print(f"{args.workload:<13} self {module:<21} {self_s:>14.6f} s per operation (cProfile)")
    print(f"{args.workload:<13} {'fail_ratio':<26} {tally.failed / tally.attempted:>14.6g} share    "
          f"{tally.failed} of {tally.attempted} operations and checks")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        record = {"meta": meta, "result": result, **extra}
        Path(args.out).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
