"""Per-layer measurement for the traced run, taken from outside the program.

Three sources, all standard library:

- spans: the benchmark wraps the public calls into each layer (`parse`,
  `bind_params`, `rewrite_flows`, `run`, `check_reachable`, `to_csv`,
  `compare`, `rank`, `run_corpus`) and keeps the spans in memory;
- `cProfile` totals, grouped by module and picked out for the functions
  the per-layer metrics name;
- `python -X importtime` children for the import rows.

Only `run_child` and `child_env`, which start the program's child
processes, are used by untraced runs too.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

PYTHON = sys.executable

# Public calls that get a span, by the layer that owns them.
SPAN_NAMES = {
    "parse": "syntax.parse",
    "bind_params": "params.bind_params",
    "rewrite_flows": "rewrite.rewrite_flows",
    "run": "kernel.run",
    "check_reachable": "verify.check_reachable",
    "to_csv": "trace.to_csv",
    "compare": "hybrid.compare",
    "rank": "lti.rank",
    "run_corpus": "corpus.run_corpus",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span and the unit of
    work (a set-up repeat or an operation) they belong to."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.unit = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "unit": self.unit,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        """`fn` inside a span; text it returns is counted in bytes."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if isinstance(result, str):
                    self.spans[self._stack[-1]]["bytes"] = len(result.encode())
                return result

        return wrapper

    @contextmanager
    def patched(self, modules, functions: dict):
        """Wrap, inside each module's namespace, every name bound to one of
        `functions` (public name -> function), so that calls the program
        makes between its own layers are spanned too. Aliases such as
        `run as kernel_run` are found by identity."""
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                for public, fn in functions.items():
                    if value is fn:
                        saved.append((module, attr, value))
                        setattr(module, attr, self.wrap(SPAN_NAMES[public], fn))
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def summary(self) -> dict:
        """Per span name: count, total and self seconds. Self time is the
        span's duration minus the time its child spans cover."""
        child_time: dict = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        out: dict = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time.get(s["id"], 0.0)
        return out

    def per_unit(self, name: str, kind: str, field: str = "seconds") -> float:
        """Median over the units of one kind ('setup' or 'op') of the total
        of `field` ('seconds', or 'bytes' of returned text) over the spans
        called `name` within the unit."""
        totals: dict = {}
        for s in self.spans:
            unit = s["unit"]
            if unit is None or unit[0] != kind:
                continue
            totals.setdefault(unit, 0)
            if s["name"] == name:
                totals[unit] += s["end"] - s["start"] if field == "seconds" else s.get(field, 0)
        return statistics.median(totals.values()) if totals else 0


# --- cProfile ----------------------------------------------------------------


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


ISINSTANCE_KEY = ("~", 0, "<built-in method builtins.isinstance>")


def module_of(filename: str, src: Path) -> str:
    """Layer name of a profiled file: tickflow modules by their name
    (`syntax` for the whole package), `fractions` on its own, and
    everything else lumped as `other`."""
    path = Path(filename)
    try:
        rel = path.resolve().relative_to(src / "tickflow")
    except (ValueError, OSError):
        return "fractions" if path.name == "fractions.py" else "other"
    if rel.parts[0] == "syntax":
        return "syntax"
    return rel.stem


class ProfileTotals:
    """cProfile totals of the traced operations, divided by their number."""

    def __init__(self, profile: cProfile.Profile, ops: int, src: Path):
        self.stats = pstats.Stats(profile).stats
        self.ops = ops
        self.src = src

    def calls(self, key) -> float:
        row = self.stats.get(key)
        return row[1] / self.ops if row else 0

    def cum_s(self, key) -> float:
        row = self.stats.get(key)
        return row[3] / self.ops if row else 0.0

    def calls_from(self, key, caller) -> float:
        """Calls of `key` made directly by `caller`."""
        row = self.stats.get(key)
        if not row or caller not in row[4]:
            return 0
        return row[4][caller][1] / self.ops

    def self_by_module(self) -> dict:
        out: dict = {}
        for (filename, _, _), row in self.stats.items():
            layer = module_of(filename, self.src)
            out[layer] = out.get(layer, 0.0) + row[2] / self.ops
        return out


def profile_metrics(totals: ProfileTotals) -> dict:
    """The per-layer metrics that come from cProfile, per operation."""
    from fractions import Fraction

    from tickflow import kernel, ttl, verify
    from tickflow.syntax import nodes

    def fn(owner, name):
        obj = getattr(owner, name, None)
        return _key(obj) if obj is not None and hasattr(obj, "__code__") else None

    ctx = kernel._TickCtx
    advance = fn(kernel.TickState, "advance")
    selfs = totals.self_by_module()
    m = {
        "kernel.advance_calls": totals.calls(advance),
        "kernel.advance_s": totals.cum_s(advance),
        "kernel.resume_s": totals.cum_s(fn(ctx, "resume")),
        "kernel.run_s": totals.cum_s(fn(ctx, "run")),
        "kernel.settle_s": totals.cum_s(fn(ctx, "settle")),
        "kernel.eval_s": totals.cum_s(fn(ctx, "eval")),
        "kernel.self_s": selfs.get("kernel", 0.0),
        "py.isinstance_calls": totals.calls(ISINSTANCE_KEY),
        "kernel.clone_calls": totals.calls(fn(kernel.TickState, "clone")),
        "kernel.clone_s": totals.cum_s(fn(kernel.TickState, "clone")),
        "verify.transitions": totals.calls_from(advance, fn(verify, "check_reachable")),
        "verify.fingerprint_calls": totals.calls(fn(verify, "fingerprint")),
        "verify.fingerprint_s": totals.cum_s(fn(verify, "fingerprint")),
        "verify.node_index_s": totals.cum_s(fn(verify, "_node_index")),
        "verify.self_s": selfs.get("verify", 0.0),
        # Nodes the search walks to index the program for its state keys.
        "nodes.walk_calls": totals.calls_from(
            fn(nodes.Program, "walk"), fn(verify, "_node_index")
        ),
        "ttl.single_calls": totals.calls(fn(ttl, "ttl_single")),
        "ttl.combined_calls": totals.calls(fn(ttl, "ttl_combined")),
        "ttl.lookahead_s": totals.cum_s(fn(ctx, "_eval_ttl")),
        "ttl.self_s": selfs.get("ttl", 0.0),
        "fractions.new_calls": totals.calls(_key(Fraction.__new__)),
        "fractions.self_s": selfs.get("fractions", 0.0),
    }
    for layer in ("syntax", "params", "rewrite", "trace", "hybrid", "lti", "corpus", "cli"):
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m


# --- start-up ----------------------------------------------------------------

IMPORT_ROWS = {
    "import.kernel_ms": "tickflow.kernel",
    "import.syntax_ms": "tickflow.syntax",
    "import.hybrid_ms": "tickflow.hybrid",
    "import.lti_ms": "tickflow.lti",
    "import.verify_ms": "tickflow.verify",
    "import.trace_ms": "tickflow.trace",
}


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time in ms per module, from `-X importtime`."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        out[name.strip()] = int(cumulative) / 1000.0
    return out


def run_child(argv: list, cwd: Path, env: dict, limit: int = 60) -> tuple:
    """Run a child process to the end: (wall seconds, exit code, stdout).

    The wait blocks in waitpid, so the time is exact; `subprocess`'s own
    timeout polls with sleeps of up to 50 ms, which would quantize every
    reading. An alarm kills a child that outlives `limit` seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"child ran longer than {limit} s: {argv[:4]}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate()
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, proc.returncode, stdout


def startup_metrics(python: str, env: dict, cwd: Path, repeats: int) -> dict:
    """Median over fresh interpreters of `import tickflow.cli` broken down
    by `-X importtime`, and of the bare interpreter floor."""
    rows: dict = {name: [] for name in ["cli.import_ms", *IMPORT_ROWS]}
    floor = []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import tickflow.cli"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        cum = parse_importtime(proc.stderr)
        # The tickflow package is imported inside tickflow.cli's entry.
        rows["cli.import_ms"].append(cum.get("tickflow.cli", 0.0))
        for metric, module in IMPORT_ROWS.items():
            rows[metric].append(cum.get(module, 0.0))
        floor.append(run_child([python, "-c", "pass"], cwd, env)[0] * 1000.0)
    out = {name: statistics.median(values) for name, values in rows.items()}
    out["cli.interp_ms"] = statistics.median(floor)
    return out


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env

