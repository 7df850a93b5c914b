"""tickflow: compiler, tick-accurate simulator and bounded verifier for a
small synchronous language with clocked continuous flows.

Pipeline: parse -> bind_params -> rewrite_flows -> run. The kernel can also
interpret flow actions natively, which serves as the correctness oracle for
the rewrite pass.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a command pays only for
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    "TickflowError": "errors",
    "InputAssignment": "kernel",
    "TickState": "kernel",
    "init": "kernel",
    "run": "kernel",
    "bind_params": "params",
    "FlowSite": "rewrite",
    "RewriteConfig": "rewrite",
    "rewrite_flows": "rewrite",
    "stop_signals": "rewrite",
    "parse": "syntax",
    "pretty_print": "syntax",
    "Trace": "trace",
    "from_json": "trace",
    "to_csv": "trace",
    "to_json": "trace",
    "to_svg_timing": "trace",
    "trace_equal": "trace",
    "InputAlphabet": "verify",
    "Unreachable": "verify",
    "Witness": "verify",
    "check_reachable": "verify",
    "fingerprint": "verify",
    "LtiSystem": "lti",
    "RationalMatrix": "lti",
    "controllability_matrix": "lti",
    "is_controllable": "lti",
    "is_observable": "lti",
    "observability_matrix": "lti",
    "rank": "lti",
    "HybridAutomaton": "hybrid",
    "compare": "hybrid",
    "ha_simulate": "hybrid",
    "parse_automaton": "hybrid",
    "run_corpus": "corpus",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
