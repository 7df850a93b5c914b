"""tickflow: compiler, tick-accurate simulator and bounded verifier for a
small synchronous language with clocked continuous flows.

Pipeline: parse -> bind_params -> rewrite_flows -> run. The kernel can also
interpret flow actions natively, which serves as the correctness oracle for
the rewrite pass.
"""

from .corpus import run_corpus
from .errors import TickflowError
from .hybrid import HybridAutomaton, compare, ha_simulate, parse_automaton
from .kernel import InputAssignment, TickState, init, run
from .lti import (
    LtiSystem,
    RationalMatrix,
    controllability_matrix,
    is_controllable,
    is_observable,
    observability_matrix,
    rank,
)
from .params import bind_params
from .rewrite import FlowSite, RewriteConfig, rewrite_flows, stop_signals
from .syntax import parse, pretty_print, reject_nonlinear_combine
from .trace import Trace, from_json, to_csv, to_json, to_svg_timing, trace_equal
from .verify import InputAlphabet, Unreachable, Witness, check_reachable, fingerprint

__version__ = "0.1.0"

__all__ = [
    "TickflowError",
    "InputAssignment",
    "TickState",
    "init",
    "run",
    "bind_params",
    "FlowSite",
    "RewriteConfig",
    "rewrite_flows",
    "stop_signals",
    "parse",
    "pretty_print",
    "reject_nonlinear_combine",
    "Trace",
    "from_json",
    "to_csv",
    "to_json",
    "to_svg_timing",
    "trace_equal",
    "InputAlphabet",
    "Unreachable",
    "Witness",
    "check_reachable",
    "fingerprint",
    "LtiSystem",
    "RationalMatrix",
    "controllability_matrix",
    "is_controllable",
    "is_observable",
    "observability_matrix",
    "rank",
    "HybridAutomaton",
    "compare",
    "ha_simulate",
    "parse_automaton",
    "run_corpus",
]
