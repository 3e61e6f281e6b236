"""Synthesize hierarchical statecharts from Petri nets.

The pipeline builds a flat statechart over the input net, then derives
hierarchy by collapsing the net with two reduction rules while the
transformation trace links every net element to its chart counterpart.
"""

from .bench import BenchReport, BenchRow, PhaseSample, bench
from .chart import (
    AndState,
    Basic,
    HyperEdge,
    Node,
    OrState,
    StateChart,
    validate_chart,
)
from .errors import (
    DuplicateIdError,
    MembershipError,
    ModelError,
    NetchartError,
    ParseError,
    PreconditionError,
    TraceError,
    TreeError,
    ValidationError,
)
from .formats import (
    detect_format,
    parse_chart,
    parse_net,
    parse_trace,
    write_chart,
    write_net,
    write_trace,
)
from .generator import SpSpec, generate_sp
from .net import PetriNet, check_net, find_self_loops
from .pipeline import (
    ReductionReport,
    Trace,
    TraceEntry,
    TransformResult,
    initialize,
    reduce,
    transform,
)

__all__ = [
    "AndState",
    "Basic",
    "BenchReport",
    "BenchRow",
    "DuplicateIdError",
    "HyperEdge",
    "MembershipError",
    "ModelError",
    "NetchartError",
    "Node",
    "OrState",
    "ParseError",
    "PetriNet",
    "PhaseSample",
    "PreconditionError",
    "ReductionReport",
    "SpSpec",
    "StateChart",
    "Trace",
    "TraceEntry",
    "TraceError",
    "TransformResult",
    "TreeError",
    "ValidationError",
    "bench",
    "check_net",
    "detect_format",
    "find_self_loops",
    "generate_sp",
    "initialize",
    "parse_chart",
    "parse_net",
    "parse_trace",
    "reduce",
    "transform",
    "validate_chart",
    "write_chart",
    "write_net",
    "write_trace",
]
