"""Safe Petri-net kernel: structures, dynamics, I/O and composition.

This package implements the substrate of the paper's Section 2.1: safe
Petri nets with the classical enabling/firing rules, the conflict relation
and maximal conflict sets, plus the practical machinery (text / PNML
parsers, DOT export, composition operators) a user needs to get their
models into the analyzers.
"""

from repro.net.compose import fuse_places, monitor_net, parallel, prefix, rename
from repro.net.dot import net_to_dot, reachability_to_dot
from repro.net.exceptions import (
    DuplicateNodeError,
    NetError,
    NetStructureError,
    NotEnabledError,
    ParseError,
    UnknownNodeError,
    UnsafeNetError,
)
from repro.net.kernel import MarkingKernel
from repro.net.parser import load_net, parse_net, parse_timed_net, save_net, to_text
from repro.net.petrinet import Marking, NetBuilder, PetriNet
from repro.net.pnml import load_pnml, parse_pnml, save_pnml, to_pnml
from repro.net.structure import (
    StructuralInfo,
    conflict,
    conflict_graph,
    conflict_places,
    maximal_conflict_sets,
)
from repro.net.validation import Diagnostics, SafetyCheck, check_safe, diagnose

__all__ = [
    "PetriNet",
    "NetBuilder",
    "Marking",
    "MarkingKernel",
    "StructuralInfo",
    "conflict",
    "conflict_graph",
    "conflict_places",
    "maximal_conflict_sets",
    "parse_net",
    "parse_timed_net",
    "to_text",
    "load_net",
    "save_net",
    "parse_pnml",
    "to_pnml",
    "load_pnml",
    "save_pnml",
    "net_to_dot",
    "reachability_to_dot",
    "rename",
    "prefix",
    "parallel",
    "fuse_places",
    "monitor_net",
    "diagnose",
    "check_safe",
    "Diagnostics",
    "SafetyCheck",
    "NetError",
    "NetStructureError",
    "DuplicateNodeError",
    "UnknownNodeError",
    "NotEnabledError",
    "UnsafeNetError",
    "ParseError",
]
