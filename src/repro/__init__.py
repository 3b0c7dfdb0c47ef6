"""Generalized Partial Order Analysis for safe Petri nets.

A complete reproduction of *"Efficient Verification using Generalized
Partial Order Analysis"* (Vercauteren, Verkest, de Jong, Lin — DATE 1998):

* :mod:`repro.net` — safe Petri-net kernel (structures, firing rules, I/O);
* :mod:`repro.analysis` — conventional (full) reachability analysis;
* :mod:`repro.stubborn` — partial-order (stubborn/persistent set) reduction,
  the paper's "SPIN+PO" regime;
* :mod:`repro.bdd` / :mod:`repro.symbolic` — from-scratch ROBDD engine and
  symbolic reachability, the paper's "SMV" regime;
* :mod:`repro.families` — BDD-backed families of transition sets (the
  GPN scenario annotations);
* :mod:`repro.gpo` — the paper's contribution: Generalized Petri Nets and
  the generalized partial-order analysis procedure;
* :mod:`repro.models` — the benchmark families of Table 1 (NSDP, ASAT,
  OVER, RW) and the figure nets;
* :mod:`repro.harness` — the experiment harness regenerating Table 1 and
  the figure-level claims.

Quickstart
----------
>>> from repro import NetBuilder, verify
>>> b = NetBuilder("hello")
>>> b.place("p", marked=True)
'p'
>>> b.place("q")
'q'
>>> b.transition("t", inputs=["p"], outputs=["q"])
't'
>>> result = verify(b.build())
>>> result.deadlock  # the token ends in q with nothing enabled
True
"""

from repro.analysis import (
    AnalysisResult,
    DeadlockWitness,
    ReachabilityGraph,
    analyze,
    explore,
)
from repro.net import Marking, NetBuilder, PetriNet, parse_net, to_text

__version__ = "1.0.0"

__all__ = [
    "PetriNet",
    "NetBuilder",
    "Marking",
    "parse_net",
    "to_text",
    "ReachabilityGraph",
    "explore",
    "analyze",
    "AnalysisResult",
    "DeadlockWitness",
    "query",
    "verify",
    "__version__",
]


def verify(net: PetriNet, *, method: str = "gpo", **kwargs) -> AnalysisResult:
    """One-call deadlock verification with a selectable analyzer.

    ``method`` names an analyzer of the engine registry
    (:data:`repro.engine.jobs.ANALYZERS`): ``"gpo"`` (generalized partial
    order, the paper's contribution and the default), ``"full"``
    (conventional exhaustive reachability), ``"stubborn"`` (partial-order
    reduction), ``"symbolic"`` (BDD-based), ``"unfolding"`` (McMillan
    complete-prefix) or ``"parallel"`` (sharded BFS).  Extra keyword
    arguments are forwarded to the chosen analyzer's ``analyze``
    function.
    """
    from repro.engine.jobs import ANALYZERS

    try:
        fn = ANALYZERS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(ANALYZERS)}"
        ) from None
    return fn(net, **kwargs)


def query(net: PetriNet, prop, **kwargs):
    """One-call property decision — the planner behind ``gpo query``.

    ``prop`` is a :mod:`repro.props` property (text or AST), e.g.
    ``"deadlock"``, ``"reachable(cs0 & cs1)"`` or
    ``"invariant(!(cs0 & cs1))"``.  Returns a
    :class:`repro.props.decide.Decision` whose ``holds`` attribute is the
    three-valued verdict (``True`` / ``False`` / ``None``).

    >>> from repro.models.philosophers import nsdp
    >>> query(nsdp(2), "deadlock").holds
    True
    """
    from repro.props.decide import decide

    return decide(net, prop, **kwargs)
