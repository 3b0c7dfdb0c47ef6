"""Symbolic (BDD-based) reachability analysis — paper Section 2.4.

Standard breadth-first image computation, one transition at a time, with
the peak-live-node statistic the paper's Table 1 reports for SMV ("Peak
BDD-size").  Each transition's image is a local literal substitution over
current variables (:func:`~repro.bdd.ops.substitute`), equal to the
relational product with its partitioned relation followed by renaming
next→current; the monolithic ablation still takes that relprod/rename
route.  A deadlock exists iff some reachable marking satisfies no
transition's enabling predicate; a witness marking is decoded from the
BDD.
"""

from __future__ import annotations

import time

from repro.analysis.frame import analyzer_frame
from repro.analysis.stats import (
    AnalysisResult,
    DeadlockWitness,
    TimeLimitReached,
)
from repro.bdd.manager import ONE, ZERO
from repro.bdd.ops import any_model, relprod, rename, satcount, substitute
from repro.net.petrinet import Marking, PetriNet
from repro.obs import names
from repro.obs.tracer import current_tracer
from repro.props.ast import (
    And,
    Bottom,
    Invariant,
    Marked,
    Not,
    Or,
    Predicate,
    Property,
    PropertyError,
    Reachable,
    Top,
)
from repro.props.eval import property_extras
from repro.symbolic.encoding import SymbolicNet

__all__ = ["SymbolicResult", "predicate_bdd", "reach", "analyze"]


def predicate_bdd(symnet: SymbolicNet, pred: Predicate) -> int:
    """Characteristic BDD of a (normalized) predicate over current vars.

    This is the symbolic engine's compile target for the property layer:
    ``reachable(p)`` is an emptiness test of ``reached ∧ bdd(p)`` and
    ``invariant(p)`` of ``reached ∧ ¬bdd(p)`` — both exact, like the
    deadlock check.
    """
    mgr = symnet.mgr
    net = symnet.net
    if isinstance(pred, Top):
        return ONE
    if isinstance(pred, Bottom):
        return ZERO
    if isinstance(pred, Marked):
        return mgr.var(symnet.current[net.place_id(pred.place)])
    if isinstance(pred, Not):
        return mgr.not_(predicate_bdd(symnet, pred.operand))
    if isinstance(pred, And):
        return mgr.and_all(
            predicate_bdd(symnet, op) for op in pred.operands
        )
    if isinstance(pred, Or):
        return mgr.or_all(
            predicate_bdd(symnet, op) for op in pred.operands
        )
    raise PropertyError(
        f"predicate atom {pred.text()!r} has no symbolic encoding"
    )


class SymbolicResult:
    """Raw outcome of a symbolic fixpoint run."""

    def __init__(
        self,
        symnet: SymbolicNet,
        reached: int,
        iterations: int,
        peak_nodes: int,
    ) -> None:
        self.symnet = symnet
        self.reached = reached
        self.iterations = iterations
        self.peak_nodes = peak_nodes

    @property
    def num_states(self) -> int:
        """Exact number of reachable markings (BDD model count)."""
        mgr = self.symnet.mgr
        num_places = self.symnet.net.num_places
        total = satcount(mgr, self.reached, 2 * num_places)
        # `reached` only constrains current variables; divide out the
        # unconstrained next copies.
        return total >> num_places

    def deadlock_bdd(self) -> int:
        """Characteristic function of reachable deadlocked markings."""
        mgr = self.symnet.mgr
        return mgr.diff(self.reached, self.symnet.enabled_any)

    def some_marking(self, node: int) -> Marking | None:
        """Decode one marking from a characteristic function, if any."""
        if node == ZERO:
            return None
        model = any_model(
            self.symnet.mgr, node, sorted(self.symnet.current_levels())
        )
        assert model is not None
        return self.symnet.decode_model(model)

    def deadlock_marking(self) -> Marking | None:
        """Decode one deadlocked marking, if any."""
        return self.some_marking(self.deadlock_bdd())

    def contains(self, marking: Marking) -> bool:
        """Membership test for a concrete marking."""
        mgr = self.symnet.mgr
        assignment = {
            self.symnet.current[p]: (p in marking)
            for p in range(self.symnet.net.num_places)
        }
        return mgr.evaluate(self.reached, assignment)


def reach(
    net: PetriNet,
    *,
    use_force_order: bool = True,
    partitioned: bool = True,
    max_seconds: float | None = None,
) -> SymbolicResult:
    """Least fixpoint of the image operator from the initial marking.

    ``partitioned`` selects per-transition images (modern practice,
    default) versus one relational product with the monolithic relation
    (the regime 1998-era SMV operated in for asynchronous models; see the
    ablation benchmarks).  ``max_seconds`` bounds wall time from the call,
    checked before every per-transition image; exceeding it raises
    :class:`TimeLimitReached` carrying the number of markings within the
    completed iterations' distance of the initial marking (and that
    iteration count in its ``extras``).
    """
    deadline = None if max_seconds is None else time.perf_counter() + max_seconds
    tracer = current_tracer()
    with tracer.span(names.SPAN_SYMBOLIC_REACH) as span:
        with tracer.span(names.SPAN_SYMBOLIC_ENCODE):
            symnet = SymbolicNet(net, use_force_order=use_force_order)
            mgr = symnet.mgr
            if partitioned:
                relations = symnet.relations
                steps = [
                    lambda s, lits=lits: substitute(mgr, s, lits)
                    for lits in symnet.image_literals
                ]
            else:
                monolithic = symnet.monolithic_relation()
                current_levels = symnet.current_levels()
                renaming = symnet.next_to_current()
                relations = [monolithic]
                steps = [
                    lambda s: rename(
                        mgr,
                        relprod(mgr, s, monolithic, current_levels),
                        renaming,
                    )
                ]
        relation_nodes = mgr.count_nodes(*relations)
        reached = symnet.encode_marking(net.initial_marking)
        frontier = reached
        peak = relation_nodes + mgr.count_nodes(reached)
        iterations = 0

        while frontier != ZERO:
            iterations += 1
            with tracer.span(
                names.SPAN_SYMBOLIC_ITERATION, iteration=iterations
            ):
                image = ZERO
                for step in steps:
                    if deadline is not None and time.perf_counter() > deadline:
                        # ``reached`` holds the markings within the
                        # completed iterations' distance of m0.
                        assert max_seconds is not None
                        done = SymbolicResult(symnet, reached, iterations - 1, peak)
                        raise TimeLimitReached(
                            max_seconds,
                            done.num_states,
                            {"iterations": done.iterations},
                        )
                    image = mgr.or_(image, step(frontier))
                frontier = mgr.diff(image, reached)
                reached = mgr.or_(reached, frontier)
                live = relation_nodes + mgr.count_nodes(reached, frontier)
                if live > peak:
                    peak = live
        span.set(iterations=iterations, peak_bdd_nodes=peak)
    return SymbolicResult(symnet, reached, iterations, peak)


@analyzer_frame("symbolic")
def analyze(
    net: PetriNet,
    goal_prop: Property | None,
    *,
    use_force_order: bool = True,
    partitioned: bool = True,
    max_seconds: float | None = None,
) -> AnalysisResult:
    """Symbolic deadlock analysis packaged uniformly.

    ``states`` reports the exact reachable-marking count (the same number
    the full explicit analysis finds); ``extras["peak_bdd_nodes"]`` is the
    Table 1 "Peak BDD-size" analogue and ``extras["iterations"]`` the
    fixpoint depth.  The witness marking (when a deadlock exists) comes
    without a trace — recovering traces needs backward images, which the
    paper's comparison does not exercise.  A fixpoint cut by
    ``max_seconds`` is a bounded, non-exhaustive result whose ``states``
    counts the markings within ``extras["iterations"]`` steps of m0.

    ``prop`` asks a property question: ``reachable(p)`` /
    ``invariant(p)`` become BDD emptiness tests against the reached set,
    so the verdict is always exact (never screen-only).  Property
    witnesses are markings without traces, like deadlock witnesses.
    """
    result = reach(
        net,
        use_force_order=use_force_order,
        partitioned=partitioned,
        max_seconds=max_seconds,
    )
    mgr = result.symnet.mgr
    dead = None
    holds: bool | None = None
    goal_marking: Marking | None = None
    goal_label = "goal"
    if goal_prop is None:
        dead = result.deadlock_marking()
    elif isinstance(goal_prop, Reachable):
        hit = mgr.and_(
            result.reached, predicate_bdd(result.symnet, goal_prop.pred)
        )
        holds = hit != ZERO
        goal_marking = result.some_marking(hit)
    else:
        assert isinstance(goal_prop, Invariant)
        bad = mgr.diff(
            result.reached, predicate_bdd(result.symnet, goal_prop.pred)
        )
        holds = bad == ZERO
        goal_marking = result.some_marking(bad)
        goal_label = "violation"
    tracer = current_tracer()
    witness = None
    marking = dead if goal_prop is None else goal_marking
    if marking is not None:
        with tracer.span(names.SPAN_WITNESS):
            witness = DeadlockWitness(
                marking=net.marking_names(marking),
                trace=(),
                label="deadlock" if goal_prop is None else goal_label,
            )
    metrics = tracer.metrics
    labels = {"analyzer": "symbolic", "net": net.name}
    metrics.gauge(names.BDD_PEAK_NODES, **labels).set_max(result.peak_nodes)
    metrics.gauge(names.BDD_CACHE_HIT_RATIO, **labels).set(
        round(mgr.cache_hit_ratio, 4)
    )
    extras: dict[str, object] = {
        "peak_bdd_nodes": result.peak_nodes,
        "iterations": result.iterations,
    }
    if goal_prop is not None:
        extras.update(property_extras(goal_prop, holds))
    return AnalysisResult(
        analyzer="symbolic",
        net_name=net.name,
        states=result.num_states,
        edges=0,
        deadlock=dead is not None,
        witness=witness,
        extras=extras,
    )
