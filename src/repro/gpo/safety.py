"""Safety-property checking built around generalized partial-order analysis.

The paper (§4) notes that its results "are also valid for safety checks,
since the verification of a safety property can always be reduced to a
check for deadlock" [Godefroid-Wolper] — i.e. via instrumentation that
makes the property *visible* to the reduction.  This module implements a
sound and practical pipeline around that observation:

* **GPO screening** (refutation): bad-state constraints are evaluated
  against every explored GPN state through the scenario algebra — the
  scenarios placing a state inside a constraint are
  ``⋂ m(p_marked) ∩ r \\ ⋃ m(p_unmarked)``, pure family operations.
  Because every mapped marking of a GPN state is classically reachable
  (a property-tested invariant), **any violation found this way is
  real** and comes with a trace.  The converse does not hold: the
  reduction may skip intermediate markings the property observes, so a
  clean screen is *not* a proof (the test-suite pins a concrete example).
* **Symbolic certification** (proof): the exact reachable set is computed
  with the BDD engine and intersected with the constraints; empty
  intersection certifies safety, otherwise the witness marking is decoded.

:func:`check_safety` runs the screen first and certifies with the exact
check only when the screen is clean, so easy violations pay only GPO
prices.  :func:`monitor_net` additionally provides the paper's
instrumentation form — a monitor transition that fires exactly on the bad
pattern, making the property visible to any analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.stats import DeadlockWitness, stopwatch
from repro.gpo.analysis import GpoOptions, explore_gpo
from repro.net.petrinet import PetriNet
from repro.props.ast import And, Marked, Not, Predicate, Top

__all__ = [
    "MarkingConstraint",
    "SafetyResult",
    "check_safety",
    "screen_safety",
    "mutual_exclusion_constraints",
    "monitor_net",
]


@dataclass(frozen=True)
class MarkingConstraint:
    """A conjunctive marking pattern: the "bad state" building block.

    The constraint is satisfied by a marking iff every place in ``marked``
    holds a token and no place in ``unmarked`` does.  A safety property is
    violated when any constraint of the checked disjunction is reachable.

    >>> MarkingConstraint(marked=("cs0", "cs1")).describe()
    'cs0 & cs1'
    """

    marked: tuple[str, ...] = ()
    unmarked: tuple[str, ...] = ()

    def describe(self) -> str:
        """Render as a conjunction, e.g. ``cs0 & cs1 & !lock``."""
        parts = list(self.marked) + [f"!{p}" for p in self.unmarked]
        return " & ".join(parts) if parts else "true"

    def predicate(self) -> Predicate:
        """The constraint as a :mod:`repro.props` predicate (a cube)."""
        literals: list[Predicate] = [Marked(p) for p in self.marked]
        literals += [Not(Marked(p)) for p in self.unmarked]
        if len(literals) > 1:
            return And(tuple(literals))
        return literals[0] if literals else Top()

    def holds_in(self, marking_names: frozenset[str]) -> bool:
        """Direct evaluation on a classical marking (for cross-checks)."""
        return all(p in marking_names for p in self.marked) and not any(
            p in marking_names for p in self.unmarked
        )


@dataclass
class SafetyResult:
    """Outcome of a safety check."""

    safe: bool
    constraint: MarkingConstraint | None = None
    witness: DeadlockWitness | None = None
    states_explored: int = 0
    time_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.safe

    def describe(self) -> str:
        if self.safe:
            return (
                f"safe: no bad marking reachable "
                f"(states={self.states_explored}, "
                f"time={self.time_seconds:.3f}s)"
            )
        assert self.constraint is not None
        return (
            f"UNSAFE: reachable marking satisfies "
            f"[{self.constraint.describe()}] — {self.witness}"
        )


#: Default GPN-state budget for the refutation screen: the screen is a
#: best-effort fast path, so a blow-up simply hands over to certification.
SCREEN_BUDGET = 2000


def screen_safety(
    net: PetriNet,
    bad: Sequence[MarkingConstraint],
    *,
    options: GpoOptions | None = None,
) -> SafetyResult | None:
    """GPO-based refutation screen.

    Explores the GPN state space (the paper's stop-on-deadlock-report
    regime, bounded by :data:`SCREEN_BUDGET` states) and screens every
    state against every constraint through the family algebra.  Returns an
    *unsafe* :class:`SafetyResult` with a decoded witness when a violation
    is found, or ``None`` when the screen is clean or over budget — which
    is **not** a safety proof; see :func:`check_safety`.
    """
    from repro.analysis.stats import ExplorationLimitReached

    if options is None:
        options = GpoOptions(max_states=SCREEN_BUDGET)
    with stopwatch() as elapsed:
        try:
            result = explore_gpo(net, options)
        except ExplorationLimitReached:
            return None
        found = result.screen(bad)

    if found is None:
        return None
    constraint, state, violating = found
    return SafetyResult(
        safe=False,
        constraint=constraint,
        witness=result.witness(state, violating, label="bad marking"),
        states_explored=result.graph.num_states,
        time_seconds=elapsed[0],
        extras={"engine": "gpo-screen"},
    )


def check_safety(
    net: PetriNet,
    bad: Sequence[MarkingConstraint],
    *,
    options: GpoOptions | None = None,
    screen: bool = True,
) -> SafetyResult:
    """Sound safety check: GPO refutation screen + symbolic certification.

    1. When ``screen`` is on, :func:`screen_safety` looks for a violation
       along the generalized partial-order exploration; a hit returns
       immediately with a real witness and trace.
    2. Otherwise the exact reachable set is computed symbolically and
       intersected with every constraint: an empty intersection *proves*
       safety; a non-empty one decodes a violating marking (no trace —
       forward symbolic reachability does not retain one).
    """
    from repro.bdd.manager import ZERO
    from repro.bdd.ops import any_model
    from repro.symbolic.reach import predicate_bdd, reach

    if screen:
        refuted = screen_safety(net, bad, options=options)
        if refuted is not None:
            return refuted

    with stopwatch() as elapsed:
        result = reach(net)
        symnet = result.symnet
        for constraint in bad:
            overlap = symnet.mgr.and_(
                result.reached, predicate_bdd(symnet, constraint.predicate())
            )
            if overlap != ZERO:
                model = any_model(
                    symnet.mgr, overlap, sorted(symnet.current_levels())
                )
                assert model is not None
                marking = symnet.decode_model(model)
                return SafetyResult(
                    safe=False,
                    constraint=constraint,
                    witness=DeadlockWitness(
                        marking=net.marking_names(marking),
                        trace=(),
                        label="bad marking",
                    ),
                    states_explored=result.num_states,
                    time_seconds=elapsed[0],
                    extras={"engine": "symbolic"},
                )
    return SafetyResult(
        safe=True,
        states_explored=result.num_states,
        time_seconds=elapsed[0],
        extras={"engine": "symbolic", "certified": True},
    )


def mutual_exclusion_constraints(
    places: Iterable[str],
) -> list[MarkingConstraint]:
    """Bad-state constraints for pairwise mutual exclusion.

    >>> [c.describe() for c in mutual_exclusion_constraints(["a", "b"])]
    ['a & b']
    """
    ordered = sorted(places)
    return [
        MarkingConstraint(marked=(ordered[i], ordered[j]))
        for i in range(len(ordered))
        for j in range(i + 1, len(ordered))
    ]


def monitor_net(
    net: PetriNet,
    constraint: MarkingConstraint,
    *,
    monitor_prefix: str = "__monitor__",
) -> tuple[PetriNet, str]:
    """Instrument ``net`` so reaching the bad pattern fires a monitor.

    Adds a transition consuming every ``constraint.marked`` place (plus a
    fresh armed-monitor place) into a fresh goal place.  Constraints with
    ``unmarked`` places cannot be observed by a plain transition (nets
    test presence, not absence) and are rejected.

    Returns ``(instrumented_net, monitor_transition_name)``.  The property
    "constraint unreachable" becomes "monitor transition never fires" —
    checkable with :func:`repro.analysis.properties.dead_transitions` or
    any reachability analyzer.  Note the monitor *consumes* the bad
    marking; use it for one-shot checks, not behaviour-preserving
    composition.
    """
    if constraint.unmarked:
        raise ValueError(
            "monitor_net supports only positive constraints "
            "(nets cannot test token absence)"
        )
    if not constraint.marked:
        raise ValueError("constraint must name at least one place")
    from repro.net.petrinet import NetBuilder

    builder = NetBuilder(net.name + "_monitored")
    for p, place in enumerate(net.places):
        builder.place(place, marked=p in net.initial_marking)
    armed = builder.place(monitor_prefix + "armed", marked=True)
    goal = builder.place(monitor_prefix + "goal")
    for t, transition in enumerate(net.transitions):
        builder.transition(
            transition,
            inputs=[net.places[p] for p in sorted(net.pre_places[t])],
            outputs=[net.places[p] for p in sorted(net.post_places[t])],
        )
    monitor_name = monitor_prefix + "fire"
    builder.transition(
        monitor_name,
        inputs=list(constraint.marked) + [armed],
        outputs=[goal],
    )
    return builder.build(), monitor_name
