"""The generalized partial-order reachability analysis (paper §3.3).

Explores GPN states with the paper's three-regime priority:

1. report a *deadlock possibility* when some valid scenario enables no
   transition (``⋃_t s_enabled(t,s) ≠ r``) and stop that branch (the
   paper's pseudocode; configurable);
2. fire the union of all *candidate MCSs* simultaneously with the multiple
   firing rule — this is the generalization that collapses concurrently
   marked conflict places into one successor state;
3. otherwise fall back to single firing with classical partial-order
   anticipation (branch over one fully single-enabled MCS), or, failing
   that, over every single-enabled transition.

The explored graph is tiny for the paper's benchmarks (3 states for NSDP
regardless of size, 2 for RW) while each state covers exponentially many
classical markings through the Def. 3.4 mapping.

The depth-first walk itself runs on the generic driver in
:mod:`repro.search.core`; :class:`GpnSpace` supplies the successor regimes
and uses the driver-maintained DFS path
(:meth:`~repro.search.core.SearchContext.on_current_path`) to detect the
back-edges that trigger the anti-ignoring expansions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from repro.analysis.frame import analyzer_frame
from repro.analysis.stats import AnalysisResult, DeadlockWitness
from repro.families.bddfam import BddFamily
from repro.gpo.candidates import candidate_mcs, single_enabled_mcs
from repro.gpo.gpn import Gpn, GpnState
from repro.gpo.mapping import scenario_marking
from repro.gpo.semantics import (
    dead_scenarios,
    enabled_families,
    multiple_fire,
    single_fire,
)
from repro.net.petrinet import PetriNet
from repro.obs import names
from repro.obs.tracer import current_tracer
from repro.props.ast import Property
from repro.props.eval import property_extras
from repro.search.core import (
    SearchContext,
    SearchOutcome,
    abort_note,
    raise_if_bounded,
)
from repro.search.core import explore as _drive
from repro.search.graph import ReachabilityGraph

__all__ = ["GpoOptions", "GpoResult", "GpnSpace", "explore_gpo", "analyze"]

OnDeadlock = Literal["stop-branch", "stop-all", "continue"]

#: One DNF disjunct: the places that must be marked, and must be unmarked.
Cube = tuple[tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True)
class GpoOptions:
    """Tuning knobs for the GPO explorer.

    ``on_deadlock`` controls what happens when a state fails the §3.3
    deadlock check (``"stop-branch"`` reproduces the paper's pseudocode,
    ``"continue"`` keeps exploring the surviving scenarios, ``"stop-all"``
    aborts the whole search at the first hit).  ``max_seconds`` is a
    cooperative wall-clock budget checked once per visited state.
    """

    on_deadlock: OnDeadlock = "stop-branch"
    max_states: int | None = None
    max_seconds: float | None = None


@dataclass
class GpoResult:
    """Raw outcome of a GPO exploration."""

    gpn: Gpn
    graph: ReachabilityGraph[GpnState]
    deadlock_states: list[tuple[GpnState, BddFamily]] = field(
        default_factory=list
    )

    @property
    def has_deadlock(self) -> bool:
        """True when any state failed the deadlock check."""
        return bool(self.deadlock_states)

    def witness(
        self, state: GpnState, scenarios: BddFamily, *, label: str = "deadlock"
    ) -> DeadlockWitness:
        """Decode one scenario of ``state`` into a witness.

        The marking is the classical marking the scenario maps to
        (Def. 3.4); trace steps are the fired transition labels along the
        GPN path, multiple firings rendered as ``{a,b,...}``.
        """
        scenario = scenarios.any_set()
        assert scenario is not None, "a witness needs a non-empty family"
        marking = scenario_marking(self.gpn, state, scenario)
        path = self.graph.path_to(state) or []
        return DeadlockWitness(
            marking=self.gpn.net.marking_names(marking),
            trace=tuple(step for step, _ in path),
            label=label,
        )

    def witnesses(self, *, limit: int | None = 1) -> list[DeadlockWitness]:
        """Deadlock witnesses, one per failing state, in discovery order."""
        return [
            self.witness(state, dead)
            for state, dead in self.deadlock_states[:limit]
        ]

    def screen(
        self, cubes: Sequence[Cube]
    ) -> tuple[Cube, GpnState, BddFamily] | None:
        """The first explored state with a scenario inside a cube.

        A cube is a ``(marked, unmarked)`` pair of place-name tuples, one
        disjunct of :func:`repro.props.compile.dnf_literals`.  States are
        scanned in discovery order and, per state, cubes in the given
        order.  The scenarios placing ``state`` inside a cube are
        ``⋂ m(p_marked) ∩ r \\ ⋃ m(p_unmarked)``; every one maps to a
        classically reachable marking, so a hit is a real violation.
        Returns ``(cube, state, scenarios)`` or ``None``.
        """
        place_id = self.gpn.net.place_id
        for state in self.graph.states():
            for marked, unmarked in cubes:
                family = state.valid
                for place in marked:
                    family = family.intersect(state.marking[place_id(place)])
                for place in unmarked:
                    family = family.difference(state.marking[place_id(place)])
                if not family.is_empty():
                    return (marked, unmarked), state, family
        return None


class GpnSpace:
    """The §3.3 successor regimes as a :class:`SearchSpace` over GPN states.

    ``is_deadlock`` runs the scenario deadlock check and collects the
    failing states with their dead-scenario families; ``successors``
    applies the candidate-multiple-firing / single-firing priority, with
    the anti-ignoring expansions (footnote 2) keyed on the driver's DFS
    path.  The per-state enabled/dead families are memoized so the two
    hooks share one computation.
    """

    def __init__(self, gpn: Gpn, options: GpoOptions) -> None:
        self.gpn = gpn
        self.options = options
        self.deadlock_states: list[tuple[GpnState, BddFamily]] = []
        self.scenario_states = 0
        self.scenario_total = 0
        self.scenario_max = 0
        self._memo_state: GpnState | None = None
        self._memo: tuple[dict, dict, BddFamily] | None = None
        # Null instrument unless a tracer is active at construction time;
        # observing on it is a no-op method call per expanded state.
        self._scenario_sizes = current_tracer().metrics.histogram(
            names.SCENARIO_SET_SIZE
        )

    def initial(self) -> GpnState:
        return self.gpn.initial_state()

    def _families(self, state: GpnState) -> tuple[dict, dict, BddFamily]:
        if state is not self._memo_state:
            single, multiple = enabled_families(self.gpn, state)
            dead = dead_scenarios(self.gpn, state, single)
            self._memo = (single, multiple, dead)
            self._memo_state = state
        assert self._memo is not None
        return self._memo

    def is_deadlock(self, state: GpnState) -> bool:
        count = state.valid.count()
        self.scenario_states += 1
        self.scenario_total += count
        self._scenario_sizes.observe(count)
        if count > self.scenario_max:
            self.scenario_max = count
        _, _, dead = self._families(state)
        if dead.is_empty():
            return False
        self.deadlock_states.append((state, dead))
        return True

    def successors(
        self, state: GpnState, ctx: SearchContext[GpnState]
    ) -> Iterable[tuple[str, GpnState]]:
        single, multiple, dead = self._families(state)
        if not dead.is_empty() and self.options.on_deadlock == "stop-branch":
            return
        gpn = self.gpn

        candidates = _viable_candidates(
            gpn, state, candidate_mcs(gpn, multiple), single, multiple
        )
        if candidates:
            fired, successor = candidates
            yield gpn.set_label(fired), successor

            # Footnote 2's "not postponed forever" check (the ignoring
            # problem): when the multiple firing closes a cycle of the
            # current DFS path (a back-edge), postponed single-enabled
            # transitions might never fire along that cycle; expand them
            # here so every cycle has a state where they proceed.
            if ctx.on_current_path(successor):
                for t in sorted(single):
                    if t in fired:
                        continue
                    yield gpn.transition_label(t), single_fire(gpn, state, t)
            return

        component = single_enabled_mcs(gpn, single)
        targets = sorted(component) if component is not None else sorted(single)
        back_edge = False
        for t in targets:
            successor = single_fire(gpn, state, t)
            yield gpn.transition_label(t), successor
            back_edge = back_edge or ctx.on_current_path(successor)
        if back_edge and component is not None:
            # Same anti-ignoring expansion for the single-firing regime:
            # a cycle closed while other enabled transitions were
            # postponed outside the chosen component.
            for t in sorted(single):
                if t in component:
                    continue
                yield gpn.transition_label(t), single_fire(gpn, state, t)

    def instrumentation(self) -> dict[str, object]:
        """Scenario-family sizes over the expanded GPN states."""
        if not self.scenario_states:
            return {}
        return {
            names.MEAN_SCENARIOS: round(
                self.scenario_total / self.scenario_states, 3
            ),
            names.MAX_SCENARIOS: self.scenario_max,
        }


def _explore(
    net: PetriNet, options: GpoOptions
) -> tuple[GpoResult, SearchOutcome[GpnState], GpnSpace]:
    """Drive the GPO space; shared by :func:`explore_gpo` and :func:`analyze`."""
    tracer = current_tracer()
    with tracer.span(names.SPAN_GPN_BUILD):
        gpn = Gpn(net)
    space = GpnSpace(gpn, options)
    outcome = _drive(
        space,
        order="dfs",
        max_states=options.max_states,
        max_seconds=options.max_seconds,
        stop_at_first_deadlock=options.on_deadlock == "stop-all",
    )
    result = GpoResult(gpn, outcome.graph, space.deadlock_states)
    return result, outcome, space


def explore_gpo(
    net: PetriNet, options: GpoOptions | None = None
) -> GpoResult:
    """Run the §3.3 algorithm to completion (or to the first deadlock).

    Raises on budget overruns like the classical ``explore`` wrappers;
    ``analyze`` uses the driver's partial results instead.
    """
    if options is None:
        options = GpoOptions()
    result, outcome, _ = _explore(net, options)
    raise_if_bounded(
        outcome,
        max_states=options.max_states,
        max_seconds=options.max_seconds,
    )
    return result


def _preserves_enabled(
    gpn: Gpn,
    successor: GpnState,
    single: dict[int, BddFamily],
    multiple: dict[int, BddFamily],
    fired: frozenset[int],
) -> bool:
    """The paper's candidate side-condition, checked semantically.

    Firing ``fired`` must not disable any postponed transition: every
    single-enabled transition outside ``fired`` stays single-enabled and
    every multiple-enabled one stays multiple-enabled.  A violation means
    a pre-committed scenario stole a token some other execution order
    still needs (re-entrant conflicts across loop iterations); the caller
    then falls back to branching single firings, which preserve all
    interleavings.
    """
    single_after, multiple_after = enabled_families(gpn, successor)
    for t in single:
        if t not in fired and t not in single_after:
            return False
    for t in multiple:
        if t not in fired and t not in multiple_after:
            return False
    return True


def _viable_candidates(
    gpn: Gpn,
    state: GpnState,
    candidates: list[frozenset[int]],
    single: dict[int, BddFamily],
    multiple: dict[int, BddFamily],
) -> tuple[frozenset[int], GpnState] | None:
    """Select the candidate MCSs that satisfy the §3.3 side-condition.

    Each candidate is vetted individually (its firing must not disable a
    postponed enabled transition); the union of the survivors is then
    vetted as a whole.  Returns ``(fired, successor)`` — reusing the
    tentative firing — or ``None`` when no candidate is viable.
    """
    families = (single, multiple)
    viable: list[tuple[frozenset[int], GpnState]] = []
    for component in candidates:
        successor = multiple_fire(gpn, state, component, families=families)
        if _preserves_enabled(gpn, successor, single, multiple, component):
            viable.append((component, successor))
    if not viable:
        return None
    if len(viable) == 1:
        return viable[0]
    union = frozenset().union(*(component for component, _ in viable))
    successor = multiple_fire(gpn, state, union, families=families)
    if _preserves_enabled(gpn, successor, single, multiple, union):
        return (union, successor)
    # The union interferes through r' even though each candidate alone is
    # fine; fire just the first viable candidate and postpone the rest.
    return viable[0]


@analyzer_frame("gpo")
def analyze(
    net: PetriNet,
    goal_prop: Property | None,
    *,
    on_deadlock: OnDeadlock = "stop-branch",
    max_states: int | None = None,
    max_seconds: float | None = None,
) -> AnalysisResult:
    """Generalized partial-order deadlock analysis, packaged uniformly.

    ``states``/``edges`` count the explored *GPN* states (the paper's "GPO
    States" column); ``extras["scenarios"]`` is ``|r0|`` — how many
    classical choice resolutions each state tracks simultaneously.
    Budget overruns are absorbed into a bounded, non-exhaustive result
    carrying the real progress made.

    ``prop`` runs the scenario *screen* over the explored GPN states:
    every mapped marking of a GPN state is genuinely reachable, so a hit
    (a ``reachable`` target found, an ``invariant`` violated) is a sound
    conclusive verdict with a real trace — but a clean screen proves
    nothing (the reduction may skip intermediate markings), so the
    verdict stays ``None`` and the result is never exhaustive for these
    fragments (``decides("gpo", ...)`` is ``False``; the portfolio runs
    GPO only as a refutation fast path).
    """
    cubes = None
    goal_hit_holds = True
    goal_label = "goal"
    goal_note: str | None = None
    if goal_prop is not None:
        from repro.props.ast import Invariant, Not
        from repro.props.compile import dnf_literals

        if isinstance(goal_prop, Invariant):
            target = Not(goal_prop.pred)
            goal_hit_holds, goal_label = False, "violation"
        else:
            target = goal_prop.pred
        cubes = dnf_literals(target)
        if cubes is None:
            goal_note = "screen skipped: target predicate has no small DNF"
    options = GpoOptions(
        on_deadlock=on_deadlock,
        max_states=max_states,
        max_seconds=max_seconds,
    )
    tracer = current_tracer()
    result, outcome, space = _explore(net, options)
    found = None
    if cubes is not None:
        found = result.screen(cubes)
    witness = None
    if goal_prop is None:
        with tracer.span(names.SPAN_WITNESS):
            witnesses = result.witnesses(limit=1)
            witness = witnesses[0] if witnesses else None
    elif found is not None:
        _, state, violating = found
        with tracer.span(names.SPAN_WITNESS):
            witness = result.witness(state, violating, label=goal_label)
    extras: dict[str, object] = {
        "scenarios": result.gpn.r0.count(),
        "deadlock_states": len(result.deadlock_states),
    }
    extras.update(outcome.stats.as_extras())
    extras.update(space.instrumentation())
    note = abort_note(
        outcome.stop_reason, max_states=max_states, max_seconds=max_seconds
    )
    if note is not None and not (goal_prop is not None and found):
        extras[names.ABORTED] = note
    if goal_prop is not None:
        holds = goal_hit_holds if found is not None else None
        extras.update(property_extras(goal_prop, holds))
        extras["screen"] = "hit" if found is not None else "clean"
        if goal_note is not None:
            extras["screen"] = "skipped"
            extras["screen_note"] = goal_note
    return AnalysisResult(
        analyzer="gpo",
        net_name=net.name,
        states=result.graph.num_states,
        edges=result.graph.num_edges,
        deadlock=result.has_deadlock if goal_prop is None else False,
        witness=witness,
        exhaustive=(
            outcome.exhaustive if goal_prop is None else found is not None
        ),
        extras=extras,
    )
