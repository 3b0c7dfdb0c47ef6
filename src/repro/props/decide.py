"""The property planner: structural verdicts first, then the portfolio.

This is the engine behind ``gpo query`` (and the top-level
:func:`repro.query`): given a net and a property, decide it as cheaply
as possible —

1. **Structural layer** (:mod:`repro.props.static`): P-invariant
   counting, the safety certificate and the siphon–trap condition can
   settle many questions at zero explored states;
2. **Safety walk**: the ``invariant(safe)`` question is decided by the
   structural certificate or the bounded dynamic 1-safety check
   (:func:`repro.net.check_safe`), never by an engine method;
3. **Engine portfolio** (:mod:`repro.engine.portfolio`): the remaining
   atomic questions race the compatible analyzers —
   incompatible method/property pairs are dropped up front with the
   declared reason, screen-only analyzers can win only by refuting.

Compound properties decompose leaf-by-leaf with short-circuiting
three-valued logic, so ``reachable(a) | deadlock`` stops at the first
established disjunct.

This module imports the engine and therefore must not be imported from
``repro.props.__init__`` (the engine's analyzers import the property
layer); reach it as ``repro.props.decide``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import AnalysisResult, DeadlockWitness, stopwatch
from repro.engine.cache import ResultCache
from repro.engine.events import EventSink
from repro.engine.jobs import Budget
from repro.engine.portfolio import DEFAULT_PORTFOLIO, run_race
from repro.net.petrinet import PetriNet
from repro.net.validation import check_safe
from repro.obs import names
from repro.props.ast import Invariant, Property, Safe
from repro.props.compile import check_places
from repro.props.eval import (
    as_property,
    holds_of,
    needs_decomposition,
    property_extras,
    run_property,
)
from repro.props.static import structural_verdict
from repro.search.core import abort_note
from repro.timed.tpn import TimedPetriNet

__all__ = ["Decision", "decide"]


@dataclass
class Decision:
    """Outcome of the planner on one (net, property) question."""

    prop: Property
    result: AnalysisResult
    #: Methods excluded from engine races with the declared reason.
    dropped: tuple[tuple[str, str], ...] = ()

    @property
    def holds(self) -> bool | None:
        """Three-valued verdict: True / False / None (undecided)."""
        return holds_of(self.prop, self.result)

    @property
    def conclusive(self) -> bool:
        return self.holds is not None

    def describe(self) -> str:
        """Multi-line human-readable summary (CLI output)."""
        lines = [f"property: {self.prop.text()}", self.result.describe()]
        if self.result.witness is not None:
            lines.append(str(self.result.witness))
        for method, reason in self.dropped:
            lines.append(f"[compat] {method} dropped: {reason}")
        return "\n".join(lines)


def _safety_walk(net: PetriNet, *, budget: Budget, prop: Property) -> AnalysisResult:
    """Decide ``invariant(safe)`` by the bounded dynamic 1-safety check.

    (The structural certificate was already consulted by the static
    layer; reaching here means it did not apply.)  The walk runs under
    the job's state and wall-clock budget; an unsafe verdict carries the
    firing sequence that ends in the violating firing.
    """
    max_states = budget.max_states if budget.max_states is not None else 100_000
    with stopwatch() as elapsed:
        verdict = check_safe(
            net, max_states=max_states, max_seconds=budget.max_seconds
        )
    holds = {"safe": True, "unsafe": False}.get(verdict.status)
    witness = None
    if holds is False and verdict.marking is not None:
        witness = DeadlockWitness(
            marking=verdict.marking,
            trace=verdict.trace,
            label=f"unsafe: {verdict.violation}",
        )
    extras = property_extras(prop, holds)
    extras["engine"] = "safety-walk"
    note = abort_note(
        verdict.stop_reason, max_states=max_states, max_seconds=budget.max_seconds
    )
    if note is not None:
        extras[names.ABORTED] = note
    return AnalysisResult(
        analyzer="safety-walk",
        net_name=net.name,
        states=verdict.states,
        edges=0,
        deadlock=False,
        time_seconds=elapsed[0],
        witness=witness,
        exhaustive=holds is not None,
        extras=extras,
    )


def _inconclusive(net: PetriNet | TimedPetriNet, prop: Property) -> AnalysisResult:
    return AnalysisResult(
        analyzer="planner",
        net_name=net.name,
        states=0,
        edges=0,
        deadlock=False,
        time_seconds=0.0,
        exhaustive=False,
        extras=property_extras(prop, None),
    )


def decide(
    net: PetriNet | TimedPetriNet,
    prop: "Property | str",
    *,
    methods: "tuple[str, ...] | list[str] | None" = None,
    budget: Budget | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    events: EventSink | None = None,
    use_static: bool = True,
    reduce: str = "off",
    shards: int | None = None,
) -> Decision:
    """Decide ``prop`` on ``net`` as cheaply as possible.

    Raises :class:`~repro.props.ast.PropertyError` on parse errors and
    unknown places; never raises on inconclusiveness — the returned
    :class:`Decision` carries ``holds=None`` instead.

    ``reduce`` applies the :mod:`repro.reduce` structural pre-pass to
    every engine race; the rule subset is chosen per-leaf from the
    property's preservation needs, and places the property observes are
    never removed.  The structural layer and the safety walk always see
    the original net — their exact arithmetic is already cheap.
    ``shards`` enters the sharded parallel explorer in every race (see
    :func:`~repro.engine.portfolio.run_race`).

    A :class:`~repro.timed.tpn.TimedPetriNet` races only ``timed``.  It
    skips the structural layer and the safety walk: both reason about
    the untimed skeleton, and a skeleton witness need not be
    timed-feasible, so ``safe`` is refused with the compat reason.
    """
    normalized = as_property(prop)
    skeleton = net.net if isinstance(net, TimedPetriNet) else net
    timed = skeleton is not net
    check_places(skeleton, normalized)
    if budget is None:
        budget = Budget()
    use_static = use_static and not timed
    if use_static:
        static = structural_verdict(skeleton, normalized)
        if static is not None:
            return Decision(prop=normalized, result=static)

    if methods:
        portfolio = tuple(methods)
    else:
        portfolio = ("timed",) if timed else DEFAULT_PORTFOLIO
    dropped: dict[str, str] = {}

    def leaf_runner(leaf: Property) -> AnalysisResult:
        if use_static and needs_decomposition(normalized):
            static = structural_verdict(skeleton, leaf)
            if static is not None:
                return static
        if (
            not timed
            and isinstance(leaf, Invariant)
            and isinstance(leaf.pred, Safe)
        ):
            return _safety_walk(skeleton, budget=budget, prop=leaf)
        outcome = run_race(
            net,
            methods=portfolio,
            budget=budget,
            jobs=jobs,
            cache=cache,
            events=events,
            query=leaf.text(),
            reduce=reduce,
            shards=shards,
        )
        dropped.update(dict(outcome.dropped))
        if outcome.winner is not None:
            return outcome.winner.result
        for ran in reversed(outcome.results):
            if ran.ran:
                return ran.result
        return _inconclusive(net, leaf)

    result = run_property(
        normalized, leaf_runner, analyzer="planner", net_name=net.name
    )
    return Decision(
        prop=normalized, result=result, dropped=tuple(dropped.items())
    )
