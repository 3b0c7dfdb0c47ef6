"""Three-valued property evaluation shared by every analyzer.

An analyzer answers the atomic questions (``deadlock``,
``reachable(p)``, ``invariant(p)``) natively; boolean combinations are
decomposed here with Kleene three-valued logic — ``None`` meaning "this
run was not conclusive" (bounded search, screening miss).  A conjunction
short-circuits on the first refuted conjunct, a disjunction on the first
established disjunct, so compound queries pay only for the leaves that
matter.

Verdict convention: a property run records ``extras["property"]`` (the
canonical text) and ``extras["property_holds"]`` (``True`` / ``False`` /
``None``) on its :class:`~repro.analysis.stats.AnalysisResult`.  The
native deadlock question keeps its historical representation
(``result.deadlock`` + ``exhaustive``) — :func:`holds_of` reads both
forms, and ``prop=None`` / ``prop="deadlock"`` runs stay byte-identical
to the pre-property-layer output.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.stats import AnalysisResult
from repro.props.ast import (
    Deadlock,
    Invariant,
    PropAnd,
    PropFalse,
    PropNot,
    PropOr,
    Property,
    PropertyError,
    PropTrue,
    Reachable,
)
from repro.props.normalize import normalize
from repro.props.parse import parse_property

__all__ = [
    "HOLDS_KEY",
    "PROPERTY_KEY",
    "as_property",
    "engine_property",
    "holds_of",
    "needs_decomposition",
    "property_extras",
    "run_property",
]

#: Extras key holding the canonical property text of a property run.
PROPERTY_KEY = "property"
#: Extras key holding the three-valued verdict of a property run.
HOLDS_KEY = "property_holds"


def as_property(prop: "Property | str") -> Property:
    """Accept an AST node or query text; always return a normalized AST."""
    if isinstance(prop, str):
        prop = parse_property(prop)
    return normalize(prop)


def engine_property(prop: "Property | str | None") -> Property | None:
    """Canonicalize an analyzer's ``prop`` argument.

    ``None`` and the native ``deadlock`` question both map to ``None`` —
    the analyzer then runs its historical deadlock path unchanged (same
    extras, same cache entries, same Table 1 bytes).
    """
    if prop is None:
        return None
    normalized = as_property(prop)
    if isinstance(normalized, Deadlock):
        return None
    return normalized


def needs_decomposition(prop: Property) -> bool:
    """True when :func:`run_property` must drive this node (constants
    and boolean combinations); False for the atomic search questions."""
    return not isinstance(prop, (Deadlock, Reachable, Invariant))


def holds_of(prop: Property, result: AnalysisResult) -> bool | None:
    """The three-valued verdict of one analyzer run for ``prop``."""
    if PROPERTY_KEY in result.extras:
        holds = result.extras.get(HOLDS_KEY)
        return None if holds is None else bool(holds)
    # Legacy deadlock representation: a found deadlock is a definite
    # "yes"; a clean search decides only when exhaustive.
    if result.deadlock:
        return True
    return False if result.exhaustive else None


def property_extras(prop: Property, holds: bool | None) -> dict[str, Any]:
    """The uniform extras a property run attaches to its result."""
    return {PROPERTY_KEY: prop.text(), HOLDS_KEY: holds}


def _constant_result(
    prop: Property, *, analyzer: str, net_name: str
) -> AnalysisResult:
    holds = isinstance(prop, PropTrue)
    return AnalysisResult(
        analyzer=analyzer,
        net_name=net_name,
        states=0,
        edges=0,
        deadlock=False,
        time_seconds=0.0,
        exhaustive=True,
        extras=property_extras(prop, holds),
    )


def run_property(
    prop: Property,
    runner: Callable[[Property], AnalysisResult],
    *,
    analyzer: str,
    net_name: str,
) -> AnalysisResult:
    """Decompose a compound property over one analyzer's atomic runs.

    ``runner`` answers one atomic property (it is typically the
    analyzer's own ``analyze`` partially applied).  Sub-runs are
    combined with three-valued logic, short-circuiting; the packaged
    result aggregates their state/edge/time costs and keeps the witness
    of the deciding leaf.
    """
    if isinstance(prop, (PropTrue, PropFalse)):
        return _constant_result(prop, analyzer=analyzer, net_name=net_name)
    if isinstance(prop, (Deadlock, Reachable, Invariant)):
        return runner(prop)
    if isinstance(prop, PropNot):
        sub = run_property(
            prop.operand, runner, analyzer=analyzer, net_name=net_name
        )
        inner = holds_of(prop.operand, sub)
        holds = None if inner is None else not inner
        return _package(prop, holds, [sub], sub.witness, analyzer, net_name)
    if isinstance(prop, (PropAnd, PropOr)):
        is_and = isinstance(prop, PropAnd)
        subs: list[AnalysisResult] = []
        votes: list[bool | None] = []
        witness = None
        for operand in prop.operands:
            sub = run_property(
                operand, runner, analyzer=analyzer, net_name=net_name
            )
            subs.append(sub)
            vote = holds_of(operand, sub)
            votes.append(vote)
            if vote is (False if is_and else True):
                witness = sub.witness
                break
        if is_and:
            holds: bool | None = (
                False
                if False in votes
                else (True if all(v is True for v in votes) else None)
            )
        else:
            holds = (
                True
                if True in votes
                else (False if all(v is False for v in votes) else None)
            )
        if witness is None and holds is not None:
            for sub in subs:
                if sub.witness is not None:
                    witness = sub.witness
                    break
        return _package(prop, holds, subs, witness, analyzer, net_name)
    raise PropertyError(f"unknown property node {prop!r}")


def _package(
    prop: Property,
    holds: bool | None,
    subs: list[AnalysisResult],
    witness: Any,
    analyzer: str,
    net_name: str,
) -> AnalysisResult:
    extras: dict[str, Any] = property_extras(prop, holds)
    extras["subproperties"] = [
        {
            "property": sub.extras.get(PROPERTY_KEY, "deadlock"),
            "holds": holds_of(prop, sub),
            "states": sub.states,
        }
        for sub in subs
    ]
    return AnalysisResult(
        analyzer=analyzer,
        net_name=net_name,
        states=sum(sub.states for sub in subs),
        edges=sum(sub.edges for sub in subs),
        deadlock=False,
        time_seconds=sum(sub.time_seconds for sub in subs),
        witness=witness,
        exhaustive=all(sub.exhaustive for sub in subs),
        extras=extras,
    )
