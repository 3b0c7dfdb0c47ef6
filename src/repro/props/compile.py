"""Compile predicates into executable forms.

Three targets, one source AST:

* :func:`predicate_fn` — a closure over ``frozenset[str]`` marking names,
  the form the explicit explorers' goal observers evaluate per state;
* :func:`dnf_literals` — disjunctive normal form as (marked, unmarked)
  tuples, the cubes the GPO screening algebra
  (:meth:`repro.gpo.analysis.GpoResult.screen`) consumes;
* :func:`check_places` — early validation that every named place exists,
  so a typo fails at parse time instead of as a vacuously false query.

``safe`` predicates compile to none of these — they are decided by the
structural certificate and the bounded safety walk, never per-state.
"""

from __future__ import annotations

from typing import Callable

from repro.net.petrinet import PetriNet
from repro.props.ast import (
    And,
    Bottom,
    Bound,
    Marked,
    Not,
    Or,
    Predicate,
    Property,
    PropertyError,
    Safe,
    Top,
    places_of,
)
from repro.props.normalize import normalize_predicate

__all__ = ["check_places", "dnf_literals", "predicate_fn"]

#: Cap on the number of DNF disjuncts before giving up (the screening
#: engines would otherwise pay an exponential constraint list).
DNF_LIMIT = 64


def check_places(net: PetriNet, prop: Property) -> None:
    """Raise :class:`PropertyError` when the property names unknown places."""
    unknown = [p for p in places_of(prop) if p not in net.place_index]
    if unknown:
        raise PropertyError(
            f"unknown place(s) {', '.join(repr(p) for p in unknown)} "
            f"for net {net.name!r}"
        )


def predicate_fn(
    net: PetriNet, pred: Predicate
) -> Callable[[frozenset[str]], bool]:
    """A fast evaluator of ``pred`` over marking *names*.

    The predicate is normalized first, so bounds are already folded and
    negation sits on atoms.  ``safe`` cannot be evaluated on a single
    marking snapshot here (the explorers enforce 1-safety themselves) and
    is rejected.
    """
    normalized = normalize_predicate(pred)

    def build(
        node: Predicate,
    ) -> Callable[[frozenset[str]], bool]:
        if isinstance(node, Top):
            return lambda names: True
        if isinstance(node, Bottom):
            return lambda names: False
        if isinstance(node, Marked):
            place = node.place
            return lambda names: place in names
        if isinstance(node, Not):
            inner = build(node.operand)
            return lambda names: not inner(names)
        if isinstance(node, And):
            parts = tuple(build(op) for op in node.operands)
            return lambda names: all(fn(names) for fn in parts)
        if isinstance(node, Or):
            parts = tuple(build(op) for op in node.operands)
            return lambda names: any(fn(names) for fn in parts)
        if isinstance(node, (Safe, Bound)):
            raise PropertyError(
                f"predicate atom {node.text()!r} cannot be evaluated "
                "per-marking"
            )
        raise PropertyError(f"unknown predicate node {node!r}")

    return build(normalized)


def dnf_literals(
    pred: Predicate,
) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] | None:
    """Disjunctive normal form as ``(marked, unmarked)`` place tuples.

    Returns ``None`` when the expansion would exceed :data:`DNF_LIMIT`
    disjuncts or the predicate contains ``safe`` — callers fall back to
    an inconclusive screen or another engine.  An empty tuple means the
    predicate is unsatisfiable (``false``); a disjunct with empty sides
    means it is trivially true.
    """
    normalized = normalize_predicate(pred)

    def expand(
        node: Predicate,
    ) -> list[tuple[frozenset[str], frozenset[str]]] | None:
        if isinstance(node, Bottom):
            return []
        if isinstance(node, Top):
            return [(frozenset(), frozenset())]
        if isinstance(node, Marked):
            return [(frozenset({node.place}), frozenset())]
        if isinstance(node, Not):
            if isinstance(node.operand, Marked):
                return [(frozenset(), frozenset({node.operand.place}))]
            return None  # NNF guarantees this does not happen
        if isinstance(node, Or):
            out: list[tuple[frozenset[str], frozenset[str]]] = []
            for operand in node.operands:
                sub = expand(operand)
                if sub is None:
                    return None
                out.extend(sub)
                if len(out) > DNF_LIMIT:
                    return None
            return out
        if isinstance(node, And):
            acc: list[tuple[frozenset[str], frozenset[str]]] = [
                (frozenset(), frozenset())
            ]
            for operand in node.operands:
                sub = expand(operand)
                if sub is None:
                    return None
                acc = [
                    (m1 | m2, u1 | u2)
                    for (m1, u1) in acc
                    for (m2, u2) in sub
                ]
                if len(acc) > DNF_LIMIT:
                    return None
            # Drop contradictory cubes (a place both marked and unmarked).
            return [(m, u) for (m, u) in acc if not (m & u)]
        return None  # Safe / Bound: not per-marking decidable

    cubes = expand(normalized)
    if cubes is None:
        return None
    deduped: dict[
        tuple[tuple[str, ...], tuple[str, ...]], None
    ] = {}
    for marked, unmarked in cubes:
        deduped[(tuple(sorted(marked)), tuple(sorted(unmarked)))] = None
    return tuple(deduped)
