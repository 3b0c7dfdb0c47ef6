"""Structural fast verdicts: decide properties without exploring states.

Consulted by the planner (and ``gpo query``) before any search is
spawned.  Everything here is a theorem about the net's structure, so a
verdict is exact and exhaustive at zero explored states:

* ``deadlock`` refuted by the siphon–trap condition
  (:func:`repro.static.siphons.deadlock_freedom_precheck`);
* ``invariant(safe)`` proved by the P-invariant safety certificate
  (:func:`repro.static.safety.certify_safety`);
* ``reachable(p)`` / ``invariant(p)`` decided at the initial marking
  when it already (dis)satisfies ``p``;
* ``invariant(p)`` proved by P-invariant counting: a "bad cube" of
  ``!p`` needing places whose invariant weights sum past the conserved
  token count is unreachable (the generalized mutual-exclusion
  argument).

Anything not decided returns ``None`` and falls through to the engine
portfolio.  Compound properties combine leaf verdicts with Kleene
three-valued logic, so one refuted conjunct settles the conjunction
structurally even when its siblings are undecidable here.
"""

from __future__ import annotations

from repro.analysis.stats import AnalysisResult
from repro.net.petrinet import PetriNet
from repro.props.ast import (
    Deadlock,
    Invariant,
    Not,
    Predicate,
    PropAnd,
    PropFalse,
    PropNot,
    PropOr,
    Property,
    PropTrue,
    Reachable,
    Safe,
)
from repro.props.compile import dnf_literals, predicate_fn
from repro.props.eval import property_extras
from repro.search.witness import DeadlockWitness

__all__ = ["structural_verdict"]


def _initial_names(net: PetriNet) -> frozenset[str]:
    return net.marking_names(net.initial_marking)


def _cube_unreachable(
    net: PetriNet, marked: tuple[str, ...]
) -> bool:
    """Is "all of ``marked`` simultaneously hold tokens" impossible?

    Sound by invariant counting: every P-invariant ``y >= 0`` satisfies
    ``y·m = y·m0`` on reachable markings, so a marking holding tokens on
    all of ``marked`` needs ``sum(y(p) for p in marked) <= y·m0``.
    """
    if not marked:
        return False
    indices = [net.place_id(p) for p in marked]
    basis = net.static_analysis().p_invariants
    m0 = net.initial_marking
    for invariant in basis.invariants:
        value = invariant.value(m0)
        needed = sum(invariant.weights[p] for p in indices)
        if needed > value:
            return True
    return False


def _invariant_proof(net: PetriNet, pred: Predicate) -> bool:
    """Structurally prove ``invariant(pred)`` (False means "unknown")."""
    cubes = dnf_literals(Not(pred))
    if cubes is None:
        return False
    return all(_cube_unreachable(net, marked) for marked, _ in cubes)


def _leaf_verdict(
    net: PetriNet, prop: Property
) -> tuple[bool | None, DeadlockWitness | None, str | None]:
    """(holds, witness, certificate-name) for one atomic property."""
    if isinstance(prop, PropTrue):
        return True, None, "constant"
    if isinstance(prop, PropFalse):
        return False, None, "constant"
    if isinstance(prop, Deadlock):
        if net.static_analysis().deadlock_freedom() == "deadlock-free":
            return False, None, "siphon-trap"
        return None, None, None
    if isinstance(prop, Invariant) and isinstance(prop.pred, Safe):
        if net.static_analysis().safety_certificate.certified:
            return True, None, "p-invariant-safety"
        return None, None, None
    if isinstance(prop, Reachable):
        fn = predicate_fn(net, prop.pred)
        if fn(_initial_names(net)):
            witness = DeadlockWitness(
                marking=_initial_names(net), trace=(), label="goal"
            )
            return True, witness, "initial-marking"
        if _invariant_proof(net, Not(prop.pred)):
            return False, None, "p-invariant-counting"
        return None, None, None
    if isinstance(prop, Invariant):
        fn = predicate_fn(net, prop.pred)
        if not fn(_initial_names(net)):
            witness = DeadlockWitness(
                marking=_initial_names(net), trace=(), label="violation"
            )
            return False, witness, "initial-marking"
        if _invariant_proof(net, prop.pred):
            return True, None, "p-invariant-counting"
        return None, None, None
    return None, None, None


def _verdict(
    net: PetriNet, prop: Property
) -> tuple[bool | None, DeadlockWitness | None, list[str]]:
    if isinstance(prop, PropNot):
        holds, witness, certs = _verdict(net, prop.operand)
        return (None if holds is None else not holds), witness, certs
    if isinstance(prop, (PropAnd, PropOr)):
        is_and = isinstance(prop, PropAnd)
        votes: list[bool | None] = []
        witness: DeadlockWitness | None = None
        certs: list[str] = []
        for operand in prop.operands:
            sub_holds, sub_witness, sub_certs = _verdict(net, operand)
            votes.append(sub_holds)
            certs.extend(sub_certs)
            if sub_holds is (False if is_and else True):
                witness = sub_witness
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
        return holds, witness, certs
    holds, witness, cert = _leaf_verdict(net, prop)
    return holds, witness, [cert] if cert is not None else []


def structural_verdict(
    net: PetriNet, prop: Property
) -> AnalysisResult | None:
    """An exact zero-state verdict for ``prop``, or ``None``.

    ``prop`` must already be normalized (the planner normalizes once).
    The returned result uses ``analyzer="static"`` and carries the
    certificates that closed the case in ``extras["certificates"]``.
    """
    holds, witness, certs = _verdict(net, prop)
    if holds is None:
        return None
    extras = property_extras(prop, holds)
    extras["certificates"] = sorted(set(certs))
    return AnalysisResult(
        analyzer="static",
        net_name=net.name,
        states=0,
        edges=0,
        deadlock=False,
        time_seconds=0.0,
        witness=witness,
        exhaustive=True,
        extras=extras,
    )
