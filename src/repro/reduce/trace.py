"""Replayable reduction traces: mapping reduced-net answers back.

Every rule application of the reduction engine appends one
:class:`ReductionStep` to a :class:`ReductionTrace`.  A step records what
was removed and — for the agglomeration rules, which *rename the
behaviour* rather than merely projecting it — how each surviving
transition expands into a firing sequence of the net the step was applied
to.  Because steps compose (a transition introduced by one step may be
rewritten again by a later one), a reduced-net firing sequence is mapped
back by applying the step expansions in **reverse** application order.

Back-mapping is *replayed*, never trusted: :func:`back_map_witness` fires
the mapped sequence on the original net from its initial marking, so the
witness marking it reports is by construction a genuinely reachable
original marking.  For deadlock witnesses produced after agglomeration
the replayed marking may still owe a few internal firings (a
pre-agglomerated transition whose token never moved); the completion loop
fires the erased transitions until quiescence and then *checks* the
marking is dead.  Any inconsistency raises :class:`BackMapError` instead
of fabricating a witness.

Traces serialize to JSON (they travel with results through the cache and
``gpo serve``) and carry a stable SHA-256 ``trace_hash`` that the v3
cache-key material stamps alongside the reduced net's canonical hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.net.exceptions import NotEnabledError, UnknownNodeError, UnsafeNetError
from repro.net.petrinet import PetriNet
from repro.search.witness import DeadlockWitness

__all__ = [
    "BackMapError",
    "ReductionStep",
    "ReductionTrace",
    "back_map_witness",
    "flatten_trace",
    "replay",
]


class BackMapError(Exception):
    """A reduced-net answer could not be replayed on the original net."""


@dataclass(frozen=True)
class ReductionStep:
    """One rule application, with enough detail to undo its renaming.

    ``expansions`` maps a transition name of the *output* net of this
    step to the firing sequence of the *input* net it stands for; every
    transition not listed maps to itself.  ``erased`` lists input-net
    transitions that exist nowhere in the output net's behaviour mapping
    (the absorbed halves of agglomerations) — the completion loop of
    :func:`back_map_witness` may need to fire them.  ``restore`` maps
    each removed place to how its token is reconstructed when a marking
    (rather than a firing sequence) is mapped back: ``"+"`` always
    marked (constant places, frozen isolated tokens), ``"-"`` always
    unmarked, or the name of a surviving place whose token it mirrors
    (duplicate places).
    """

    rule: str
    removed_places: tuple[str, ...] = ()
    removed_transitions: tuple[str, ...] = ()
    expansions: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    erased: tuple[str, ...] = ()
    restore: Mapping[str, str] = field(default_factory=dict)
    detail: str = ""

    def to_json(self) -> dict[str, Any]:
        """JSON-safe form (stable key order is the serializer's job)."""
        out: dict[str, Any] = {"rule": self.rule}
        if self.removed_places:
            out["removed_places"] = list(self.removed_places)
        if self.removed_transitions:
            out["removed_transitions"] = list(self.removed_transitions)
        if self.expansions:
            out["expansions"] = {
                name: list(seq) for name, seq in sorted(self.expansions.items())
            }
        if self.erased:
            out["erased"] = list(self.erased)
        if self.restore:
            out["restore"] = dict(sorted(self.restore.items()))
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ReductionStep":
        return cls(
            rule=str(payload["rule"]),
            removed_places=tuple(payload.get("removed_places", ())),
            removed_transitions=tuple(payload.get("removed_transitions", ())),
            expansions={
                str(name): tuple(str(t) for t in seq)
                for name, seq in dict(payload.get("expansions", {})).items()
            },
            erased=tuple(payload.get("erased", ())),
            restore={
                str(place): str(spec)
                for place, spec in dict(payload.get("restore", {})).items()
            },
            detail=str(payload.get("detail", "")),
        )

    def describe(self) -> str:
        """One linter-style diagnostic line for ``--explain`` output."""
        bits = []
        if self.removed_places:
            bits.append("places " + ",".join(self.removed_places))
        if self.removed_transitions:
            bits.append("transitions " + ",".join(self.removed_transitions))
        removed = "; ".join(bits) if bits else "nothing removed"
        line = f"{self.rule}: {removed}"
        if self.detail:
            line += f" — {self.detail}"
        return line


@dataclass(frozen=True)
class ReductionTrace:
    """The ordered record of every rule application on one net."""

    net_name: str
    steps: tuple[ReductionStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __bool__(self) -> bool:
        return bool(self.steps)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "net": self.net_name,
            "steps": [step.to_json() for step in self.steps],
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ReductionTrace":
        return cls(
            net_name=str(payload.get("net", "")),
            steps=tuple(
                ReductionStep.from_json(step)
                for step in payload.get("steps", ())
            ),
        )

    def trace_hash(self) -> str:
        """SHA-256 of the canonical JSON form (hex digest).

        Stamped into v3 cache-key material next to the reduced net's
        canonical hash: two jobs share a cache entry only when they
        reduced the same way, so back-mapped answers never cross traces.
        """
        form = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(form.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Behaviour mapping
    # ------------------------------------------------------------------
    def rule_counts(self) -> dict[str, int]:
        """Applications per rule name, in first-application order."""
        counts: dict[str, int] = {}
        for step in self.steps:
            counts[step.rule] = counts.get(step.rule, 0) + 1
        return counts

    def erased_transitions(self) -> frozenset[str]:
        """Original-net transitions absorbed by agglomeration steps."""
        erased: set[str] = set()
        for step in self.steps:
            erased.update(step.erased)
        return frozenset(erased)

    def map_sequence(self, sequence: Iterable[str]) -> tuple[str, ...]:
        """Rewrite a reduced-net firing sequence into original-net names.

        Steps apply in reverse order: the last rule speaks the reduced
        net's names, and each earlier rule's expansions translate one
        layer further toward the original.  Unknown names pass through
        unchanged (they are either original names or an error that the
        replay will surface).
        """
        mapped = list(sequence)
        for step in reversed(self.steps):
            if not step.expansions:
                continue
            rewritten: list[str] = []
            for name in mapped:
                rewritten.extend(step.expansions.get(name, (name,)))
            mapped = rewritten
        return tuple(mapped)

    def map_marking(self, marking: Iterable[str]) -> frozenset[str]:
        """Reconstruct an original-net marking from a reduced-net one.

        Surviving places keep their token; each step's ``restore``
        directives (applied in reverse order) re-add the removed places.
        Used for witnesses without a concrete firing sequence (symbolic
        counterexamples, GPN multi-step traces that cover several
        scenarios); sink places come back unmarked, which never affects
        deadness — they occur in no preset.
        """
        names = set(marking)
        for step in reversed(self.steps):
            for place, spec in step.restore.items():
                if spec == "+":
                    names.add(place)
                elif spec == "-":
                    names.discard(place)
                elif spec in names:
                    names.add(place)
                else:
                    names.discard(place)
        return frozenset(names)


def flatten_trace(trace: Iterable[str]) -> tuple[str, ...]:
    """Sequentialize a witness trace that may contain GPN multi-steps.

    GPO witnesses render simultaneously fired transitions as ``"{a,b}"``;
    the fired transitions are mutually concurrent, so firing them one at
    a time in the rendered order reaches the same marking.
    """
    flat: list[str] = []
    for step in trace:
        step = step.strip()
        if step.startswith("{") and step.endswith("}"):
            flat.extend(
                token.strip() for token in step[1:-1].split(",") if token.strip()
            )
        else:
            flat.append(step)
    return tuple(flat)


def replay(net: PetriNet, sequence: Iterable[str]) -> frozenset[int]:
    """Fire ``sequence`` (transition names) from ``net``'s initial marking.

    Returns the reached marking; raises :class:`BackMapError` when a name
    is unknown or a firing is not enabled — a mapped trace must replay
    exactly or the back-mapping is wrong.
    """
    marking = net.initial_marking
    for name in sequence:
        try:
            marking = net.fire_by_name(name, marking)
        except (UnknownNodeError, NotEnabledError, UnsafeNetError) as exc:
            raise BackMapError(
                f"mapped trace does not replay on {net.name!r}: "
                f"firing {name!r} failed ({exc})"
            ) from exc
    return marking


def _complete_deadlock(
    net: PetriNet, marking: frozenset[int], erased: frozenset[str]
) -> tuple[frozenset[int], tuple[str, ...]]:
    """Fire erased internal transitions until quiescence.

    After replaying a mapped deadlock trace, the only transitions that
    may still be enabled are ones an agglomeration absorbed (their token
    is parked one step earlier than in the reduced net).  Firing them to
    fixpoint lands on the marking the reduced deadlock actually stands
    for.  The loop is bounded: each erased transition can fire at most a
    handful of times on a 1-safe net before quiescence.
    """
    if not erased:
        return marking, ()
    ids = [net.transition_id(t) for t in sorted(erased) if t in net.transition_index]
    fired_names: list[str] = []
    budget = 4 * len(ids) + 16
    for _ in range(budget):
        fired = False
        for t in ids:
            if net.is_enabled(t, marking):
                try:
                    marking = net.fire(t, marking)
                except UnsafeNetError as exc:  # pragma: no cover - guarded
                    raise BackMapError(
                        f"completion firing {net.transitions[t]!r} was unsafe: {exc}"
                    ) from exc
                fired_names.append(net.transitions[t])
                fired = True
                break
        if not fired:
            return marking, tuple(fired_names)
    raise BackMapError(
        f"completion loop on {net.name!r} did not quiesce within {budget} firings"
    )


def _map_marking_only(
    net: PetriNet,
    trace: ReductionTrace,
    witness: DeadlockWitness,
) -> DeadlockWitness:
    """Marking-level fallback for witnesses without a replayable trace.

    Symbolic counterexamples carry no firing sequence, and GPN witness
    traces render multi-steps that may cover several *conflicting*
    scenarios — neither replays as a sequence.  The reduced marking
    itself still maps back exactly (every rule records how its removed
    places' tokens are reconstructed), and for deadlock witnesses the
    reconstructed marking is *verified* dead on the original net.
    """
    names = trace.map_marking(witness.marking)
    try:
        marking = net.marking_from_names(names)
    except UnknownNodeError as exc:
        raise BackMapError(
            f"mapped witness marking names unknown places on {net.name!r}: {exc}"
        ) from exc
    if witness.label == "deadlock" and not net.is_deadlocked(marking):
        raise BackMapError(
            f"mapped witness marking is not dead on {net.name!r}"
        )
    return DeadlockWitness(marking=names, trace=(), label=witness.label)


def back_map_witness(
    net: PetriNet,
    trace: ReductionTrace,
    witness: DeadlockWitness,
) -> DeadlockWitness:
    """Translate a reduced-net witness into an original-net witness.

    The witness trace is flattened (GPN multi-steps), mapped through the
    trace's expansions, replayed on ``net`` and — for deadlock witnesses —
    completed and *verified* dead, so the returned witness carries a
    genuinely reachable original marking.  Full, stubborn and unfolding
    witnesses are classical firing sequences and always take this replay
    path.  Witnesses whose trace cannot replay as a sequence (symbolic:
    no trace at all; GPO: multi-steps covering several conflicting
    scenarios) fall back to marking-level mapping, which reconstructs and
    dead-verifies the original marking but returns an empty trace.
    """
    flat = flatten_trace(witness.trace)
    if not flat and witness.marking:
        return _map_marking_only(net, trace, witness)
    mapped = trace.map_sequence(flat)
    try:
        marking = replay(net, mapped)
        completion: tuple[str, ...] = ()
        if witness.label == "deadlock":
            marking, completion = _complete_deadlock(
                net, marking, trace.erased_transitions()
            )
            if not net.is_deadlocked(marking):
                raise BackMapError(
                    f"mapped witness marking is not dead on {net.name!r}"
                )
    except BackMapError:
        if witness.marking:
            return _map_marking_only(net, trace, witness)
        raise
    return DeadlockWitness(
        marking=net.marking_names(marking),
        trace=mapped + completion,
        label=witness.label,
    )
