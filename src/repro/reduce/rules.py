"""The reduction rule catalog and the mutable scratch net it rewrites.

Each rule is a classical sound structural reduction (Murata's
simplifications, Berthelot's agglomerations, in the polyhedral-reduction
spirit of Amat & Dal Zilio) specialized to the 1-safe set-marking
semantics of :mod:`repro.net.petrinet`.  Rules are grouped into three
nested preservation levels — see :data:`RULES_BY_LEVEL`:

``count``
    Applications are marking-for-marking bijections between the original
    and the reduced reachable sets (``dead-transition``,
    ``constant-place``, ``duplicate-place``, ``isolated-place``): state
    and edge counts, deadlock verdicts, reachability of surviving places
    and the 1-safety verdict all carry over exactly.
``reachability``
    Adds ``sink-place``: enabling never depends on a consumer-free
    place, so reachability of every *surviving* place (and deadlock) is
    preserved, but distinct originals may collapse — counts shrink.
``deadlock``
    Adds the agglomerations (``fuse-series``, ``pre-agglomerate``) which
    contract internal firing sequences: only the deadlock question
    survives, and witness traces need the recorded expansions to map
    back.

Every guard that relies on a *dynamic* fact (a place can hold at most
one token; two places are never simultaneously marked; a place is never
marked at all) consults the **original** net's exact structural analysis
— the P-invariant basis, the invariant-derived safety bounds and the
minimal-siphon enumeration of :mod:`repro.static`.  Original-net facts
remain sound throughout the fixpoint because every rule keeps the
surviving places' token histories embeddable in the original's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from repro.net.petrinet import NetBuilder, PetriNet
from repro.reduce.trace import ReductionStep
from repro.static.safety import certify_safety

__all__ = [
    "RULES",
    "RULES_BY_LEVEL",
    "ReductionLevelError",
    "RuleContext",
    "ScratchNet",
    "context_for",
]


class ReductionLevelError(ValueError):
    """An unknown preservation level or rule subset was requested."""


# ----------------------------------------------------------------------
# Scratch net
# ----------------------------------------------------------------------
class ScratchNet:
    """A name-keyed mutable working copy of a :class:`PetriNet`.

    Insertion order is preserved (plain dicts) so rebuilding the reduced
    net is deterministic; reverse adjacency is recomputed per pass — the
    rule engine's cost is dominated by the static analysis, not by these
    scans.
    """

    def __init__(self, net: PetriNet) -> None:
        self.name = net.name
        self.places: dict[str, None] = {p: None for p in net.places}
        self.marking: set[str] = {net.places[p] for p in net.initial_marking}
        self.pre: dict[str, set[str]] = {}
        self.post: dict[str, set[str]] = {}
        for t, tname in enumerate(net.transitions):
            self.pre[tname] = {net.places[p] for p in net.pre_places[t]}
            self.post[tname] = {net.places[p] for p in net.post_places[t]}

    # ------------------------------------------------------------------
    @property
    def num_places(self) -> int:
        return len(self.places)

    @property
    def num_transitions(self) -> int:
        return len(self.pre)

    @property
    def num_arcs(self) -> int:
        return sum(len(s) for s in self.pre.values()) + sum(
            len(s) for s in self.post.values()
        )

    def producers(self) -> dict[str, set[str]]:
        """Place name -> transitions producing into it (``•p``)."""
        out: dict[str, set[str]] = {p: set() for p in self.places}
        for t, post in self.post.items():
            for p in post:
                out[p].add(t)
        return out

    def consumers(self) -> dict[str, set[str]]:
        """Place name -> transitions consuming from it (``p•``)."""
        out: dict[str, set[str]] = {p: set() for p in self.places}
        for t, pre in self.pre.items():
            for p in pre:
                out[p].add(t)
        return out

    def remove_place(self, place: str) -> None:
        """Drop a place and every arc touching it."""
        del self.places[place]
        self.marking.discard(place)
        for pre in self.pre.values():
            pre.discard(place)
        for post in self.post.values():
            post.discard(place)

    def remove_transition(self, name: str) -> None:
        del self.pre[name]
        del self.post[name]

    def fresh_transition_name(self, base: str) -> str:
        """A transition name not colliding with any existing node."""
        name = base
        while name in self.pre or name in self.places:
            name += "'"
        return name

    def build(self) -> PetriNet:
        """Freeze the scratch state back into an immutable net.

        The reduced net keeps the original's name: it answers for the
        original in every report, and the trace carries the structural
        provenance.
        """
        builder = NetBuilder(self.name)
        for place in self.places:
            builder.place(place, marked=place in self.marking)
        for t, pre in self.pre.items():
            builder.transition(t, inputs=sorted(pre), outputs=sorted(self.post[t]))
        return builder.build()


# ----------------------------------------------------------------------
# Guard context (original-net structural facts)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleContext:
    """Original-net facts plus per-run guard configuration.

    ``protect`` holds place names the property under check observes —
    they are never removed or merged.  ``mutex``/``bound_one`` are
    P-invariant-derived dynamic facts; ``never_marked`` comes from the
    minimal-siphon enumeration (a siphon with no initially marked trap
    never gains a token).  ``aggressive`` lifts the cost gates.
    """

    protect: frozenset[str] = frozenset()
    mutex: Callable[[str, str], bool] = lambda p, q: False
    bound_one: Callable[[str], bool] = lambda p: False
    never_marked: frozenset[str] = frozenset()
    aggressive: bool = False


def _invariant_facts(
    net: PetriNet,
) -> tuple[
    Callable[[str, str], bool],
    Callable[[str], bool],
]:
    """Build the mutex and bound-one oracles from the P-invariant basis.

    ``mutex(p, q)``: some invariant ``y`` has ``y(p) ≥ 1``, ``y(q) ≥ 1``
    and ``y(p) + y(q) > y·m0`` — conservation then forbids ``p`` and
    ``q`` being simultaneously marked in any reachable marking.
    ``bound_one(p)``: the invariant-derived structural token bound of
    ``p`` is at most 1, so no firing can ever double-mark ``p``.
    """
    analysis = net.static_analysis()
    basis = analysis.p_invariants
    m0 = net.initial_marking
    index = net.place_index
    invariants: list[tuple[Mapping[int, int], int]] = []
    for inv in basis.invariants:
        weights = {i: inv.weights[i] for i in inv.support}
        invariants.append((weights, inv.value(m0)))

    def mutex(p: str, q: str) -> bool:
        i, j = index.get(p), index.get(q)
        if i is None or j is None:
            return False
        for weights, initial in invariants:
            wp = weights.get(i)
            wq = weights.get(j)
            if wp is not None and wq is not None and wp + wq > initial:
                return True
        return False

    bounds = certify_safety(net, basis=basis).bounds

    def bound_one(p: str) -> bool:
        i = index.get(p)
        if i is None:
            return False
        bound = bounds.get(i)
        return bound is not None and bound <= 1

    return mutex, bound_one


#: Above this many places the ``auto`` mode skips the siphon enumeration
#: (worst-case expensive); ``aggressive`` always runs it.
_SIPHON_GATE = 400


def context_for(
    net: PetriNet,
    *,
    protect: frozenset[str] = frozenset(),
    aggressive: bool = False,
) -> RuleContext:
    """Compute the guard context from the original net's static facts."""
    mutex, bound_one = _invariant_facts(net)
    never: set[str] = set()
    if aggressive or net.num_places <= _SIPHON_GATE:
        # An initially token-free siphon can never gain a token: every
        # producer of a siphon place consumes from the siphon (•S ⊆ S•),
        # so with no token inside, none ever enters.  (This is stronger
        # than the Commoner condition of the deadlock pre-check, which
        # flags siphons that could *drain* — those places are live until
        # then.)
        analysis = net.static_analysis()
        m0 = net.initial_marking
        for siphon in analysis.siphons.siphons:
            if not (siphon & m0):
                never.update(net.places[p] for p in siphon)
    return RuleContext(
        protect=protect,
        mutex=mutex,
        bound_one=bound_one,
        never_marked=frozenset(never),
        aggressive=aggressive,
    )


# ----------------------------------------------------------------------
# Rules — each takes (scratch, context) and yields the steps it applied.
# ----------------------------------------------------------------------
RuleFn = Callable[[ScratchNet, RuleContext], Iterator[ReductionStep]]


def rule_dead_transition(
    s: ScratchNet, ctx: RuleContext
) -> Iterator[ReductionStep]:
    """Remove transitions that can never fire, and the places they strand.

    A place is *dead* when it lies in an initially unmarked minimal
    siphon of the original net (no marked trap inside: it can never gain
    a token) or, structurally, when it is unmarked and producer-free in
    the current net.  Every transition consuming from a dead place is
    dead; removing those transitions may strand further places, so the
    closure iterates.  Count-preserving: dead transitions contribute no
    edges and dead places are never marked.  Protected dead places stay
    behind as (harmless, token-free) isolated places so property
    predicates still see them.
    """
    dead_places: set[str] = {
        p for p in ctx.never_marked if p in s.places and p not in s.marking
    }
    removed_places: list[str] = []
    removed_transitions: list[str] = []
    while True:
        producers = s.producers()
        dead_places.update(
            p for p in s.places if p not in s.marking and not producers[p]
        )
        dead_now = [t for t, pre in s.pre.items() if pre & dead_places]
        for t in dead_now:
            s.remove_transition(t)
            removed_transitions.append(t)
        # A siphon place's producers all consume from the siphon, so once
        # the dead transitions are gone the dead places are arc-free.
        producers = s.producers()
        consumers = s.consumers()
        stranded = [
            p
            for p in dead_places
            if p in s.places
            and p not in ctx.protect
            and not producers[p]
            and not consumers[p]
        ]
        for p in stranded:
            s.remove_place(p)
            removed_places.append(p)
        if not dead_now and not stranded:
            break
    if removed_places or removed_transitions:
        yield ReductionStep(
            rule="dead-transition",
            removed_places=tuple(removed_places),
            removed_transitions=tuple(removed_transitions),
            restore={p: "-" for p in removed_places},
            detail="never enabled: consumes from a token-free siphon",
        )


def rule_constant_place(
    s: ScratchNet, ctx: RuleContext
) -> Iterator[ReductionStep]:
    """Remove always-marked self-loop places (singleton P-invariants).

    An initially marked place with ``p ∈ •t ⟺ p ∈ t•`` for every
    transition carries a singleton P-invariant ``m(p) = 1``: it is
    marked in every reachable marking, so the enabling conditions it
    contributes are vacuous.  Removal is a marking bijection
    (``m ↦ m∖{p}``).  Skipped when some transition would be left with an
    empty preset (the net must stay source-free) or the place is
    observed by the property.
    """
    for p in list(s.places):
        if p not in s.marking or p in ctx.protect:
            continue
        adjacent = [t for t in s.pre if p in s.pre[t] or p in s.post[t]]
        if not adjacent:
            continue
        if any((p in s.pre[t]) != (p in s.post[t]) for t in adjacent):
            continue
        if any(s.pre[t] == {p} for t in adjacent):
            continue
        s.remove_place(p)
        yield ReductionStep(
            rule="constant-place",
            removed_places=(p,),
            restore={p: "+"},
            detail=f"always marked (singleton P-invariant m({p}) = 1); "
            "self-loop enabling is vacuous",
        )


def rule_duplicate_place(
    s: ScratchNet, ctx: RuleContext
) -> Iterator[ReductionStep]:
    """Remove places that mirror another place's marking forever.

    Two places with identical producer and consumer transition sets and
    the same initial marking hold identical tokens in every reachable
    marking (a redundant place: the difference of their rows is a null
    P-flow).  The duplicate's enabling contribution is therefore
    subsumed by the keeper's.  Count-preserving (marking bijection).
    """
    producers = s.producers()
    consumers = s.consumers()
    groups: dict[tuple[frozenset[str], frozenset[str], bool], list[str]] = {}
    for p in s.places:
        prod = frozenset(producers[p])
        cons = frozenset(consumers[p])
        if not prod and not cons:
            continue  # isolated-place's business
        groups.setdefault((prod, cons, p in s.marking), []).append(p)
    for group in groups.values():
        if len(group) < 2:
            continue
        keeper = next(
            (p for p in group if p in ctx.protect), group[0]
        )
        for p in group:
            if p is keeper or p in ctx.protect:
                continue
            s.remove_place(p)
            yield ReductionStep(
                rule="duplicate-place",
                removed_places=(p,),
                restore={p: keeper},
                detail=f"marking always equals {keeper!r} "
                "(same producers, consumers and initial token)",
            )


def rule_isolated_place(
    s: ScratchNet, ctx: RuleContext
) -> Iterator[ReductionStep]:
    """Remove places no arc touches.  Count-preserving bijection."""
    producers = s.producers()
    consumers = s.consumers()
    for p in list(s.places):
        if p in ctx.protect or producers[p] or consumers[p]:
            continue
        marked = p in s.marking
        s.remove_place(p)
        yield ReductionStep(
            rule="isolated-place",
            removed_places=(p,),
            restore={p: "+" if marked else "-"},
            detail="no arcs" + (" (initially marked)" if marked else ""),
        )


def rule_sink_place(
    s: ScratchNet, ctx: RuleContext
) -> Iterator[ReductionStep]:
    """Remove consumer-free places nothing can ever test.

    A place with ``p• = ∅`` never occurs in a preset, so enabling — and
    hence every firing sequence and the deadlock question — is
    independent of it.  Requires the original invariant-derived token
    bound ≤ 1: an uncovered sink could silently absorb the double-marking
    that makes the original net unsafe, and the reduced run would miss
    the :class:`~repro.net.exceptions.UnsafeNetError` the original
    raises.  Reachability-preserving for surviving places; **not**
    count-preserving (markings differing only in ``p`` collapse).
    """
    producers = s.producers()
    consumers = s.consumers()
    for p in list(s.places):
        if p in ctx.protect or consumers[p] or not producers[p]:
            continue
        if not ctx.bound_one(p):
            continue
        s.remove_place(p)
        yield ReductionStep(
            rule="sink-place",
            removed_places=(p,),
            restore={p: "-"},
            detail="no consumers; invariant bound 1 — enabling never "
            "depends on it",
        )


def rule_fuse_series(
    s: ScratchNet, ctx: RuleContext
) -> Iterator[ReductionStep]:
    """Post-agglomeration: contract ``a → p → b`` into an atomic step.

    When place ``p`` has a single consumer ``b`` with ``•b = {p}``, every
    token entering ``p`` leaves through ``b``; if additionally every
    output place of ``b`` is P-invariant-mutually-exclusive with ``p``,
    no transition can interact with ``b``'s outputs while ``p`` is
    marked, so firing ``b`` immediately after the producer commutes with
    every interleaving.  Each producer ``a`` then absorbs ``b``
    (``a• := (a• ∖ {p}) ∪ b•``) and both ``p`` and ``b`` disappear.
    Deadlock-preserving only: the intermediate marking with ``p`` marked
    exists in the original but not the reduced net.  The recorded
    expansion maps each reduced firing of ``a`` to ``a ; b``.
    """
    changed = True
    while changed:
        changed = False
        producers = s.producers()
        consumers = s.consumers()
        for p in list(s.places):
            if p not in s.places or p in ctx.protect or p in s.marking:
                continue
            cons = consumers[p]
            prods = producers[p]
            if len(cons) != 1 or not prods:
                continue
            (b,) = cons
            if b in prods or s.pre[b] != {p} or p in s.post[b]:
                continue
            if not ctx.bound_one(p):
                continue
            if any(p in s.pre[a] for a in prods):
                continue
            if any(s.post[a] & s.post[b] for a in prods):
                continue
            if any(not ctx.mutex(p, x) for x in s.post[b]):
                continue
            b_post = set(s.post[b])
            for a in prods:
                s.post[a] = (s.post[a] - {p}) | b_post
            s.remove_transition(b)
            s.remove_place(p)
            yield ReductionStep(
                rule="fuse-series",
                removed_places=(p,),
                removed_transitions=(b,),
                expansions={a: (a, b) for a in sorted(prods)},
                erased=(b,),
                restore={p: "-"},
                detail=f"series place {p!r} fused into its producers; "
                f"{b!r} now fires atomically after them",
            )
            changed = True
            break  # adjacency changed; recompute before the next match


def rule_pre_agglomerate(
    s: ScratchNet, ctx: RuleContext
) -> Iterator[ReductionStep]:
    """Pre-agglomeration: delay a pure buffer-filling transition.

    When transition ``a`` only moves tokens from producer-free,
    solely-``a``-consumed source places into a single buffer place ``p``
    (``a• = {p}``, ``•p = {a}``), ``a`` can fire at most once and
    nothing else ever touches its inputs — so firing ``a`` lazily, at
    the instant one of ``p``'s consumers needs the token, is
    deadlock-equivalent.  Each consumer ``b`` is replaced by a fused
    transition ``a;b`` with preset ``•a ∪ (•b ∖ {p})``.  The guards are
    deliberately strict (this is the narrowest classical variant): they
    make the delayed firing trivially safe.  Deadlock-preserving only.
    """
    changed = True
    while changed:
        changed = False
        producers = s.producers()
        consumers = s.consumers()
        for a in list(s.pre):
            if a not in s.pre or len(s.post[a]) != 1:
                continue
            (p,) = s.post[a]
            if p in ctx.protect or p in s.marking:
                continue
            if producers[p] != {a} or p in s.pre[a]:
                continue
            if not ctx.bound_one(p):
                continue
            branches = consumers[p]
            if not branches or a in branches:
                continue
            inputs = s.pre[a]
            if any(
                producers[q] or consumers[q] != {a} or q in ctx.protect
                for q in inputs
            ):
                continue
            if any(inputs & (s.pre[b] - {p}) or inputs & s.post[b] for b in branches):
                continue
            if any(p in s.post[b] for b in branches):
                continue
            fused_steps: dict[str, tuple[str, ...]] = {}
            for b in sorted(branches):
                fused = s.fresh_transition_name(f"{a};{b}")
                s.pre[fused] = set(inputs) | (s.pre[b] - {p})
                s.post[fused] = set(s.post[b])
                s.remove_transition(b)
                fused_steps[fused] = (a, b)
            s.remove_transition(a)
            s.remove_place(p)
            yield ReductionStep(
                rule="pre-agglomerate",
                removed_places=(p,),
                removed_transitions=(a, *sorted(branches)),
                expansions=fused_steps,
                erased=(a, *sorted(branches)),
                restore={p: "-"},
                detail=f"buffer place {p!r} filled only by {a!r} from "
                "untouched sources; filling is delayed into its consumers",
            )
            changed = True
            break


#: Every rule, in application order, with its preservation level.
@dataclass(frozen=True)
class Rule:
    """One registered reduction rule."""

    name: str
    level: str
    fn: RuleFn = field(repr=False)
    summary: str = ""


RULES: tuple[Rule, ...] = (
    Rule(
        "dead-transition",
        "count",
        rule_dead_transition,
        "never-enabled transitions and their token-free siphon places",
    ),
    Rule(
        "constant-place",
        "count",
        rule_constant_place,
        "always-marked self-loop places (singleton P-invariants)",
    ),
    Rule(
        "duplicate-place",
        "count",
        rule_duplicate_place,
        "places whose marking always equals another's (redundant places)",
    ),
    Rule(
        "isolated-place",
        "count",
        rule_isolated_place,
        "places no arc touches",
    ),
    Rule(
        "sink-place",
        "reachability",
        rule_sink_place,
        "consumer-free places with invariant bound 1",
    ),
    Rule(
        "fuse-series",
        "deadlock",
        rule_fuse_series,
        "series-place post-agglomeration (a→p→b contracted)",
    ),
    Rule(
        "pre-agglomerate",
        "deadlock",
        rule_pre_agglomerate,
        "delayed buffer filling (strict source-fed variant)",
    ),
)

#: Nested rule subsets by preservation level: ``count`` ⊂
#: ``reachability`` ⊂ ``deadlock``.  A property fragment picks its level
#: through :func:`repro.props.compat.reduction_level`.
RULES_BY_LEVEL: Mapping[str, tuple[Rule, ...]] = {
    "count": tuple(r for r in RULES if r.level == "count"),
    "reachability": tuple(
        r for r in RULES if r.level in ("count", "reachability")
    ),
    "deadlock": RULES,
}


def rules_for(level: str) -> tuple[Rule, ...]:
    """The rule subset of one preservation level (raises on unknown)."""
    try:
        return RULES_BY_LEVEL[level]
    except KeyError:
        raise ReductionLevelError(
            f"unknown reduction level {level!r}; expected one of "
            f"{sorted(RULES_BY_LEVEL)}"
        ) from None
