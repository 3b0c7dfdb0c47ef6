"""BDD-backed family backend.

A family ``F ⊆ 2^T`` is the set of satisfying assignments of a Boolean
function over one variable per transition.  All family operations the GPN
semantics needs are Boolean operations on the shared
:class:`~repro.bdd.manager.BddManager` held by the context:

=====================  =====================================
family operation       Boolean operation
=====================  =====================================
``F ∩ G``              ``f ∧ g``
``F ∪ G``              ``f ∨ g``
``F \\ G``             ``f ∧ ¬g``
``{v ∈ F | t ∈ v}``    ``f ∧ x_t``
emptiness/equality     node identity (ROBDDs are canonical)
``|F|``                model counting
=====================  =====================================

The paper's ``r0`` — all maximal independent sets of the conflict graph —
is built symbolically, one family per connected component of the graph
(the paper's maximal conflict sets), each in a single top-down pass whose
memoized states track which undecided transitions are blocked and which
still have to dominate someone; the component families share no
variables and are conjoined.  It never enumerates the exponentially many
scenarios.

This internal use of BDDs does **not** turn the analysis into symbolic
state-space exploration: GPN states are still enumerated explicitly (3 for
NSDP, 2 for RW); only the per-state scenario annotations are compressed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.bdd.manager import ONE, ZERO, BddManager
from repro.bdd.ops import any_model, iter_models, satcount
from repro.families.base import FamilyContext, SetFamily
from repro.net.structure import connected_components

__all__ = ["BddFamily", "BddContext"]


class BddFamily(SetFamily):
    """A family represented by a BDD node in its context's manager."""

    __slots__ = ("ctx", "node")

    def __init__(self, ctx: "BddContext", node: int) -> None:
        self.ctx = ctx
        self.node = node

    # -- algebra --------------------------------------------------------
    def intersect(self, other: SetFamily) -> "BddFamily":
        assert isinstance(other, BddFamily) and other.ctx is self.ctx
        return BddFamily(self.ctx, self.ctx.mgr.and_(self.node, other.node))

    def union(self, other: SetFamily) -> "BddFamily":
        assert isinstance(other, BddFamily) and other.ctx is self.ctx
        return BddFamily(self.ctx, self.ctx.mgr.or_(self.node, other.node))

    def difference(self, other: SetFamily) -> "BddFamily":
        assert isinstance(other, BddFamily) and other.ctx is self.ctx
        return BddFamily(self.ctx, self.ctx.mgr.diff(self.node, other.node))

    def filter_contains(self, transition: int) -> "BddFamily":
        # f ∧ x_t: the apply walks f only above x_t's level, and its
        # computed table carries over between GPN states.
        literal = self.ctx.mgr.var(self.ctx.level_of(transition))
        return BddFamily(self.ctx, self.ctx.mgr.and_(self.node, literal))

    # -- queries --------------------------------------------------------
    def is_empty(self) -> bool:
        return self.node == ZERO

    def count(self) -> int:
        return satcount(self.ctx.mgr, self.node, self.ctx.num_transitions)

    def contains(self, transition_set: frozenset[int]) -> bool:
        assignment = {
            self.ctx.level_of(t): (t in transition_set)
            for t in range(self.ctx.num_transitions)
        }
        return self.ctx.mgr.evaluate(self.node, assignment)

    def iter_sets(self, *, limit: int | None = None) -> Iterator[frozenset[int]]:
        levels = [self.ctx.level_of(t) for t in range(self.ctx.num_transitions)]
        for model in iter_models(self.ctx.mgr, self.node, levels, limit=limit):
            yield frozenset(
                t
                for t in range(self.ctx.num_transitions)
                if model[self.ctx.level_of(t)]
            )

    def any_set(self) -> frozenset[int] | None:
        levels = [self.ctx.level_of(t) for t in range(self.ctx.num_transitions)]
        model = any_model(self.ctx.mgr, self.node, levels)
        if model is None:
            return None
        return frozenset(
            t
            for t in range(self.ctx.num_transitions)
            if model[self.ctx.level_of(t)]
        )

    def is_subset(self, other: SetFamily) -> bool:
        assert isinstance(other, BddFamily) and other.ctx is self.ctx
        return self.ctx.mgr.diff(self.node, other.node) == ZERO

    # -- value semantics -------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BddFamily):
            return NotImplemented
        # ROBDD canonicity: same node id <=> same family (same context).
        return self.ctx is other.ctx and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.node))

    def __repr__(self) -> str:
        size = self.count()
        preview = sorted(tuple(sorted(v)) for v in self.iter_sets(limit=4))
        suffix = ", ..." if size > 4 else ""
        return f"BddFamily(|F|={size}, {preview}{suffix})"


class BddContext(FamilyContext):
    """Factory holding the shared manager and the transition→level map.

    The identity level map is used: transition ``t`` is BDD level ``t``.
    (Conflict graphs of the benchmark nets are locally clustered in
    declaration order, which is already a good order.)
    """

    def __init__(self, num_transitions: int) -> None:
        super().__init__(num_transitions)
        self.mgr = BddManager()
        self.mgr.declare(num_transitions)

    def level_of(self, transition: int) -> int:
        """BDD level of a transition's indicator variable."""
        if not 0 <= transition < self.num_transitions:
            raise ValueError(
                f"transition id {transition} outside universe of size "
                f"{self.num_transitions}"
            )
        return transition

    # -- constructors ----------------------------------------------------
    def empty(self) -> BddFamily:
        return BddFamily(self, ZERO)

    def singleton(self, transition_set: frozenset[int]) -> BddFamily:
        node = self.mgr.and_all(
            self.mgr.var(self.level_of(t))
            if t in transition_set
            else self.mgr.nvar(self.level_of(t))
            for t in range(self.num_transitions)
        )
        for t in transition_set:
            self.level_of(t)  # range check
        return BddFamily(self, node)

    def from_sets(self, sets: Iterable[frozenset[int]]) -> BddFamily:
        node = self.mgr.or_all(
            self.singleton(frozenset(v)).node for v in sets
        )
        return BddFamily(self, node)

    def maximal_independent_sets(
        self, adjacency: Sequence[set[int]] | Sequence[frozenset[int]]
    ) -> BddFamily:
        n = self.num_transitions
        if len(adjacency) != n:
            raise ValueError("adjacency size must match the universe")
        mgr = self.mgr
        # A maximal independent set of the whole graph is one per connected
        # component (the maximal conflict sets of Def. 2.2), and components
        # share no variables: r0 is the conjunction of per-component
        # families.  Deepest component first, so each conjunction stacks a
        # small diagram on top of the accumulated one.
        families = [
            self._component_mis(component, adjacency)
            for component in connected_components(adjacency)
        ]
        families.sort(key=mgr.level, reverse=True)
        return BddFamily(self, mgr.and_all(families))

    def _component_mis(
        self,
        component: frozenset[int],
        adjacency: Sequence[set[int]] | Sequence[frozenset[int]],
    ) -> int:
        """Maximal independent sets of one connected component.

        Built top-down along the variable order in one memoized pass over
        the members, with sets of undecided members as bitmasks over
        member positions.  The state before deciding member ``i`` is:

        * ``blocked`` — undecided members with a chosen neighbor: they
          must stay out, and they are already dominated;
        * ``needs`` — for each unchosen member not yet dominated, the
          undecided members that could still dominate it (one of them
          must be chosen), kept inclusion-minimal since a smaller need
          implies a larger one.

        Equal states have equal remaining functions, so the memo turns
        the walk into the diagram's construction; ``mk`` merges the
        states that still differ but agree as functions.
        """
        mgr = self.mgr
        members = sorted(component, key=self.level_of)
        levels = [self.level_of(t) for t in members]
        position = {t: i for i, t in enumerate(members)}
        size = len(members)
        # later[i]: the members after member i.
        later = [((1 << size) - 1) & ~((2 << i) - 1) for i in range(size)]
        neighbors = [
            sum(1 << position[u] for u in adjacency[t]) for t in members
        ]
        memo: dict[tuple[int, int, tuple[int, ...]], int] = {}

        def build(i: int, blocked: int, needs: tuple[int, ...] | None) -> int:
            if needs is None:
                return ZERO  # a member can no longer be dominated
            if i == size:
                return ONE  # every need was met on the way down
            key = (i, blocked, needs)
            node = memo.get(key)
            if node is not None:
                return node
            bit = 1 << i
            # x_i = 0; member i needs a later neighbor unless blocked.
            lo_needs = [need & ~bit for need in needs]
            if not blocked & bit:
                lo_needs.append(neighbors[i] & later[i] & ~blocked)
            lo = build(i + 1, blocked & later[i], _minimal(lo_needs))
            # x_i = 1: blocks and dominates its later neighbors.
            if blocked & bit:
                hi = ZERO
            else:
                hi_blocked = (blocked | neighbors[i]) & later[i]
                hi_needs = [
                    need & ~hi_blocked for need in needs if not need & bit
                ]
                hi = build(i + 1, hi_blocked, _minimal(hi_needs))
            node = mgr.mk(levels[i], lo, hi)
            memo[key] = node
            return node

        return build(0, 0, ())


def _minimal(needs: list[int]) -> tuple[int, ...] | None:
    """Inclusion-minimal masks in canonical order; ``None`` if one is empty."""
    kept: list[int] = []
    for need in sorted(set(needs), key=int.bit_count):
        if not need:
            return None
        if all(other & ~need for other in kept):
            kept.append(need)
    return tuple(sorted(kept))
