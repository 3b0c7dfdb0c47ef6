"""Boolean encoding of safe Petri nets for symbolic reachability.

One Boolean variable per place (safe nets are exactly the nets whose
markings are bit-vectors), with the standard interleaved current/next
variable scheme.  The transition relation is kept *partitioned* — one small
relation per transition (the same regime SMV operates in for asynchronous
models) — and each relation is built bottom-up in a single pass with the
manager's node constructor.

Image computation does not use the relations: a transition only reads and
writes its own pre- and post-places, so its image is a cofactor on those
places followed by fixing their new values, over current variables only
(:attr:`SymbolicNet.image_literals`, applied by
:func:`~repro.bdd.ops.substitute`).  The relations remain the encoding's
reference semantics, the monolithic ablation's input, and part of the
peak-size statistic.

The encoding guards each transition with "output places empty" (except
self-loops): on a safe net this never excludes real behaviour, and it keeps
the symbolic state space bit-identical to the explicit one even on nets
where a firing would violate safety (the explicit engine raises there).
"""

from __future__ import annotations

from repro.bdd.manager import ONE, ZERO, BddManager
from repro.bdd.ordering import force_order
from repro.net.petrinet import Marking, PetriNet

__all__ = ["SymbolicNet"]


class SymbolicNet:
    """A safe net compiled to BDDs.

    Attributes
    ----------
    mgr:
        The dedicated :class:`BddManager` (levels: interleaved
        current/next per place, possibly permuted by the FORCE heuristic).
    order:
        Place indices from the root of the variable order down.
    current / nxt:
        Per place index, the BDD *level* of its current/next variable.
    relations:
        Per transition index, the BDD of its transition relation over
        current and next variables (including frame conditions).
    image_literals:
        Per transition index, the ``(level, need, put)`` literals of its
        image over current variables, sorted by level: every place in
        ``•t ∪ t•`` needs a token if it is an input (else must be empty)
        and holds one afterwards iff it is an output.
    enabled_any:
        BDD over current variables: "some transition is enabled";
        its negation characterizes deadlocked markings.
    """

    def __init__(self, net: PetriNet, *, use_force_order: bool = True) -> None:
        self.net = net
        self.mgr = BddManager()
        self._monolithic: int | None = None

        self.order = self._place_order(use_force_order)
        # position of place p in the chosen order -> interleaved levels
        self.current: list[int] = [0] * net.num_places
        self.nxt: list[int] = [0] * net.num_places
        for position, p in enumerate(self.order):
            self.current[p] = 2 * position
            self.nxt[p] = 2 * position + 1
        self.mgr.declare(2 * net.num_places)

        self.relations: list[int] = [
            self._transition_relation(t) for t in range(net.num_transitions)
        ]
        self.image_literals: list[tuple[tuple[int, bool, bool], ...]] = [
            self._image_literals(t) for t in range(net.num_transitions)
        ]
        self.enabled_any = self.mgr.or_all(
            self._enabled_predicate(t) for t in range(net.num_transitions)
        )

    # ------------------------------------------------------------------
    def _place_order(self, use_force_order: bool) -> list[int]:
        if not use_force_order:
            return list(range(self.net.num_places))
        hyperedges = [
            sorted(self.net.pre_places[t] | self.net.post_places[t])
            for t in range(self.net.num_transitions)
        ]
        return force_order(self.net.num_places, hyperedges)

    def _enabled_predicate(self, t: int) -> int:
        """Current-variable BDD: transition ``t`` is enabled (Def. 2.3)."""
        mgr = self.mgr
        node = mgr.and_all(mgr.var(self.current[p]) for p in self.net.pre_places[t])
        return node

    def _transition_relation(self, t: int) -> int:
        """Relation ``enabled ∧ effect ∧ frame`` for one transition.

        Built from the last place in the order up: each place wraps the
        diagram below it in its current/next pair, so every node is made
        once and none goes through ``ite``.
        """
        mk = self.mgr.mk
        pre = self.net.pre_places[t]
        post = self.net.post_places[t]
        node = ONE
        for p in reversed(self.order):
            cur = self.current[p]
            nxt = self.nxt[p]
            if p in pre:
                # Token required; kept on a self-loop, consumed otherwise.
                after = mk(nxt, ZERO, node) if p in post else mk(nxt, node, ZERO)
                node = mk(cur, ZERO, after)
            elif p in post:
                # Safe-net guard: output place must be empty before firing.
                node = mk(cur, mk(nxt, ZERO, node), ZERO)
            else:
                # Frame: place unchanged.
                node = mk(cur, mk(nxt, node, ZERO), mk(nxt, ZERO, node))
        return node

    def _image_literals(self, t: int) -> tuple[tuple[int, bool, bool], ...]:
        """Sorted ``(level, need, put)`` literals of ``t`` over ``•t ∪ t•``."""
        pre = self.net.pre_places[t]
        post = self.net.post_places[t]
        return tuple(sorted((self.current[p], p in pre, p in post) for p in pre | post))

    def monolithic_relation(self) -> int:
        """The single disjunctive transition relation (1998-SMV style).

        Built lazily and cached: ``⋁_t rel_t``.  Using it for image
        computation (see ``reach(..., partitioned=False)``) reproduces the
        blow-up regime the paper observed for SMV on asynchronous nets,
        where the disjunction of frame conditions destroys structure.
        """
        if self._monolithic is None:
            self._monolithic = self.mgr.or_all(self.relations)
        return self._monolithic

    # ------------------------------------------------------------------
    def encode_marking(self, marking: Marking) -> int:
        """Characteristic function of a single marking (current vars)."""
        mgr = self.mgr
        literals = []
        for p in range(self.net.num_places):
            if p in marking:
                literals.append(mgr.var(self.current[p]))
            else:
                literals.append(mgr.nvar(self.current[p]))
        return mgr.and_all(literals)

    def decode_model(self, model: dict[int, bool]) -> Marking:
        """Marking from a current-variable assignment."""
        return frozenset(
            p
            for p in range(self.net.num_places)
            if model.get(self.current[p], False)
        )

    def current_levels(self) -> frozenset[int]:
        """All current-variable levels (for quantification)."""
        return frozenset(self.current)

    def next_to_current(self) -> dict[int, int]:
        """Renaming map next-level -> current-level (order preserving)."""
        return {self.nxt[p]: self.current[p] for p in range(self.net.num_places)}
