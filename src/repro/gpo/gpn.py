"""Generalized Petri Nets (paper Definition 3.1) and their states.

A GPN shares the structure ``(P, T, F)`` of a safe Petri net but marks
places with *families of transition sets* and carries the family ``r`` of
valid transition sets.  Each valid set — we call it a *scenario* — is a
maximal conflict-free subset of ``T``: a complete resolution of every
choice in the net (see DESIGN.md §1.2 for why the maximal reading is the
one the paper's worked examples use).

A GPN state ``⟨m, r⟩`` then compactly represents the *set* of classical
markings ``{ {p | v ∈ m(p)} : v ∈ r }`` (Definition 3.4), which is how one
GPN state can stand for exponentially many interleaved outcomes.
"""

from __future__ import annotations

from typing import Iterator

from repro.families.bddfam import BddContext, BddFamily
from repro.net.petrinet import PetriNet
from repro.net.structure import StructuralInfo

__all__ = ["Gpn", "GpnState"]


class GpnState:
    """Immutable GPN state: per-place families plus the valid family ``r``.

    Hashable value object; hashing reduces to BDD node ids, making state
    dedup in the explorer O(|P|).
    """

    __slots__ = ("marking", "valid", "_hash")

    def __init__(self, marking: tuple[BddFamily, ...], valid: BddFamily) -> None:
        self.marking = marking
        self.valid = valid
        self._hash: int | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GpnState):
            return NotImplemented
        return self.valid == other.valid and self.marking == other.marking

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.marking, self.valid))
        return self._hash

    def __repr__(self) -> str:
        non_empty = sum(1 for f in self.marking if not f.is_empty())
        return (
            f"GpnState(marked_places={non_empty}, "
            f"scenarios={self.valid.count()})"
        )


class Gpn:
    """A Generalized Petri Net over BDD scenario families.

    Wraps the underlying safe net with its structural analysis (conflict
    graph, maximal conflict sets) and the family context, and constructs
    the paper's initial state::

        m0_G(p) = r0  if p ∈ m0, else {}
        r0      = maximal independent sets of the conflict graph

    >>> from repro.models.figures import choice_net
    >>> gpn = Gpn(choice_net())
    >>> gpn.r0.count()   # scenarios: choose a or choose b
    2
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self.kernel = net.kernel()
        self.info = StructuralInfo(net)
        self.ctx = BddContext(net.num_transitions)
        self.r0 = self.ctx.maximal_independent_sets(self.info.adjacency)

    def initial_state(self) -> GpnState:
        """The paper's §3.3 initial GPN state ``⟨m0_G, r0⟩``."""
        empty = self.ctx.empty()
        marking = tuple(
            self.r0 if p in self.net.initial_marking else empty
            for p in range(self.net.num_places)
        )
        return GpnState(marking, self.r0)

    # ------------------------------------------------------------------
    def transition_label(self, t: int) -> str:
        """Name of transition ``t`` (for edge labels and reports)."""
        return self.net.transitions[t]

    def set_label(self, transitions: frozenset[int]) -> str:
        """Render a simultaneously fired set, e.g. ``{A0,B0,A1,B1}``."""
        return "{" + ",".join(
            sorted(self.net.transitions[t] for t in transitions)
        ) + "}"

    def scenario_label(self, scenario: frozenset[int]) -> str:
        """Render a scenario as a transition-name set."""
        return "{" + ",".join(
            sorted(self.net.transitions[t] for t in scenario)
        ) + "}"

    def iter_place_families(
        self, state: GpnState
    ) -> Iterator[tuple[str, BddFamily]]:
        """(place name, family) pairs for non-empty places — debugging aid."""
        for p, family in enumerate(state.marking):
            if not family.is_empty():
                yield (self.net.places[p], family)
