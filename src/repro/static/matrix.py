"""Exact incidence matrices of safe Petri nets.

The linear-algebraic view the structural analyses build on: for a net
``(P, T, F, m0)`` the *incidence matrix* is ``C = C⁺ − C⁻`` where
``C⁻[t][p] = 1`` iff ``p ∈ •t`` and ``C⁺[t][p] = 1`` iff ``p ∈ t•``.
The state equation ``m' = m + Cᵀ·σ`` (σ the Parikh vector of a firing
sequence) is what makes P-invariants (``yᵀCᵀ = 0``) conservation laws and
T-invariants (``C ᵀx = 0`` … i.e. ``x`` with zero net effect) reproducing
firing counts.

Entries are plain Python ints (the kernel has no arc weights), and the
invariant computation downstream stays in exact integers too — no
floats, no numpy.

Note the deliberate information loss: a self-loop place ``p ∈ •t ∩ t•``
contributes ``0`` to ``C[t][p]``.  That is correct for everything derived
from the state equation (the marking of ``p`` really is unchanged by
``t``), but it means invariant-based facts never *see* self-loop
read-arcs; the siphon/trap analyses, which work on the raw flow relation,
do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.petrinet import PetriNet

__all__ = ["IncidenceMatrix", "incidence"]


@dataclass(frozen=True)
class IncidenceMatrix:
    """Incidence data of a net, indexed ``[transition][place]``.

    ``pre``/``post`` are the input and output matrices ``C⁻``/``C⁺``;
    ``effect`` is ``C = C⁺ − C⁻``.  Rows are transitions, columns places —
    the orientation under which firing ``t`` adds row ``effect[t]`` to the
    marking vector.
    """

    num_places: int
    num_transitions: int
    pre: tuple[tuple[int, ...], ...]
    post: tuple[tuple[int, ...], ...]
    effect: tuple[tuple[int, ...], ...]

    def column(self, place: int) -> tuple[int, ...]:
        """The effect column of one place across all transitions."""
        return tuple(self.effect[t][place] for t in range(self.num_transitions))


def incidence(net: PetriNet) -> IncidenceMatrix:
    """Build the exact incidence matrix of ``net``."""
    num_places = net.num_places
    pre_rows: list[tuple[int, ...]] = []
    post_rows: list[tuple[int, ...]] = []
    effect_rows: list[tuple[int, ...]] = []
    for t in range(net.num_transitions):
        inputs = net.pre_places[t]
        outputs = net.post_places[t]
        pre_rows.append(tuple(1 if p in inputs else 0 for p in range(num_places)))
        post_rows.append(tuple(1 if p in outputs else 0 for p in range(num_places)))
        effect_rows.append(
            tuple(
                (1 if p in outputs else 0) - (1 if p in inputs else 0)
                for p in range(num_places)
            )
        )
    return IncidenceMatrix(
        num_places=num_places,
        num_transitions=net.num_transitions,
        pre=tuple(pre_rows),
        post=tuple(post_rows),
        effect=tuple(effect_rows),
    )
