"""Berthomieu-Diaz state classes for time Petri nets.

A *state class* abstracts the uncountably many timed states sharing a
marking into ``(marking, firing domain)``, where the domain constrains the
remaining firing delays ``θ_t`` of the enabled transitions by a system of
difference inequalities.  We store the domain as a canonical **difference
bound matrix** (DBM) over the enabled transitions plus a reference
variable, so classes compare and hash structurally — the key to a finite
state-class graph on bounded nets.

The firing rule (Berthomieu-Diaz 1991, in DBM form):

1. ``f`` is *firable* from ``(m, D)`` iff ``D ∧ {θ_f ≤ θ_j ∀ j enabled}``
   is consistent;
2. the successor domain is obtained from that conjunction by the change of
   variables ``θ'_j = θ_j − θ_f`` for *persisting* transitions — in DBM
   terms, their new bounds against the reference are their old bounds
   against ``θ_f`` — dropping ``f`` and the disabled transitions, and
   adding fresh ``[eft, lft]`` variables for newly enabled ones;
3. canonicalization (all-pairs shortest paths) makes the representation
   unique.

Persistence uses the standard rule: ``t`` persists over the firing of
``f`` iff ``t ≠ f`` and ``t`` stays enabled in the intermediate marking
``m − •f``; every other transition enabled in the successor marking is
*newly* enabled and has its clock reset.
"""

from __future__ import annotations

from typing import Iterator

from repro.net.petrinet import Marking
from repro.timed.tpn import TimedPetriNet

__all__ = ["INF", "StateClass", "initial_class", "firable", "fire_class"]

#: Infinity for DBM entries (latest firing times may be unbounded).
INF = None


def _add(a: int | None, b: int | None) -> int | None:
    """Addition over ints extended with ``None`` = +∞."""
    if a is None or b is None:
        return None
    return a + b


def _le(a: int | None, b: int | None) -> bool:
    """``a <= b`` over ints extended with ``None`` = +∞."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


class StateClass:
    """An immutable state class ``(marking, canonical DBM)``.

    ``variables`` lists the enabled transition indices in sorted order;
    the DBM row/column 0 is the reference (θ = 0), row/column ``i + 1``
    corresponds to ``variables[i]``.  ``dbm[x][y]`` bounds ``θ_x − θ_y``.
    """

    __slots__ = ("marking", "variables", "dbm", "_hash")

    def __init__(
        self,
        marking: Marking,
        variables: tuple[int, ...],
        dbm: tuple[tuple[int | None, ...], ...],
    ) -> None:
        self.marking = marking
        self.variables = variables
        self.dbm = dbm
        self._hash: int | None = None

    # ------------------------------------------------------------------
    def enabled(self) -> tuple[int, ...]:
        """Transition indices enabled in this class's marking."""
        return self.variables

    def delay_bounds(self, t: int) -> tuple[int, int | None]:
        """Remaining-delay interval ``[lo, hi]`` of enabled ``t``."""
        index = self.variables.index(t) + 1
        upper = self.dbm[index][0]
        lower_neg = self.dbm[0][index]  # θ0 - θ_t <= ... => θ_t >= -...
        lower = 0 if lower_neg is None else max(0, -lower_neg)
        return (lower, upper)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateClass):
            return NotImplemented
        return (
            self.marking == other.marking
            and self.variables == other.variables
            and self.dbm == other.dbm
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.marking, self.variables, self.dbm))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"StateClass(|m|={len(self.marking)}, "
            f"enabled={list(self.variables)})"
        )


def _canonicalize(
    matrix: list[list[int | None]],
) -> list[list[int | None]] | None:
    """Floyd-Warshall closure; ``None`` result means inconsistent."""
    n = len(matrix)
    for k in range(n):
        row_k = matrix[k]
        for i in range(n):
            d_ik = matrix[i][k]
            if d_ik is None:
                continue
            row_i = matrix[i]
            for j in range(n):
                candidate = _add(d_ik, row_k[j])
                if candidate is not None and not _le(row_i[j], candidate):
                    row_i[j] = candidate
    for i in range(n):
        diagonal = matrix[i][i]
        if diagonal is not None and diagonal < 0:
            return None
        matrix[i][i] = 0
    return matrix


def initial_class(tpn: TimedPetriNet) -> StateClass:
    """The initial state class: static intervals of the enabled set."""
    marking = tpn.net.initial_marking
    variables = tuple(sorted(tpn.net.enabled_transitions(marking)))
    n = len(variables) + 1
    matrix: list[list[int | None]] = [[INF] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = 0
    for index, t in enumerate(variables, start=1):
        matrix[index][0] = tpn.lft(t)
        matrix[0][index] = -tpn.eft(t)
    closed = _canonicalize(matrix)
    assert closed is not None, "static intervals cannot be inconsistent"
    return StateClass(marking, variables, tuple(tuple(row) for row in closed))


def _constrained_matrix(
    cls: StateClass, f_index: int
) -> list[list[int | None]] | None:
    """``D ∧ {θ_f − θ_j ≤ 0 ∀ j}``, canonicalized (None = not firable)."""
    n = len(cls.variables) + 1
    matrix = [list(row) for row in cls.dbm]
    for j in range(1, n):
        if j != f_index and not _le(matrix[f_index][j], 0):
            matrix[f_index][j] = 0
    return _canonicalize(matrix)


def firable(tpn: TimedPetriNet, cls: StateClass, t: int) -> bool:
    """Can ``t`` fire first from this class?"""
    if t not in cls.variables:
        return False
    f_index = cls.variables.index(t) + 1
    return _constrained_matrix(cls, f_index) is not None


def fire_class(
    tpn: TimedPetriNet,
    cls: StateClass,
    t: int,
    *,
    bits: int | None = None,
) -> StateClass | None:
    """Successor state class after firing ``t``, or ``None`` if unfirable.

    The marking steps — firing, the intermediate marking ``m − •f``, the
    persistence subset tests and the new enabled set — run on the net's
    :class:`~repro.net.kernel.MarkingKernel` over packed integers
    (``bits`` may pass the caller's already-encoded marking).
    """
    if t not in cls.variables:
        return None
    f_index = cls.variables.index(t) + 1
    constrained = _constrained_matrix(cls, f_index)
    if constrained is None:
        return None

    kernel = tpn.net.kernel()
    if bits is None:
        bits = kernel.encode(cls.marking)
    new_bits = kernel.fire(t, bits)
    intermediate_bits = bits & kernel.clear_mask[t]
    pre_mask = kernel.pre_mask
    persisting = [
        u
        for u in cls.variables
        if u != t and intermediate_bits & pre_mask[u] == pre_mask[u]
    ]
    # kernel.enabled_transitions is ascending == sorted.
    new_variables = tuple(kernel.enabled_transitions(new_bits))
    new_marking = kernel.decode(new_bits)
    persisting_set = set(persisting)

    # Old DBM indices of the persisting transitions.
    old_index = {u: cls.variables.index(u) + 1 for u in persisting}
    n = len(new_variables) + 1
    matrix: list[list[int | None]] = [[INF] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = 0
    for i, u in enumerate(new_variables, start=1):
        if u in persisting_set:
            oi = old_index[u]
            # θ'_u = θ_u − θ_f: bounds against the new reference are the
            # old bounds against θ_f.
            matrix[i][0] = constrained[oi][f_index]
            matrix[0][i] = constrained[f_index][oi]
            # Clocks keep running: remaining delays are non-negative.
            if not _le(matrix[0][i], 0):
                matrix[0][i] = 0
        else:
            matrix[i][0] = tpn.lft(u)
            matrix[0][i] = -tpn.eft(u)
    for i, u in enumerate(new_variables, start=1):
        if u not in persisting_set:
            continue
        for j, v in enumerate(new_variables, start=1):
            if v not in persisting_set or i == j:
                continue
            # Differences between persisting delays are unchanged.
            matrix[i][j] = constrained[old_index[u]][old_index[v]]
    closed = _canonicalize(matrix)
    if closed is None:  # cannot happen for a consistent firing
        return None
    return StateClass(
        new_marking, new_variables, tuple(tuple(row) for row in closed)
    )


def successors(
    tpn: TimedPetriNet, cls: StateClass
) -> Iterator[tuple[int, StateClass]]:
    """All ``(transition, successor class)`` pairs firable from ``cls``."""
    for t in cls.variables:
        successor = fire_class(tpn, cls, t)
        if successor is not None:
            yield (t, successor)
