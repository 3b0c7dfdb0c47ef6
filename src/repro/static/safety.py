"""Structural 1-safeness certification from P-invariants.

The paper's entire theory (Defs. 2.1–2.4 and the GPN semantics of §3)
assumes 1-safe nets, but proving 1-safeness dynamically is itself a
reachability problem — the very explosion the analyzers are built to
avoid.  P-invariants close the loop structurally: if ``y`` is a
non-negative P-invariant then ``y·m = y·m0`` for *every* reachable
marking ``m`` (general place/transition semantics, so the argument is not
circular through the safe-marking representation).  With non-negative
weights this gives the per-place bound

    m(p) ≤ floor( (y·m0) / y(p) )        whenever y(p) > 0,

so a place is **covered** when some invariant yields a bound of 1 — in
the simplest and most common form, ``y(p) ≥ 1`` with ``y·m0 = 1`` (one
conservation component carrying exactly one token).  When every place is
covered the net is structurally certified 1-safe: no reachable marking
can ever put a second token anywhere, hence the kernel's
:class:`~repro.net.exceptions.UnsafeNetError` is unreachable and the
safe-marking representation is exact.

The full minimal-support basis can be huge (ASAT(8) has 4730 rays) while
a cover needs a few dozen, so without a given basis the certificate is
searched **covering-first**: for the first place not yet covered, a
bounded depth-first search grows a unit-token semiflow candidate ``S``
through it (see :func:`_unit_flow`), the Farkas elimination runs on the
columns of ``S`` alone, and today's bound rule is applied to the local
rays.  A minimal-support ray of that local system is a minimal-support
P-invariant of the whole net in gcd-1 form — a global invariant with a
smaller support would also solve the local system — so it is a member
of the full basis, and a covering-first certificate implies the
full-basis one.  Whenever a place stays uncovered (or a local
elimination hits its cap) the full-basis certificate is returned
unchanged, so the ``certified`` bit never differs from the full basis
(except where a capped full basis misses a covering ray).

The certificate is *sound but incomplete*: an uncovered place is not
evidence of unsafety (there are 1-safe nets without a covering invariant
basis, and the basis itself may be capped).  Callers fall back to the
bounded dynamic check of :func:`repro.net.validation.check_safe` in that
case — see :func:`assured_safety`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.net.petrinet import PetriNet
from repro.net.validation import check_safe
from repro.static.invariants import Invariant, InvariantBasis, farkas

__all__ = ["SafetyCertificate", "certify_safety", "assured_safety"]

#: Search nodes one covering search may visit before its place counts as
#: uncovered.  The Table 1 nets need at most a few dozen per place.
COVER_NODE_BUDGET = 1_000

#: Row cap of one local Farkas elimination; hitting it falls back to the
#: full basis rather than risk a local blow-up.
LOCAL_MAX_ROWS = 2_000


@dataclass(frozen=True)
class SafetyCertificate:
    """A (possibly failed) structural proof of 1-safeness.

    ``certified`` is True when every place has a structural token bound
    of 1.  ``bounds`` maps each place index to its best bound over the
    invariants the certificate looked at (``None`` when none of them
    covers it) — the whole basis when one was given or the covering
    search fell back to it, otherwise only the local rays, so a
    covering-first bound may exceed the full-basis one.  ``covering``
    maps each certified place to the index of one invariant establishing
    its bound: an index into the basis on the basis path, and into the
    local rays in the order the covering search found them otherwise.
    ``basis_capped`` records that the invariant computation hit its row
    budget — the certificate is still sound when it certifies, but a
    failure to certify may then be an artifact of the incomplete basis.
    """

    certified: bool
    bounds: dict[int, int | None]
    covering: dict[int, int]
    uncovered: tuple[int, ...]
    basis_capped: bool

    def explain(self, net: PetriNet) -> str:
        """One-paragraph human-readable account of the verdict."""
        if self.certified:
            distinct = len(set(self.covering.values()))
            return (
                f"structurally 1-safe: every place is covered by a "
                f"P-invariant with token count 1 "
                f"({distinct} covering invariant(s))"
            )
        names = ", ".join(
            net.places[p] for p in self.uncovered[:5]
        )
        suffix = ", ..." if len(self.uncovered) > 5 else ""
        cap_note = " (invariant basis capped)" if self.basis_capped else ""
        return (
            f"no structural certificate: {len(self.uncovered)} place(s) "
            f"not covered by a unit-token P-invariant ({names}{suffix})"
            f"{cap_note}"
        )


def certify_safety(
    net: PetriNet, *, basis: InvariantBasis | None = None
) -> SafetyCertificate:
    """Try to certify 1-safeness of ``net`` from its P-invariants.

    Purely structural — no state is ever explored.  For each place the
    best bound ``floor((y·m0)/y(p))`` over invariants with ``y·m0 > 0``
    and ``y(p) > 0`` is recorded; the certificate holds when every place
    is bounded by 1.  With ``basis`` the invariants are that basis; without
    it they come from the covering-first search, which falls back to the
    net's memoized full basis when it cannot cover every place.
    """
    if basis is None:
        covered = _certify_by_covering(net)
        if covered is not None:
            return covered
        basis = net.static_analysis().p_invariants
    best: list[int | None] = [None] * net.num_places
    best_index = [0] * net.num_places
    _tighten(best, best_index, basis.invariants, net.initial_marking, 0)
    return _verdict(best, best_index, basis_capped=basis.capped)


def _tighten(
    best: list[int | None],
    best_index: list[int],
    invariants: Iterable[Invariant],
    m0: frozenset[int],
    first_index: int,
) -> None:
    """Lower ``best`` to each invariant's bound, numbering from ``first_index``."""
    for index, invariant in enumerate(invariants, first_index):
        value = invariant.value(m0)
        if value <= 0:
            continue
        weights = invariant.weights
        # Invariants are visited in order and a bound only replaces a
        # strictly larger one, so ties keep the lowest index.
        for p in invariant.support:
            bound = value // weights[p]
            current = best[p]
            if current is None or bound < current:
                best[p] = bound
                best_index[p] = index


def _verdict(
    best: list[int | None], best_index: list[int], *, basis_capped: bool
) -> SafetyCertificate:
    """Package the per-place best bounds as a certificate."""
    bounds: dict[int, int | None] = {}
    covering: dict[int, int] = {}
    uncovered: list[int] = []
    for p, place_bound in enumerate(best):
        bounds[p] = place_bound
        if place_bound is not None and place_bound <= 1:
            covering[p] = best_index[p]
        else:
            uncovered.append(p)
    return SafetyCertificate(
        certified=not uncovered,
        bounds=bounds,
        covering=covering,
        uncovered=tuple(uncovered),
        basis_capped=basis_capped,
    )


def _certify_by_covering(net: PetriNet) -> SafetyCertificate | None:
    """Certify from local unit-token semiflows, or ``None`` to fall back.

    Places are scanned in index order; each one no ray found so far
    covers gets its own candidate set and local elimination, whose rays
    may cover many later places at once.
    """
    m0 = net.initial_marking
    gain = [post - pre for pre, post in zip(net.pre_places, net.post_places)]
    loss = [pre - post for pre, post in zip(net.pre_places, net.post_places)]
    best: list[int | None] = [None] * net.num_places
    best_index = [0] * net.num_places
    found = 0
    for p in range(net.num_places):
        bound = best[p]
        if bound is not None and bound <= 1:
            continue
        support = _unit_flow(net, p, gain, loss)
        if support is None:
            return None
        rays = _local_rays(net, support, gain, loss)
        if rays is None:
            return None
        _tighten(best, best_index, rays, m0, found)
        found += len(rays)
        bound = best[p]
        if bound is None or bound > 1:
            return None
    return _verdict(best, best_index, basis_capped=False)


def _unit_flow(
    net: PetriNet,
    p: int,
    gain: list[frozenset[int]],
    loss: list[frozenset[int]],
) -> list[int] | None:
    """Places of a unit-token semiflow through ``p``, or ``None``.

    Depth-first search over place sets ``S ∋ p``.  While some transition
    is unbalanced on ``S`` — ``|t•∩S| ≠ |•t∩S|``, self-loop places not
    counted — branch over the places on its short side that could
    balance it, taking the transition with the fewest such places first.
    At most one initially marked place may join ``S``, and the search
    succeeds on the first balanced ``S`` holding one: its unit weighting
    is a P-invariant with ``y·m0 = 1``.  Gives up after
    :data:`COVER_NODE_BUDGET` nodes.
    """
    marked = net.initial_marking
    chosen: list[int] = []
    members: set[int] = set()
    # |t•∩S| − |•t∩S| per transition, zero entries dropped.
    excess: dict[int, int] = {}

    def shift(q: int, step: int) -> None:
        for t in net.pre_transitions[q]:
            if q in gain[t]:
                excess[t] = excess.get(t, 0) + step
                if not excess[t]:
                    del excess[t]
        for t in net.post_transitions[q]:
            if q in loss[t]:
                excess[t] = excess.get(t, 0) - step
                if not excess[t]:
                    del excess[t]

    def push(q: int) -> None:
        chosen.append(q)
        members.add(q)
        shift(q, 1)

    def pop() -> None:
        q = chosen.pop()
        members.discard(q)
        shift(q, -1)

    push(p)
    frames: list[list[int]] = []
    for _ in range(COVER_NODE_BUDGET):
        has_marked = not marked.isdisjoint(members)
        options: list[int] | None = None
        for t, surplus in excess.items():
            side = loss[t] if surplus > 0 else gain[t]
            fits = [
                q
                for q in side
                if q not in members and not (has_marked and q in marked)
            ]
            if options is None or len(fits) < len(options):
                options = fits
                if not fits:
                    break
        if options is None:
            if has_marked:
                return sorted(chosen)
            options = []
        if options:
            # Stacked in reverse so ``pop()`` tries places in index order.
            options.sort(reverse=True)
            push(options.pop())
            frames.append(options)
            continue
        # Dead end: retract to the deepest frame with an untried place.
        while frames and not frames[-1]:
            frames.pop()
            pop()
        if not frames:
            return None
        pop()
        push(frames[-1].pop())
    return None


def _local_rays(
    net: PetriNet,
    support: list[int],
    gain: list[frozenset[int]],
    loss: list[frozenset[int]],
) -> list[Invariant] | None:
    """Minimal-support P-invariants with support inside ``support``.

    Farkas on the columns of ``support`` with one row per transition
    touching it (a self-loop-only row is all zero); ``None`` when the
    elimination hits :data:`LOCAL_MAX_ROWS`.
    """
    column = {q: i for i, q in enumerate(support)}
    touching: set[int] = set()
    for q in support:
        touching |= net.pre_transitions[q] | net.post_transitions[q]
    matrix: list[list[int]] = []
    for t in sorted(touching):
        row = [0] * len(support)
        for q in gain[t]:
            if q in column:
                row[column[q]] = 1
        for q in loss[t]:
            if q in column:
                row[column[q]] = -1
        matrix.append(row)
    # An isolated place has no rows; the zero row keeps its unit ray,
    # as in :func:`~repro.static.invariants.p_invariants`.
    rays, capped = farkas(
        matrix or [[0] * len(support)], max_rows=LOCAL_MAX_ROWS
    )
    if capped:
        return None
    invariants: list[Invariant] = []
    for ray in rays:
        weights = [0] * net.num_places
        for q, weight in zip(support, ray):
            weights[q] = weight
        invariants.append(Invariant(weights=tuple(weights)))
    return invariants


def assured_safety(
    net: PetriNet,
    *,
    certificate: SafetyCertificate | None = None,
    max_states: int = 100_000,
) -> tuple[str, str]:
    """Decide 1-safeness: structural certificate first, dynamics second.

    Returns ``(status, source)`` with ``status`` one of ``"safe"`` /
    ``"unsafe"`` / ``"unknown"`` and ``source`` either ``"structural"``
    (certificate, zero states explored) or ``"dynamic"`` (the bounded
    exploration of :func:`repro.net.validation.check_safe`, whose
    tri-state verdict is forwarded as-is).
    """
    if certificate is None:
        certificate = certify_safety(net)
    if certificate.certified:
        return "safe", "structural"
    return check_safe(net, max_states=max_states).status, "dynamic"
