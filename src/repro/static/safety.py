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

The certificate is *sound but incomplete*: an uncovered place is not
evidence of unsafety (there are 1-safe nets without a covering invariant
basis, and the basis itself may be capped).  Callers fall back to the
bounded dynamic check of :func:`repro.net.validation.check_safe` in that
case — see :func:`assured_safety`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.petrinet import PetriNet
from repro.net.validation import check_safe
from repro.static.invariants import InvariantBasis, p_invariants

__all__ = ["SafetyCertificate", "certify_safety", "assured_safety"]


@dataclass(frozen=True)
class SafetyCertificate:
    """A (possibly failed) structural proof of 1-safeness.

    ``certified`` is True when every place has a structural token bound
    of 1.  ``bounds`` maps each place index to its best invariant-derived
    bound (``None`` when no invariant with positive weight covers it);
    ``covering`` maps each certified place to the index (into the basis)
    of one invariant establishing its bound.  ``basis_capped`` records
    that the invariant computation hit its row budget — the certificate
    is still sound when it certifies, but a failure to certify may then
    be an artifact of the incomplete basis.
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
    """Try to certify 1-safeness of ``net`` from its P-invariant basis.

    Purely structural — no state is ever explored.  For each place the
    best bound ``floor((y·m0)/y(p))`` over basis invariants with
    ``y·m0 > 0`` and ``y(p) > 0`` is recorded; the certificate holds when
    every place is bounded by 1.
    """
    if basis is None:
        basis = p_invariants(net)
    m0 = net.initial_marking
    best: list[int | None] = [None] * net.num_places
    best_index: list[int] = [0] * net.num_places
    for index, invariant in enumerate(basis.invariants):
        value = invariant.value(m0)
        if value <= 0:
            continue
        weights = invariant.weights
        # Invariants are visited in basis order and a bound only replaces
        # a strictly larger one, so ties keep the lowest index.
        for p in invariant.support:
            bound = value // weights[p]
            current = best[p]
            if current is None or bound < current:
                best[p] = bound
                best_index[p] = index
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
        basis_capped=basis.capped,
    )


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
