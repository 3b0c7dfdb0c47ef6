"""Compiled bitmask marking kernel for safe nets.

The frozenset firing rules in :mod:`repro.net.petrinet` are the *reference
implementation*: readable, directly checked against the paper's
definitions, and the specification the differential tests hold this
kernel to.  This module is the fast path every explicit explorer runs
on: a :class:`MarkingKernel` is built once per net and packs a safe-net
marking into a single Python ``int`` — bit ``p`` set iff place ``p``
holds its token — with per-transition masks precompiled so the hot loop
is pure integer algebra:

* **enabling** (Def. 2.3) — ``m & pre_mask[t] == pre_mask[t]``;
* **firing** (Def. 2.4) — ``(m & clear_mask[t]) | post_mask[t]`` with the
  1-safety violation check ``m & clear_mask[t] & post_mask[t]`` (a set
  bit is a place that already holds a token and is not consumed by
  ``t`` — exactly the ``(m − •t) ∩ t•`` conflict of the reference rule);
* **successor generation** — one fused pass per marking; the enabling
  test is performed exactly once per transition (the reference
  ``PetriNet.successors`` historically re-checked it inside ``fire``);
* **incremental enabling** — after firing ``t`` only the transitions in
  ``affected[t]`` (those whose preset touches ``•t ∪ t•``) can change
  their enabling status, so a successor's enabled set is derived from its
  predecessor's in O(affected) instead of O(|T|·|preset|) per state.

The packed representation never leaves the exploration layer: explorers
carry ``int`` states internally and convert back to the classical
``frozenset`` :data:`~repro.net.petrinet.Marking` via :meth:`decode` only
at the reachability-graph / witness / report boundary.

Index tables (``pre_index`` / ``post_index`` / ``consumers`` / ...) expose
the same structure as sorted tuples for explorers whose states are not
plain markings (GPN scenario families, timed state classes) but whose
inner loops still iterate presets and postsets per transition.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.net.exceptions import NotEnabledError, UnsafeNetError
from repro.net.petrinet import Marking, PetriNet

__all__ = ["CLOSURE_MEMO_CAP", "MarkingKernel", "iter_bits"]

#: Upper bound on distinct ``(enabled_mask, seed)`` keys the closure
#: memo stores per kernel.  NSDP(8) needs ~56k entries (~10 MB); the cap
#: keeps million-state nets from trading unbounded memory for hits.
CLOSURE_MEMO_CAP = 1 << 18


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, in ascending order.

    Ascending order is what makes the kernel path yield transitions in
    index order — the same deterministic order the reference
    ``PetriNet.enabled_transitions`` produces.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class MarkingKernel:
    """Per-net compiled tables for integer-marking exploration.

    Build once via :meth:`PetriNet.kernel` (cached on the net); all tables
    are immutable tuples, so a kernel is safe to share between explorers.

    Attributes
    ----------
    pre_mask / post_mask:
        Per transition, the bitmask of its input / output places
        (``•t`` and ``t•``).
    clear_mask:
        ``~pre_mask[t]``; ``m & clear_mask[t]`` removes the consumed
        tokens (Python's arbitrary-precision AND keeps the result exact
        for any net size).
    self_loop_mask:
        ``pre_mask[t] & post_mask[t]`` — places that keep their token.
    affected:
        Per transition ``t``, the ascending tuple of transitions ``u``
        whose preset intersects ``•t ∪ t•`` — the only transitions whose
        enabling can change when ``t`` fires.
    consumers:
        Per place ``p``, the ascending tuple of transitions consuming
        from ``p`` (``p•`` — the place→consumers index).
    conflicters_mask / producers_mask / scapegoat_plan:
        Precompiled stubborn-set closure tables: per transition the
        conflicter bitmask (D2), per place the producer bitmask (D1) and
        per transition the sorted D1 scapegoat candidate scan.  See
        :meth:`stubborn_closure`.
    pre_index / post_index / pre_not_post_index / post_not_pre_index:
        Sorted index-tuple views of the presets/postsets for explorers
        that iterate them per transition without packing states.
    initial:
        The packed initial marking ``m0``.
    """

    __slots__ = (
        "net",
        "num_places",
        "num_transitions",
        "pre_mask",
        "post_mask",
        "clear_mask",
        "self_loop_mask",
        "affected",
        "_affected_tests",
        "consumers",
        "producers",
        "conflicters_mask",
        "producers_mask",
        "scapegoat_plan",
        "closure_mask",
        "pre_index",
        "post_index",
        "pre_not_post_index",
        "post_not_pre_index",
        "initial",
        "stat_fires",
        "stat_full_scans",
        "stat_incremental",
        "stat_closure_iterations",
        "stat_closure_memo_hits",
        "_closure_memo",
    )

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self.num_places: int = net.num_places
        self.num_transitions: int = net.num_transitions
        pre_masks: List[int] = []
        post_masks: List[int] = []
        for t in range(net.num_transitions):
            pre = 0
            for p in net.pre_places[t]:
                pre |= 1 << p
            post = 0
            for p in net.post_places[t]:
                post |= 1 << p
            pre_masks.append(pre)
            post_masks.append(post)
        self.pre_mask: Tuple[int, ...] = tuple(pre_masks)
        self.post_mask: Tuple[int, ...] = tuple(post_masks)
        self.clear_mask: Tuple[int, ...] = tuple(~m for m in pre_masks)
        self.self_loop_mask: Tuple[int, ...] = tuple(
            pre & post for pre, post in zip(pre_masks, post_masks)
        )
        self.affected: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                u
                for u in range(net.num_transitions)
                if pre_masks[u] & (pre_masks[t] | post_masks[t])
            )
            for t in range(net.num_transitions)
        )
        # Hot-loop companion of ``affected``: per affected transition u the
        # triple (pre_mask[u], 1 << u, ~(1 << u)) so the incremental update
        # does no table indexing or shifting per re-test.
        self._affected_tests: Tuple[Tuple[Tuple[int, int, int], ...], ...] = (
            tuple(
                tuple(
                    (pre_masks[u], 1 << u, ~(1 << u))
                    for u in affected_t
                )
                for affected_t in self.affected
            )
        )
        self.consumers: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(net.post_transitions[p]))
            for p in range(net.num_places)
        )
        self.producers: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(net.pre_transitions[p]))
            for p in range(net.num_places)
        )
        # Stubborn-set closure tables (rules D1/D2, see
        # :mod:`repro.stubborn.stubborn`).  ``conflicters_mask[t]`` packs
        # the transitions sharing an input place with ``t`` (minus ``t``
        # itself) — exactly ``StructuralInfo.conflicters(t)`` — so the D2
        # step of the closure is one mask union.  ``producers_mask[p]``
        # packs the producers of place ``p`` for the D1 step.
        consumers_masks: List[int] = []
        producers_masks: List[int] = []
        for p in range(net.num_places):
            cmask = 0
            for u in net.post_transitions[p]:
                cmask |= 1 << u
            consumers_masks.append(cmask)
            pmask = 0
            for u in net.pre_transitions[p]:
                pmask |= 1 << u
            producers_masks.append(pmask)
        conflicter_masks: List[int] = []
        for t in range(net.num_transitions):
            mask = 0
            for p in net.pre_places[t]:
                mask |= consumers_masks[p]
            conflicter_masks.append(mask & ~(1 << t))
        self.conflicters_mask: Tuple[int, ...] = tuple(conflicter_masks)
        self.producers_mask: Tuple[int, ...] = tuple(producers_masks)
        # ``scapegoat_plan[t]`` precompiles the D1 scapegoat scan: the
        # input places of ``t`` as ``(place_bit, producers_mask)`` pairs,
        # stably sorted by producer count with the original ``pre_places``
        # iteration position as tie-break.  The first pair whose place is
        # unmarked is therefore *exactly* the "fewest producers, first
        # seen" scapegoat the reference rule picks — the reduced graph
        # depends on this choice, so the sort must stay stable.
        plans: List[Tuple[Tuple[int, int], ...]] = []
        for t in range(net.num_transitions):
            candidates = sorted(
                (len(net.pre_transitions[p]), position, p)
                for position, p in enumerate(net.pre_places[t])
            )
            plans.append(
                tuple((1 << p, producers_masks[p]) for _, _, p in candidates)
            )
        self.scapegoat_plan: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            plans
        )
        # ``closure_mask[t]`` — the must-include closure of ``{t}`` under
        # the *marking-independent* D2 rule alone (transitive conflicters,
        # including ``t``).  When every member happens to be enabled in
        # the current marking, the dynamic D1/D2 fixpoint from ``t``
        # never leaves this set and equals it exactly, so
        # :meth:`stubborn_closure` answers with one mask comparison.
        closure_masks: List[int] = []
        for t in range(net.num_transitions):
            mask = 1 << t
            work = conflicter_masks[t] & ~mask
            while work:
                low = work & -work
                work ^= low
                mask |= low
                u = low.bit_length() - 1
                work |= conflicter_masks[u] & ~mask
            closure_masks.append(mask)
        self.closure_mask: Tuple[int, ...] = tuple(closure_masks)
        self.pre_index: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(net.pre_places[t]))
            for t in range(net.num_transitions)
        )
        self.post_index: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(net.post_places[t]))
            for t in range(net.num_transitions)
        )
        self.pre_not_post_index: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(net.pre_places[t] - net.post_places[t]))
            for t in range(net.num_transitions)
        )
        self.post_not_pre_index: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(net.post_places[t] - net.pre_places[t]))
            for t in range(net.num_transitions)
        )
        self.initial: int = self.encode(net.initial_marking)
        # Successor-pass counters for the observability layer: checked
        # firings, full O(|T|) enabling scans, incremental O(affected)
        # updates.  Plain int increments — the kernel is shared between
        # explorers, so the numbers aggregate per net.
        self.stat_fires: int = 0
        self.stat_full_scans: int = 0
        self.stat_incremental: int = 0
        self.stat_closure_iterations: int = 0
        self.stat_closure_memo_hits: int = 0
        # Replay memo for dynamic closures, keyed by (enabled_mask,
        # seed_bit); see ``stubborn_closure``.  Lazily built like the
        # rest of the kernel's tables and capped so huge nets cannot
        # grow it without bound.
        self._closure_memo: dict[
            Tuple[int, int], List[Tuple[int, int, int]]
        ] = {}

    # ------------------------------------------------------------------
    # Packing boundary
    # ------------------------------------------------------------------
    def encode(self, marking: Marking) -> int:
        """Pack a classical frozenset marking into the int representation."""
        bits = 0
        for p in marking:
            bits |= 1 << p
        return bits

    def decode(self, bits: int) -> Marking:
        """Unpack an int marking back into the classical frozenset form."""
        return frozenset(iter_bits(bits))

    # ------------------------------------------------------------------
    # Dynamics (bitmask forms of Defs. 2.3 / 2.4)
    # ------------------------------------------------------------------
    def is_enabled(self, transition: int, bits: int) -> bool:
        """Enabling rule: all input-place bits set in ``bits``."""
        pre = self.pre_mask[transition]
        return bits & pre == pre

    def enabled_transitions(self, bits: int) -> List[int]:
        """All enabled transitions in index order (full scan)."""
        self.stat_full_scans += 1
        return [
            t
            for t, pre in enumerate(self.pre_mask)
            if bits & pre == pre
        ]

    def enabled_mask(self, bits: int) -> int:
        """The enabled set as a transition bitmask (full scan)."""
        self.stat_full_scans += 1
        mask = 0
        for t, pre in enumerate(self.pre_mask):
            if bits & pre == pre:
                mask |= 1 << t
        return mask

    def update_enabled_mask(self, enabled: int, fired: int, bits: int) -> int:
        """Enabled mask of ``bits``, derived incrementally.

        ``enabled`` is the enabled mask of the *predecessor* marking and
        ``bits`` the marking obtained by firing ``fired`` from it; only
        the transitions in ``affected[fired]`` are re-tested.
        """
        self.stat_incremental += 1
        for pre, bit, notbit in self._affected_tests[fired]:
            if bits & pre == pre:
                enabled |= bit
            else:
                enabled &= notbit
        return enabled

    def is_deadlocked(self, bits: int) -> bool:
        """True when no transition is enabled in ``bits``."""
        return not any(
            bits & pre == pre for pre in self.pre_mask
        )

    def fire(self, transition: int, bits: int) -> int:
        """Checked firing: raises like the reference ``PetriNet.fire``.

        :class:`NotEnabledError` when some input bit is missing;
        :class:`UnsafeNetError` when a surviving token collides with a
        produced one (lowest-index conflict place reported, matching the
        reference path byte for byte).
        """
        pre = self.pre_mask[transition]
        if bits & pre != pre:
            raise NotEnabledError(self.net.transitions[transition])
        self.stat_fires += 1
        cleared = bits & self.clear_mask[transition]
        post = self.post_mask[transition]
        conflict = cleared & post
        if conflict:
            place = (conflict & -conflict).bit_length() - 1
            raise UnsafeNetError(
                self.net.transitions[transition], self.net.places[place]
            )
        return cleared | post

    def fire_enabled(self, transition: int, bits: int) -> int:
        """Firing for a transition already known enabled (1-safety checked)."""
        self.stat_fires += 1
        cleared = bits & self.clear_mask[transition]
        post = self.post_mask[transition]
        conflict = cleared & post
        if conflict:
            place = (conflict & -conflict).bit_length() - 1
            raise UnsafeNetError(
                self.net.transitions[transition], self.net.places[place]
            )
        return cleared | post

    def successors(self, bits: int) -> List[Tuple[int, int]]:
        """All ``(transition, successor)`` pairs in one fused pass.

        The enabling test runs exactly once per transition; no
        intermediate sets are allocated.
        """
        out: List[Tuple[int, int]] = []
        clear_mask = self.clear_mask
        post_mask = self.post_mask
        for t, pre in enumerate(self.pre_mask):
            if bits & pre != pre:
                continue
            cleared = bits & clear_mask[t]
            post = post_mask[t]
            conflict = cleared & post
            if conflict:
                place = (conflict & -conflict).bit_length() - 1
                raise UnsafeNetError(
                    self.net.transitions[t], self.net.places[place]
                )
            out.append((t, cleared | post))
        self.stat_fires += len(out)
        return out

    def stubborn_closure(
        self, bits: int, seed_bit: int, enabled_mask: int | None = None
    ) -> int:
        """Close ``seed_bit`` under rules D1/D2 as a bitmask fixpoint.

        The single stubborn-set closure implementation
        (:func:`repro.stubborn.stubborn.stubborn_enabled_mask` chooses
        among its results).  The closure is a least fixpoint whose
        *result set* is independent of worklist order given the
        deterministic scapegoat plan, so replacing the historical
        per-transition worklist with mask unions keeps the reduced graph
        byte-identical.

        ``seed_bit`` is ``1 << seed`` for an enabled seed transition;
        the return value is the chosen stubborn set as a transition
        bitmask.  Each transition is processed exactly once, so the
        iteration counter advances by the closure's cardinality.

        ``enabled_mask``, when the caller already knows the full enabled
        set of ``bits``, unlocks the precomputed fast path: whenever the
        fixpoint reaches an enabled transition whose *static*
        must-include closure (conflicters only) is fully enabled, that
        whole closure is absorbed in one mask union — it equals the
        dynamic closure from that transition, because no disabled member
        can pull producers in.  Passing the mask never changes the
        result, only the cost.

        Dynamic closures are additionally memoized per ``(enabled_mask,
        seed_bit)``.  Given the enabled set, ``bits`` influences the
        fixpoint only through the scapegoat scans of disabled members,
        so each memo entry records which places those scans found marked
        and which unmarked; a stored closure is replayed exactly when
        the current marking satisfies both masks (two AND-compares),
        which makes a hit provably identical to recomputation.  The memo
        lives as long as the kernel — repeated analyses of the same net
        (differential runs, best-of-N benchmarks, the portfolio) hit it
        heavily — and stops absorbing new entries at
        ``CLOSURE_MEMO_CAP`` so huge state spaces cannot grow it without
        bound.
        """
        if enabled_mask is not None:
            closure_masks = self.closure_mask
            static = closure_masks[seed_bit.bit_length() - 1]
            if static & enabled_mask == static:
                # Seed's whole static closure enabled: answered with one
                # mask comparison, no worklist at all.
                self.stat_closure_iterations += static.bit_count()
                return static
            memo = self._closure_memo
            key = (enabled_mask, seed_bit)
            entries = memo.get(key)
            if entries is not None:
                for marked, unmarked, closure in entries:
                    if bits & marked == marked and not bits & unmarked:
                        self.stat_closure_memo_hits += 1
                        self.stat_closure_iterations += closure.bit_count()
                        return closure
            conflicters = self.conflicters_mask
            plans = self.scapegoat_plan
            marked_acc = 0
            unmarked_acc = 0
            stubborn = 0
            work = seed_bit
            while work:
                low = work & -work
                work ^= low
                stubborn |= low
                t = low.bit_length() - 1
                if enabled_mask & low:
                    static = closure_masks[t]
                    if static & enabled_mask == static:
                        # Static closure fully enabled: it is exactly
                        # the dynamic closure from t — absorb wholesale
                        # and strike its members from the worklist.
                        stubborn |= static
                        work &= ~static
                    else:
                        # D2: pull in everything that can disable t.
                        work |= conflicters[t] & ~stubborn
                else:
                    # D1: first unmarked place of the precompiled
                    # candidate scan is the fewest-producers scapegoat;
                    # pull in its producers.  Places the scan skips over
                    # were marked, the scapegoat unmarked — together the
                    # replay condition of the memo entry below.
                    for place_bit, producers in plans[t]:
                        if bits & place_bit:
                            marked_acc |= place_bit
                        else:
                            unmarked_acc |= place_bit
                            work |= producers & ~stubborn
                            break
                    else:
                        raise AssertionError(
                            "disabled transition must have an unmarked input"
                        )
            self.stat_closure_iterations += stubborn.bit_count()
            if entries is not None:
                entries.append((marked_acc, unmarked_acc, stubborn))
            elif len(memo) < CLOSURE_MEMO_CAP:
                memo[key] = [(marked_acc, unmarked_acc, stubborn)]
            return stubborn
        pre_mask = self.pre_mask
        conflicters = self.conflicters_mask
        plans = self.scapegoat_plan
        stubborn = 0
        work = seed_bit
        while work:
            low = work & -work
            work ^= low
            stubborn |= low
            t = low.bit_length() - 1
            pre = pre_mask[t]
            if bits & pre == pre:
                # D2: pull in everything that can disable t.
                work |= conflicters[t] & ~stubborn
            else:
                # D1: first unmarked place of the precompiled candidate
                # scan is the fewest-producers scapegoat; pull in its
                # producers.
                for place_bit, producers in plans[t]:
                    if not bits & place_bit:
                        work |= producers & ~stubborn
                        break
                else:
                    raise AssertionError(
                        "disabled transition must have an unmarked input"
                    )
        self.stat_closure_iterations += stubborn.bit_count()
        return stubborn

    def stats(self) -> dict[str, int]:
        """Successor-pass counters (reset-free, aggregated per net)."""
        return {
            "fires": self.stat_fires,
            "full_scans": self.stat_full_scans,
            "incremental_updates": self.stat_incremental,
            "closure_iterations": self.stat_closure_iterations,
        }

    def __repr__(self) -> str:
        return (
            f"MarkingKernel({self.net.name!r}, |P|={self.num_places}, "
            f"|T|={self.num_transitions})"
        )
