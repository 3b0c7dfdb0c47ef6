"""Immutable safe Petri nets and a mutable builder.

This module implements Definition 2.1 of the paper: a Petri net is a tuple
``(P, T, F, m0)`` with places ``P``, transitions ``T``, flow relation
``F ⊆ (P×T) ∪ (T×P)`` and initial marking ``m0``.  Only *safe* (1-bounded)
nets are supported, so markings are represented as frozen sets of place
indices rather than multisets.

Places and transitions carry string names at the API surface; internally
every node is an integer index so that hot loops (enabling tests, firing,
conflict queries) work on small ints and frozensets of ints.

Example
-------
>>> from repro.net import NetBuilder
>>> b = NetBuilder("demo")
>>> b.place("p0", marked=True)
'p0'
>>> b.place("p1")
'p1'
>>> b.transition("t", inputs=["p0"], outputs=["p1"])
't'
>>> net = b.build()
>>> sorted(net.transitions)
['t']
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from repro.net.kernel import MarkingKernel
    from repro.static.analysis import StaticAnalysis

from repro.net.exceptions import (
    DuplicateNodeError,
    NetStructureError,
    NotEnabledError,
    UnknownNodeError,
    UnsafeNetError,
)

__all__ = ["PetriNet", "NetBuilder", "Marking"]

#: A marking of a safe net: the set of marked place indices.
Marking = frozenset


class PetriNet:
    """An immutable safe Petri net ``(P, T, F, m0)``.

    Instances should be created through :class:`NetBuilder` (or the parsers
    in :mod:`repro.net.parser` / :mod:`repro.net.pnml`), which validate the
    structure; the constructor here trusts its inputs.

    Attributes
    ----------
    name:
        Human-readable net name (used in reports and DOT output).
    places / transitions:
        Tuples of node names; the position of a name is its index.
    pre_places / post_places:
        Per transition index, the frozenset of input / output place indices
        (the paper's ``•t`` and ``t•``).
    pre_transitions / post_transitions:
        Per place index, the frozenset of input / output transition indices
        (``•p`` and ``p•``).
    initial_marking:
        Frozen set of initially marked place indices (``m0``).
    """

    __slots__ = (
        "name",
        "places",
        "transitions",
        "place_index",
        "transition_index",
        "pre_places",
        "post_places",
        "pre_transitions",
        "post_transitions",
        "initial_marking",
        "_hash",
        "_canonical_hash",
        "_static",
        "_kernel",
        "_num_arcs",
        "_reductions",
    )

    def __init__(
        self,
        name: str,
        places: Sequence[str],
        transitions: Sequence[str],
        pre_places: Sequence[frozenset[int]],
        post_places: Sequence[frozenset[int]],
        initial_marking: Iterable[int],
    ) -> None:
        self.name = name
        self.places: tuple[str, ...] = tuple(places)
        self.transitions: tuple[str, ...] = tuple(transitions)
        self.place_index: Mapping[str, int] = {
            p: i for i, p in enumerate(self.places)
        }
        self.transition_index: Mapping[str, int] = {
            t: i for i, t in enumerate(self.transitions)
        }
        self.pre_places: tuple[frozenset[int], ...] = tuple(pre_places)
        self.post_places: tuple[frozenset[int], ...] = tuple(post_places)

        pre_trans: list[set[int]] = [set() for _ in self.places]
        post_trans: list[set[int]] = [set() for _ in self.places]
        for t, inputs in enumerate(self.pre_places):
            for p in inputs:
                post_trans[p].add(t)  # t consumes from p, so t ∈ p•
        for t, outputs in enumerate(self.post_places):
            for p in outputs:
                pre_trans[p].add(t)  # t produces into p, so t ∈ •p
        self.pre_transitions: tuple[frozenset[int], ...] = tuple(
            frozenset(s) for s in pre_trans
        )
        self.post_transitions: tuple[frozenset[int], ...] = tuple(
            frozenset(s) for s in post_trans
        )
        self.initial_marking: Marking = frozenset(initial_marking)
        self._hash: int | None = None
        self._canonical_hash: str | None = None
        self._static: object | None = None
        self._kernel: object | None = None
        self._num_arcs: int | None = None
        self._reductions: dict[object, object] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_places(self) -> int:
        """Number of places ``|P|``."""
        return len(self.places)

    @property
    def num_transitions(self) -> int:
        """Number of transitions ``|T|``."""
        return len(self.transitions)

    @property
    def num_arcs(self) -> int:
        """Number of arcs ``|F|`` (computed once, then cached)."""
        if self._num_arcs is None:
            self._num_arcs = sum(len(s) for s in self.pre_places) + sum(
                len(s) for s in self.post_places
            )
        return self._num_arcs

    def place_id(self, name: str) -> int:
        """Return the index of place ``name`` (raises ``UnknownNodeError``)."""
        try:
            return self.place_index[name]
        except KeyError:
            raise UnknownNodeError("place", name) from None

    def transition_id(self, name: str) -> int:
        """Return the index of transition ``name``."""
        try:
            return self.transition_index[name]
        except KeyError:
            raise UnknownNodeError("transition", name) from None

    def place_name(self, index: int) -> str:
        """Return the name of the place with the given index."""
        return self.places[index]

    def transition_name(self, index: int) -> str:
        """Return the name of the transition with the given index."""
        return self.transitions[index]

    def arcs(self) -> Iterator[tuple[str, str]]:
        """Iterate over all arcs as ``(source_name, target_name)`` pairs."""
        for t, inputs in enumerate(self.pre_places):
            for p in sorted(inputs):
                yield (self.places[p], self.transitions[t])
        for t, outputs in enumerate(self.post_places):
            for p in sorted(outputs):
                yield (self.transitions[t], self.places[p])

    # ------------------------------------------------------------------
    # Dynamics (Definitions 2.3 and 2.4 of the paper)
    # ------------------------------------------------------------------
    def is_enabled(self, transition: int, marking: Marking) -> bool:
        """Enabling rule (Def. 2.3): every input place holds a token."""
        return self.pre_places[transition] <= marking

    def enabled_transitions(self, marking: Marking) -> list[int]:
        """All transitions enabled in ``marking``, in index order.

        This is the *reference implementation* of the enabling scan,
        kept deliberately close to Def. 2.3.  The exploration paths use
        the precompiled bitmask form in
        :class:`repro.net.kernel.MarkingKernel`; the differential
        test-suite holds the kernel to this one.
        """
        return [
            t
            for t in range(len(self.transitions))
            if self.pre_places[t] <= marking
        ]

    def _fire_enabled(self, transition: int, marking: Marking) -> Marking:
        """Firing for a transition already known enabled (1-safety checked)."""
        pre = self.pre_places[transition]
        post = self.post_places[transition]
        after_consume = marking - pre
        conflict_places = after_consume & post
        if conflict_places:
            place = self.places[min(conflict_places)]
            raise UnsafeNetError(self.transitions[transition], place)
        return after_consume | post

    def fire(self, transition: int, marking: Marking) -> Marking:
        """Firing rule (Def. 2.4) for safe nets — reference implementation.

        Removes a token from every input place and adds one to every output
        place.  Raises :class:`NotEnabledError` when the transition is not
        enabled and :class:`UnsafeNetError` when firing would put a second
        token into a marked place (self-loop places ``p ∈ •t ∩ t•`` keep
        their token and are fine).  The bitmask fast path is
        :meth:`repro.net.kernel.MarkingKernel.fire`.
        """
        if not self.pre_places[transition] <= marking:
            raise NotEnabledError(self.transitions[transition])
        return self._fire_enabled(transition, marking)

    def successors(self, marking: Marking) -> list[tuple[int, Marking]]:
        """All ``(transition, next_marking)`` pairs reachable in one step.

        Fires inline from the already-computed enabled list — the
        enabling test runs once per transition, not again inside the
        firing (``fire`` keeps the check for the public API).
        """
        out = []
        for t in self.enabled_transitions(marking):
            out.append((t, self._fire_enabled(t, marking)))
        return out

    def is_deadlocked(self, marking: Marking) -> bool:
        """True when no transition is enabled in ``marking``.

        Reference implementation; the exploration layer uses the
        kernel's ``enabled_mask == 0`` check instead.
        """
        return not any(
            self.pre_places[t] <= marking
            for t in range(len(self.transitions))
        )

    # ------------------------------------------------------------------
    # Name-based convenience wrappers (for examples and tests)
    # ------------------------------------------------------------------
    def marking_from_names(self, names: Iterable[str]) -> Marking:
        """Build a marking from place names."""
        return frozenset(self.place_id(n) for n in names)

    def marking_names(self, marking: Marking) -> frozenset[str]:
        """Render a marking as a frozenset of place names."""
        return frozenset(self.places[p] for p in marking)

    def fire_by_name(self, transition: str, marking: Marking) -> Marking:
        """Fire a transition given by name."""
        return self.fire(self.transition_id(transition), marking)

    # ------------------------------------------------------------------
    # Canonical structural identity
    # ------------------------------------------------------------------
    def canonical_form(self) -> str:
        """Stable structural serialization, independent of declaration order.

        Places are listed sorted by name, transitions sorted by name with
        their pre/post place names sorted, and the initial marking sorted —
        so two nets that differ only in the order places/transitions were
        declared produce the same text.  The net's ``name`` is *not* part
        of the form: it identifies structure, not labeling.
        """
        lines = ["places " + ",".join(sorted(self.places))]
        lines.append(
            "marked "
            + ",".join(sorted(self.places[p] for p in self.initial_marking))
        )
        transitions = []
        for t, name in enumerate(self.transitions):
            inputs = ",".join(
                sorted(self.places[p] for p in self.pre_places[t])
            )
            outputs = ",".join(
                sorted(self.places[p] for p in self.post_places[t])
            )
            transitions.append(f"trans {name} {inputs} -> {outputs}")
        lines.extend(sorted(transitions))
        return "\n".join(lines)

    def canonical_hash(self) -> str:
        """SHA-256 of :meth:`canonical_form` (hex digest, cached).

        This is the structural identity used by the result cache in
        :mod:`repro.engine.cache`: equal hashes mean the nets have the same
        named structure regardless of declaration order.
        """
        if self._canonical_hash is None:
            form = self.canonical_form().encode("utf-8")
            self._canonical_hash = hashlib.sha256(form).hexdigest()
        return self._canonical_hash

    # ------------------------------------------------------------------
    # Structural static analysis
    # ------------------------------------------------------------------
    def static_analysis(self) -> "StaticAnalysis":
        """The cached :class:`repro.static.analysis.StaticAnalysis` facade.

        Imported lazily to keep ``repro.net`` free of a dependency on the
        analysis layer; the instance itself computes everything lazily, so
        calling this is cheap until a specific fact is requested.
        """
        if self._static is None:
            from repro.static.analysis import StaticAnalysis

            self._static = StaticAnalysis(self)
        return self._static  # type: ignore[return-value]

    def kernel(self) -> "MarkingKernel":
        """The cached compiled :class:`repro.net.kernel.MarkingKernel`.

        Built on first use (one pass over the structure) and shared by
        every explorer running on this net; imported lazily so the
        reference dynamics above stay importable on their own.
        """
        if self._kernel is None:
            from repro.net.kernel import MarkingKernel

            self._kernel = MarkingKernel(self)
        return self._kernel  # type: ignore[return-value]

    def __getstate__(self) -> dict[str, object]:
        # Worker processes receive pickled nets; the static-analysis,
        # kernel and reduction caches (back-reference cycles) are
        # recomputable and deliberately not shipped.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_static", "_kernel", "_reductions")
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._static = None
        self._kernel = None
        self._reductions = None

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (
            self.places == other.places
            and self.transitions == other.transitions
            and self.pre_places == other.pre_places
            and self.post_places == other.post_places
            and self.initial_marking == other.initial_marking
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self.places,
                    self.transitions,
                    self.pre_places,
                    self.post_places,
                    self.initial_marking,
                )
            )
        return self._hash

    def __repr__(self) -> str:
        return (
            f"PetriNet({self.name!r}, |P|={self.num_places}, "
            f"|T|={self.num_transitions}, |F|={self.num_arcs})"
        )


class NetBuilder:
    """Mutable builder producing validated :class:`PetriNet` instances.

    The builder accepts nodes and arcs in any order; :meth:`build` validates
    the accumulated structure (no dangling arc endpoints, no transitions
    without input places unless explicitly allowed) and freezes it.

    >>> b = NetBuilder("n")
    >>> b.place("p", marked=True)
    'p'
    >>> b.transition("t", inputs=["p"], outputs=[])
    't'
    >>> b.build().num_transitions
    1
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: list[str] = []
        self._place_set: dict[str, int] = {}
        self._transitions: list[str] = []
        self._transition_set: dict[str, int] = {}
        self._pre: list[set[int]] = []
        self._post: list[set[int]] = []
        self._marked: set[int] = set()

    # ------------------------------------------------------------------
    def place(self, name: str, *, marked: bool = False) -> str:
        """Declare a place; returns the name for chaining convenience."""
        if name in self._place_set:
            raise DuplicateNodeError("place", name)
        if name in self._transition_set:
            raise DuplicateNodeError("node", name)
        index = len(self._places)
        self._places.append(name)
        self._place_set[name] = index
        if marked:
            self._marked.add(index)
        return name

    def places(self, *names: str, marked: bool = False) -> list[str]:
        """Declare several places at once."""
        return [self.place(n, marked=marked) for n in names]

    def mark(self, name: str) -> None:
        """Put the initial token into an already declared place."""
        if name not in self._place_set:
            raise UnknownNodeError("place", name)
        self._marked.add(self._place_set[name])

    def transition(
        self,
        name: str,
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
    ) -> str:
        """Declare a transition with input and output places by name.

        Places mentioned in ``inputs``/``outputs`` must already exist; this
        keeps typos from silently creating nodes.
        """
        if name in self._transition_set:
            raise DuplicateNodeError("transition", name)
        if name in self._place_set:
            raise DuplicateNodeError("node", name)
        index = len(self._transitions)
        self._transitions.append(name)
        self._transition_set[name] = index
        self._pre.append(set())
        self._post.append(set())
        for p in inputs:
            self.arc(p, name)
        for p in outputs:
            self.arc(name, p)
        return name

    def arc(self, source: str, target: str) -> None:
        """Add an arc; one endpoint must be a place, the other a transition."""
        if source in self._place_set and target in self._transition_set:
            self._pre[self._transition_set[target]].add(
                self._place_set[source]
            )
        elif source in self._transition_set and target in self._place_set:
            self._post[self._transition_set[source]].add(
                self._place_set[target]
            )
        elif source in self._place_set and target in self._place_set:
            raise NetStructureError(
                f"arc {source!r} -> {target!r} connects two places"
            )
        elif source in self._transition_set and target in self._transition_set:
            raise NetStructureError(
                f"arc {source!r} -> {target!r} connects two transitions"
            )
        else:
            # Some endpoint was never declared; report the first one.
            for endpoint in (source, target):
                if (
                    endpoint not in self._place_set
                    and endpoint not in self._transition_set
                ):
                    raise UnknownNodeError("node", endpoint)
            raise AssertionError("unreachable: both endpoints exist")

    # ------------------------------------------------------------------
    def build(self, *, allow_source_transitions: bool = False) -> PetriNet:
        """Validate and freeze the net.

        A transition with an empty preset is permanently enabled and makes
        the net unbounded under Def. 2.4; it is rejected unless
        ``allow_source_transitions`` is set (useful for structural tests).
        """
        if not allow_source_transitions:
            for t, pre in enumerate(self._pre):
                if not pre:
                    raise NetStructureError(
                        f"transition {self._transitions[t]!r} has no input "
                        "places (net would be unbounded); pass "
                        "allow_source_transitions=True to permit it"
                    )
        return PetriNet(
            self.name,
            self._places,
            self._transitions,
            [frozenset(s) for s in self._pre],
            [frozenset(s) for s in self._post],
            self._marked,
        )
