"""Net composition operators.

The benchmark families (:mod:`repro.models`) assemble large nets from small
per-process fragments; these operators keep that assembly declarative:

* :func:`rename` — systematic node renaming (prefixing process indices);
* :func:`parallel` — disjoint union of component nets;
* :func:`fuse_places` — merge groups of places into shared resources
  (forks, locks, channels), the standard way to model synchronization;
* :func:`monitor_net` — the paper's "safety reduces to deadlock"
  instrumentation: a one-shot monitor transition that fires exactly when
  a set of places is marked together.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.net.exceptions import NetStructureError, UnknownNodeError
from repro.net.petrinet import PetriNet

__all__ = ["rename", "parallel", "fuse_places", "prefix", "monitor_net"]


def rename(
    net: PetriNet,
    place_map: Mapping[str, str] | Callable[[str], str] | None = None,
    transition_map: Mapping[str, str] | Callable[[str], str] | None = None,
    *,
    name: str | None = None,
) -> PetriNet:
    """Return a structurally identical net with renamed nodes.

    Maps may be dicts (missing keys keep their name) or callables applied to
    every name.  Renaming must stay injective.
    """
    def resolve(mapping, value: str) -> str:
        if mapping is None:
            return value
        if callable(mapping):
            return mapping(value)
        return mapping.get(value, value)

    places = [resolve(place_map, p) for p in net.places]
    transitions = [resolve(transition_map, t) for t in net.transitions]
    if len(set(places)) != len(places):
        raise NetStructureError("place renaming is not injective")
    if len(set(transitions)) != len(transitions):
        raise NetStructureError("transition renaming is not injective")
    return PetriNet(
        name if name is not None else net.name,
        places,
        transitions,
        net.pre_places,
        net.post_places,
        net.initial_marking,
    )


def prefix(net: PetriNet, tag: str) -> PetriNet:
    """Prefix every node name with ``tag`` (e.g. ``"phil0."``)."""
    return rename(
        net,
        place_map=lambda p: tag + p,
        transition_map=lambda t: tag + t,
        name=net.name,
    )


def parallel(nets: Sequence[PetriNet], *, name: str = "parallel") -> PetriNet:
    """Disjoint union of several nets.

    Node names must be globally unique across the components (use
    :func:`prefix` to ensure this).
    """
    places: list[str] = []
    transitions: list[str] = []
    pre: list[frozenset[int]] = []
    post: list[frozenset[int]] = []
    marking: set[int] = set()

    for component in nets:
        place_offset = len(places)
        for p in component.places:
            if p in places:
                raise NetStructureError(
                    f"duplicate place {p!r} across parallel components"
                )
        for t in component.transitions:
            if t in transitions:
                raise NetStructureError(
                    f"duplicate transition {t!r} across parallel components"
                )
        places.extend(component.places)
        transitions.extend(component.transitions)
        for t in range(component.num_transitions):
            pre.append(
                frozenset(p + place_offset for p in component.pre_places[t])
            )
            post.append(
                frozenset(p + place_offset for p in component.post_places[t])
            )
        marking |= {p + place_offset for p in component.initial_marking}

    return PetriNet(name, places, transitions, pre, post, marking)


def fuse_places(
    net: PetriNet,
    groups: Iterable[Sequence[str]],
    *,
    names: Sequence[str] | None = None,
) -> PetriNet:
    """Merge each group of places into a single shared place.

    The fused place inherits the union of all arcs of its members and is
    initially marked iff any member was marked.  ``names`` optionally gives
    the fused places' names (default: the first member's name).  Groups must
    be disjoint.
    """
    groups = [list(g) for g in groups]
    if names is not None and len(names) != len(groups):
        raise NetStructureError("names must match the number of groups")

    member_of: dict[int, int] = {}
    for g, group in enumerate(groups):
        if not group:
            raise NetStructureError("empty fuse group")
        for place in group:
            if place not in net.place_index:
                raise UnknownNodeError("place", place)
            index = net.place_index[place]
            if index in member_of:
                raise NetStructureError(
                    f"place {place!r} appears in two fuse groups"
                )
            member_of[index] = g

    # New place list: fused representatives first appearance in net order,
    # untouched places keep relative order.
    new_places: list[str] = []
    old_to_new: dict[int, int] = {}
    group_new_index: dict[int, int] = {}
    for p in range(net.num_places):
        if p in member_of:
            g = member_of[p]
            if g not in group_new_index:
                label = (
                    names[g] if names is not None else net.places[net.place_index[groups[g][0]]]
                )
                group_new_index[g] = len(new_places)
                new_places.append(label)
            old_to_new[p] = group_new_index[g]
        else:
            old_to_new[p] = len(new_places)
            new_places.append(net.places[p])
    if len(set(new_places)) != len(new_places):
        raise NetStructureError("fused net has duplicate place names")

    pre = [
        frozenset(old_to_new[p] for p in net.pre_places[t])
        for t in range(net.num_transitions)
    ]
    post = [
        frozenset(old_to_new[p] for p in net.post_places[t])
        for t in range(net.num_transitions)
    ]
    marking = {old_to_new[p] for p in net.initial_marking}
    return PetriNet(net.name, new_places, net.transitions, pre, post, marking)


def monitor_net(net: PetriNet, places: Iterable[str]) -> tuple[PetriNet, str]:
    """Instrument ``net`` so marking all of ``places`` fires a monitor.

    Adds a transition consuming every named place (plus a fresh
    armed-monitor place) into a fresh goal place.  Only positive patterns
    can be observed this way: nets test token presence, not absence.

    Returns ``(instrumented_net, monitor_transition_name)``.  The property
    "these places are never marked together" becomes "the monitor
    transition never fires" — checkable with
    :func:`repro.analysis.reachability.dead_transitions` or any
    reachability analyzer.  The monitor *consumes* the bad marking; use it
    for one-shot checks, not behaviour-preserving composition.
    """
    watched = []
    for place in places:
        if place not in net.place_index:
            raise UnknownNodeError("place", place)
        watched.append(net.place_index[place])
    if not watched:
        raise ValueError("monitor_net needs at least one place")
    armed, goal = net.num_places, net.num_places + 1
    monitor_name = "__monitor__fire"
    return (
        PetriNet(
            net.name + "_monitored",
            [*net.places, "__monitor__armed", "__monitor__goal"],
            [*net.transitions, monitor_name],
            [*net.pre_places, frozenset([*watched, armed])],
            [*net.post_places, frozenset([goal])],
            net.initial_marking | {armed},
        ),
        monitor_name,
    )
