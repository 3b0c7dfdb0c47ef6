"""Differential tests: the local literal image against relprod ∘ rename.

The symbolic engine computes each transition's image with
:func:`repro.bdd.substitute` over current variables only.  The oracle
below is the textbook route it replaced: the relational product of the
frontier with the transition's full current/next relation, renamed
next→current.  Both must return the same node on a shared manager, for
every transition and every frontier, including self-loop places and
transitions with an empty postset.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import ONE, ZERO, relprod, rename, substitute
from repro.models import asat, nsdp, over, rw
from repro.net import NetBuilder
from repro.symbolic import SymbolicNet

from tests.conftest import safe_nets, state_machine_nets

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle_image(symnet, frontier, t):
    """``rename(∃cur. frontier ∧ rel_t, next→current)``."""
    mgr = symnet.mgr
    product = relprod(
        mgr, frontier, symnet.relations[t], symnet.current_levels()
    )
    return rename(mgr, product, symnet.next_to_current())


def conjunct_relation(symnet, t):
    """``rel_t`` as a conjunction of per-place constraints through ``ite``."""
    mgr = symnet.mgr
    pre = symnet.net.pre_places[t]
    post = symnet.net.post_places[t]
    conjuncts = []
    for p in range(symnet.net.num_places):
        cur, nxt = mgr.var(symnet.current[p]), mgr.var(symnet.nxt[p])
        if p in pre or p in post:
            conjuncts.append(cur if p in pre else mgr.not_(cur))
            conjuncts.append(nxt if p in post else mgr.not_(nxt))
        else:
            conjuncts.append(mgr.iff(cur, nxt))
    return mgr.and_all(conjuncts)


def frontiers(symnet, rng):
    """Sets to take images of: every marking, a random marking set, and
    each breadth-first frontier from the initial marking."""
    mgr = symnet.mgr
    places = range(symnet.net.num_places)
    random_markings = [
        frozenset(p for p in places if rng.random() < 0.5) for _ in range(4)
    ]
    sets = [ONE, mgr.or_all(symnet.encode_marking(m) for m in random_markings)]
    reached = frontier = symnet.encode_marking(symnet.net.initial_marking)
    while frontier != ZERO and len(sets) < 40:
        sets.append(frontier)
        image = mgr.or_all(
            oracle_image(symnet, frontier, t)
            for t in range(symnet.net.num_transitions)
        )
        frontier = mgr.diff(image, reached)
        reached = mgr.or_(reached, frontier)
    return sets


def assert_local_images_match(net, seed=0):
    symnet = SymbolicNet(net)
    for frontier in frontiers(symnet, random.Random(seed)):
        for t, literals in enumerate(symnet.image_literals):
            assert substitute(symnet.mgr, frontier, literals) == oracle_image(
                symnet, frontier, t
            )


def assert_relations_match(net):
    symnet = SymbolicNet(net)
    for t, rel in enumerate(symnet.relations):
        assert conjunct_relation(symnet, t) == rel


@st.composite
def local_nets(draw):
    """Small nets whose transitions may self-loop or have no outputs."""
    num_places = draw(st.integers(min_value=2, max_value=6))
    places = [f"p{i}" for i in range(num_places)]

    def subset(min_size):
        return st.lists(st.sampled_from(places), unique=True, min_size=min_size)

    builder = NetBuilder("local")
    for place in places:
        builder.place(place, marked=draw(st.booleans()))
    for j in range(draw(st.integers(min_value=1, max_value=5))):
        builder.transition(
            f"t{j}", inputs=draw(subset(1)), outputs=draw(subset(0))
        )
    return builder.build()


class TestLocalImage:
    def test_self_loop_and_empty_postset(self):
        builder = NetBuilder("corner")
        builder.place("a", marked=True)
        builder.place("b")
        builder.place("c", marked=True)
        builder.transition("loop", inputs=["a", "c"], outputs=["a", "b"])
        builder.transition("sink", inputs=["b"], outputs=[])
        builder.transition("hold", inputs=["c"], outputs=["c"])
        net = builder.build()
        symnet = SymbolicNet(net)
        assert symnet.image_literals[net.transition_id("sink")] == (
            (symnet.current[net.place_id("b")], True, False),
        )
        assert_local_images_match(net)

    @pytest.mark.parametrize(
        "make", [lambda: nsdp(2), lambda: asat(2), lambda: over(3), lambda: rw(6)]
    )
    def test_table1_nets(self, make):
        assert_local_images_match(make())

    @given(net=local_nets(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(**COMMON)
    def test_self_loop_nets(self, net, seed):
        assert_local_images_match(net, seed)

    @given(net=safe_nets(max_places=6, max_transitions=5))
    @settings(**COMMON)
    def test_random_nets(self, net):
        assert_local_images_match(net)

    @given(net=state_machine_nets())
    @settings(**COMMON)
    def test_state_machines(self, net):
        assert_local_images_match(net)


class TestBottomUpRelation:
    @pytest.mark.parametrize(
        "make", [lambda: nsdp(2), lambda: asat(2), lambda: over(3), lambda: rw(6)]
    )
    def test_table1_nets(self, make):
        assert_relations_match(make())

    @given(net=local_nets())
    @settings(**COMMON)
    def test_self_loop_nets(self, net):
        assert_relations_match(net)

    @given(net=state_machine_nets())
    @settings(**COMMON)
    def test_state_machines(self, net):
        assert_relations_match(net)
