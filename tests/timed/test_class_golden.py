"""Golden state-class graphs: timed analysis must keep these exact figures.

The numbers were recorded from the analyzer as it stood when the firing
rule still had two marking representations (frozenset and bitmask), so
they pin the class graph across any change to how ``fire_class`` steps
the marking.  Every figure is a count, a class or a trace — nothing here
depends on timing or on the host.
"""

import pytest

from repro.models import nsdp, over
from repro.timed import (
    TimedNetBuilder,
    TimedPetriNet,
    analyze,
    explore_classes,
    initial_class,
)
from repro.timed.stateclass import successors


def guarded_handshake(reply_deadline: int) -> TimedPetriNet:
    """The timed_verification example's net (deadline-parameterized)."""
    b = TimedNetBuilder(f"handshake_d{reply_deadline}")
    b.place("client_idle", marked=True)
    b.place("client_waiting")
    b.place("request")
    b.place("reply")
    b.place("server_idle", marked=True)
    b.place("server_busy")
    b.place("server_flushing")
    b.transition("send_request", interval=(0, 1),
                 inputs=["client_idle"], outputs=["client_waiting", "request"])
    b.transition("receive", interval=(0, 1),
                 inputs=["request", "server_idle"], outputs=["server_busy"])
    b.transition("reply_fast", interval=(0, reply_deadline),
                 inputs=["server_busy"], outputs=["server_idle", "reply"])
    b.transition("start_flush", interval=(10, 12),
                 inputs=["server_busy"], outputs=["server_flushing"])
    b.transition("finish_flush", interval=(0, 1),
                 inputs=["server_flushing", "client_idle"],
                 outputs=["server_idle", "reply", "client_idle"])
    b.transition("get_reply", interval=(0, 2),
                 inputs=["reply", "client_waiting"], outputs=["client_idle"])
    return b.build()


def persisting_net() -> TimedPetriNet:
    """A ticking loop beside a slow one-shot: ``slow`` persists over
    ``tick``/``tock`` firings, so its clock keeps running across classes."""
    b = TimedNetBuilder("persisting")
    b.place("a0", marked=True)
    b.place("a1")
    b.place("b0", marked=True)
    b.place("b1")
    b.place("done")
    b.transition("tick", interval=(1, 2), inputs=["a0"], outputs=["a1"])
    b.transition("tock", interval=(1, 3), inputs=["a1"], outputs=["a0"])
    b.transition("slow", interval=(3, 5), inputs=["b0"], outputs=["b1"])
    b.transition("stop", interval=(0, 4), inputs=["b1", "a1"], outputs=["done"])
    return b.build()


NETS = {
    "handshake_d1": lambda: guarded_handshake(1),
    "handshake_d2": lambda: guarded_handshake(2),
    "handshake_d5": lambda: guarded_handshake(5),
    "handshake_d20": lambda: guarded_handshake(20),
    "untimed_nsdp3": lambda: TimedPetriNet.untimed(nsdp(3)),
    "untimed_over3": lambda: TimedPetriNet.untimed(over(3)),
    "persisting": persisting_net,
}

# name -> (states, edges, markings, deadlock, witness trace)
ANALYZE_GOLDEN = {
    "handshake_d1": (4, 4, 4, False, None),
    "handshake_d2": (4, 4, 4, False, None),
    "handshake_d5": (4, 4, 4, False, None),
    "handshake_d20": (5, 5, 5, True, ("send_request", "receive", "start_flush")),
    "untimed_nsdp3": (78, 198, 78, True, ("takeR'0", "takeR'1", "takeR'2")),
    "untimed_over3": (62, 120, 62, True, ("ask0", "ask1", "ask2")),
    "persisting": (12, 18, 5, True, ("tick", "slow", "stop")),
}

# name -> [(fired transition, successor marking, successor variables)]
# for ``successors(tpn, initial_class(tpn))``.
INITIAL_SUCCESSORS = {
    "handshake_d1": [
        ("send_request", ("client_waiting", "request", "server_idle"),
         ("receive",)),
    ],
    "handshake_d2": [
        ("send_request", ("client_waiting", "request", "server_idle"),
         ("receive",)),
    ],
    "handshake_d5": [
        ("send_request", ("client_waiting", "request", "server_idle"),
         ("receive",)),
    ],
    "handshake_d20": [
        ("send_request", ("client_waiting", "request", "server_idle"),
         ("receive",)),
    ],
    "untimed_nsdp3": [
        ("takeL0", ("fork1", "fork2", "hasL0", "think1", "think2"),
         ("takeR0", "takeL1", "takeR'1", "takeL2")),
        ("takeR'0", ("fork0", "fork2", "hasR0", "think1", "think2"),
         ("takeL'0", "takeR'1", "takeL2", "takeR'2")),
        ("takeL1", ("fork0", "fork2", "hasL1", "think0", "think2"),
         ("takeL0", "takeR1", "takeL2", "takeR'2")),
        ("takeR'1", ("fork0", "fork1", "hasR1", "think0", "think2"),
         ("takeL0", "takeR'0", "takeL'1", "takeR'2")),
        ("takeL2", ("fork0", "fork1", "hasL2", "think0", "think1"),
         ("takeL0", "takeR'0", "takeL1", "takeR2")),
        ("takeR'2", ("fork1", "fork2", "hasR2", "think0", "think1"),
         ("takeR'0", "takeL1", "takeR'1", "takeL'2")),
    ],
    "untimed_over3": [
        ("ask0", ("asking0", "cruise1", "cruise2", "req0"),
         ("ask1", "grant1", "ask2")),
        ("ask1", ("asking1", "cruise0", "cruise2", "req1"),
         ("ask0", "ask2", "grant2")),
        ("ask2", ("asking2", "cruise0", "cruise1", "req2"),
         ("ask0", "grant0", "ask1")),
    ],
    "persisting": [
        ("tick", ("a1", "b0"), ("tock", "slow")),
    ],
}

# The whole class graph of the persisting net in discovery order:
# (marking, variables, canonical DBM).
PERSISTING_CLASSES = [
    (("a0", "b0"), ("tick", "slow"), ((0, -1, -3), (2, 0, -1), (5, 4, 0))),
    (("a1", "b0"), ("tock", "slow"), ((0, -1, -1), (3, 0, 2), (4, 3, 0))),
    (("a0", "b0"), ("tick", "slow"), ((0, -1, 0), (2, 0, 2), (3, 2, 0))),
    (("a1", "b1"), ("tock", "stop"), ((0, 0, 0), (2, 0, 2), (4, 4, 0))),
    (("a1", "b0"), ("tock", "slow"), ((0, -1, 0), (3, 0, 3), (2, 1, 0))),
    (("a0", "b1"), ("tick",), ((0, 0), (2, 0))),
    (("a0", "b1"), ("tick",), ((0, -1), (2, 0))),
    (("done",), (), ((0,),)),
    (("a0", "b0"), ("tick", "slow"), ((0, -1, 0), (2, 0, 2), (1, 0, 0))),
    (("a1", "b1"), ("tock", "stop"), ((0, 0, 0), (3, 0, 3), (4, 4, 0))),
    (("a1", "b1"), ("tock", "stop"), ((0, -1, 0), (3, 0, 3), (4, 3, 0))),
    (("a1", "b0"), ("tock", "slow"), ((0, -1, 0), (3, 0, 3), (0, -1, 0))),
]


def _marking(tpn, marking):
    return tuple(sorted(tpn.net.marking_names(marking)))


def _variables(tpn, variables):
    return tuple(tpn.net.transitions[t] for t in variables)


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_analyze_golden(name):
    result = analyze(NETS[name]())
    trace = result.witness.trace if result.witness is not None else None
    got = (
        result.states,
        result.edges,
        result.extras["markings"],
        result.deadlock,
        trace,
    )
    assert got == ANALYZE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(INITIAL_SUCCESSORS))
def test_initial_successors_golden(name):
    tpn = NETS[name]()
    got = [
        (
            tpn.net.transitions[t],
            _marking(tpn, succ.marking),
            _variables(tpn, succ.variables),
        )
        for t, succ in successors(tpn, initial_class(tpn))
    ]
    assert got == INITIAL_SUCCESSORS[name]


def test_persisting_class_graph_golden():
    tpn = persisting_net()
    graph = explore_classes(tpn)
    got = [
        (_marking(tpn, cls.marking), _variables(tpn, cls.variables), cls.dbm)
        for cls in graph.states()
    ]
    assert got == PERSISTING_CLASSES

