"""The covering-first certificate against the full-basis oracle.

Without a basis, :func:`certify_safety` searches local unit-token
semiflows and only falls back to the full Farkas basis when they cannot
cover every place.  Its ``certified`` bit must equal the full-basis
certificate's everywhere, except that it may certify where the full basis
is capped (and so may miss a covering ray).
"""

from hypothesis import HealthCheck, given, settings

from repro.harness import DEFAULT_SIZES, PROBLEMS
from repro.models import asat
from repro.net import NetBuilder
from repro.static import certify_safety, p_invariants
from repro.static.safety import _local_rays, _unit_flow

from tests.conftest import safe_nets, state_machine_nets

COMMON = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TABLE1 = [
    (family, size) for family, sizes in DEFAULT_SIZES.items() for size in sizes
]


def assert_matches_full_basis(net):
    oracle = certify_safety(net, basis=p_invariants(net))
    covering = certify_safety(net)
    if oracle.basis_capped:
        assert covering.certified or not oracle.certified
    else:
        assert covering.certified == oracle.certified
    return covering


def fork_net():
    """a -> b | c, then b + c -> d: d's only cover weighs 2."""
    builder = NetBuilder("fork")
    builder.place("a", marked=True)
    builder.place("b")
    builder.place("c")
    builder.place("d")
    builder.transition("t", inputs=["a"], outputs=["b"])
    builder.transition("u", inputs=["a"], outputs=["c"])
    builder.transition("v", inputs=["b", "c"], outputs=["d"])
    return builder.build()


def unsafe_net():
    """p, q both marked; t: p -> q puts a second token on q."""
    builder = NetBuilder("unsafe")
    builder.place("p", marked=True)
    builder.place("q", marked=True)
    builder.transition("t", inputs=["p"], outputs=["q"])
    return builder.build()


class TestTable1:
    def test_every_instance_matches_and_certifies(self):
        for family, size in TABLE1:
            net = PROBLEMS[family](size)
            assert assert_matches_full_basis(net).certified, (family, size)

    def test_local_rays_are_full_basis_members(self):
        # The argument that the bit cannot change: a minimal-support ray
        # of a local system is a minimal-support invariant of the net.
        for family, size in TABLE1:
            if (family, size) == ("ASAT", 8):
                continue  # the 4730-ray basis; ASAT(4) has the same shape
            net = PROBLEMS[family](size)
            basis = {inv.weights for inv in p_invariants(net).invariants}
            gain = [post - pre for pre, post in zip(net.pre_places, net.post_places)]
            loss = [pre - post for pre, post in zip(net.pre_places, net.post_places)]
            for p in range(net.num_places):
                support = _unit_flow(net, p, gain, loss)
                assert support is not None and p in support
                rays = _local_rays(net, support, gain, loss)
                assert rays
                assert {inv.weights for inv in rays} <= basis

    def test_analyzer_path_never_builds_the_full_basis(self):
        analysis = asat(8).static_analysis()
        assert analysis.safety_certificate.certified
        assert analysis._p_invariants is None


class TestSmallNets:
    def test_fork_net_falls_back_to_the_full_basis(self):
        net = fork_net()
        certificate = assert_matches_full_basis(net)
        assert certificate.certified
        # No unit weighting balances v, so only the full basis covers d.
        assert certificate.bounds[net.place_id("d")] == 0
        assert net.static_analysis()._p_invariants is not None

    def test_unsafe_two_token_net(self):
        net = unsafe_net()
        certificate = assert_matches_full_basis(net)
        assert not certificate.certified
        # No local semiflow covers it, so the full-basis answer came back.
        assert certificate.bounds[0] == 2
        assert net.static_analysis()._p_invariants is not None

    def test_semiflow_whose_rays_miss_its_place_falls_back(self):
        # The search balances {p0, p1, p3, p5} around p3, but p3's only
        # local ray, p0 + p3, is token-free; p3 + p4 + p5 lies outside.
        builder = NetBuilder("detour")
        for name in ("p0", "p1", "p2", "p3", "p4", "p5"):
            builder.place(name, marked=name in ("p2", "p5"))
        builder.transition("t0", inputs=["p0", "p5"], outputs=["p1", "p3"])
        builder.transition("t1", inputs=["p2", "p3"], outputs=["p0", "p4"])
        net = builder.build()
        assert assert_matches_full_basis(net).certified
        assert net.static_analysis()._p_invariants is not None

    def test_isolated_marked_place_has_its_unit_ray(self):
        builder = NetBuilder("isolated")
        builder.place("lone", marked=True)
        builder.place("a", marked=True)
        builder.place("b")
        builder.transition("go", inputs=["a"], outputs=["b"])
        builder.transition("back", inputs=["b"], outputs=["a"])
        net = builder.build()
        assert assert_matches_full_basis(net).certified
        assert net.static_analysis()._p_invariants is None

    def test_net_without_transitions(self):
        builder = NetBuilder("static")
        builder.place("p", marked=True)
        builder.place("q", marked=True)
        builder.place("r")
        net = builder.build()
        # Every weighting is invariant, so the basis is the unit rays.
        assert len(p_invariants(net)) == 3
        certificate = assert_matches_full_basis(net)
        # r's unit ray carries no token, so the bound rule skips it.
        assert certificate.uncovered == (net.place_id("r"),)


@given(net=state_machine_nets())
@settings(**COMMON)
def test_state_machine_products_match(net):
    assert assert_matches_full_basis(net).certified


@given(net=safe_nets())
@settings(**COMMON)
def test_random_nets_match(net):
    assert_matches_full_basis(net)
