"""Tests for the top-level public API (`repro` package surface)."""

import pytest

import repro
from repro import NetBuilder, parse_net, verify
from repro.models import choice_net, rw


class TestVerify:
    @pytest.mark.parametrize(
        "method", ["gpo", "full", "stubborn", "symbolic", "unfolding", "parallel"]
    )
    def test_methods_agree(self, method):
        assert verify(choice_net(), method=method).deadlock
        assert not verify(rw(2), method=method).deadlock

    def test_default_is_gpo(self):
        assert verify(choice_net()).analyzer == "gpo"

    def test_kwargs_forwarded(self):
        assert verify(choice_net(), method="gpo").witness is not None
        result = verify(rw(3), method="full", max_states=5)
        assert not result.exhaustive and result.states == 5

    def test_unknown_method(self):
        # The message lists the engine registry verify() dispatches through.
        with pytest.raises(ValueError, match="'parallel'"):
            verify(choice_net(), method="oracle")


class TestSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        builder = NetBuilder("hello")
        builder.place("p", marked=True)
        builder.place("q")
        builder.transition("t", inputs=["p"], outputs=["q"])
        result = verify(builder.build())
        assert result.deadlock  # q is terminal

    def test_parse_and_verify(self):
        net = parse_net("place a marked\nplace b\ntrans go : a -> b\n")
        assert verify(net, method="full").states == 2


def test_doctests():
    """Run the doctest examples embedded in the public modules."""
    import doctest

    import repro as top
    import repro.analysis.stats
    import repro.gpo.gpn
    import repro.net.parser
    import repro.net.petrinet
    import repro.net.structure

    for module in (
        top,
        repro.net.petrinet,
        repro.net.parser,
        repro.net.structure,
        repro.analysis.stats,
        repro.gpo.gpn,
    ):
        failures, _ = doctest.testmod(module, verbose=False)
        assert failures == 0, module.__name__
