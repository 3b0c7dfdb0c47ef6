"""Cross-analyzer golden matrix on the Table 1 families.

Two guarantees pin the property layer to the historical behaviour:

* **Legacy parity** — the ``"deadlock"`` query takes the pre-property
  analyzer path byte-for-byte: same verdict fields, no property extras;
* **Cross-analyzer agreement** — every analyzer that accepts a property
  and answers conclusively must give the same answer, with the
  preservation matrix governing who may answer at all (stubborn refuses
  non-deadlock questions, GPO's clean screens stay inconclusive), and
  the old special-purpose flags (``check_safe``, ``find_state``) must
  agree with the property verdicts that subsume them.
"""

from __future__ import annotations

import pytest

from repro.analysis.reachability import KernelMarkingSpace, analyze as full_analyze
from repro.engine.jobs import ANALYZERS, Budget, VerificationJob, execute_job
from repro.harness.table1 import PROBLEMS
from repro.net.validation import check_safe
from repro.props.ast import UnsupportedPropertyError
from repro.props.decide import decide
from repro.props.normalize import canonical_text
from repro.props.parse import parse_property
from repro.search.query import find_state
from repro.stubborn.explorer import analyze as stubborn_analyze
from repro.symbolic.reach import analyze as symbolic_analyze
from repro.unfolding.analysis import analyze as unfolding_analyze

BUDGET = {"max_states": 30_000, "max_seconds": 30.0}

#: One instance per Table 1 family, small enough for every analyzer.
INSTANCES = [("NSDP", 3), ("ASAT", 2), ("OVER", 2), ("RW", 6)]

#: Per-family property questions over stable index-0 place names.
MATRIX = {
    "NSDP": ["reachable(eat0)", "reachable(eat0 & eat1)",
             "invariant(!(eat0 & eat1))"],
    "ASAT": ["reachable(use0)", "invariant(!(use0 & use1))"],
    "OVER": ["reachable(passing0)", "reachable(passing0 & passing1)"],
    "RW": ["reachable(writing0)", "invariant(!(writing0 & reading0))"],
}


def _net(family: str, size: int):
    return PROBLEMS[family](size)


class TestLegacyDeadlockParity:
    @pytest.mark.parametrize("family,size", INSTANCES)
    @pytest.mark.parametrize("method", sorted(ANALYZERS))
    def test_deadlock_query_is_the_legacy_path(self, family, size, method):
        net = _net(family, size)
        budget = Budget(**BUDGET)
        legacy = execute_job(
            VerificationJob(net=net, method=method, budget=budget)
        )
        viaprop = execute_job(
            VerificationJob(
                net=net, method=method, budget=budget, query="deadlock"
            )
        )
        assert viaprop.deadlock == legacy.deadlock
        assert viaprop.exhaustive == legacy.exhaustive
        assert viaprop.states == legacy.states
        assert viaprop.edges == legacy.edges
        assert "property" not in viaprop.extras
        assert "property" not in legacy.extras


class TestCrossAnalyzerAgreement:
    @pytest.mark.parametrize(
        "family,size,text",
        [
            (family, size, text)
            for family, size in INSTANCES
            for text in MATRIX[family]
        ],
    )
    def test_conclusive_analyzers_agree(self, family, size, text):
        net = _net(family, size)
        prop = parse_property(text)
        verdicts = {}
        for name, analyze in [
            ("full", full_analyze),
            ("symbolic", symbolic_analyze),
            ("gpo", ANALYZERS["gpo"]),
            ("unfolding", unfolding_analyze),
        ]:
            kwargs = (
                {"max_events": 2_000}
                if name == "unfolding"
                else {"max_seconds": 30.0}
                if name == "symbolic"
                else dict(BUDGET)
            )
            result = analyze(net, prop=prop, **kwargs)
            assert result.property_text == canonical_text(prop)
            verdicts[name] = result.property_holds
        # Exact deciders must be conclusive on these small instances and
        # unanimous; screen-only analyzers may only add agreeing hits.
        exact = {verdicts["full"], verdicts["symbolic"], verdicts["unfolding"]}
        assert len(exact) == 1 and None not in exact, verdicts
        if verdicts["gpo"] is not None:
            assert verdicts["gpo"] == verdicts["full"], verdicts

    @pytest.mark.parametrize("family,size", INSTANCES)
    def test_stubborn_refuses_non_deadlock(self, family, size):
        net = _net(family, size)
        text = MATRIX[family][0]
        with pytest.raises(UnsupportedPropertyError):
            stubborn_analyze(net, prop=text, **BUDGET)


class TestOldFlagEquivalence:
    @pytest.mark.parametrize("family,size", INSTANCES)
    def test_check_safe_matches_safe_property(self, family, size):
        net = _net(family, size)
        verdict = check_safe(net, max_states=BUDGET["max_states"])
        decision = decide(net, "safe", budget=Budget(**BUDGET))
        assert verdict.status == "safe"
        assert decision.holds is True

    @pytest.mark.parametrize(
        "family,size,text",
        [
            (family, size, text)
            for family, size in INSTANCES
            for text in MATRIX[family]
            if text.startswith("reachable(")
        ],
    )
    def test_find_state_matches_reachable_property(self, family, size, text):
        net = _net(family, size)
        prop = parse_property(text)
        result = full_analyze(net, prop=prop, **BUDGET)
        assert result.property_holds is not None

        from repro.props.compile import predicate_fn

        hit = predicate_fn(net, prop.pred)
        space = KernelMarkingSpace(net)
        search = find_state(
            space,
            lambda bits: hit(net.marking_names(space.decode(bits))),
            max_states=BUDGET["max_states"],
        )
        assert search.reached == result.property_holds
        if result.property_holds:
            assert result.witness is not None
            assert search.trace is not None
