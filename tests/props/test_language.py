"""Property-language laws: round trips, normalization, hashing.

The grammar, printer and normalizer are exercised with hypothesis over
randomly generated ASTs: ``parse(print(p)) == p``, normalization is
idempotent and semantics-preserving (under the 1-safe token-count
contract ``Bound`` folding assumes), and the canonical hash identifies
exactly the semantic-equality classes the cache relies on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.props.ast import (
    And,
    Bottom,
    Bound,
    Deadlock,
    Invariant,
    Marked,
    Not,
    Or,
    Predicate,
    PropAnd,
    Property,
    PropertyError,
    PropFalse,
    PropNot,
    PropOr,
    PropTrue,
    Reachable,
    Safe,
    Top,
)
from repro.props.normalize import (
    canonical_text,
    normalize,
    normalize_predicate,
    property_hash,
)
from repro.props.parse import parse_property

PLACES = ("a", "b", "c", "d")

_SETTINGS = settings(max_examples=120, deadline=None)


def _nary(cls):
    return lambda ops: cls(tuple(ops))


_pred_base = st.one_of(
    st.just(Top()),
    st.just(Bottom()),
    st.sampled_from(PLACES).map(Marked),
    st.builds(
        Bound,
        place=st.sampled_from(PLACES),
        op=st.sampled_from(("<=", ">=", "=")),
        k=st.integers(min_value=0, max_value=2),
    ),
)

predicates = st.recursive(
    _pred_base,
    lambda children: st.one_of(
        children.map(Not),
        st.lists(children, min_size=2, max_size=3).map(_nary(And)),
        st.lists(children, min_size=2, max_size=3).map(_nary(Or)),
    ),
    max_leaves=8,
)

_prop_base = st.one_of(
    st.just(Deadlock()),
    st.just(PropTrue()),
    st.just(PropFalse()),
    st.just(Invariant(Safe())),
    predicates.map(Reachable),
    predicates.map(Invariant),
)

properties = st.recursive(
    _prop_base,
    lambda children: st.one_of(
        children.map(PropNot),
        st.lists(children, min_size=2, max_size=3).map(_nary(PropAnd)),
        st.lists(children, min_size=2, max_size=3).map(_nary(PropOr)),
    ),
    max_leaves=6,
)


def _eval_pred(pred: Predicate, marked: frozenset[str]) -> bool:
    """Reference 1-safe semantics: token counts are 0 or 1."""
    if isinstance(pred, Top):
        return True
    if isinstance(pred, Bottom):
        return False
    if isinstance(pred, Marked):
        return pred.place in marked
    if isinstance(pred, Bound):
        count = 1 if pred.place in marked else 0
        return {
            "<=": count <= pred.k,
            ">=": count >= pred.k,
            "=": count == pred.k,
        }[pred.op]
    if isinstance(pred, Not):
        return not _eval_pred(pred.operand, marked)
    if isinstance(pred, And):
        return all(_eval_pred(op, marked) for op in pred.operands)
    if isinstance(pred, Or):
        return any(_eval_pred(op, marked) for op in pred.operands)
    raise AssertionError(f"unhandled predicate {pred!r}")


class TestRoundTrip:
    @_SETTINGS
    @given(prop=properties)
    def test_parse_print_parse_identity(self, prop: Property):
        assert parse_property(prop.text()) == prop

    @_SETTINGS
    @given(prop=properties)
    def test_canonical_text_parses_to_normal_form(self, prop: Property):
        assert parse_property(canonical_text(prop)) == normalize(prop)


class TestNormalize:
    @_SETTINGS
    @given(prop=properties)
    def test_idempotent(self, prop: Property):
        once = normalize(prop)
        assert normalize(once) == once

    @_SETTINGS
    @given(
        pred=predicates,
        marked=st.sets(st.sampled_from(PLACES)).map(frozenset),
    )
    def test_predicate_semantics_preserved(self, pred, marked):
        assert _eval_pred(normalize_predicate(pred), marked) == _eval_pred(
            pred, marked
        )

    @_SETTINGS
    @given(prop=properties)
    def test_hash_is_canonical_text_class(self, prop: Property):
        assert property_hash(prop) == property_hash(normalize(prop))

    def test_commuted_variants_share_hash(self):
        pairs = [
            ("reachable(a & b)", "reachable(b & a)"),
            ("reachable(a) | deadlock", "deadlock | reachable(a)"),
            ("invariant(!(a & b))", "invariant(!b | !a)"),
            ("reachable(a >= 1)", "reachable(a)"),
            ("!!deadlock", "deadlock"),
        ]
        for left, right in pairs:
            assert property_hash(parse_property(left)) == property_hash(
                parse_property(right)
            ), (left, right)

    def test_distinct_questions_hash_apart(self):
        texts = [
            "deadlock",
            "!deadlock",
            "reachable(a)",
            "reachable(b)",
            "invariant(a)",
            "safe",
        ]
        hashes = {property_hash(parse_property(t)) for t in texts}
        assert len(hashes) == len(texts)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "reachable(",
            "reachable()",
            "deadlock &",
            "deadlock deadlock",
            "reachable(a &)",
            "reachable(safe)",
            "invariant(safe & a)",
            "reachable(a << 2)",
            "(deadlock",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(PropertyError):
            parse_property(text)

    def test_safe_sugar_is_the_safety_invariant(self):
        assert parse_property("safe") == Invariant(Safe())
