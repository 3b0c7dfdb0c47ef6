"""First-class property layer: one query language for every analyzer.

``repro.props`` is the single vocabulary for *what is being verified*.
A query like ``reachable(eat0 & eat1) | deadlock`` parses to an AST
(:mod:`~repro.props.ast`), normalizes to a canonical form whose text is
the cache key (:mod:`~repro.props.normalize`), compiles into per-state
predicates / DNF constraint cubes (:mod:`~repro.props.compile`), and is
screened against each analyzer's declared preservation fragment
(:mod:`~repro.props.compat`) before any state is explored.

The planner (:mod:`repro.props.decide`, imported explicitly to avoid an
import cycle with the engine) ties the layers together: structural fast
verdicts first, then the compatible engine portfolio.
"""

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
    PropFalse,
    PropNot,
    PropOr,
    Property,
    PropertyError,
    PropTrue,
    Reachable,
    Safe,
    Top,
    UnsupportedPropertyError,
    atomic_properties,
    is_atomic,
    places_of,
)
from repro.props.compat import (
    FRAGMENTS,
    decides,
    filter_methods,
    fragment_of,
    supports,
    unsupported_reason,
)
from repro.props.compile import check_places, dnf_literals, predicate_fn
from repro.props.eval import (
    HOLDS_KEY,
    PROPERTY_KEY,
    as_property,
    engine_property,
    holds_of,
    property_extras,
    run_property,
)
from repro.props.normalize import (
    canonical_text,
    normalize,
    normalize_predicate,
    property_hash,
)
from repro.props.parse import parse_property

__all__ = [
    "FRAGMENTS",
    "HOLDS_KEY",
    "PROPERTY_KEY",
    "And",
    "Bottom",
    "Bound",
    "Deadlock",
    "Invariant",
    "Marked",
    "Not",
    "Or",
    "Predicate",
    "PropAnd",
    "PropFalse",
    "PropNot",
    "PropOr",
    "PropTrue",
    "Property",
    "PropertyError",
    "Reachable",
    "Safe",
    "Top",
    "UnsupportedPropertyError",
    "as_property",
    "atomic_properties",
    "canonical_text",
    "check_places",
    "decides",
    "dnf_literals",
    "engine_property",
    "filter_methods",
    "fragment_of",
    "holds_of",
    "is_atomic",
    "normalize",
    "normalize_predicate",
    "parse_property",
    "places_of",
    "predicate_fn",
    "property_extras",
    "property_hash",
    "run_property",
    "supports",
    "unsupported_reason",
]
