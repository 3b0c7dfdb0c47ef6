"""From-scratch ROBDD engine (Bryant [2]).

Backs the symbolic reachability baseline (:mod:`repro.symbolic`) and the
compact scenario-family representation of the GPN analyzer
(:mod:`repro.families.bddfam`).
"""

from repro.bdd.expr import FALSE, TRUE, BoolExpr, Const, Var
from repro.bdd.manager import ONE, ZERO, BddManager
from repro.bdd.ops import (
    any_model,
    exists,
    forall,
    iter_models,
    relprod,
    rename,
    restrict,
    satcount,
    substitute,
)
from repro.bdd.ordering import force_order, interleaved_order

__all__ = [
    "BddManager",
    "ZERO",
    "ONE",
    "exists",
    "forall",
    "relprod",
    "rename",
    "restrict",
    "satcount",
    "substitute",
    "any_model",
    "iter_models",
    "force_order",
    "interleaved_order",
    "BoolExpr",
    "Var",
    "Const",
    "TRUE",
    "FALSE",
]
