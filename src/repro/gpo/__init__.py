"""Generalized Partial Order analysis — the paper's contribution (§3).

Public surface:

* :class:`Gpn` / :class:`GpnState` — Generalized Petri Nets (Def. 3.1);
* :func:`s_enabled` / :func:`single_fire` — single firing (Defs. 3.2-3.3);
* :func:`m_enabled` / :func:`multiple_fire` — multiple firing (3.5-3.6);
* :func:`mapping` — GPN state -> set of classical markings (Def. 3.4);
* :func:`explore_gpo` / :func:`analyze` — the §3.3 analysis procedure.
"""

from repro.gpo.analysis import GpoOptions, GpoResult, analyze, explore_gpo
from repro.gpo.candidates import candidate_mcs, single_enabled_mcs
from repro.gpo.gpn import Gpn, GpnState
from repro.gpo.mapping import mapping, mapping_named, scenario_marking
from repro.gpo.semantics import (
    dead_scenarios,
    enabled_families,
    m_enabled,
    multiple_fire,
    s_enabled,
    single_fire,
)

__all__ = [
    "Gpn",
    "GpnState",
    "GpoOptions",
    "GpoResult",
    "analyze",
    "explore_gpo",
    "s_enabled",
    "m_enabled",
    "single_fire",
    "multiple_fire",
    "enabled_families",
    "dead_scenarios",
    "mapping",
    "mapping_named",
    "scenario_marking",
    "candidate_mcs",
    "single_enabled_mcs",
]
