"""Memoized facade over the structural analyses.

One :class:`StaticAnalysis` instance per net, reachable through the cached
:meth:`repro.net.petrinet.PetriNet.static_analysis` accessor.  Every field
is computed lazily and exactly once, purely from the incidence structure
and the initial marking — **zero states are ever explored** by anything in
this module.  The analyzers consult :attr:`safety_certificate` before
exploring; the CLI's ``gpo lint`` renders the full picture.
"""

from __future__ import annotations

from repro.net.petrinet import PetriNet
from repro.static.classify import classify, mcs_consistency
from repro.static.invariants import (
    InvariantBasis,
    p_invariants,
    t_invariants,
)
from repro.static.matrix import IncidenceMatrix, incidence
from repro.static.safety import SafetyCertificate, certify_safety
from repro.static.siphons import (
    SiphonAnalysis,
    deadlock_freedom_precheck,
    minimal_siphons,
    minimal_traps,
)

__all__ = ["StaticAnalysis"]


class StaticAnalysis:
    """Lazily computed structural facts about one net.

    Obtain via ``net.static_analysis()`` (cached on the net, excluded
    from pickles so worker processes recompute locally instead of
    shipping invariant bases around).
    """

    __slots__ = (
        "net",
        "_incidence",
        "_p_invariants",
        "_t_invariants",
        "_siphons",
        "_traps",
        "_certificate",
        "_net_class",
        "_deadlock_freedom",
    )

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self._incidence: IncidenceMatrix | None = None
        self._p_invariants: InvariantBasis | None = None
        self._t_invariants: InvariantBasis | None = None
        self._siphons: SiphonAnalysis | None = None
        self._traps: SiphonAnalysis | None = None
        self._certificate: SafetyCertificate | None = None
        self._net_class: str | None = None
        self._deadlock_freedom: str | None = None

    # ------------------------------------------------------------------
    @property
    def incidence(self) -> IncidenceMatrix:
        """The exact incidence matrix ``C = C⁺ − C⁻``."""
        if self._incidence is None:
            self._incidence = incidence(self.net)
        return self._incidence

    @property
    def p_invariants(self) -> InvariantBasis:
        """Minimal-support non-negative P-invariant basis (exact)."""
        if self._p_invariants is None:
            self._p_invariants = p_invariants(self.net, matrix=self.incidence)
        return self._p_invariants

    @property
    def t_invariants(self) -> InvariantBasis:
        """Minimal-support non-negative T-invariant basis (exact)."""
        if self._t_invariants is None:
            self._t_invariants = t_invariants(self.net, matrix=self.incidence)
        return self._t_invariants

    @property
    def siphons(self) -> SiphonAnalysis:
        """Minimal siphons (capped enumeration, flag on the result)."""
        if self._siphons is None:
            self._siphons = minimal_siphons(self.net)
        return self._siphons

    @property
    def traps(self) -> SiphonAnalysis:
        """Minimal traps (capped enumeration, flag on the result)."""
        if self._traps is None:
            self._traps = minimal_traps(self.net)
        return self._traps

    @property
    def safety_certificate(self) -> SafetyCertificate:
        """Structural 1-safeness certificate (may be a failed one).

        Searched covering-first, so it builds :attr:`p_invariants` only
        when the local semiflows cannot cover every place.  Its
        ``certified`` bit equals the full-basis certificate's unless
        that basis is capped.  ``gpo lint`` and the reducer read the
        full-basis certificate instead.
        """
        if self._certificate is None:
            self._certificate = certify_safety(self.net)
        return self._certificate

    @property
    def net_class(self) -> str:
        """Most specific structural class of the net."""
        if self._net_class is None:
            self._net_class = classify(self.net)
        return self._net_class

    # ------------------------------------------------------------------
    def deadlock_freedom(self) -> str:
        """Siphon–trap pre-check: ``"deadlock-free"`` or ``"unknown"``."""
        if self._deadlock_freedom is None:
            self._deadlock_freedom = deadlock_freedom_precheck(
                self.net, self.siphons
            )
        return self._deadlock_freedom

    def mcs_issues(self) -> list[str]:
        """Cross-check of the MCS machinery (empty = consistent)."""
        return mcs_consistency(self.net)
