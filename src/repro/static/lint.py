"""Model linting: advisory diagnostics merged with structural facts.

One entry point, :func:`lint`, producing a :class:`LintReport` that joins
the advisory diagnostics of :func:`repro.net.validation.diagnose` with
everything the static subsystem can say without exploring a single state:
net class, invariant bases, siphons/traps, the 1-safeness certificate and
the siphon–trap deadlock-freedom pre-check.  With ``reduce=True`` the
report also folds in the :mod:`repro.reduce` opportunity findings — one
per structural-reduction rule application the deadlock-preserving preset
would perform.  The CLI's ``gpo lint`` renders it (human-readable,
``--format json`` or ``--format sarif``); ``table1 --lint`` uses
:attr:`LintReport.broken` as a refusal gate before spending any
exploration budget (reduction findings are advisory and never mark a
model broken).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.petrinet import PetriNet
from repro.net.validation import Diagnostics, diagnose
from repro.static.analysis import StaticAnalysis
from repro.static.safety import SafetyCertificate, certify_safety

__all__ = ["LintReport", "lint"]


@dataclass(frozen=True)
class LintReport:
    """Everything ``gpo lint`` knows about a model, in one record."""

    net: PetriNet
    diagnostics: Diagnostics
    net_class: str
    p_invariant_count: int
    t_invariant_count: int
    invariants_capped: bool
    siphon_count: int
    trap_count: int
    siphons_capped: bool
    certificate: SafetyCertificate
    deadlock_precheck: str
    mcs_issues: tuple[str, ...]
    #: Structural-reduction opportunities (``lint(..., reduce=True)``):
    #: pre/post sizes, per-rule counts and one finding per application.
    reduction: "dict[str, Any] | None" = None

    @property
    def broken(self) -> bool:
        """True when the model should be refused by benchmark pre-passes.

        A model is *broken* when the advisory diagnostics fire (isolated
        places, structurally dead transitions, unmarked sources, sink
        transitions) or the MCS cross-check found an inconsistency.  An
        absent safety certificate is **not** breakage — it only means the
        dynamic fallback must run.
        """
        return bool(not self.diagnostics.clean or self.mcs_issues)

    def to_json(self) -> dict[str, Any]:
        """JSON-serializable rendering (used by ``gpo lint --json``)."""
        return {
            "net": self.net.name,
            "places": self.net.num_places,
            "transitions": self.net.num_transitions,
            "broken": self.broken,
            "net_class": self.net_class,
            "diagnostics": {
                "clean": self.diagnostics.clean,
                "isolated_places": list(self.diagnostics.isolated_places),
                "sink_transitions": list(self.diagnostics.sink_transitions),
                "structurally_dead_transitions": list(
                    self.diagnostics.structurally_dead_transitions
                ),
                "unmarked_source_places": list(
                    self.diagnostics.unmarked_source_places
                ),
            },
            "invariants": {
                "p": self.p_invariant_count,
                "t": self.t_invariant_count,
                "capped": self.invariants_capped,
            },
            "siphons": {
                "minimal_siphons": self.siphon_count,
                "minimal_traps": self.trap_count,
                "capped": self.siphons_capped,
            },
            "safety": {
                "certified": self.certificate.certified,
                "uncovered_places": [
                    self.net.places[p] for p in self.certificate.uncovered
                ],
                "basis_capped": self.certificate.basis_capped,
            },
            "deadlock_precheck": self.deadlock_precheck,
            "mcs_issues": list(self.mcs_issues),
            "reduction": self.reduction,
        }

    def to_sarif(self) -> dict[str, Any]:
        """SARIF 2.1.0 log (used by ``gpo lint --format sarif``).

        Advisory diagnostics surface as ``warning`` results, MCS
        inconsistencies as ``error``, reduction opportunities as ``note``
        — so editors and CI annotators can consume one stream.
        """
        results: list[dict[str, Any]] = []
        rules: dict[str, str] = {}

        def add(
            rule_id: str,
            level: str,
            message: str,
            description: str,
            *,
            places: tuple[str, ...] = (),
            transitions: tuple[str, ...] = (),
        ) -> None:
            rules.setdefault(rule_id, description)
            locations = [
                {"logicalLocations": [{"name": name, "kind": "member"}]}
                for name in (*places, *transitions)
            ]
            result: dict[str, Any] = {
                "ruleId": rule_id,
                "level": level,
                "message": {"text": message},
            }
            if locations:
                result["locations"] = locations
            results.append(result)

        diag = self.diagnostics
        for place in diag.isolated_places:
            add("lint/isolated-place", "warning",
                f"place {place!r} has no arcs",
                "a place connected to no transition", places=(place,))
        for name in diag.sink_transitions:
            add("lint/sink-transition", "warning",
                f"transition {name!r} has no output places",
                "a transition that only consumes tokens",
                transitions=(name,))
        for name in diag.structurally_dead_transitions:
            add("lint/dead-transition", "warning",
                f"transition {name!r} can never fire",
                "a transition with an unmarkable input place",
                transitions=(name,))
        for place in diag.unmarked_source_places:
            add("lint/unmarked-source", "warning",
                f"place {place!r} is an unmarked source",
                "an initially empty place no transition ever marks",
                places=(place,))
        for issue in self.mcs_issues:
            add("lint/mcs-inconsistency", "error", issue,
                "marked-circuit-structure cross-check inconsistency")
        if not self.certificate.certified:
            uncovered = tuple(
                self.net.places[index] for index in self.certificate.uncovered
            )
            add("lint/uncertified-safety", "note",
                "no structural 1-safeness certificate; the dynamic check "
                "must run", "places not covered by any 1-bounded P-invariant",
                places=uncovered)
        for finding in (self.reduction or {}).get("findings", ()):
            add(str(finding["rule"]), "note", str(finding["message"]),
                "structural reduction opportunity (deadlock-preserving)",
                places=tuple(finding.get("places", ())),
                transitions=tuple(finding.get("transitions", ())))
        return {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "gpo-lint",
                            "informationUri": (
                                "https://doi.org/10.1109/DATE.1998.655889"
                            ),
                            "rules": [
                                {
                                    "id": rule_id,
                                    "shortDescription": {"text": text},
                                }
                                for rule_id, text in sorted(rules.items())
                            ],
                        }
                    },
                    "results": results,
                }
            ],
        }

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"{self.net.name}: {self.net.num_places} places, "
            f"{self.net.num_transitions} transitions",
            f"  class: {self.net_class}",
        ]
        cap = " (capped)" if self.invariants_capped else ""
        lines.append(
            f"  invariants: {self.p_invariant_count} P, "
            f"{self.t_invariant_count} T{cap}"
        )
        cap = " (capped)" if self.siphons_capped else ""
        lines.append(
            f"  siphons/traps: {self.siphon_count} minimal siphons, "
            f"{self.trap_count} minimal traps{cap}"
        )
        lines.append(f"  1-safeness: {self.certificate.explain(self.net)}")
        lines.append(f"  deadlock pre-check: {self.deadlock_precheck}")
        if self.reduction is not None:
            pre = "/".join(str(n) for n in self.reduction["pre"])
            post = "/".join(str(n) for n in self.reduction["post"])
            count = len(self.reduction["findings"])
            if count:
                lines.append(
                    f"  reduction: {pre} -> {post} P/T/A "
                    f"({count} deadlock-preserving rule application(s))"
                )
                for finding in self.reduction["findings"]:
                    lines.append(
                        f"    [{finding['rule']}] {finding['message']}"
                    )
            else:
                lines.append("  reduction: irreducible at deadlock level")
        diag = self.diagnostics.summary()
        if diag:
            lines.append("  diagnostics:")
            lines.extend(f"    {line}" for line in diag.splitlines())
        else:
            lines.append("  diagnostics: clean")
        for issue in self.mcs_issues:
            lines.append(f"  MCS inconsistency: {issue}")
        lines.append(f"  verdict: {'BROKEN' if self.broken else 'ok'}")
        return "\n".join(lines)


def lint(
    net: PetriNet,
    *,
    analysis: StaticAnalysis | None = None,
    reduce: bool = False,
) -> LintReport:
    """Run every structural check on ``net`` and collect the report.

    ``reduce=True`` additionally runs the deadlock-preserving structural
    reduction preset and folds one advisory finding per rule application
    into the report (``gpo lint`` does; the benchmark refusal gates skip
    it — reduction findings never affect :attr:`LintReport.broken`).
    """
    if analysis is None:
        analysis = net.static_analysis()
    reduction: dict[str, Any] | None = None
    if reduce:
        # Imported lazily: the reduce engine consumes this package's
        # static analysis, so a module-level import would be circular.
        from repro.reduce import findings_of, reduce_net

        shrunk = reduce_net(net, level="deadlock", mode="auto")
        pre, post = shrunk.sizes()
        reduction = {
            "level": shrunk.level,
            "mode": shrunk.mode,
            "pre": list(pre),
            "post": list(post),
            "rules": shrunk.rule_counts(),
            "findings": [f.to_json() for f in findings_of(shrunk)],
        }
    siphons = analysis.siphons
    traps = analysis.traps
    p_basis = analysis.p_invariants
    t_basis = analysis.t_invariants
    return LintReport(
        net=net,
        diagnostics=diagnose(net),
        net_class=analysis.net_class,
        p_invariant_count=len(p_basis),
        t_invariant_count=len(t_basis),
        invariants_capped=p_basis.capped or t_basis.capped,
        siphon_count=len(siphons),
        trap_count=len(traps),
        siphons_capped=siphons.capped or traps.capped,
        certificate=certify_safety(net, basis=p_basis),
        deadlock_precheck=analysis.deadlock_freedom(),
        mcs_issues=tuple(analysis.mcs_issues()),
        reduction=reduction,
    )
