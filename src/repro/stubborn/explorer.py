"""Reduced reachability exploration with stubborn sets.

This is the paper's "SPIN+PO" column: the state space explored when, in
every marking, only the enabled part of one stubborn set is fired.  All
deadlocks of the full graph are preserved (Valmari [14], Godefroid-Wolper
[9]); the number of stored states is what Table 1 reports.

The exploration itself runs on the generic driver in
:mod:`repro.search.core`.  :class:`KernelStubbornSpace` supplies the
reduced successor rule on packed integer markings from
:class:`repro.net.kernel.MarkingKernel`, with incremental enabled-set
maintenance, and measures the reduction ratio (fired / enabled
transitions).
"""

from __future__ import annotations

from time import perf_counter

from repro.analysis.frame import analyzer_frame
from repro.analysis.stats import AnalysisResult
from repro.net.petrinet import Marking, PetriNet
from repro.obs import names
from repro.obs.tracer import current_tracer
from repro.props.ast import Property
from repro.search.core import SearchContext, abort_note, raise_if_bounded
from repro.search.core import explore as _drive
from repro.search.graph import ReachabilityGraph
from repro.search.witness import extract_witness
from repro.stubborn.stubborn import _enabled_part, stubborn_enabled_mask

__all__ = [
    "KernelStubbornSpace",
    "explore_reduced",
    "analyze",
]


class KernelStubbornSpace:
    """Stubborn-set reduced successors as a :class:`SearchSpace`.

    In every marking only the enabled part of one stubborn set fires.
    States are ``int`` bitmasks; each stored state's full enabled set is
    maintained incrementally as a transition bitmask (only the
    transitions touching the fired preset/postset are re-tested), and the
    stubborn closure runs on the kernel's precompiled masks.
    ``enabled_total`` / ``fired_total`` accumulate the full and reduced
    enabled-set sizes over all expanded states, giving the reduction
    ratio reported in the instrumentation extras.
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self.kernel = net.kernel()
        self.enabled_total = 0
        self.fired_total = 0
        self.set_seconds = 0.0
        self._closure_base = self.kernel.stat_closure_iterations
        self._enabled_masks: dict[int, int] = {
            self.kernel.initial: self.kernel.enabled_mask(self.kernel.initial)
        }
        self._memo_bits: int | None = None
        self._memo_fire: list[int] = []
        # Null instrument unless a tracer is active at construction time;
        # observing on it is a no-op method call per expanded state.
        tracer = current_tracer()
        self._set_sizes = tracer.metrics.histogram(names.STUBBORN_SET_SIZE)
        # When no tracer is active at construction, skip the span wrapper
        # per marking and call the seed loop directly (same fired lists;
        # the wrapper only adds the ``stubborn/set`` span).
        self._spans = tracer.enabled

    def decode(self, bits: int) -> Marking:
        """Frozenset view of a packed state (report boundary)."""
        return self.kernel.decode(bits)

    def _to_fire(self, bits: int) -> list[int]:
        if bits != self._memo_bits:
            mask = self._enabled_masks[bits]
            begin = perf_counter()
            if self._spans or not mask:
                to_fire = stubborn_enabled_mask(self.kernel, bits, mask)
            else:
                to_fire = _enabled_part(self.kernel, bits, mask)
            self.set_seconds += perf_counter() - begin
            self.enabled_total += mask.bit_count()
            self.fired_total += len(to_fire)
            if self._spans:
                self._set_sizes.observe(len(to_fire))
            self._memo_fire = to_fire
            self._memo_bits = bits
        return self._memo_fire

    def initial(self) -> int:
        return self.kernel.initial

    def is_deadlock(self, bits: int) -> bool:
        return not self._to_fire(bits)

    def successors(
        self, bits: int, ctx: SearchContext[int]
    ) -> list[tuple[str, int]]:
        kernel = self.kernel
        fire = kernel.fire_enabled
        update = kernel.update_enabled_mask
        labels = self.net.transitions
        masks = self._enabled_masks
        enabled = masks[bits]
        out: list[tuple[str, int]] = []
        append = out.append
        for t in self._to_fire(bits):
            successor = fire(t, bits)
            if successor not in masks:
                masks[successor] = update(enabled, t, successor)
            append((labels[t], successor))
        return out

    def instrumentation(self) -> dict[str, object]:
        """Reduction ratio plus stubborn-phase counters.

        ``stubborn_closure_iterations`` counts transitions processed by
        the closure fixpoint; ``stubborn_set_seconds`` is the time spent
        choosing sets, so expansion time is the search total minus it.
        """
        if not self.enabled_total:
            return {}
        return {
            names.STUBBORN_RATIO: round(
                self.fired_total / self.enabled_total, 3
            ),
            names.STUBBORN_CLOSURE_ITERATIONS: (
                self.kernel.stat_closure_iterations - self._closure_base
            ),
            names.STUBBORN_SET_SECONDS: round(self.set_seconds, 6),
        }


def explore_reduced(
    net: PetriNet,
    *,
    max_states: int | None = None,
    max_seconds: float | None = None,
    stop_at_first_deadlock: bool = False,
) -> ReachabilityGraph[Marking]:
    """Build the stubborn-set reduced reachability graph (BFS order).

    Raises on budget overruns like the full ``explore``; ``analyze`` uses
    the driver's partial results instead.  The exploration runs on packed
    integers; the returned graph is decoded to classical frozenset
    markings.
    """
    space = KernelStubbornSpace(net)
    outcome = _drive(
        space,
        order="bfs",
        max_states=max_states,
        max_seconds=max_seconds,
        stop_at_first_deadlock=stop_at_first_deadlock,
    )
    raise_if_bounded(outcome, max_states=max_states, max_seconds=max_seconds)
    return outcome.graph.map_states(space.decode)


@analyzer_frame("stubborn")
def analyze(
    net: PetriNet,
    goal_prop: Property | None,
    *,
    max_states: int | None = None,
    max_seconds: float | None = None,
) -> AnalysisResult:
    """Run stubborn-set reduced analysis, packaged uniformly.

    The reported deadlock verdict is equivalent to the full analysis; the
    reported ``states`` count is the size of the *reduced* graph.  Budget
    overruns (state or wall-clock) are absorbed into a bounded,
    non-exhaustive result carrying the real progress made, exactly like
    the other analyzers.

    The stubborn-set reduction preserves *deadlocks only* (its compat
    declaration in :mod:`repro.props.compat`): ``prop`` may be ``None``,
    ``deadlock``, a constant, or a boolean combination of those; any
    ``reachable``/``invariant`` leaf raises
    :class:`~repro.props.ast.UnsupportedPropertyError` — the reduced
    graph genuinely cannot answer the question.
    """
    space = KernelStubbornSpace(net)
    outcome = _drive(
        space, order="bfs", max_states=max_states, max_seconds=max_seconds
    )
    graph = outcome.graph
    witness = None
    if graph.deadlocks:
        with current_tracer().span(names.SPAN_WITNESS):
            witness = extract_witness(net, graph, decode=space.decode)
    extras = outcome.stats.as_extras()
    extras.update(space.instrumentation())
    note = abort_note(
        outcome.stop_reason, max_states=max_states, max_seconds=max_seconds
    )
    if note is not None:
        extras[names.ABORTED] = note
    return AnalysisResult(
        analyzer="stubborn",
        net_name=net.name,
        states=graph.num_states,
        edges=graph.num_edges,
        deadlock=bool(graph.deadlocks),
        witness=witness,
        exhaustive=outcome.exhaustive,
        extras=extras,
    )
