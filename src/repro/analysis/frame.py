"""The one frame around every analyzer's search.

The seven analyzers (full, stubborn, gpo, symbolic, timed, unfolding,
parallel) differ only in how they search.  Everything around the search
is decided here, once, so Table 1 compares them on the same footing:

* **property intake** — ``prop`` is canonicalized; a compound property
  is decomposed by :func:`~repro.props.eval.run_property` into calls of
  the same analyzer (the compound result is not recorded again), and
  each atomic leaf is admitted through the preservation matrix
  (:func:`~repro.props.compat.unsupported_reason`);
* **spans and clock** — one ``analyze`` root span (minting a trace
  context when tracing is on and none is installed), the stopwatch
  behind ``time_seconds`` opened before the ``certificate`` span, and
  ``extras["safety_certified"]``;
* **budget absorption** — a :class:`TimeLimitReached` or
  :class:`ExplorationLimitReached` escaping the search becomes a
  bounded, non-exhaustive result carrying the progress made;
* **recording** — :func:`~repro.obs.record.record_result`, once per
  atomic run.

An analyzer module writes only its *body*: ``body(subject, goal,
**kwargs)`` searches for one atomic goal (``None`` is the native
deadlock question) and returns its result with its own extras.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable

from repro.analysis.stats import (
    AnalysisResult,
    ExplorationLimitReached,
    TimeLimitReached,
    stopwatch,
)
from repro.net.petrinet import PetriNet
from repro.obs import names
from repro.obs.context import current_context, new_trace_context, use_context
from repro.obs.record import record_result
from repro.obs.tracer import current_tracer
from repro.props.ast import Property, UnsupportedPropertyError
from repro.props.compat import unsupported_reason
from repro.props.eval import (
    engine_property,
    needs_decomposition,
    property_extras,
    run_property,
)
from repro.search.core import abort_note

__all__ = ["analyzer_frame"]

Body = Callable[..., AnalysisResult]


def analyzer_frame(
    name: str, *, net_of: Callable[[Any], PetriNet] = lambda net: net
) -> Callable[[Body], Callable[..., AnalysisResult]]:
    """Wrap an analyzer body into its public ``analyze(subject, *,
    ..., prop=None)`` entry point.

    ``name`` is the analyzer's registry and preservation-matrix name;
    ``net_of`` maps the analyzed subject to its Petri net (the timed
    analyzer analyzes a :class:`~repro.timed.tpn.TimedPetriNet`).
    """

    def decorate(body: Body) -> Callable[..., AnalysisResult]:
        @functools.wraps(body)
        def analyze(
            subject: Any, *, prop: "Property | str | None" = None, **kwargs: Any
        ) -> AnalysisResult:
            net = net_of(subject)
            goal = engine_property(prop)
            if goal is not None and needs_decomposition(goal):
                return run_property(
                    goal,
                    lambda leaf: analyze(subject, prop=leaf, **kwargs),
                    analyzer=name,
                    net_name=net.name,
                )
            if goal is not None:
                reason = unsupported_reason(name, goal)
                if reason is not None:
                    raise UnsupportedPropertyError(name, goal, reason)
            tracer = current_tracer()
            ctx = current_context()
            if ctx is None and tracer.enabled:
                ctx = new_trace_context()
            with use_context(ctx), tracer.span(
                names.SPAN_ANALYZE, analyzer=name, net=net.name
            ) as root:
                with stopwatch() as elapsed:
                    # When the certificate holds, UnsafeNetError is
                    # provably unreachable during the search.
                    with tracer.span(names.SPAN_CERTIFICATE):
                        certified = (
                            net.static_analysis().safety_certificate.certified
                        )
                    try:
                        result = body(subject, goal, **kwargs)
                    except (ExplorationLimitReached, TimeLimitReached) as overrun:
                        result = _overrun_result(name, net, goal, overrun)
                result.time_seconds = elapsed[0]
                result.extras[names.SAFETY_CERTIFIED] = certified
                root.set(states=result.states, edges=result.edges)
            record_result(result)
            return result

        # The public signature: the body's, with ``goal`` replaced by
        # the keyword-only ``prop`` the frame consumes.
        signature = inspect.signature(body)
        params = list(signature.parameters.values())
        del params[1]
        params.append(
            inspect.Parameter(
                "prop",
                inspect.Parameter.KEYWORD_ONLY,
                default=None,
                annotation="Property | str | None",
            )
        )
        analyze.__signature__ = signature.replace(parameters=params)  # type: ignore[attr-defined]
        return analyze

    return decorate


def _overrun_result(
    name: str,
    net: PetriNet,
    goal: Property | None,
    overrun: ExplorationLimitReached | TimeLimitReached,
) -> AnalysisResult:
    """The bounded result of a body that gave up by raising.

    ``states`` is the progress the exception reports (the state budget
    itself when a state overrun carries none).
    """
    if isinstance(overrun, ExplorationLimitReached):
        note = abort_note("state-budget", max_states=overrun.limit)
        states = (
            overrun.limit
            if overrun.states_explored is None
            else overrun.states_explored
        )
    else:
        note = abort_note("time-budget", max_seconds=overrun.seconds)
        states = overrun.states_explored or 0
    extras: dict[str, Any] = {names.ABORTED: note}
    if isinstance(overrun, TimeLimitReached):
        extras.update(overrun.extras)
    if goal is not None:
        extras.update(property_extras(goal, None))
    return AnalysisResult(
        analyzer=name,
        net_name=net.name,
        states=states,
        edges=0,
        deadlock=False,
        exhaustive=False,
        extras=extras,
    )
