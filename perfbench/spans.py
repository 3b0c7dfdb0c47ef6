"""Span recording around the program's layer entry points.

The benchmark does not edit the program to trace it.  A traced run
rebinds each layer's entry point (:data:`FUNCTIONS`, :data:`CLASSES`) to
a wrapper that records one span per call, then restores the originals.
A function imported by name into other modules is rebound there too,
so every call site goes through the wrapper.

Spans are tuples ``(name, start_ns, end_ns, parent, job)`` kept in
memory and written out once at the end of the run.  A span's self time
is its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

#: (module, function, span name): calls timed from outside.
FUNCTIONS = (
    ("repro.search.core", "explore", "search.explore"),
    ("repro.search.parallel", "explore_parallel", "parallel.explore"),
    ("repro.search.witness", "extract_witness", "witness.extract"),
    # The per-state stubborn-set choice the kernel explorer calls.
    ("repro.stubborn.stubborn", "_enabled_part", "stubborn.set"),
    ("repro.gpo.semantics", "enabled_families", "gpo.enabled_families"),
    ("repro.gpo.semantics", "multiple_fire", "gpo.multiple_fire"),
    ("repro.symbolic.reach", "reach", "symbolic.reach"),
    ("repro.bdd.ops", "relprod", "bdd.relprod"),
    ("repro.bdd.ops", "rename", "bdd.rename"),
    ("repro.unfolding.prefix", "unfold", "unfolding.unfold"),
    ("repro.unfolding.analysis", "deadlock_via_prefix", "unfolding.witness"),
)

#: (module, class, span name): construction timed from outside.
CLASSES = (
    ("repro.net.kernel", "MarkingKernel", "net.kernel_build"),
    ("repro.gpo.gpn", "Gpn", "gpo.gpn_build"),
    ("repro.symbolic.encoding", "SymbolicNet", "symbolic.encode"),
)

ROOT = "engine.job"


class SpanRecorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.job = -1
        #: BDD managers created while the current job runs (their ite
        #: cache counters are read when the job ends).
        self.managers: list[Any] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0, 0, parent, self.job))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)

        return wrapper

    def run_job(self, job: int, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn`` under the root span of job number ``job``."""
        self.job = job
        try:
            return self.timed(ROOT, fn)(*args)
        finally:
            self.job = -1

    # ------------------------------------------------------------------
    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            self._rebind(original, self.timed(name, original))
        for module, attr, name in CLASSES:
            cls = getattr(importlib.import_module(module), attr)
            self._set(cls, "__init__", self.timed(name, cls.__init__))
        self._patch_certificate()
        self._patch_bdd_manager()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Point every loaded module's reference to ``original`` at
        ``replacement`` (covers ``from x import f`` and aliases)."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _patch_certificate(self) -> None:
        from repro.static.analysis import StaticAnalysis

        getter = StaticAnalysis.safety_certificate.fget
        timed = self.timed("static.certificate", getter)

        def certificate(analysis: Any) -> Any:
            # Only computing calls get a span; later reads hit the memo.
            if analysis._certificate is None:
                return timed(analysis)
            return getter(analysis)

        self._set(StaticAnalysis, "safety_certificate", property(certificate))

    def _patch_bdd_manager(self) -> None:
        from repro.bdd.manager import BddManager

        init = BddManager.__init__
        managers = self.managers

        def register(manager: Any) -> None:
            init(manager)
            managers.append(manager)

        self._set(BddManager, "__init__", register)


def self_times(spans: list[tuple[str, int, int, int, int]]) -> list[float]:
    """Each span's duration minus its children's coverage, in seconds."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            if child_end > lo:
                covered += child_end - lo
                reach = child_end
        out.append((end - start - covered) / 1e9)
    return out
