"""Served-vs-local differential check: every served answer equals a local run.

One in-process :class:`ServeApp` answers a fixed matrix of Table 1 jobs,
all submitted at once: five nets × the methods gpo, stubborn, symbolic
and full × the deadlock question, plus one property per family for the
methods :func:`repro.props.compat.filter_methods` admits.  Entries
alternate the native and PNML wire formats and spread over tenants, with
about half pinned to ``tenant-0``.  Each served result must equal
:func:`execute_job` on the same :class:`VerificationJob` in every field
:func:`differences` compares.  The identical matrix is then replayed:
every answer must come from the shared result cache and still equal the
local run.  Any disagreement is a bug in the serving path.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any

import pytest

from repro.analysis.stats import AnalysisResult
from repro.engine.cache import result_from_dict
from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.harness.table1 import PROBLEMS
from repro.net.parser import to_text
from repro.net.pnml import to_pnml
from repro.props.compat import filter_methods
from repro.props.eval import as_property
from repro.serve import ServeApp, ServeClient, ServeConfig

INSTANCES = (("NSDP", 2), ("NSDP", 4), ("RW", 6), ("ASAT", 2), ("OVER", 3))
METHODS = ("gpo", "stubborn", "symbolic", "full")
#: One property per family; place names use process index 0, which
#: exists at every size above.
FAMILY_PROPERTY = {
    "NSDP": "reachable(eat0)",
    "ASAT": "invariant(!(use0 & use1))",
    "OVER": "reachable(passing0 & passing1)",
    "RW": "invariant(!(writing0 & reading0))",
}
BUDGET = Budget(max_states=100_000, max_seconds=60.0)
TERMINAL = ("done", "cancelled", "failed")
TEST_TIMEOUT = 120.0


@dataclasses.dataclass(frozen=True)
class Entry:
    """One matrix cell: the job, its wire format and its tenant."""

    job: VerificationJob
    fmt: str
    tenant: str

    def body(self) -> dict[str, Any]:
        net = self.job.net
        body: dict[str, Any] = {
            "net": to_pnml(net) if self.fmt == "pnml" else to_text(net),
            "format": self.fmt,
            "method": self.job.method,
            "max_states": BUDGET.max_states,
            "max_seconds": BUDGET.max_seconds,
            "tenant": self.tenant,
        }
        if self.job.query != "deadlock":
            body["property"] = self.job.query
        return body


def matrix() -> list[Entry]:
    entries: list[Entry] = []
    for problem, size in INSTANCES:
        net = PROBLEMS[problem](size)
        prop = FAMILY_PROPERTY[problem]
        admitted, _ = filter_methods(METHODS, as_property(prop))
        questions = [(method, "deadlock") for method in METHODS]
        questions += [(method, prop) for method in admitted]
        for method, query in questions:
            index = len(entries)
            job = VerificationJob(
                net=net, method=method, budget=BUDGET, query=query
            )
            tenant = (
                "tenant-0" if index % 4 < 2 else f"tenant-{index % 3 + 1}"
            )
            entries.append(Entry(job, ("native", "pnml")[index % 2], tenant))
    return entries


def answer(result: AnalysisResult) -> dict[str, Any]:
    """The fields a served result must share with the local run."""
    return {
        "deadlock": result.deadlock,
        "exhaustive": result.exhaustive,
        "states": result.states,
        "edges": result.edges,
        "witness.trace": (
            None if result.witness is None else tuple(result.witness.trace)
        ),
        "property_holds": result.property_holds,
    }


def differences(served: AnalysisResult, local: AnalysisResult) -> list[str]:
    """One line per field where the served result disagrees with the local one."""
    got, want = answer(served), answer(local)
    return [
        f"{field}: served {got[field]!r}, local {want[field]!r}"
        for field in want
        if got[field] != want[field]
    ]


async def _serve_one(
    client: ServeClient, entry: Entry
) -> tuple[bool, AnalysisResult]:
    """Submit one entry, follow it to a terminal state; (cached, result)."""
    response = await client.request("POST", "/v1/jobs", entry.body())
    assert response.status in (200, 202), response.body
    status = response.json()
    cached = bool(status["cached"])
    while status["state"] not in TERMINAL:
        await asyncio.sleep(0.01)
        poll = await client.request("GET", f"/v1/jobs/{status['id']}")
        assert poll.status == 200, poll.body
        status = poll.json()
    assert status["state"] == "done", status
    assert status["tenant"] == entry.tenant
    return cached, result_from_dict(status["result"])


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """The matrix, its local results, and its cold and warm served answers."""
    entries = matrix()
    local = [execute_job(entry.job) for entry in entries]
    cache_dir = tmp_path_factory.mktemp("served-differential") / "cache"

    async def main():
        app = ServeApp(
            ServeConfig(
                port=0, workers=2, cache_dir=str(cache_dir), poll_interval=0.01
            )
        )
        await app.start()
        try:
            client = ServeClient("127.0.0.1", app.port)
            phases = []
            for _ in ("cold", "warm"):
                phases.append(
                    await asyncio.gather(
                        *(_serve_one(client, entry) for entry in entries)
                    )
                )
            return phases
        finally:
            await app.stop()

    cold, warm = asyncio.run(asyncio.wait_for(main(), TEST_TIMEOUT))
    return entries, local, cold, warm


def _label(entry: Entry) -> str:
    return (
        f"{entry.job.net.name} {entry.job.method} {entry.job.query!r} "
        f"({entry.fmt}, {entry.tenant})"
    )


def _all_differences(entries, local, phase) -> list[str]:
    return [
        f"{_label(entry)}: {line}"
        for entry, want, (_, got) in zip(entries, local, phase)
        for line in differences(got, want)
    ]


class TestMatrix:
    def test_every_method_sees_both_wire_formats(self):
        entries = matrix()
        for method in METHODS:
            formats = {e.fmt for e in entries if e.job.method == method}
            assert formats == {"native", "pnml"}

    def test_half_the_entries_pin_one_tenant(self):
        entries = matrix()
        pinned = sum(1 for e in entries if e.tenant == "tenant-0")
        assert abs(pinned - len(entries) / 2) <= 1
        assert len({e.tenant for e in entries}) == 4

    def test_property_jobs_use_admitted_methods_only(self):
        asked: dict[tuple[str, str], list[str]] = {}
        for e in matrix():
            if e.job.query != "deadlock":
                asked.setdefault((e.job.net.name, e.job.query), []).append(
                    e.job.method
                )
        assert len(asked) == len(INSTANCES)
        for (_, prop), methods in asked.items():
            admitted, _ = filter_methods(METHODS, as_property(prop))
            assert tuple(methods) == admitted
            assert "stubborn" not in methods  # it preserves deadlocks only


class TestServedEqualsLocal:
    def test_cold_answers_equal_local(self, served):
        entries, local, cold, _ = served
        assert [_label(e) for e, (cached, _) in zip(entries, cold) if cached] == []
        assert _all_differences(entries, local, cold) == []
        # The comparison sees every kind of answer the matrix can give.
        assert {r.deadlock for r in local} == {True, False}
        assert {r.property_holds for r in local} >= {True, False, None}

    def test_warm_replay_hits_cache_and_equals_local(self, served):
        entries, local, _, warm = served
        assert [_label(e) for e, (cached, _) in zip(entries, warm) if not cached] == []
        assert _all_differences(entries, local, warm) == []

    def test_injected_mismatch_is_reported(self, served):
        entries, local, cold, _ = served
        deadlock_at = next(
            i for i, e in enumerate(entries)
            if e.job.method == "full" and e.job.query == "deadlock"
        )
        property_at = next(
            i for i, e in enumerate(entries)
            if e.job.method == "full" and local[i].property_holds is not None
        )
        phase = list(cold)
        cached, result = phase[deadlock_at]
        phase[deadlock_at] = (
            cached, dataclasses.replace(result, deadlock=not result.deadlock)
        )
        cached, result = phase[property_at]
        extras = {**result.extras, "property_holds": not result.property_holds}
        phase[property_at] = (cached, dataclasses.replace(result, extras=extras))
        reported = _all_differences(entries, local, phase)
        assert len(reported) == 2
        assert reported[0].startswith(f"{_label(entries[deadlock_at])}: deadlock:")
        assert reported[1].startswith(
            f"{_label(entries[property_at])}: property_holds:"
        )
