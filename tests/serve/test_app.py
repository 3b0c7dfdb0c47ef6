"""End-to-end daemon tests: a real ServeApp on a real socket.

Each test runs its own event loop (plain ``asyncio.run``) with the app
bound to an ephemeral port.  Tests that need a job to *stay* running
register a sleeper analyzer in :data:`repro.engine.jobs.ANALYZERS`
before submitting — worker processes are forked, so they inherit the
registration — and rely on cancellation (not sleeping out the clock) to
finish, so the suite has no real waits.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any, AsyncIterator

import pytest

from repro.engine.events import EVENT_SCHEMA_VERSION
from repro.serve.protocol import API_VERSION
from repro.engine.jobs import ANALYZERS
from repro.models import nsdp
from repro.net.parser import to_text
from repro.serve import ServeApp, ServeClient, ServeConfig

#: Upper bound on any single test's event loop; generous because CI
#: machines fork slowly, but every wait below is event-driven.
TEST_TIMEOUT = 60.0


def run(coro: Any) -> Any:
    return asyncio.run(asyncio.wait_for(coro, TEST_TIMEOUT))


@contextlib.asynccontextmanager
async def serve_app(
    tmp_path: Any, **overrides: Any
) -> AsyncIterator[tuple[ServeApp, ServeClient]]:
    settings: dict[str, Any] = dict(
        host="127.0.0.1",
        port=0,
        workers=2,
        cache_dir=str(tmp_path / "serve-cache"),
        poll_interval=0.01,
    )
    settings.update(overrides)
    app = ServeApp(ServeConfig(**settings))
    await app.start()
    try:
        yield app, ServeClient("127.0.0.1", app.port)
    finally:
        await app.stop()


def _sleeper_analyze(net: Any, **kwargs: Any) -> Any:
    time.sleep(60)
    raise RuntimeError("sleeper was not preempted")


@pytest.fixture
def sleeper_method():
    """Register an analyzer that blocks until killed (forked workers inherit)."""
    ANALYZERS["sleeper"] = _sleeper_analyze
    try:
        yield "sleeper"
    finally:
        del ANALYZERS["sleeper"]


def submit_body(**overrides: Any) -> dict[str, Any]:
    body: dict[str, Any] = {
        "net": to_text(nsdp(2)),
        "method": "gpo",
        "tenant": "tests",
    }
    body.update(overrides)
    return body


async def wait_started(client: ServeClient, job_id: str) -> None:
    """Block (event-driven) until the job's worker process has started."""
    stream = client.stream_events(job_id)
    try:
        async for event in stream:
            if event["kind"] in ("started", "cache_hit"):
                return
    finally:
        await stream.aclose()


class TestLifecycle:
    def test_submit_to_verdict(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                response = await client.request(
                    "POST", "/v1/jobs", submit_body()
                )
                assert response.status == 202
                body = response.json()
                assert body["state"] == "queued"
                assert body["cached"] is False

                kinds = []
                async for event in client.stream_events(body["id"]):
                    kinds.append(event["kind"])
                    assert event["v"] == EVENT_SCHEMA_VERSION
                    assert event["job_id"] == body["id"]
                assert kinds == ["queued", "started", "finished"]

                status = await client.request("GET", f"/v1/jobs/{body['id']}")
                final = status.json()
                assert final["state"] == "done"
                assert final["engine_status"] == "ok"
                assert final["verdict"] == "DEADLOCK"
                assert final["result"]["deadlock"] is True

        run(main())

    def test_event_stream_schema_header(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                submitted = await client.request(
                    "POST", "/v1/jobs", submit_body()
                )
                job_id = submitted.json()["id"]
                async for _ in client.stream_events(job_id):
                    pass
                # Replay of a finished job's stream carries the header and
                # terminates immediately.
                replay = await client.request(
                    "GET", f"/v1/jobs/{job_id}/events"
                )
                assert replay.headers["x-event-schema-version"] == str(
                    EVENT_SCHEMA_VERSION
                )
                lines = [l for l in replay.body.split(b"\n") if l.strip()]
                assert len(lines) == 3

        run(main())

    def test_cache_fast_path(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (app, client):
                first = await client.request("POST", "/v1/jobs", submit_body())
                async for _ in client.stream_events(first.json()["id"]):
                    pass
                second = await client.request("POST", "/v1/jobs", submit_body())
                assert second.status == 200  # synchronous answer
                body = second.json()
                assert body["cached"] is True
                assert body["state"] == "done"
                assert body["engine_status"] == "cached"
                assert body["verdict"] == "DEADLOCK"
                assert app.cache is not None and app.cache.hits >= 1

        run(main())


class TestCancellation:
    def test_cancel_running_job(self, tmp_path, sleeper_method):
        async def main():
            async with serve_app(tmp_path, workers=1) as (_, client):
                submitted = await client.request(
                    "POST", "/v1/jobs", submit_body(method=sleeper_method)
                )
                job_id = submitted.json()["id"]
                await wait_started(client, job_id)
                cancelled = await client.request(
                    "DELETE", f"/v1/jobs/{job_id}"
                )
                assert cancelled.status == 200
                body = cancelled.json()
                assert body["state"] == "cancelled"
                assert body["engine_status"] == "cancelled"

        run(main())

    def test_cancel_queued_job(self, tmp_path, sleeper_method):
        async def main():
            async with serve_app(tmp_path, workers=1) as (_, client):
                blocker = await client.request(
                    "POST", "/v1/jobs", submit_body(method=sleeper_method)
                )
                await wait_started(client, blocker.json()["id"])
                # The single worker is now occupied: this one stays queued.
                queued = await client.request(
                    "POST", "/v1/jobs", submit_body(method=sleeper_method)
                )
                assert queued.json()["state"] == "queued"
                cancelled = await client.request(
                    "DELETE", f"/v1/jobs/{queued.json()['id']}"
                )
                assert cancelled.status == 200
                assert cancelled.json()["state"] == "cancelled"
                # No engine outcome exists for a never-started job.
                assert "engine_status" not in cancelled.json()
                # Clean up the blocker so shutdown is instant.
                await client.request(
                    "DELETE", f"/v1/jobs/{blocker.json()['id']}"
                )

        run(main())

    def test_cancel_is_idempotent(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                submitted = await client.request(
                    "POST", "/v1/jobs", submit_body()
                )
                job_id = submitted.json()["id"]
                async for _ in client.stream_events(job_id):
                    pass
                # Cancelling a finished job is a no-op 200.
                response = await client.request("DELETE", f"/v1/jobs/{job_id}")
                assert response.status == 200
                assert response.json()["state"] == "done"

        run(main())


class TestBackpressure:
    def test_queue_full_gives_429_retry_after(self, tmp_path, sleeper_method):
        async def main():
            async with serve_app(
                tmp_path, workers=1, queue_capacity=2, use_cache=False
            ) as (_, client):
                blocker = await client.request(
                    "POST", "/v1/jobs", submit_body(method=sleeper_method)
                )
                await wait_started(client, blocker.json()["id"])
                queued = []
                for _ in range(2):
                    response = await client.request(
                        "POST", "/v1/jobs", submit_body(method=sleeper_method)
                    )
                    assert response.status == 202
                    queued.append(response.json()["id"])
                rejected = await client.request(
                    "POST", "/v1/jobs", submit_body(method=sleeper_method)
                )
                assert rejected.status == 429
                error = rejected.json()["error"]
                assert error["reason"] == "queue-full"
                assert int(rejected.headers["retry-after"]) >= 1
                for job_id in [blocker.json()["id"], *queued]:
                    await client.request("DELETE", f"/v1/jobs/{job_id}")

        run(main())

    def test_tenant_quota_gives_429(self, tmp_path, sleeper_method):
        async def main():
            async with serve_app(
                tmp_path, workers=1, tenant_quota=1, use_cache=False
            ) as (_, client):
                blocker = await client.request(
                    "POST", "/v1/jobs", submit_body(method=sleeper_method)
                )
                await wait_started(client, blocker.json()["id"])
                first = await client.request(
                    "POST",
                    "/v1/jobs",
                    submit_body(method=sleeper_method, tenant="greedy"),
                )
                assert first.status == 202
                second = await client.request(
                    "POST",
                    "/v1/jobs",
                    submit_body(method=sleeper_method, tenant="greedy"),
                )
                assert second.status == 429
                assert second.json()["error"]["reason"] == "tenant-full"
                # An unrelated tenant is still admitted.
                other = await client.request(
                    "POST",
                    "/v1/jobs",
                    submit_body(method=sleeper_method, tenant="polite"),
                )
                assert other.status == 202
                for job_id in [
                    blocker.json()["id"],
                    first.json()["id"],
                    other.json()["id"],
                ]:
                    await client.request("DELETE", f"/v1/jobs/{job_id}")

        run(main())


class TestHttpSurface:
    def test_structured_errors_never_tracebacks(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                cases = [
                    ("GET", "/v1/jobs/doesnotexist", None, 404, "unknown-job"),
                    ("GET", "/nope", None, 404, "not-found"),
                    ("POST", "/v1/jobs", {"net": "%%%"}, 400, "parse-error"),
                    ("POST", "/v1/jobs", {}, 400, "bad-request"),
                ]
                for method, path, body, status, reason in cases:
                    response = await client.request(method, path, body)
                    assert response.status == status, (method, path)
                    error = response.json()["error"]
                    assert error["reason"] == reason
                    assert b"Traceback" not in response.body

        run(main())

    def test_unsupported_method_is_405(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                response = await client.request("PUT", "/v1/jobs")
                assert response.status == 405
                assert response.json()["error"]["reason"] == "method-not-allowed"

        run(main())

    def test_oversized_body_is_413(self, tmp_path):
        async def main():
            async with serve_app(tmp_path, max_body_bytes=128) as (_, client):
                response = await client.request(
                    "POST", "/v1/jobs", submit_body()
                )
                assert response.status == 413
                assert response.json()["error"]["reason"] == "body-too-large"

        run(main())

    def test_healthz_reports_versions_and_load(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                response = await client.request("GET", "/healthz")
                assert response.status == 200
                body = response.json()
                assert body["status"] == "ok"
                assert body["service"] == "gpo-serve"
                assert body["version"]
                assert body["event_schema_version"] == EVENT_SCHEMA_VERSION
                assert body["workers"] == 2
                assert body["queue"]["capacity"] == 256
                assert body["cache"]["enabled"] is True

        run(main())

    def test_metrics_exposition(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                submitted = await client.request(
                    "POST", "/v1/jobs", submit_body()
                )
                async for _ in client.stream_events(submitted.json()["id"]):
                    pass
                response = await client.request("GET", "/metrics")
                assert response.status == 200
                text = response.body.decode("utf-8")
                assert "serve_submitted_total 1" in text
                assert 'serve_jobs_total{outcome="done"} 1' in text
                assert "serve_http_requests_total" in text
                assert "serve_job_wall_seconds" in text

        run(main())


class TestPropertySubmissions:
    def test_property_submit_to_verdict(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                response = await client.request(
                    "POST",
                    "/v1/jobs",
                    submit_body(
                        property="reachable(eat0 & eat1)", method="symbolic"
                    ),
                )
                assert response.status == 202
                body = response.json()
                assert body["query"] == "reachable(eat0 & eat1)"
                record = await wait_done(client, body["id"])
                assert record["verdict"] == "property violated"
                extras = record["result"]["extras"]
                assert extras["property"] == "reachable(eat0 & eat1)"
                assert extras["property_holds"] is False

        run(main())

    def test_property_cache_fast_path_distinct_from_deadlock(self, tmp_path):
        async def main():
            async with serve_app(tmp_path, workers=1) as (_, client):
                prop_body = submit_body(
                    property="reachable(eat0)", method="full"
                )
                first = await client.request("POST", "/v1/jobs", prop_body)
                await wait_done(client, first.json()["id"])

                # Same (net, method, budget) but the deadlock question:
                # must NOT hit the property run's cache entry.
                dead = await client.request(
                    "POST", "/v1/jobs", submit_body(method="full")
                )
                assert dead.json()["cached"] is False
                await wait_done(client, dead.json()["id"])

                # Textual variant of the property: synchronous warm hit.
                warm = await client.request(
                    "POST",
                    "/v1/jobs",
                    submit_body(property="reachable(eat0)", method="full"),
                )
                assert warm.status == 200
                body = warm.json()
                assert body["cached"] is True
                assert body["result"]["extras"]["property_holds"] is True

        run(main())

    def test_incompatible_property_rejected_on_the_wire(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                response = await client.request(
                    "POST",
                    "/v1/jobs",
                    submit_body(property="reachable(eat0)", method="stubborn"),
                )
                assert response.status == 400
                assert (
                    response.json()["error"]["reason"]
                    == "unsupported-property"
                )

        run(main())

    def test_healthz_reports_protocol_version(self, tmp_path):
        async def main():
            async with serve_app(tmp_path) as (_, client):
                response = await client.request("GET", "/healthz")
                assert response.json()["protocol_version"] == API_VERSION

        run(main())


class TestTimedSubmission:
    def test_timed_method_returns_full_counts(self, tmp_path):
        # A plain net runs as its [0, inf) timed wrapper, whose state
        # classes are exactly the markings full search stores.
        async def main():
            async with serve_app(tmp_path) as (_, client):
                records = {}
                for method in ("timed", "full"):
                    response = await client.request(
                        "POST", "/v1/jobs", submit_body(method=method)
                    )
                    assert response.status == 202
                    records[method] = await wait_done(
                        client, response.json()["id"]
                    )
                timed, full = records["timed"], records["full"]
                assert timed["engine_status"] == "ok"
                assert timed["result"]["analyzer"] == "timed"
                assert timed["verdict"] == full["verdict"] == "DEADLOCK"
                for key in ("states", "edges", "deadlock", "exhaustive"):
                    assert timed["result"][key] == full["result"][key]

        run(main())


async def wait_done(client: ServeClient, job_id: str) -> dict[str, Any]:
    while True:
        response = await client.request("GET", f"/v1/jobs/{job_id}")
        body = response.json()
        if body["state"] in ("done", "cancelled", "failed"):
            return body
        await asyncio.sleep(0.01)
