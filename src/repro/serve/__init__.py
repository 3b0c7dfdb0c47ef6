"""Verification-as-a-service: a stdlib-only asyncio HTTP daemon.

``repro.serve`` turns the one-shot execution engine into serving
capacity: one long-lived process with one warm
:class:`~repro.engine.pool.WorkerPool` and one shared result cache
behind an HTTP API —

* :class:`~repro.serve.app.ServeApp` — the daemon (``gpo serve``);
* :class:`~repro.serve.queue.TenantQueue` — priority admission with
  per-tenant quotas and 429 backpressure;
* :class:`~repro.serve.client.ServeClient` — stdlib asyncio client.

Serving cost is measured by the ``served-mix`` workload of
``perfbench/``; that every served answer equals a local
:func:`~repro.engine.jobs.execute_job` run is checked by
``tests/serve/test_served_differential.py``.

API surface (v1)::

    POST   /v1/jobs             submit a net (native/PNML); cache hits
                                answer synchronously
    GET    /v1/jobs/{id}        status + AnalysisResult JSON
    GET    /v1/jobs/{id}/events chunked NDJSON lifecycle-event stream
    DELETE /v1/jobs/{id}        cancel (queued or running)
    GET    /metrics             live Prometheus text exposition
    GET    /healthz             build/schema versions, queue/jobs summary
"""

from repro.serve.app import ServeApp
from repro.serve.client import HttpResponse, ServeClient
from repro.serve.config import ServeConfig
from repro.serve.jobs import JobRecord, JobStore
from repro.serve.protocol import ApiError, parse_submit, parse_wire_net
from repro.serve.queue import QueueFull, TenantQueue

__all__ = [
    "ApiError",
    "HttpResponse",
    "JobRecord",
    "JobStore",
    "QueueFull",
    "ServeApp",
    "ServeClient",
    "ServeConfig",
    "TenantQueue",
    "parse_submit",
    "parse_wire_net",
]
