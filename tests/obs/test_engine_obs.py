"""Engine-layer observability: job spans, worker-trace merging, events."""

import io
import json
import os

from repro.engine.events import (
    EVENT_SCHEMA_VERSION,
    JobEvent,
    JsonlEventSink,
    read_events,
)
from repro.engine.jobs import Budget, VerificationJob
from repro.engine.pool import WorkerPool
from repro.engine.portfolio import run_race
from repro.models import nsdp
from repro.obs import names
from repro.obs.tracer import Tracer, activate


def job(net, method="full"):
    return VerificationJob(
        net=net, method=method, budget=Budget(max_seconds=60.0)
    )


class TestWorkerTraceMerging:
    def test_job_span_emitted_with_status(self):
        tracer = Tracer()
        with activate(tracer):
            (outcome,) = WorkerPool().run([job(nsdp(2))])
        assert outcome.status == "ok"
        job_spans = [
            r for r in tracer.records() if r["name"] == names.SPAN_JOB
        ]
        assert len(job_spans) == 1
        assert job_spans[0]["attrs"]["status"] == "ok"
        assert job_spans[0]["attrs"]["method"] == "full"

    def test_worker_spans_adopted_and_parented_under_job(self):
        tracer = Tracer()
        with activate(tracer):
            WorkerPool().run([job(nsdp(2))])
        records = tracer.records()
        (job_span,) = [r for r in records if r["name"] == names.SPAN_JOB]
        foreign = [r for r in records if r["pid"] != os.getpid()]
        # The forked worker's analyze span came back and nests under the
        # job span the parent opened.
        roots = [
            r
            for r in foreign
            if r["name"] == names.SPAN_ANALYZE
            and r.get("parent_id") == job_span["span_id"]
        ]
        assert len(roots) == 1

    def test_race_span_wraps_job_spans(self):
        tracer = Tracer()
        with activate(tracer):
            outcome = run_race(
                nsdp(2),
                methods=("full", "stubborn"),
                budget=Budget(max_seconds=60.0),
                jobs=1,
            )
        assert outcome.conclusive
        records = tracer.records()
        (race,) = [r for r in records if r["name"] == names.SPAN_RACE]
        assert race["attrs"]["winner"] == outcome.winner.job.method
        job_spans = [r for r in records if r["name"] == names.SPAN_JOB]
        assert job_spans
        assert all(
            r.get("parent_id") == race["span_id"] for r in job_spans
        )

    def test_untraced_run_records_nothing(self):
        (outcome,) = WorkerPool().run([job(nsdp(2))])
        assert outcome.status == "ok"
        from repro.obs.tracer import current_tracer

        assert current_tracer().records() == []


class TestEventSchema:
    def test_payload_carries_schema_version(self):
        event = JobEvent(
            kind="queued", job="n/full", method="full", net="n", timestamp=1.0
        )
        payload = event.payload()
        assert payload["v"] == EVENT_SCHEMA_VERSION
        assert "wall_seconds" not in payload  # None fields omitted

    def test_sink_lines_parse_and_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventSink(path) as sink:
            sink.emit(
                JobEvent(
                    kind="finished",
                    job="n/full",
                    method="full",
                    net="n",
                    timestamp=2.0,
                    wall_seconds=0.5,
                )
            )
        raw = json.loads(path.read_text().strip())
        assert raw["v"] == EVENT_SCHEMA_VERSION
        (back,) = read_events(path)
        assert back.kind == "finished"
        assert back.wall_seconds == 0.5

    def test_read_events_tolerates_unknown_keys(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"kind":"queued","job":"j","method":"full","net":"n",'
            '"timestamp":1.0,"v":99,"future_field":true}\n'
        )
        (event,) = read_events(path)
        assert event.kind == "queued"

    def test_sink_and_tracer_share_serializer(self):
        # One serialization code path: the sink's stream writer is the
        # exporters' JsonlWriter, so key ordering and separators match.
        from repro.obs.exporters import JsonlWriter

        stream = io.StringIO()
        sink = JsonlEventSink(stream)
        assert isinstance(sink._writer, JsonlWriter)
        sink.emit(
            JobEvent(
                kind="queued", job="j", method="m", net="n", timestamp=0.0
            )
        )
        line = stream.getvalue()
        assert line.endswith("\n")
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        ) + "\n"
