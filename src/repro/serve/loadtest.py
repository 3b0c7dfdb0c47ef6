"""Async load generator for a running daemon (``gpo loadtest``).

Replays a deterministic mixed workload — Table 1 families at several
sizes, a mix of analyzer methods and property queries
(``property_mix``), native and PNML wire formats, tenants with
configurable skew — against ``gpo serve`` at a given concurrency,
then reports latency percentiles (p50/p90/p99), throughput, cache-hit
rate and error counts.  With ``repeat > 1`` the *same* workload (same
seed) is replayed again, so the second phase measures the warm shared
result cache.

Every completed job's verdict is cross-checked against a local
in-process run of the same :class:`~repro.engine.jobs.VerificationJob`
(``verify=True``), so a loadtest doubles as a differential test of the
serving path: any conclusive disagreement is a mismatch, and the CLI
exits non-zero on one.

The JSON artifact (``BENCH_serve.json``) records the serving
trajectory, stamped with the host it ran on
(:func:`repro.obs.benchmeta.stamp_bench`).
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.engine.jobs import Budget, VerificationJob, execute_job, is_conclusive
from repro.harness.table1 import PROBLEMS
from repro.net.parser import to_text
from repro.net.pnml import to_pnml
from repro.obs.benchmeta import stamp_bench
from repro.props.compat import filter_methods
from repro.props.eval import as_property
from repro.serve.client import ServeClient

__all__ = [
    "FAMILY_PROPERTIES",
    "LoadtestConfig",
    "format_report",
    "quick_config",
    "run_loadtest",
    "write_report",
]

#: Default per-family sizes — small enough that every analyzer finishes
#: in milliseconds, so latency measures the serving path, not the search.
DEFAULT_SIZES: Mapping[str, tuple[int, ...]] = {
    "NSDP": (2, 4, 6),
    "ASAT": (2, 4),
    "OVER": (2, 3),
    "RW": (6, 9),
}

#: Per-family property pool for ``property_mix`` draws.  Place names use
#: process index 0, which exists at every size the workload generates.
FAMILY_PROPERTIES: Mapping[str, tuple[str, ...]] = {
    "NSDP": ("reachable(eat0)", "invariant(!(eat0 & eat1))", "!deadlock"),
    "ASAT": ("reachable(use0)", "invariant(!(use0 & use1))"),
    "OVER": ("reachable(passing0)", "reachable(passing0 & passing1)"),
    "RW": ("reachable(writing0)", "invariant(!(writing0 & reading0))"),
}


@dataclass(frozen=True)
class LoadtestConfig:
    """One workload description (deterministic given ``seed``)."""

    host: str = "127.0.0.1"
    port: int = 8080
    requests: int = 100
    concurrency: int = 8
    tenants: int = 4
    #: Fraction of requests pinned to tenant 0 (the "noisy neighbour").
    skew: float = 0.0
    families: tuple[str, ...] = ("NSDP", "ASAT", "OVER", "RW")
    methods: tuple[str, ...] = ("gpo", "stubborn", "symbolic", "full")
    sizes: Mapping[str, tuple[int, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SIZES)
    )
    max_states: int = 100_000
    max_seconds: float = 30.0
    seed: int = 1998
    verify: bool = True
    poll_interval: float = 0.02
    repeat: int = 1
    #: Fraction of requests carrying a :data:`FAMILY_PROPERTIES` query in
    #: the v2 ``property`` field (the rest ask the deadlock question).
    property_mix: float = 0.0


def quick_config(host: str, port: int, **overrides: Any) -> LoadtestConfig:
    """The CI smoke preset: small, fast, still mixed."""
    defaults: dict[str, Any] = dict(
        host=host,
        port=port,
        requests=24,
        concurrency=6,
        tenants=3,
        families=("NSDP", "RW"),
        methods=("gpo", "stubborn", "symbolic"),
        sizes={"NSDP": (2, 4), "RW": (6,)},
        property_mix=0.25,
    )
    defaults.update(overrides)
    return LoadtestConfig(**defaults)


@dataclass
class _RequestSpec:
    family: str
    size: int
    method: str
    fmt: str
    tenant: str
    body: dict[str, Any]
    key: tuple[str, int, str, str]


def _compatible_methods(
    methods: tuple[str, ...], query: str
) -> tuple[str, ...]:
    """Methods the protocol layer would accept for ``query``."""
    kept, _ = filter_methods(methods, as_property(query))
    return kept


def _build_workload(config: LoadtestConfig) -> list[_RequestSpec]:
    rng = random.Random(config.seed)
    texts: dict[tuple[str, int, str], str] = {}
    specs: list[_RequestSpec] = []
    for _ in range(config.requests):
        family = rng.choice(config.families)
        size = rng.choice(config.sizes.get(family, DEFAULT_SIZES[family]))
        query = "deadlock"
        candidates = config.methods
        pool = FAMILY_PROPERTIES.get(family, ())
        if pool and rng.random() < config.property_mix:
            drawn = rng.choice(pool)
            # Draw the method from the pairs the protocol layer admits,
            # so a property request never burns a slot on a sure 400;
            # if no configured method can take it, keep the deadlock
            # question instead.
            kept = _compatible_methods(config.methods, drawn)
            if kept:
                query, candidates = drawn, kept
        method = rng.choice(candidates)
        fmt = rng.choice(("native", "pnml"))
        if rng.random() < config.skew or config.tenants <= 1:
            tenant = "tenant-0"
        else:
            tenant = f"tenant-{rng.randrange(config.tenants)}"
        text_key = (family, size, fmt)
        if text_key not in texts:
            net = PROBLEMS[family](size)
            texts[text_key] = to_pnml(net) if fmt == "pnml" else to_text(net)
        body = {
            "net": texts[text_key],
            "format": fmt,
            "method": method,
            "max_states": config.max_states,
            "max_seconds": config.max_seconds,
            "tenant": tenant,
            "priority": 0,
        }
        if query != "deadlock":
            body["property"] = query
        specs.append(
            _RequestSpec(
                family=family,
                size=size,
                method=method,
                fmt=fmt,
                tenant=tenant,
                body=body,
                key=(family, size, method, query),
            )
        )
    return specs


def _expected_verdicts(
    config: LoadtestConfig, specs: list[_RequestSpec]
) -> dict[tuple[str, int, str, str], dict[str, Any]]:
    """Ground truth: run each unique (family, size, method, query)
    in-process with the same budget."""
    out: dict[tuple[str, int, str, str], dict[str, Any]] = {}
    budget = Budget(
        max_states=config.max_states, max_seconds=config.max_seconds
    )
    for spec in specs:
        if spec.key in out:
            continue
        job = VerificationJob(
            net=PROBLEMS[spec.family](spec.size),
            method=spec.method,
            budget=budget,
            query=spec.key[3],
        )
        result = execute_job(job)
        out[spec.key] = {
            "deadlock": result.deadlock,
            "conclusive": is_conclusive(result),
            "property": result.property_text is not None,
            "holds": result.property_holds,
        }
    return out


async def _drive_one(
    client: ServeClient,
    spec: _RequestSpec,
    config: LoadtestConfig,
    semaphore: asyncio.Semaphore,
) -> dict[str, Any]:
    """Submit one job and follow it to a terminal state."""
    async with semaphore:
        started = time.perf_counter()
        try:
            response = await client.request("POST", "/v1/jobs", spec.body)
        except (OSError, ConnectionError) as exc:
            return {"outcome": "transport-error", "detail": str(exc), "key": spec.key}
        if response.status == 429:
            return {
                "outcome": "rejected",
                "retry_after": response.headers.get("retry-after"),
                "key": spec.key,
            }
        if response.status not in (200, 202):
            return {
                "outcome": "http-error",
                "status": response.status,
                "key": spec.key,
            }
        body = response.json()
        cached = response.status == 200
        while body.get("state") not in ("done", "cancelled", "failed"):
            await asyncio.sleep(config.poll_interval)
            poll = await client.request("GET", f"/v1/jobs/{body['id']}")
            if poll.status != 200:
                return {
                    "outcome": "http-error",
                    "status": poll.status,
                    "key": spec.key,
                }
            body = poll.json()
        latency = time.perf_counter() - started
        result = body.get("result") or {}
        extras = result.get("extras", {})
        return {
            "outcome": body["state"],
            "cached": cached or extras.get("cache") == "hit",
            "latency": latency,
            "deadlock": bool(result.get("deadlock", False)),
            "exhaustive": bool(result.get("exhaustive", False)),
            "holds": extras.get("property_holds")
            if "property" in extras
            else None,
            "key": spec.key,
        }


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def _summarize(
    name: str,
    rows: list[dict[str, Any]],
    wall_seconds: float,
    expected: Mapping[tuple[str, int, str, str], Mapping[str, Any]],
) -> dict[str, Any]:
    latencies = sorted(
        row["latency"] for row in rows if "latency" in row
    )
    outcomes: dict[str, int] = {}
    for row in rows:
        outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
    completed = [row for row in rows if row["outcome"] == "done"]
    cached = sum(1 for row in completed if row.get("cached"))
    mismatches: list[dict[str, Any]] = []
    for row in completed:
        want = expected.get(tuple(row["key"]))
        if want is None:
            continue
        if want.get("property"):
            # Property rows compare three-valued verdicts; only two
            # conclusive-but-different answers disagree.
            got_holds = row.get("holds")
            if (
                want["conclusive"]
                and got_holds is not None
                and got_holds != want["holds"]
            ):
                mismatches.append(
                    {"key": list(row["key"]), "got": got_holds,
                     "want": want["holds"]}
                )
            continue
        got_conclusive = row["deadlock"] or row["exhaustive"]
        if want["conclusive"] and got_conclusive:
            if row["deadlock"] != want["deadlock"]:
                mismatches.append(
                    {"key": list(row["key"]), "got": row["deadlock"],
                     "want": want["deadlock"]}
                )
    return {
        "phase": name,
        "requests": len(rows),
        "completed": len(completed),
        "outcomes": outcomes,
        "cache_hits": cached,
        "cache_hit_rate": (cached / len(completed)) if completed else 0.0,
        "verdict_mismatches": mismatches,
        "wall_seconds": round(wall_seconds, 4),
        "throughput_rps": (
            round(len(rows) / wall_seconds, 2) if wall_seconds > 0 else 0.0
        ),
        "latency_seconds": {
            "p50": round(_percentile(latencies, 0.50), 5),
            "p90": round(_percentile(latencies, 0.90), 5),
            "p99": round(_percentile(latencies, 0.99), 5),
            "mean": round(
                sum(latencies) / len(latencies), 5
            ) if latencies else 0.0,
            "max": round(latencies[-1], 5) if latencies else 0.0,
        },
    }


async def run_loadtest(config: LoadtestConfig) -> dict[str, Any]:
    """Run all phases of the workload; returns the full report dict."""
    specs = _build_workload(config)
    expected: dict[tuple[str, int, str, str], dict[str, Any]] = (
        _expected_verdicts(config, specs) if config.verify else {}
    )
    client = ServeClient(config.host, config.port)
    phases: list[dict[str, Any]] = []
    for phase_index in range(max(1, config.repeat)):
        semaphore = asyncio.Semaphore(config.concurrency)
        started = time.perf_counter()
        rows = list(
            await asyncio.gather(
                *(_drive_one(client, spec, config, semaphore) for spec in specs)
            )
        )
        wall = time.perf_counter() - started
        name = "cold" if phase_index == 0 else f"warm-{phase_index}"
        phases.append(_summarize(name, rows, wall, expected))
    return {
        "benchmark": "serve-loadtest",
        "config": {
            "requests": config.requests,
            "concurrency": config.concurrency,
            "tenants": config.tenants,
            "skew": config.skew,
            "families": list(config.families),
            "methods": list(config.methods),
            "sizes": {k: list(v) for k, v in config.sizes.items()},
            "max_states": config.max_states,
            "max_seconds": config.max_seconds,
            "seed": config.seed,
            "verified": config.verify,
            "repeat": max(1, config.repeat),
            "property_mix": config.property_mix,
        },
        "phases": phases,
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable phase summary for the CLI."""
    lines = [
        f"loadtest: {report['config']['requests']} requests, "
        f"concurrency {report['config']['concurrency']}, "
        f"tenants {report['config']['tenants']} "
        f"(skew {report['config']['skew']})"
    ]
    for phase in report["phases"]:
        latency = phase["latency_seconds"]
        lines.append(
            f"  [{phase['phase']}] {phase['completed']}/{phase['requests']} ok  "
            f"p50={latency['p50'] * 1000:.1f}ms  "
            f"p99={latency['p99'] * 1000:.1f}ms  "
            f"{phase['throughput_rps']:.1f} req/s  "
            f"cache-hit {phase['cache_hit_rate'] * 100:.0f}%  "
            f"mismatches {len(phase['verdict_mismatches'])}"
        )
        for outcome, count in sorted(phase["outcomes"].items()):
            if outcome != "done":
                lines.append(f"      {outcome}: {count}")
    return "\n".join(lines)


def write_report(report: dict[str, Any], path: str) -> None:
    """Write the JSON artifact (``BENCH_serve.json``), provenance-stamped
    with the shared ``meta`` mapping every BENCH writer carries (see
    :mod:`repro.obs.benchmeta`)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stamp_bench(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def mismatch_count(report: dict[str, Any]) -> int:
    """Total conclusive verdict disagreements across all phases."""
    return sum(
        len(phase["verdict_mismatches"]) for phase in report["phases"]
    )


__all__.append("mismatch_count")
