"""Command-line interface: ``gpo`` (or ``python -m repro``).

Subcommands::

    gpo query FILE PROP [--methods gpo,symbolic] [--jobs N] [--shards N]
                              # decide a property: structural layer, then
                              # a compat-filtered portfolio race
    gpo table1 [--problems NSDP,RW:2] [--jobs N] [--portfolio] [--stats]
                              # Table 1 rows; NAME:SIZE selects one instance
    gpo figures [--figure 1|2|3]
    gpo profile FAMILY SIZE [--analyzer gpo|full|...|timed]
                [--trace-out trace.json] [--metrics-out metrics.prom]
                              # traced+metered in-process run, span tree
    gpo check FILE [--shards N]
                              # structural diagnostics + safety check;
                              # --shards N > 1 runs the bounded walk on
                              # the sharded parallel explorer
    gpo lint FILE [--format human|json|sarif]
                              # full structural report (invariants, siphons,
                              # safety certificate, net class, reduction
                              # opportunities)
    gpo reduce FILE [--level count|reachability|deadlock] [--explain]
                [--diff] [--out PATH] [--trace-out PATH]
                              # structural reduction: emit the shrunk net
                              # and its replayable back-mapping trace
    gpo dot FILE [--rg]       # DOT export of the net (or its full RG)
    gpo serve [--port 8080] [--jobs N] [--queue-capacity N]
                              # verification-as-a-service HTTP daemon
    gpo loadtest [--quick] [--requests N] [--out BENCH_serve.json]
                              # replay a mixed workload against gpo serve
    gpo slo [--url URL | --file metrics.prom]
                              # per-phase serve SLO report (queue wait,
                              # reduce, search, serialize) from /metrics
    gpo debug flight [--url URL] [--limit N] [--json]
                              # dump the daemon's flight-recorder ring

``query`` is the one command that decides a property and ``table1`` the
one that prints benchmark rows.  ``check`` decides 1-safeness with the
structural certificate first (zero states explored) and falls back to
the bounded dynamic check; exit status is 0 = safe, 1 = unsafe,
2 = unknown (bound exhausted).  ``table1 --lint`` refuses structurally
broken models before spending any exploration budget.

``FILE`` is a net in the textual format of :mod:`repro.net.parser` or PNML
(detected by a leading ``<``).  ``query --methods timed`` reads the
textual format's ``@ [eft,lft]`` intervals and races the timed
state-class analyzer alone; PNML carries no intervals and runs untimed.

``PROP`` is a :mod:`repro.props` property: ``deadlock``,
``reachable(<pred>)``, ``invariant(<pred>)``, ``safe``, or boolean
combinations (``!``/``&``/``|``) of these; predicates are boolean
combinations of place names plus bound comparisons (``p <= 1``).
``query`` exits 0 = holds, 1 = violated, 2 = undecided or refused — for
``deadlock`` too, so 0 means a deadlock exists.

``table1`` / ``query`` run through the parallel execution engine
(:mod:`repro.engine`): ``--jobs N`` analyzer processes at a time,
hard-preempted at their deadline, with an on-disk result cache (disable
with ``--no-cache``; directory from ``--cache-dir`` or ``$GPO_CACHE_DIR``,
default ``.gpo-cache``) and a JSONL lifecycle-event log (``--events PATH``,
default ``<cache-dir>/events.jsonl`` when caching is on), which also
records each raced method's status.

``profile`` runs one analyzer in-process under the observability layer
(:mod:`repro.obs`) and prints the span tree; ``check`` / ``table1``
accept ``--trace PATH`` / ``--metrics PATH`` to export a Chrome trace and
Prometheus metrics from an otherwise normal run.

``check`` / ``query`` / ``table1`` accept ``--reduce[=auto|aggressive]``:
the :mod:`repro.reduce` structural pre-pass shrinks the net with
property-preserving rules before any exploration, and every verdict,
witness and trace is mapped back to the original net (``gpo reduce``
shows what the pre-pass would do).

``serve`` runs the long-lived verification daemon (:mod:`repro.serve`):
nets are submitted over HTTP (native format or PNML), queued with
priorities and per-tenant quotas, dispatched onto one warm worker pool
sharing one result cache, with per-job NDJSON event streams, live
``/metrics`` and ``/healthz``.  ``loadtest`` replays a deterministic
mixed workload against a running daemon and writes ``BENCH_serve.json``
(p50/p99 latency, throughput, cache-hit rate, differential verdict
checks); it exits 1 on any conclusive verdict mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import explore, fired_edges
from repro.engine.cache import ResultCache
from repro.engine.events import EventSink, JsonlEventSink
from repro.engine.jobs import ANALYZERS, Budget
from repro.engine.portfolio import DEFAULT_PORTFOLIO, run_race
from repro.harness.figures import (
    figure1_series,
    figure2_series,
    figure3_walkthrough,
    format_series,
)
from repro.harness.profile import observed, run_profile
from repro.obs import names
from repro.obs.tracer import span as obs_span
from repro.harness.table1 import (
    DEFAULT_SIZES,
    PROBLEMS,
    format_table1,
    run_table1,
)
from repro.net import (
    diagnose,
    check_safe,
    net_to_dot,
    parse_net,
    parse_pnml,
    parse_timed_net,
    reachability_to_dot,
)
from repro.static import certify_safety
from repro.static import lint as run_lint

__all__ = ["main"]


def _load(path: str, *, timed: bool = False):
    """Read a net file: PNML, or the textual format (with its intervals
    as a :class:`~repro.timed.tpn.TimedPetriNet` when ``timed``)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("<"):
        return parse_pnml(text)
    return parse_timed_net(text) if timed else parse_net(text)


def _engine_setup(
    args: argparse.Namespace,
) -> tuple[ResultCache | None, EventSink | None]:
    """Build the cache and event sink the engine-backed commands share."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.events:
        sink: EventSink | None = JsonlEventSink(args.events)
    elif cache is not None:
        sink = JsonlEventSink(cache.root / "events.jsonl")
    else:
        sink = None
    return cache, sink


def _table1_selection(text: str | None) -> dict[str, list[int]] | None:
    """``--problems`` as problem -> sizes; ``None`` after a usage error.

    Items are ``NAME`` (its Table 1 sizes) or ``NAME:SIZE`` (one
    instance); no selection means every problem at its Table 1 sizes.
    """
    if not text:
        return {problem: list(DEFAULT_SIZES[problem]) for problem in PROBLEMS}
    selection: dict[str, list[int]] = {}
    for item in text.split(","):
        problem, colon, size = item.partition(":")
        if problem not in PROBLEMS:
            print(f"unknown problem {problem!r}; choose from "
                  f"{', '.join(PROBLEMS)}", file=sys.stderr)
            return None
        if colon and not size.isdigit():
            print(f"bad instance {item!r}; expected NAME:SIZE with an "
                  "integer SIZE", file=sys.stderr)
            return None
        sizes = selection.setdefault(problem, [])
        for wanted in [int(size)] if colon else DEFAULT_SIZES[problem]:
            if wanted not in sizes:
                sizes.append(wanted)
    return selection


def _cmd_table1(args: argparse.Namespace) -> int:
    selection = _table1_selection(args.problems)
    if selection is None:
        return 2
    budget = Budget(max_states=args.max_states, max_seconds=args.max_seconds)
    if args.lint:
        refusal = _lint_refusal(
            PROBLEMS[problem](size)
            for problem, sizes in selection.items()
            for size in sizes
        )
        if refusal is not None:
            return refusal
    with observed(trace_out=args.trace, metrics_out=args.metrics):
        return _run_table1(args, selection, budget)


def _run_table1(
    args: argparse.Namespace, selection: dict[str, list[int]], budget: Budget
) -> int:
    cache, sink = _engine_setup(args)
    try:
        if args.portfolio:
            for problem, sizes in selection.items():
                for size in sizes:
                    outcome = run_race(
                        PROBLEMS[problem](size),
                        budget=budget,
                        jobs=args.jobs,
                        cache=cache,
                        events=sink,
                        reduce=args.reduce,
                    )
                    print(outcome.describe())
            return 0
        rows = run_table1(
            problems=list(selection),
            sizes=selection,
            budget=budget,
            jobs=args.jobs,
            cache=cache,
            events=sink,
            reduce=args.reduce,
        )
        print(
            format_table1(
                rows, with_paper=not args.no_paper, with_stats=args.stats
            )
        )
        if cache is not None and cache.hits:
            print(
                f"[cache] {cache.hits} hit(s), {cache.misses} miss(es) "
                f"in {cache.root}"
            )
        return 0
    finally:
        if sink is not None:
            sink.close()


def _unknown_method(methods) -> bool:
    """Report the first unknown analyzer of a ``--methods`` list on stderr."""
    for method in methods:
        if method not in ANALYZERS:
            print(
                f"unknown analyzer {method!r}; choose from "
                f"{', '.join(sorted(ANALYZERS))}",
                file=sys.stderr,
            )
            return True
    return False


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.props.decide import decide

    methods = args.methods.split(",") if args.methods else None
    if _unknown_method(methods or ()):
        return 2
    timed = methods is not None and "timed" in methods
    if timed and set(methods or ()) != {"timed"}:
        print(
            "timed reads the @ [eft,lft] intervals and races alone; "
            "run --methods timed without untimed methods",
            file=sys.stderr,
        )
        return 2
    net = _load(args.file, timed=timed)
    budget = Budget(max_states=args.max_states, max_seconds=args.max_seconds)
    cache, sink = _engine_setup(args)
    try:
        try:
            decision = decide(
                net,
                args.property,
                methods=methods,
                budget=budget,
                jobs=args.jobs,
                cache=cache,
                events=sink,
                use_static=not args.no_static,
                reduce=args.reduce,
                shards=args.shards,
            )
        except ValueError as exc:
            # Property errors, and jobs the engine refuses before any
            # worker starts (a timed net under --reduce or --shards).
            print(str(exc), file=sys.stderr)
            return 2
    finally:
        if sink is not None:
            sink.close()
    print(decision.describe())
    # The property convention, also for 'deadlock': 0 means the property
    # holds (a deadlock exists).
    if decision.holds is None:
        return 2
    return 0 if decision.holds else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    return run_profile(
        args.family,
        args.size,
        analyzer=args.analyzer,
        max_states=args.max_states,
        max_seconds=args.max_seconds,
        memory=args.memory,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        jsonl_out=args.jsonl_out,
    )


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.figure in (None, "1"):
        print(format_series(figure1_series(), title="Figure 1: n concurrent transitions"))
    if args.figure in (None, "2"):
        print(format_series(figure2_series(), title="Figure 2: n conflict pairs"))
    if args.figure in (None, "3"):
        print(figure3_walkthrough())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    with observed(trace_out=args.trace, metrics_out=args.metrics):
        return _run_check(args)


def _run_check(args: argparse.Namespace) -> int:
    net = _load(args.file)
    with obs_span(names.SPAN_DIAGNOSE, net=net.name):
        diagnostics = diagnose(net)
    if diagnostics.clean:
        print("structure: ok")
    else:
        print(diagnostics.summary())
    with obs_span(names.SPAN_CERTIFICATE, net=net.name) as cert_span:
        certificate = certify_safety(net)
        cert_span.set(certified=certificate.certified)
    if certificate.certified:
        print("safety: 1-safe (structural certificate, 0 states explored)")
        return 0
    walk_net = net
    if args.reduce != "off":
        # Only the count-preserving rules are sound here: they keep a
        # marking bijection, so a violation on the reduced net is a
        # violation on the original and vice versa.
        from repro.reduce import reduce_net

        reduction = reduce_net(net, level="count", mode=args.reduce)
        if reduction.reduced:
            walk_net = reduction.net
            (pre_p, pre_t, pre_a), (post_p, post_t, post_a) = reduction.sizes()
            print(
                f"[reduce] count-preserving pre-pass: "
                f"{pre_p}/{pre_t}/{pre_a} -> {post_p}/{post_t}/{post_a} "
                "places/transitions/arcs"
            )
    if args.shards > 1:
        return _check_sharded(walk_net, args)
    with obs_span(names.SPAN_BOUNDED_CHECK, net=net.name):
        verdict = check_safe(walk_net, max_states=args.max_states)
    if verdict.status == "safe":
        print(f"safety: 1-safe (exhaustive, {verdict.states} states)")
        return 0
    if verdict.status == "unsafe":
        print(f"safety: VIOLATION — {verdict.violation}")
        return 1
    print(
        f"safety: unknown — no certificate and the {args.max_states}-state "
        "bound was exhausted without a verdict"
    )
    return 2


def _check_sharded(walk_net, args: argparse.Namespace) -> int:
    """The ``--shards N`` bounded safety walk: sharded parallel BFS.

    The sharded explorer fires through the same 1-safety-checking kernel
    rules, so an :class:`UnsafeNetError` surfaces exactly where the
    sequential walk's violation would; an exhaustive clean run proves
    1-safety over the same state space.
    """
    from repro.net.exceptions import UnsafeNetError
    from repro.search.parallel import explore_parallel

    with obs_span(names.SPAN_BOUNDED_CHECK, net=walk_net.name):
        try:
            outcome = explore_parallel(
                walk_net, shards=args.shards, max_states=args.max_states
            )
        except UnsafeNetError as exc:
            print(f"safety: VIOLATION — {exc}")
            return 1
    if outcome.exhaustive:
        print(
            f"safety: 1-safe (exhaustive, {outcome.states} states, "
            f"{args.shards} shards, {outcome.workers})"
        )
        return 0
    print(
        f"safety: unknown — no certificate and the {args.max_states}-state "
        "bound was exhausted without a verdict "
        f"({args.shards} shards, {outcome.levels} levels)"
    )
    return 2


def _cmd_lint(args: argparse.Namespace) -> int:
    net = _load(args.file)
    fmt = "json" if args.json else args.format
    report = run_lint(net, reduce=not args.no_reduce)
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif fmt == "sarif":
        print(json.dumps(report.to_sarif(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 1 if report.broken else 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    from repro.net.parser import to_text
    from repro.reduce import ReductionLevelError, explain, reduce_net

    net = _load(args.file)
    for place in args.protect or ():
        if place not in net.place_index:
            print(f"unknown place {place!r}", file=sys.stderr)
            return 2
    try:
        reduction = reduce_net(
            net,
            level=args.level,
            mode=args.mode,
            protect=tuple(args.protect or ()),
        )
    except ReductionLevelError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.explain:
        print(explain(reduction))
    elif args.diff:
        print(_reduce_diff(net, reduction))
    else:
        print(to_text(reduction.net), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(to_text(reduction.net))
        print(f"[reduce] wrote {args.out}", file=sys.stderr)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(reduction.trace.to_json(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"[reduce] wrote {args.trace_out}", file=sys.stderr)
    return 0


def _reduce_diff(net, reduction) -> str:
    """Unified-diff-flavoured summary: what the reduction removed/added."""
    pre, post = reduction.sizes()
    lines = [
        f"--- {net.name} ({pre[0]}P/{pre[1]}T/{pre[2]}A)",
        f"+++ {net.name} reduced ({post[0]}P/{post[1]}T/{post[2]}A)",
    ]
    kept_places = set(reduction.net.places)
    kept_transitions = set(reduction.net.transitions)
    for place in net.places:
        if place not in kept_places:
            lines.append(f"-place {place}")
    for name in net.transitions:
        if name not in kept_transitions:
            lines.append(f"-transition {name}")
    for name in reduction.net.transitions:
        if name not in set(net.transitions):
            lines.append(f"+transition {name}")
    if not reduction.reduced:
        lines.append(" (irreducible: no rule applied)")
    return "\n".join(lines)


def _lint_refusal(instances) -> int | None:
    """The ``--lint`` pre-pass: lint each net, refuse on any broken one.

    Returns the exit status (2) when some model is refused, else ``None``.
    """
    broken = False
    for net in instances:
        report = run_lint(net)
        verdict = "BROKEN" if report.broken else "ok"
        print(f"[lint] {net.name}: {verdict}", file=sys.stderr)
        if report.broken:
            for line in report.summary().splitlines():
                print(f"[lint]   {line}", file=sys.stderr)
            broken = True
    if broken:
        print("[lint] refusing to run structurally broken models",
              file=sys.stderr)
        return 2
    return None


def _cmd_dot(args: argparse.Namespace) -> int:
    net = _load(args.file)
    if args.rg:
        graph = explore(net, max_states=args.max_states)
        print(
            reachability_to_dot(
                net,
                graph.states(),
                fired_edges(net, graph.states()),
                initial=net.initial_marking,
                deadlocks=graph.deadlocks,
            )
        )
    else:
        print(net_to_dot(net))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeApp, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        queue_capacity=args.queue_capacity,
        tenant_quota=args.tenant_quota,
        max_body_bytes=args.max_body_kb * 1024,
        default_max_seconds=args.max_seconds,
        max_seconds_cap=max(args.max_seconds, ServeConfig.max_seconds_cap),
    )
    app = ServeApp(config, events_path=args.events)

    async def _serve() -> None:
        await app.start()
        print(
            f"[serve] listening on http://{config.host}:{app.port} "
            f"(workers={config.workers}, queue={config.queue_capacity}, "
            f"cache={'off' if args.no_cache else 'on'})",
            flush=True,
        )
        await app.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("[serve] interrupted; shutting down")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import asyncio
    from urllib.parse import urlsplit

    from repro.serve import (
        LoadtestConfig,
        format_report,
        mismatch_count,
        quick_config,
        run_loadtest,
        write_report,
    )

    split = urlsplit(args.url if "//" in args.url else f"http://{args.url}")
    host = split.hostname or "127.0.0.1"
    port = split.port or 8080
    overrides = dict(
        seed=args.seed,
        verify=not args.no_verify,
        repeat=args.repeat,
    )
    for key in ("requests", "concurrency", "tenants", "skew", "property_mix"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.families:
        overrides["families"] = tuple(args.families.split(","))
    if args.methods:
        overrides["methods"] = tuple(args.methods.split(","))
    if args.quick:
        config = quick_config(host, port, **overrides)
    else:
        config = LoadtestConfig(host=host, port=port, **overrides)
    try:
        report = asyncio.run(run_loadtest(config))
    except (OSError, ConnectionError) as exc:
        print(f"loadtest: cannot reach {host}:{port} — {exc}", file=sys.stderr)
        return 2
    print(format_report(report))
    if args.out:
        write_report(report, args.out)
        print(f"[loadtest] wrote {args.out}")
    if mismatch_count(report):
        print(
            f"[loadtest] {mismatch_count(report)} verdict mismatch(es) "
            "against local runs",
            file=sys.stderr,
        )
        return 1
    return 0


def _fetch_url(url: str, timeout: float = 10.0) -> bytes:
    """GET one daemon URL (stdlib only); raises OSError on failure."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:  # noqa: S310
        return response.read()  # type: ignore[no-any-return]


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs.slo import format_slo

    if args.file:
        try:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"slo: cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
    else:
        url = args.url.rstrip("/") + "/metrics"
        try:
            text = _fetch_url(url).decode("utf-8", errors="replace")
        except (OSError, ValueError) as exc:
            print(f"slo: cannot fetch {url} — {exc}", file=sys.stderr)
            return 2
    print(format_slo(text))
    return 0


def _cmd_debug_flight(args: argparse.Namespace) -> int:
    url = args.url.rstrip("/") + "/v1/debug/flight"
    try:
        payload = json.loads(_fetch_url(url))
    except (OSError, ValueError) as exc:
        print(f"debug flight: cannot fetch {url} — {exc}", file=sys.stderr)
        return 2
    records = payload.get("records", [])
    if args.limit is not None:
        records = records[-args.limit :]
    if args.json:
        print(
            json.dumps(
                {**payload, "records": records}, indent=2, sort_keys=True
            )
        )
        return 0
    print(
        f"flight recorder: {len(records)} shown / "
        f"{payload.get('recorded', '?')} recorded "
        f"(capacity {payload.get('capacity', '?')})"
    )
    for record in records:
        kind = record.get("kind", record.get("name", "?"))
        rest = {
            k: v
            for k, v in record.items()
            if k not in ("kind", "name", "ts", "ts_ns")
        }
        stamp = record.get("ts") or record.get("ts_ns") or ""
        print(f"  {stamp} {kind} {json.dumps(rest, sort_keys=True)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="gpo",
        description="Generalized Partial Order Analysis for safe Petri nets "
        "(reproduction of Vercauteren et al., DATE 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(
        p: argparse.ArgumentParser,
        *,
        max_states: int = 200_000,
        max_seconds: float | None = 120.0,
    ) -> None:
        # max_seconds=None: the command takes a state bound only.
        p.add_argument("--max-states", type=int, default=max_states)
        if max_seconds is not None:
            p.add_argument("--max-seconds", type=float, default=max_seconds)

    def add_engine_flags(p: argparse.ArgumentParser, *, jobs: int) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=jobs,
            help=f"worker processes (default {jobs}); 1 = sequential",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the on-disk result cache",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            help="cache directory (default $GPO_CACHE_DIR or .gpo-cache)",
        )
        p.add_argument(
            "--events",
            default=None,
            metavar="PATH",
            help="JSONL job-event log (default <cache-dir>/events.jsonl)",
        )

    def add_reduce_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--reduce",
            nargs="?",
            const="auto",
            default="off",
            choices=("off", "auto", "aggressive"),
            help="structural reduction pre-pass (bare --reduce = auto); "
            "the rule subset is chosen from what the question must "
            "preserve, and verdicts/witnesses are mapped back to the "
            "original net",
        )

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="write a Chrome trace_event JSON of the run "
            "(open in chrome://tracing or Perfetto)",
        )
        p.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write Prometheus text-exposition metrics of the run",
        )

    p_query = sub.add_parser(
        "query",
        help="decide a property: structural layer first, then a "
        "compat-filtered portfolio race (exit 0 holds / 1 violated / "
        "2 undecided)",
    )
    p_query.add_argument("file")
    p_query.add_argument(
        "property",
        help="repro.props property, e.g. 'deadlock', 'reachable(a & !b)', "
        "'invariant(!(cs0 & cs1))', 'safe', 'reachable(a) | deadlock'",
    )
    p_query.add_argument(
        "--methods",
        help=f"comma list (default {','.join(DEFAULT_PORTFOLIO)}); "
        "incompatible methods are dropped with the declared reason",
    )
    p_query.add_argument(
        "--no-static",
        action="store_true",
        help="skip the structural (P-invariant / siphon-trap) fast path",
    )
    p_query.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="also enter the sharded parallel explorer with N shards "
        "(deadlock races only; the compat filter drops it otherwise)",
    )
    add_budget_flags(p_query)
    add_engine_flags(p_query, jobs=1)
    add_reduce_flag(p_query)
    p_query.set_defaults(fn=_cmd_query)

    p_table = sub.add_parser("table1", help="regenerate Table 1")
    p_table.add_argument(
        "--problems",
        help="comma list of NAME or NAME:SIZE, e.g. NSDP,RW:2",
    )
    add_budget_flags(p_table)
    p_table.add_argument("--no-paper", action="store_true")
    p_table.add_argument(
        "--stats",
        action="store_true",
        help="append instrumentation columns (states/sec, reduction ratio, "
        "mean scenario-family size)",
    )
    p_table.add_argument(
        "--portfolio",
        action="store_true",
        help="race the analyzers per instance instead of tabulating all",
    )
    p_table.add_argument(
        "--lint",
        action="store_true",
        help="structurally lint every instance first; refuse broken models",
    )
    add_engine_flags(p_table, jobs=1)
    add_obs_flags(p_table)
    add_reduce_flag(p_table)
    p_table.set_defaults(fn=_cmd_table1)

    p_profile = sub.add_parser(
        "profile",
        help="traced in-process run of one analyzer on one benchmark "
        "instance: span tree, metrics, exportable trace",
    )
    p_profile.add_argument("family", help="NSDP | ASAT | OVER | RW "
                           "(case-insensitive)")
    p_profile.add_argument("size", type=int)
    p_profile.add_argument(
        "--analyzer", choices=sorted(ANALYZERS), default="gpo"
    )
    add_budget_flags(p_profile)
    p_profile.add_argument(
        "--memory",
        action="store_true",
        help="attribute tracemalloc/RSS memory figures to spans",
    )
    p_profile.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace_event JSON (chrome://tracing, Perfetto)",
    )
    p_profile.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write Prometheus text-exposition metrics",
    )
    p_profile.add_argument(
        "--jsonl-out",
        default=None,
        metavar="PATH",
        help="write the raw JSONL trace records",
    )
    p_profile.set_defaults(fn=_cmd_profile)

    p_fig = sub.add_parser("figures", help="regenerate the figure claims")
    p_fig.add_argument("--figure", choices=("1", "2", "3"))
    p_fig.set_defaults(fn=_cmd_figures)

    p_check = sub.add_parser("check", help="diagnose a net file")
    p_check.add_argument("file")
    add_budget_flags(p_check, max_states=100_000, max_seconds=None)
    p_check.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run the bounded safety walk on the sharded parallel "
        "explorer with N shards (N > 1; same verdict, level-granular "
        "bound)",
    )
    add_obs_flags(p_check)
    add_reduce_flag(p_check)
    p_check.set_defaults(fn=_cmd_check)

    p_lint = sub.add_parser(
        "lint",
        help="structural report: invariants, siphons/traps, safety "
        "certificate, net class",
    )
    p_lint.add_argument("file")
    p_lint.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json (kept for compatibility)",
    )
    p_lint.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (sarif = SARIF 2.1.0 for editors/CI "
        "annotators)",
    )
    p_lint.add_argument(
        "--no-reduce",
        action="store_true",
        help="skip the structural-reduction opportunity findings",
    )
    p_lint.set_defaults(fn=_cmd_lint)

    p_reduce = sub.add_parser(
        "reduce",
        help="structurally reduce a net: emit the shrunk net (default), "
        "an --explain report or a --diff, plus the replayable trace",
    )
    p_reduce.add_argument("file")
    p_reduce.add_argument(
        "--level",
        choices=("count", "reachability", "deadlock"),
        default="deadlock",
        help="what the reduction must preserve (default deadlock; count "
        "= exact state/edge counts, the strictest subset)",
    )
    p_reduce.add_argument(
        "--mode",
        choices=("auto", "aggressive"),
        default="auto",
        help="fixpoint effort (aggressive = more passes, no siphon cap)",
    )
    p_reduce.add_argument(
        "--protect",
        action="append",
        default=None,
        metavar="PLACE",
        help="never remove this place (repeatable); e.g. places a "
        "property observes",
    )
    p_reduce.add_argument(
        "--explain",
        action="store_true",
        help="print one finding per rule application instead of the net",
    )
    p_reduce.add_argument(
        "--diff",
        action="store_true",
        help="print removed/added nodes instead of the net",
    )
    p_reduce.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the reduced net (textual format) to PATH",
    )
    p_reduce.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the replayable back-mapping trace JSON to PATH",
    )
    p_reduce.set_defaults(fn=_cmd_reduce)

    p_dot = sub.add_parser("dot", help="export DOT for a net (or its RG)")
    p_dot.add_argument("file")
    p_dot.add_argument("--rg", action="store_true")
    add_budget_flags(p_dot, max_states=5_000, max_seconds=None)
    p_dot.set_defaults(fn=_cmd_dot)

    p_serve = sub.add_parser(
        "serve",
        help="verification-as-a-service HTTP daemon (shared pool + cache)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="concurrent verification worker processes (default 2)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared on-disk result cache",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default $GPO_CACHE_DIR or .gpo-cache)",
    )
    p_serve.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="append every job lifecycle event to this JSONL file too",
    )
    p_serve.add_argument(
        "--queue-capacity",
        type=int,
        default=256,
        help="total queued jobs before 429 (default 256)",
    )
    p_serve.add_argument(
        "--tenant-quota",
        type=int,
        default=64,
        help="queued jobs one tenant may hold before 429 (default 64)",
    )
    p_serve.add_argument(
        "--max-body-kb",
        type=int,
        default=2048,
        help="request-body size limit in KiB (default 2048)",
    )
    p_serve.add_argument(
        "--max-seconds",
        type=float,
        default=30.0,
        help="default per-job wall-clock budget (default 30)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_load = sub.add_parser(
        "loadtest",
        help="replay a mixed workload against a running gpo serve daemon",
    )
    p_load.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="daemon base URL (default http://127.0.0.1:8080)",
    )
    p_load.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke preset: 24 requests over NSDP/RW at tiny sizes",
    )
    # Workload-shape flags default to None so --quick's preset is only
    # overridden when a flag is given explicitly.
    p_load.add_argument("--requests", type=int, default=None)
    p_load.add_argument("--concurrency", type=int, default=None)
    p_load.add_argument("--tenants", type=int, default=None)
    p_load.add_argument(
        "--skew",
        type=float,
        default=None,
        help="fraction of requests pinned to tenant-0 (noisy neighbour)",
    )
    p_load.add_argument("--families", help="comma list, e.g. NSDP,RW")
    p_load.add_argument(
        "--methods", help="comma list, e.g. gpo,stubborn,symbolic,full"
    )
    p_load.add_argument(
        "--property-mix",
        type=float,
        default=None,
        help="fraction of requests submitting a property query via the "
        "v2 'property' field (default 0; --quick preset 0.25)",
    )
    p_load.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="replay the identical workload N times (2 = cold then warm)",
    )
    p_load.add_argument("--seed", type=int, default=1998)
    p_load.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the differential check against local in-process runs",
    )
    p_load.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON report (e.g. BENCH_serve.json)",
    )
    p_load.set_defaults(fn=_cmd_loadtest)

    p_slo = sub.add_parser(
        "slo",
        help="per-phase SLO report (queue/reduce/search/serialize) from a "
        "daemon's /metrics",
    )
    p_slo.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="daemon base URL (default http://127.0.0.1:8080)",
    )
    p_slo.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help="read a saved Prometheus exposition instead of fetching --url",
    )
    p_slo.set_defaults(fn=_cmd_slo)

    p_debug = sub.add_parser(
        "debug", help="introspection of a running gpo serve daemon"
    )
    debug_sub = p_debug.add_subparsers(dest="what", required=True)
    p_flight = debug_sub.add_parser(
        "flight",
        help="dump the daemon's always-on flight-recorder ring",
    )
    p_flight.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="daemon base URL (default http://127.0.0.1:8080)",
    )
    p_flight.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show only the newest N records",
    )
    p_flight.add_argument(
        "--json",
        action="store_true",
        help="raw JSON instead of the one-line-per-record view",
    )
    p_flight.set_defaults(fn=_cmd_debug_flight)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
