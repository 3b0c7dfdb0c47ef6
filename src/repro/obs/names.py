"""Canonical names for everything the observability layer reports.

Every stat key in ``AnalysisResult.extras``, every metric instrument and
every span name used across the six analyzers is defined here **once**.
Before this module existed, ``states_per_second`` / ``stubborn_ratio``
etc. were bare string literals scattered over the search core, the
explorer adapters and the Table 1 harness, and the spellings had started
to drift.  Import the constants; never re-type the strings.

The module is a leaf: it imports nothing from ``repro``, so every layer
(including :mod:`repro.search.core`) can depend on it without cycles.
"""

from __future__ import annotations

__all__ = [
    "ABORTED",
    "ANALYSIS_EDGES",
    "ANALYSIS_SECONDS",
    "ANALYSIS_STATES",
    "BATCH_LEVEL_WIDTH",
    "BDD_CACHE_HIT_RATIO",
    "BDD_PEAK_NODES",
    "DEADLOCKS",
    "EXPANDED",
    "INSTRUMENTATION_FIELDS",
    "KERNEL_FIRES",
    "KERNEL_FULL_SCANS",
    "KERNEL_INCREMENTAL_UPDATES",
    "MAX_SCENARIOS",
    "MEAN_ENABLED",
    "MEAN_SCENARIOS",
    "PEAK_FRONTIER",
    "REDUCE_PLACES_REMOVED",
    "REDUCE_RULES_APPLIED",
    "REDUCE_TRANSITIONS_REMOVED",
    "SAFETY_CERTIFIED",
    "SCENARIO_SET_SIZE",
    "SHARDS",
    "SHARD_EXCHANGE_STALLS",
    "SHARD_EXCHANGE_VOLUME",
    "SPAN_ANALYZE",
    "SPAN_BOUNDED_CHECK",
    "SPAN_CERTIFICATE",
    "SPAN_DIAGNOSE",
    "SPAN_ENABLED_FAMILIES",
    "SPAN_GPN_BUILD",
    "SPAN_JOB",
    "SPAN_MULTIPLE_FIRE",
    "SPAN_PARALLEL_LEVEL",
    "SPAN_PARALLEL_SHARD",
    "SPAN_RACE",
    "SPAN_REDUCE",
    "SPAN_SEARCH",
    "SPAN_SERVE_QUEUE",
    "SPAN_SERVE_REQUEST",
    "SPAN_STUBBORN_SET",
    "SPAN_SYMBOLIC_ENCODE",
    "SPAN_SYMBOLIC_REACH",
    "SPAN_SYMBOLIC_ITERATION",
    "SPAN_UNFOLD",
    "SPAN_WITNESS",
    "SERVE_QUEUE_WAIT_SECONDS",
    "SERVE_REDUCE_SECONDS",
    "SERVE_SEARCH_SECONDS",
    "SERVE_SERIALIZE_SECONDS",
    "STATES_EXPANDED",
    "STATES_PER_SECOND",
    "STUBBORN_CLOSURE_ITERATIONS",
    "STUBBORN_RATIO",
    "STUBBORN_SET_SECONDS",
    "STUBBORN_SET_SIZE",
]

# ----------------------------------------------------------------------
# ``AnalysisResult.extras`` / JSONL-event stat keys.
# ----------------------------------------------------------------------
EXPANDED = "expanded"
PEAK_FRONTIER = "peak_frontier"
MEAN_ENABLED = "mean_enabled"
STATES_PER_SECOND = "states_per_second"
STUBBORN_RATIO = "stubborn_ratio"
MEAN_SCENARIOS = "mean_scenarios"
MAX_SCENARIOS = "max_scenarios"
SAFETY_CERTIFIED = "safety_certified"
ABORTED = "aborted"
#: Transitions processed by the stubborn-closure fixpoint (extras key and
#: metric counter).
STUBBORN_CLOSURE_ITERATIONS = "stubborn_closure_iterations"
#: Wall seconds spent choosing stubborn sets (vs expanding successors).
STUBBORN_SET_SECONDS = "stubborn_set_seconds"
#: Mean frontier rows per batched BFS level (extras key; the histogram
#: instrument of the same name records the per-level widths).
BATCH_LEVEL_WIDTH = "batch_level_width"
#: Shard count of a parallel exploration (extras key).
SHARDS = "shards"
#: Cross-shard candidate states exchanged at level barriers.
SHARD_EXCHANGE_VOLUME = "shard_exchange_volume"
#: Level barriers a shard sat out with an empty frontier.
SHARD_EXCHANGE_STALLS = "shard_exchange_stalls"

#: The instrumentation counters the search layer produces (driver stats
#: plus the adapter-specific counters of the stubborn and GPO spaces).
#: Historically exported as ``repro.search.core.INSTRUMENTATION_FIELDS``.
INSTRUMENTATION_FIELDS: tuple[str, ...] = (
    EXPANDED,
    PEAK_FRONTIER,
    MEAN_ENABLED,
    STATES_PER_SECOND,
    STUBBORN_RATIO,
    MEAN_SCENARIOS,
    MAX_SCENARIOS,
    SAFETY_CERTIFIED,
    STUBBORN_CLOSURE_ITERATIONS,
    STUBBORN_SET_SECONDS,
    BATCH_LEVEL_WIDTH,
    SHARDS,
    SHARD_EXCHANGE_VOLUME,
    SHARD_EXCHANGE_STALLS,
)

# ----------------------------------------------------------------------
# Metric instrument names (counters / gauges / histograms).
# ----------------------------------------------------------------------
#: Counter — states whose successors were generated (equals
#: ``extras["expanded"]`` where the driver ran, the analyzer's ``states``
#: field otherwise; the cross-analyzer tests hold this equality).
STATES_EXPANDED = "states_expanded"
#: Counter — stored states of the analysis (``AnalysisResult.states``).
ANALYSIS_STATES = "analysis_states"
#: Counter — edges of the analysis (``AnalysisResult.edges``).
ANALYSIS_EDGES = "analysis_edges"
#: Gauge — wall seconds of the analysis.
ANALYSIS_SECONDS = "analysis_seconds"
#: Counter — deadlock states recorded during the search.
DEADLOCKS = "deadlocks"
#: Histogram — enabled part of the chosen stubborn set, per marking.
STUBBORN_SET_SIZE = "stubborn_set_size"
#: Histogram — valid-scenario family size, per expanded GPN state.
SCENARIO_SET_SIZE = "scenario_set_size"
#: Gauge — hit ratio of the BDD manager's memoized ``ite`` cache.
BDD_CACHE_HIT_RATIO = "bdd_cache_hit_ratio"
#: Gauge — peak live BDD nodes of the symbolic fixpoint.
BDD_PEAK_NODES = "bdd_peak_nodes"
#: Counter — checked bitmask firings performed by the marking kernel.
KERNEL_FIRES = "kernel_fires"
#: Counter — full enabling scans (O(|T|)) performed by the kernel.
KERNEL_FULL_SCANS = "kernel_full_scans"
#: Counter — incremental enabled-mask updates (O(affected)).
KERNEL_INCREMENTAL_UPDATES = "kernel_incremental_updates"
#: Counter — structural reduction rule applications, labeled per rule.
REDUCE_RULES_APPLIED = "reduce_rules_applied"
#: Counter — places removed by the structural reduction pre-pass.
REDUCE_PLACES_REMOVED = "reduce_places_removed"
#: Counter — transitions removed by the structural reduction pre-pass.
REDUCE_TRANSITIONS_REMOVED = "reduce_transitions_removed"
# SLO decomposition histograms of the serve layer, labeled by analysis
# ``method`` and net ``family`` (see DESIGN.md §13).
#: Histogram — seconds a job sat in the tenant queue before dispatch.
SERVE_QUEUE_WAIT_SECONDS = "serve_queue_wait_seconds"
#: Histogram — seconds of the structural-reduction pre-pass per job.
SERVE_REDUCE_SECONDS = "serve_reduce_seconds"
#: Histogram — seconds of the search/analysis itself per job.
SERVE_SEARCH_SECONDS = "serve_search_seconds"
#: Histogram — seconds serializing the job's response payload.
SERVE_SERIALIZE_SECONDS = "serve_serialize_seconds"

# ----------------------------------------------------------------------
# Span names (the span taxonomy; see DESIGN.md §8).
# ----------------------------------------------------------------------
#: Canonical root span every analyzer emits around one whole run.
SPAN_ANALYZE = "analyze"
#: Structural safety-certificate consultation before exploring.
SPAN_CERTIFICATE = "certificate"
#: One driven exploration (the generic search core).
SPAN_SEARCH = "search"
#: Witness extraction after a deadlock was found.
SPAN_WITNESS = "witness"
#: One stubborn-set computation (per expanded marking).
SPAN_STUBBORN_SET = "stubborn/set"
#: GPN construction: structural analysis, family context and ``r0``.
SPAN_GPN_BUILD = "gpo/gpn_build"
#: One ``enabled_families`` scenario-maintenance pass (per GPN state).
SPAN_ENABLED_FAMILIES = "gpo/enabled_families"
#: One Def. 3.6 multiple firing.
SPAN_MULTIPLE_FIRE = "gpo/multiple_fire"
#: One whole symbolic fixpoint run (encoding plus every iteration).
SPAN_SYMBOLIC_REACH = "symbolic/reach"
#: Variable ordering + transition-relation construction.
SPAN_SYMBOLIC_ENCODE = "symbolic/encode"
#: One breadth-first image iteration of the symbolic fixpoint.
SPAN_SYMBOLIC_ITERATION = "symbolic/iteration"
#: Complete-finite-prefix construction.
SPAN_UNFOLD = "unfolding/unfold"
#: One engine job's lifetime (spawn to terminal event).
SPAN_JOB = "engine/job"
#: One portfolio race.
SPAN_RACE = "engine/race"
#: Structural diagnostics pass of ``gpo check``.
SPAN_DIAGNOSE = "check/diagnose"
#: Bounded exhaustive safety check of ``gpo check`` (certificate miss).
SPAN_BOUNDED_CHECK = "check/bounded"
#: One structural-reduction fixpoint (the ``--reduce`` pre-pass).
SPAN_REDUCE = "reduce"
#: One level barrier of the sharded parallel BFS.
SPAN_PARALLEL_LEVEL = "parallel/level"
#: One shard's slice of one BFS level (emitted inline and in workers).
SPAN_PARALLEL_SHARD = "parallel/shard"
#: One served request, admission to terminal state (serve daemon root).
SPAN_SERVE_REQUEST = "serve/request"
#: The queued phase of a served request (push to dispatch).
SPAN_SERVE_QUEUE = "serve/queue"
