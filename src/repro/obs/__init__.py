"""Run telemetry: structured metrics, span tracing, and persisted runs.

The observability layer answers "what happened inside run X" after the
process is gone.  Three cooperating pieces (see ``docs/OBSERVABILITY.md``):

* :class:`MetricsRecorder` — a thread-local collector (installed with
  :class:`record` or :func:`telemetry_run`) of counters, gauges, per-epoch
  time series, and spans.  Every training loop in the repository reports
  into it through the shared :class:`EpochHook` protocol via
  :func:`emit_epoch`; when no recorder (or other hook) is active the emit
  path is a no-op costing one thread-local read.
* :func:`trace_span` — nested spans that compose with
  :func:`repro.nn.profiler.profile` and attribute per-op time to named
  regions (``table7/seed0/GCMAE``).
* :class:`RunWriter` / :func:`telemetry_run` — stream events to an
  append-only ``events.jsonl`` plus an atomically-written ``manifest.json``
  under ``runs/<run_id>/``; ``repro runs list|show|diff`` reads them back.
* :class:`HealthMonitor` — an epoch hook streaming embedding-quality
  probes (alignment/uniformity, effective rank, dead dimensions) and
  anomaly verdicts as ``health`` events; can abort a diverging run.
* :func:`watch_run` / :class:`RunWatcher` — live-tail an in-flight run's
  ``events.jsonl`` (and pool-worker shards) for ``repro runs watch``.
* :mod:`repro.obs.history` — the ``benchmarks/history/`` perf-trajectory
  store behind ``repro bench record|trend|diff|check``.
"""

from .health import (
    DivergenceError,
    HealthConfig,
    HealthMonitor,
    HealthReport,
    embedding_health_metrics,
)
from .history import (
    Regression,
    detect_regressions,
    load_history,
    record_bench_history,
    render_history_diff,
    render_regressions,
    render_trend,
)
from .hooks import (
    EpochEvent,
    EpochHook,
    LambdaHook,
    active_hooks,
    emit_counter,
    emit_epoch,
    emit_gauge,
    gradient_norms,
    use_hooks,
)
from .inspect import (
    Run,
    find_run,
    list_runs,
    load_run,
    render_diff,
    render_list,
    render_show,
    sparkline,
)
from .recorder import EpochRecord, MetricsRecorder, active_recorder, record
from .shard import ShardWriter, merge_events, merge_shard, read_shard
from .schema import (
    EVENT_SCHEMAS,
    MANIFEST_SCHEMA,
    SCHEMA_VERSION,
    SchemaError,
    validate_event,
    validate_manifest,
)
from .spans import SpanRecord, current_span, trace_span
from .watch import EventTail, RunWatcher, render_watch, watch_run
from .writer import RunWriter, config_dict, make_run_id, telemetry_run

__all__ = [
    "DivergenceError",
    "EVENT_SCHEMAS",
    "EpochEvent",
    "EpochHook",
    "EpochRecord",
    "EventTail",
    "HealthConfig",
    "HealthMonitor",
    "HealthReport",
    "LambdaHook",
    "MANIFEST_SCHEMA",
    "MetricsRecorder",
    "Regression",
    "Run",
    "RunWatcher",
    "RunWriter",
    "SCHEMA_VERSION",
    "SchemaError",
    "ShardWriter",
    "SpanRecord",
    "active_hooks",
    "active_recorder",
    "config_dict",
    "current_span",
    "detect_regressions",
    "embedding_health_metrics",
    "emit_counter",
    "emit_epoch",
    "emit_gauge",
    "find_run",
    "gradient_norms",
    "list_runs",
    "load_history",
    "load_run",
    "make_run_id",
    "merge_events",
    "merge_shard",
    "read_shard",
    "record",
    "record_bench_history",
    "render_diff",
    "render_history_diff",
    "render_list",
    "render_regressions",
    "render_show",
    "render_trend",
    "render_watch",
    "sparkline",
    "telemetry_run",
    "trace_span",
    "use_hooks",
    "validate_event",
    "validate_manifest",
    "watch_run",
]
