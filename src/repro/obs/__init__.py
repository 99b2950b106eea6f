"""repro.obs — sim-time metrics, structured tracing, and reporting.

One optional :class:`~repro.obs.observer.Observer` threads through the
whole stack (simulator, SAN, replication, cluster, shards); every
layer emits counters/gauges/histograms into a shared
:class:`~repro.obs.metrics.MetricsRegistry` and typed
:class:`~repro.obs.trace.TraceEvent` records into a shared
:class:`~repro.obs.trace.TraceRecorder`. Traces export to JSONL and
Chrome ``trace_event`` format (:mod:`repro.obs.export`), and
``python -m repro.obs.report`` reconstructs a failover timeline from a
trace file (:mod:`repro.obs.report`).

Default-off: an observer is only ever a constructor argument, and its
default, :data:`NULL_OBSERVER`, records nothing. Every number is
byte-identical attached and detached, which the tier-1
``test_observed_measurements_equal_detached`` holds.
"""

import inspect

from repro.obs.export import (
    chrome_trace_dict,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    HISTOGRAM_BOUNDS,
    Histogram,
    LatencySummary,
    MetricsRegistry,
)
from repro.obs.observer import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
)
from repro.obs.trace import (
    KIND_INSTANT,
    KIND_SPAN,
    TraceEvent,
    TraceRecorder,
)

# Symbols re-exported lazily (PEP 562): pre-importing the analysis
# layer through the package would trip runpy's double-import warning
# (report is runnable) and force every report, the auditor and the SLO
# fold on each ``import repro``, which needs only the emitting side.
_LAZY_EXPORTS = {
    "FailoverSpan": "repro.obs.report",
    "TimelineReport": "repro.obs.report",
    "analyze_timeline": "repro.obs.report",
    "AuditReport": "repro.obs.audit",
    "TraceAuditor": "repro.obs.audit",
    "Violation": "repro.obs.audit",
    "audit_events": "repro.obs.audit",
    "ScopeAvailability": "repro.obs.slo",
    "SloReport": "repro.obs.slo",
    "compute_slo": "repro.obs.slo",
    "COMMIT_PHASES": "repro.obs.spans",
    "CommitSpanRecorder": "repro.obs.spans",
    "CommitSpanTree": "repro.obs.spans",
    "PhaseAttribution": "repro.obs.spans",
    "attribute_commits": "repro.obs.spans",
    "collect_commit_spans": "repro.obs.spans",
    "DipSummary": "repro.obs.series",
    "SeriesFrame": "repro.obs.series",
    "TimeSeriesSampler": "repro.obs.series",
    "derive_dip": "repro.obs.series",
    "windowed_goodput": "repro.obs.series",
    "RECOVERY_PHASES": "repro.obs.recovery",
    "RecoveryLink": "repro.obs.recovery",
    "RecoverySpanRecorder": "repro.obs.recovery",
    "RecoveryTree": "repro.obs.recovery",
    "collect_recoveries": "repro.obs.recovery",
    "RecoveryDecomposition": "repro.obs.critpath",
    "ScopeDecomposition": "repro.obs.critpath",
    "SpanNode": "repro.obs.spans",
    "collect_span_forest": "repro.obs.spans",
    "decompose_recoveries": "repro.obs.critpath",
    "TraceDiff": "repro.obs.diff",
    "canonicalize_events": "repro.obs.diff",
    "diff_events": "repro.obs.diff",
    "diff_files": "repro.obs.diff",
    "AlertVerification": "repro.obs.alerts",
    "BurnRateRule": "repro.obs.alerts",
    "DEFAULT_RULES": "repro.obs.alerts",
    "evaluate_alerts": "repro.obs.alerts",
    "verify_alerts": "repro.obs.alerts",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Every public name is stated once above: the eager imports (not the
# submodules importing them binds here) plus the lazy table's keys.
__all__ = sorted(
    [
        name for name, value in globals().items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    + list(_LAZY_EXPORTS)
)
