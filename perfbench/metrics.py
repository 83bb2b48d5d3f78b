"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` declares the same lists; a test keeps them equal.
"""

from __future__ import annotations

from typing import List, Tuple

from tracer import SPAN_NAMES

#: (name, unit, better) of the end-to-end metrics (untraced runs).
#: ``latency_p99_s`` is printed and recorded too, but not declared: its
#: run-to-run spread on a shared 2-core host exceeds the largest bound
#: the benchmark may set.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("latency_p90_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("study_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: The program's memo and intern tables, as :func:`repro.perf.cache_stats`
#: names them.
CACHE_TABLES = (
    "headerspace.intersect",
    "headerspace.is_empty",
    "headerspace.negation",
    "headerspace.regions",
    "headerspace.subtract_region",
    "headerspace.witness",
    "intervals.complement",
    "intervals.intersect",
    "intervals.sets",
    "routespace.intersect",
    "routespace.is_empty",
    "routespace.negation",
    "routespace.regions",
    "routespace.witness",
)

#: Per-layer metrics computed from the run rather than from one span.
_DERIVED: Tuple[Tuple[str, str, str], ...] = (
    ("serve.queue_wait_p50_s", "s", "lower"),
    ("serve.service_p50_s", "s", "lower"),
    ("store.fsync_per_req", "count", "lower"),
    ("store.fsync_s_per_req", "s", "lower"),
    ("journal.events_per_req", "count", "lower"),
    ("llm.calls_per_req", "count", "lower"),
    ("llm.complete_s", "s", "lower"),
    ("synthesis.attempts_per_req", "count", "lower"),
    ("disambiguate.questions_per_req", "count", "lower"),
    ("disambiguate.overlaps_per_req", "count", "lower"),
    ("campaign.acl.wall_s", "s", "lower"),
    ("campaign.route_map.wall_s", "s", "lower"),
    ("campaign.chain.wall_s", "s", "lower"),
    ("campaign.workers", "count", "higher"),
    ("campaign.chunks", "count", "lower"),
    ("trace.measured_s", "s", "lower"),
    ("trace.attributed_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    rows: List[Tuple[str, str, str]] = []
    for span in SPAN_NAMES:
        rows.append((f"{span}.calls", "count", "lower"))
        rows.append((f"{span}.self_s", "s", "lower"))
    rows.extend(_DERIVED)
    for table in CACHE_TABLES:
        rows.append((f"cache.{table}.hit_ratio", "ratio", "higher"))
    return tuple(rows)


#: (name, unit, better) of the per-layer metrics (traced runs).
PER_LAYER = _per_layer()
