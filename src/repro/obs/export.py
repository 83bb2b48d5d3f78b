"""Exporters: span trees and metric registries as text or JSON.

Two formats:

* **text** — :func:`render_span_tree` draws the forest with per-span
  wall-clock timings and attributes; :func:`render_metrics` tabulates
  counters and histogram summaries; :func:`render_report` is both.
* **JSON** — :func:`snapshot` flattens a recorder into plain dicts and
  lists (spans keep ``duration_s`` rather than raw clock readings, so a
  snapshot round-trips exactly through :func:`span_from_dict` /
  :func:`to_json` / ``json.loads``).  The benchmark harness writes one
  of these to ``benchmarks/BENCH_obs.json`` per run.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Any, Dict, List, Sequence, Union

from repro.obs.metrics import Histogram
from repro.obs.recorder import NullRecorder, Recorder, Span

#: Version 2 added the histograms' bounded sample reservoirs (``samples``
#: / ``stride`` keys); version-1 snapshots still load, with quantiles
#: unavailable.  Version 3 added the ``schema_version`` + ``meta``
#: run-metadata block (``bench-check`` refuses cross-version diffs).
SNAPSHOT_VERSION = 3


def run_metadata() -> Dict[str, Any]:
    """The environment block stamped into snapshots and bench artifacts.

    Deliberately coarse — interpreter and platform identity plus the
    core count, no timestamps or hostnames — so artifacts stay diffable
    across runs on the same machine while cross-machine comparisons are
    visibly cross-machine.  The core count is what a timing or a
    pool-vs-serial figure must be read against.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


# ----------------------------------------------------------------- spans


def span_to_dict(span: Span) -> Dict[str, Any]:
    """One span subtree as JSON-serialisable dicts."""
    return {
        "name": span.name,
        "duration_s": span.duration_s,
        "attrs": dict(span.attrs),
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(data: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` tree from :func:`span_to_dict` output."""
    span = Span(data["name"], data.get("attrs"))
    duration = data.get("duration_s")
    if duration is not None:
        span.start = 0.0
        span.end = duration
    span.children = [span_from_dict(child) for child in data.get("children", ())]
    return span


def _format_duration(duration_s) -> str:
    if duration_s is None:
        return "open"
    millis = duration_s * 1000.0
    if millis >= 100:
        return f"{millis:.0f} ms"
    if millis >= 1:
        return f"{millis:.2f} ms"
    return f"{millis:.3f} ms"


def _format_attrs(attrs: Dict[str, Any]) -> str:
    return " ".join(f"{key}={attrs[key]}" for key in attrs)


def render_span_tree(spans: Sequence[Span]) -> str:
    """The span forest as an indented tree with timings and attributes."""
    lines: List[str] = []

    def walk(span: Span, lead: str, child_lead: str) -> None:
        attrs = _format_attrs(span.attrs)
        line = f"{lead}{span.name} [{_format_duration(span.duration_s)}]"
        if attrs:
            line += f"  {attrs}"
        lines.append(line)
        for idx, child in enumerate(span.children):
            last = idx == len(span.children) - 1
            walk(
                child,
                child_lead + ("`- " if last else "|- "),
                child_lead + ("   " if last else "|  "),
            )

    for root in spans:
        walk(root, "", "")
    return "\n".join(lines)


# --------------------------------------------------------------- metrics


def render_metrics(recorder: Union[Recorder, NullRecorder]) -> str:
    """Counters and histogram summaries as aligned text lines."""
    lines: List[str] = []
    counters = getattr(recorder, "counters", {})
    histograms = getattr(recorder, "histograms", {})
    if counters:
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"{name:<{width}}  {counters[name]}")
    for name in sorted(histograms):
        hist = histograms[name]
        line = (
            f"{name}  count={hist.count} min={hist.min} "
            f"mean={hist.mean:.2f} max={hist.max}"
        )
        p50 = hist.quantile(0.5)
        if p50 is not None:
            line += (
                f" p50={p50:.4g} p95={hist.quantile(0.95):.4g} "
                f"p99={hist.quantile(0.99):.4g}"
            )
        lines.append(line)
    return "\n".join(lines)


def render_report(recorder: Union[Recorder, NullRecorder]) -> str:
    """A full human-readable report: span tree plus metric summary."""
    sections = []
    roots = getattr(recorder, "roots", ())
    if roots:
        sections.append("== spans ==\n" + render_span_tree(roots))
    metrics = render_metrics(recorder)
    if metrics:
        sections.append("== metrics ==\n" + metrics)
    return "\n\n".join(sections) if sections else "(nothing recorded)"


# ------------------------------------------------------------- snapshots


def snapshot(recorder: Union[Recorder, NullRecorder]) -> Dict[str, Any]:
    """The recorder's full state as JSON-serialisable dicts.

    ``version`` (the pre-v3 key) is kept alongside ``schema_version``
    so older tooling keeps loading new snapshots.
    """
    return {
        "schema_version": SNAPSHOT_VERSION,
        "meta": run_metadata(),
        "version": SNAPSHOT_VERSION,
        "counters": {
            name: value
            for name, value in sorted(getattr(recorder, "counters", {}).items())
        },
        "histograms": {
            name: hist.to_dict()
            for name, hist in sorted(getattr(recorder, "histograms", {}).items())
        },
        "spans": [span_to_dict(root) for root in getattr(recorder, "roots", ())],
    }


def to_json(recorder: Union[Recorder, NullRecorder], indent: int = 2) -> str:
    """:func:`snapshot` rendered as a JSON document."""
    return json.dumps(snapshot(recorder), indent=indent, sort_keys=True)


def snapshot_to_recorder(data: Dict[str, Any]) -> Recorder:
    """Rebuild a :class:`Recorder` from a snapshot dict (for tooling)."""
    recorder = Recorder()
    for name, value in data.get("counters", {}).items():
        recorder.counters[name] = value
    for name, hist in data.get("histograms", {}).items():
        recorder.histograms[name] = Histogram.from_dict(hist)
    recorder.roots = [span_from_dict(span) for span in data.get("spans", ())]
    return recorder


__all__ = [
    "SNAPSHOT_VERSION",
    "render_metrics",
    "run_metadata",
    "render_report",
    "render_span_tree",
    "snapshot",
    "snapshot_to_recorder",
    "span_from_dict",
    "span_to_dict",
    "to_json",
]
