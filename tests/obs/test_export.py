"""Exporter round-trips and text renderings."""

import json

import pytest

from repro import obs


@pytest.fixture
def populated():
    obs.uninstall()
    with obs.recording() as rec:
        with obs.span("cycle", target="ISP_OUT") as sp:
            with obs.span("verify"):
                pass
            sp.annotate(position=0)
        obs.count("llm.calls", 3)
        obs.count("verify.checks")
        obs.observe("overlaps", 2)
        obs.observe("overlaps", 4)
    return rec


class TestJsonRoundTrip:
    def test_to_json_matches_snapshot(self, populated):
        assert json.loads(obs.to_json(populated)) == obs.snapshot(populated)

    def test_snapshot_shape(self, populated):
        snap = obs.snapshot(populated)
        assert snap["version"] == obs.SNAPSHOT_VERSION
        assert set(snap["meta"]) == {
            "python",
            "implementation",
            "system",
            "machine",
            "cpu_count",
        }
        assert snap["meta"]["cpu_count"] >= 1
        assert snap["counters"] == {"llm.calls": 3, "verify.checks": 1}
        assert snap["histograms"]["overlaps"] == {
            "count": 2,
            "total": 6,
            "min": 2,
            "max": 4,
            "samples": [2, 4],
            "stride": 1,
        }
        (root,) = snap["spans"]
        assert root["name"] == "cycle"
        assert root["attrs"] == {"target": "ISP_OUT", "position": 0}
        assert [child["name"] for child in root["children"]] == ["verify"]

    def test_span_dict_round_trip_is_exact(self, populated):
        original = obs.span_to_dict(populated.roots[0])
        rebuilt = obs.span_from_dict(original)
        assert obs.span_to_dict(rebuilt) == original

    def test_snapshot_to_recorder_round_trip(self, populated):
        snap = obs.snapshot(populated)
        rebuilt = obs.snapshot_to_recorder(snap)
        assert obs.snapshot(rebuilt) == snap

    def test_open_span_serialises_with_null_duration(self):
        span = obs.Span("in-flight")
        data = obs.span_to_dict(span)
        assert data["duration_s"] is None
        assert obs.span_from_dict(data).duration_s is None


class TestTextRendering:
    def test_span_tree_layout(self, populated):
        text = obs.render_span_tree(populated.roots)
        lines = text.splitlines()
        assert lines[0].startswith("cycle [")
        assert "target=ISP_OUT" in lines[0]
        assert lines[1].startswith("`- verify [")
        assert "ms]" in lines[0]

    def test_metrics_lists_counters_sorted_then_histograms(self, populated):
        text = obs.render_metrics(populated)
        lines = text.splitlines()
        assert lines[0].split()[0] == "llm.calls"
        assert lines[1].split()[0] == "verify.checks"
        assert lines[2].startswith("overlaps")
        assert "count=2" in lines[2]
        assert "mean=3.00" in lines[2]
        assert "p50=3" in lines[2]
        assert "p95=" in lines[2] and "p99=" in lines[2]

    def test_version1_snapshot_still_loads(self, populated):
        # A pre-reservoir snapshot has no samples/stride keys.
        legacy = {"count": 2, "total": 6, "min": 2, "max": 4}
        hist = obs.Histogram.from_dict(legacy)
        assert hist.count == 2
        assert hist.quantile(0.5) is None

    def test_report_combines_sections(self, populated):
        text = obs.render_report(populated)
        assert "== spans ==" in text
        assert "== metrics ==" in text

    def test_report_on_empty_recorder(self):
        assert obs.render_report(obs.Recorder()) == "(nothing recorded)"
        assert obs.render_report(obs.NullRecorder()) == "(nothing recorded)"
