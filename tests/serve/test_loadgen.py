"""Tests for the load generator, chaos mode, and the serve/loadgen CLI."""

import io
import json

from repro.cli import main
from repro.serve import ServeResponse, run_loadgen
from repro.serve.loadgen import timing_quantiles

INTENT = (
    "Write a route-map stanza that permits routes with local-preference 300."
)


class TestRunLoadgen:
    def test_clean_campaign_applies_everything(self):
        report = run_loadgen(sessions=6, requests_per_session=2, workers=3, seed=2025)
        assert report.requests == 12
        assert report.outcomes == {"applied": 12}
        assert report.unresolved == 0
        assert report.throughput_rps > 0
        assert report.latency_quantiles["p50"] > 0
        assert report.counters["serve.requests"] == 12
        assert report.dedup["requests"] == report.counters["llm.dedup.requests"]

    def test_service_quantiles_exclude_queue_wait(self):
        replies = [
            ServeResponse("s", seq, "applied", latency_s=latency, queue_wait_s=wait)
            for seq, (latency, wait) in enumerate(
                [(1.0, 0.9), (2.0, 0.5), (0.5, 0.0)]
            )
        ]
        timings = timing_quantiles(replies)
        assert timings["service"]["p50"] == 0.5
        assert timings["service"]["max"] == 1.5
        assert timings["queue_wait"]["p50"] == 0.5
        assert timings["latency"]["max"] == 2.0

    def test_report_carries_service_quantiles(self):
        report = run_loadgen(sessions=2, requests_per_session=1, workers=1, seed=1)
        service = report.service_quantiles
        assert 0 < service["p50"] <= report.latency_quantiles["max"]
        assert service["max"] <= report.latency_quantiles["max"]
        assert "service_quantiles" in report.to_dict()

    def test_chaos_campaign_terminates_cleanly(self):
        report = run_loadgen(
            sessions=8,
            requests_per_session=2,
            workers=4,
            seed=2025,
            fault_rate=0.3,
        )
        # Liveness and containment: every ticket resolved, faults were
        # really injected, and nothing escaped as an internal error.
        assert report.unresolved == 0
        assert report.injected_faults > 0
        assert "internal-error" not in report.outcomes
        assert sum(report.outcomes.values()) == report.requests

    def test_tight_high_water_forces_retries_but_everything_lands(self):
        report = run_loadgen(
            sessions=6,
            requests_per_session=2,
            workers=2,
            seed=2025,
            queue_limit=2,
            high_water=2,
        )
        assert report.rejected_submissions > 0
        assert report.outcomes == {"applied": 12}

    def test_report_round_trips_through_json(self):
        report = run_loadgen(sessions=2, requests_per_session=1, workers=1, seed=1)
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["fingerprint"] == report.fingerprint

    def test_netwide_quality_axis(self):
        report = run_loadgen(
            sessions=3, requests_per_session=2, workers=2, seed=2025,
            netwide=True,
        )
        # Every request still lands; the gate ran once per insertion and
        # the analyzer's incremental cache was exercised.
        assert report.unresolved == 0
        assert report.netwide["lint.netwide_gate_checks"] == report.requests
        assert report.netwide["netwide.paths"] > 0
        assert report.netwide["netwide.paths.cached"] > 0

    def test_netwide_off_by_default(self):
        report = run_loadgen(sessions=2, requests_per_session=1, workers=1, seed=1)
        assert report.netwide == {}


class TestLoadgenCli:
    def test_check_serial_identity_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "loadgen",
                "--sessions", "6",
                "--workers", "3",
                "--seed", "2025",
                "--check-serial-identity",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "serial identity OK" in captured.out
        payload = json.loads(out.read_text())
        assert payload["identity"] is True
        assert payload["loadgen"]["outcomes"]["applied"] == 12
        assert payload["serial"]["fingerprint"] == payload["loadgen"]["fingerprint"]

    def test_identity_with_faults_is_refused(self, capsys):
        code = main(
            [
                "loadgen",
                "--sessions", "2",
                "--check-serial-identity",
                "--fault-rate", "0.2",
            ]
        )
        assert code == 1
        assert "schedule-dependent" in capsys.readouterr().err

    def test_chaos_run_exit_zero(self, capsys):
        code = main(
            [
                "loadgen",
                "--sessions", "4",
                "--workers", "4",
                "--seed", "2025",
                "--fault-rate", "0.2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["loadgen"]["fault_rate"] == 0.2
        assert "internal-error" not in payload["loadgen"]["outcomes"]


class TestServeCli:
    def _drive(self, monkeypatch, capsys, lines):
        stdin = io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["serve", "--workers", "2"])
        out = capsys.readouterr().out
        return code, [json.loads(line) for line in out.splitlines()]

    def test_open_request_close_loop(self, monkeypatch, capsys):
        code, replies = self._drive(
            monkeypatch,
            capsys,
            [
                {"op": "open", "session": "s1", "config": ""},
                {
                    "op": "request",
                    "session": "s1",
                    "intent": INTENT,
                    "target": "OUT",
                },
                {"op": "stats"},
                {"op": "close", "session": "s1"},
                {"op": "quit"},
            ],
        )
        assert code == 0
        opened, applied, stats, closed, quit_ = replies
        assert opened["ok"] and opened["session"] == "s1"
        assert applied["outcome"] == "applied"
        assert applied["config_sha256"]
        assert stats["sessions"] == 1
        assert closed["ok"]
        assert quit_["op"] == "quit"

    def test_errors_are_replies_not_crashes(self, monkeypatch, capsys):
        code, replies = self._drive(
            monkeypatch,
            capsys,
            [
                {"op": "request", "session": "ghost", "intent": "x", "target": "y"},
                {"op": "nonsense"},
                {"op": "open", "session": "s1"},
                {"op": "open", "session": "s1"},
                {"op": "quit"},
            ],
        )
        assert code == 0
        unknown, bad_op, opened, duplicate, _ = replies
        assert not unknown["ok"] and "ghost" in unknown["error"]
        assert not bad_op["ok"]
        assert opened["ok"]
        assert not duplicate["ok"] and "already open" in duplicate["error"]
