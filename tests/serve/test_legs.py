"""The differential-legs harness: every leg holds, and every leg can fail.

Each divergence test injects one fault into one leg, then checks both
the runner's verdict (the ``legs`` block ``clarify loadgen --output``
writes is :meth:`LegsReport.to_dict`) and the command's exit status.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.cli import main
from repro.llm.simulated import SimulatedLLM
from repro.obs import telemetry as tele
from repro.serve import LEGS, Leg, ServeResponse, run_legs, run_loadgen
from repro.serve import legs as legs_mod
from repro.serve.service import OUTCOME_KEY_FIELDS, outcome_key

CAMPAIGN = dict(sessions=4, requests_per_session=2, workers=2, seed=2025)
TINY = dict(sessions=2, requests_per_session=1, seed=1)


@pytest.fixture(autouse=True)
def no_leftover_hub():
    yield
    tele.uninstall_hub()


class WorkerSkewedLLM(SimulatedLLM):
    """Answers garbage on every serve worker but the first.

    A backend whose replies depend on the schedule: one worker sees
    only correct replies, so serial runs are clean and pooled ones are
    not.
    """

    def complete(self, system: str, prompt: str) -> str:
        if not threading.current_thread().name.endswith("-0"):
            return "no configuration here"
        return super().complete(system, prompt)


def _cli(tmp_path, legs, *extra):
    out = tmp_path / "BENCH_serve.json"
    code = main(
        [
            "loadgen",
            "--sessions", str(CAMPAIGN["sessions"]),
            "--workers", str(CAMPAIGN["workers"]),
            "--seed", str(CAMPAIGN["seed"]),
            "--legs", legs,
            "--output", str(out),
            *extra,
        ]
    )
    return code, json.loads(out.read_text())["legs"]


def _replace(monkeypatch, name, **changes):
    leg = dataclasses.replace(LEGS[name], **changes)
    monkeypatch.setitem(LEGS, name, leg)
    return leg


class TestLegsHold:
    def test_six_legs_agree_with_pooled(self):
        report = run_legs(
            ["serial", "sharded", "killed", "cache-cold", "cache-warm"],
            **CAMPAIGN,
        )
        assert not report.failures, report.failures
        assert list(report.results) == [
            "pooled", "serial", "sharded", "killed", "cache-cold", "cache-warm",
        ]
        fingerprints = {r.report.fingerprint for r in report.results.values()}
        assert fingerprints == {report.reference.fingerprint}
        killed = report.results["killed"].report
        assert killed.restarts >= 1 and killed.restored_sessions >= 1
        block = report.to_dict()
        assert block["reference"] == "pooled"
        assert block["legs"]["cache-warm"]["upstream_llm_calls"] == 0
        assert block["legs"]["killed"]["overrides"]["kill_and_restart"] is True

    def test_telemetry_off_runs_interleaved_pairs_on_one_fingerprint(self):
        report = run_legs(["telemetry-off"], **CAMPAIGN)
        result = report.results["telemetry-off"]
        assert len(result.runs) == len(result.paired) == legs_mod.OVERHEAD_REPEATS
        assert not [f for f in result.failures if f.startswith("fingerprint")]
        assert all(r.telemetry["enabled"] is False for r in result.runs)
        assert all(r.telemetry["enabled"] is True for r in result.paired)
        block = result.to_dict()
        assert block["p50_ratio"] == pytest.approx(
            min(block["paired_p50_s"]) / min(block["p50_s"])
        )
        assert len(block["service_p50_s"]) == len(result.runs)
        assert len(block["paired_service_p50_s"]) == len(result.paired)

    def test_the_reference_alone_runs_any_campaign(self):
        report = run_legs([], workers=2, fault_rate=0.3, **TINY)
        assert list(report.results) == ["pooled"]
        assert report.reference.fault_rate == 0.3

    def test_only_the_reference_writes_the_event_log(self, tmp_path):
        log = tmp_path / "events.jsonl"
        run_legs(["serial"], workers=2, event_log=str(log), **TINY)
        assert len(log.read_text().splitlines()) == 2


class TestRefusals:
    @pytest.mark.parametrize(
        "campaign, message",
        [
            ({"fault_rate": 0.2}, "fault-free"),
            ({"deadline_s": 5.0}, "deadline-free"),
        ],
    )
    def test_schedule_dependent_campaigns(self, campaign, message):
        with pytest.raises(ValueError, match=message):
            run_legs(["serial"], workers=1, **TINY, **campaign)

    def test_sharded_legs_refuse_netwide(self):
        with pytest.raises(ValueError, match="--netwide"):
            run_legs(["killed"], workers=1, netwide=True, **TINY)

    def test_telemetry_off_needs_telemetry_on(self):
        with pytest.raises(ValueError, match="--no-telemetry"):
            run_legs(["telemetry-off"], workers=1, telemetry=False, **TINY)

    def test_unknown_leg_and_missing_dependency(self):
        with pytest.raises(ValueError, match="unknown leg 'tepid'"):
            run_legs(["tepid"])
        with pytest.raises(ValueError, match="needs the cache-cold leg"):
            run_legs(["cache-warm"])

    def test_cli_reports_a_refusal(self, capsys):
        code = main(["loadgen", "--sessions", "2", "--legs", "bogus"])
        assert code == 1
        assert "unknown leg 'bogus'" in capsys.readouterr().err


class TestEveryLegCanFail:
    """One injected divergence per leg; the runner and the CLI both fail."""

    def test_serial_with_another_seed(self, monkeypatch, tmp_path):
        _replace(monkeypatch, "serial", overrides={"workers": 1, "seed": 2026})
        code, block = _cli(tmp_path, "serial")
        assert code == 1
        assert block["legs"]["pooled"]["ok"] is True
        (failure,) = block["legs"]["serial"]["failures"]
        assert failure.startswith("fingerprint")

    def test_pooled_on_a_schedule_dependent_backend(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "repro.serve.loadgen.build_backend",
            lambda spec, **kwargs: WorkerSkewedLLM(),
        )
        code, block = _cli(tmp_path, "serial,pooled")
        assert code == 1
        assert block["ok"] is False
        assert block["legs"]["serial"]["fingerprint"] != block["fingerprint"]

    def test_sharded_with_another_seed(self, monkeypatch, tmp_path):
        _replace(
            monkeypatch, "sharded",
            overrides={"store_root": "sharded", "seed": 2026},
        )
        code, block = _cli(tmp_path, "sharded")
        assert code == 1
        (failure,) = block["legs"]["sharded"]["failures"]
        assert failure.startswith("fingerprint")

    def test_killed_without_the_kill(self, monkeypatch, tmp_path):
        _replace(monkeypatch, "killed", overrides={"store_root": "killed"})
        code, block = _cli(tmp_path, "killed")
        assert code == 1
        leg = block["legs"]["killed"]
        assert leg["restarts"] == 0
        (failure,) = leg["failures"]
        assert "no recovery" in failure

    def test_cache_cold_against_a_cached_reference(self, tmp_path):
        warm = tmp_path / "warm"
        run_loadgen(cache_dir=str(warm), **CAMPAIGN)
        code, block = _cli(tmp_path, "cache-cold", "--cache-dir", str(warm))
        assert code == 1
        assert block["legs"]["pooled"]["upstream_llm_calls"] == 0
        (failure,) = block["legs"]["cache-cold"]["failures"]
        assert "not at most pooled's 0" in failure

    def test_cache_warm_on_a_fresh_directory(self, monkeypatch, tmp_path):
        _replace(monkeypatch, "cache-warm", overrides={"cache_dir": "fresh"})
        code, block = _cli(tmp_path, "cache-cold,cache-warm")
        assert code == 1
        assert block["legs"]["cache-cold"]["ok"] is True
        (failure,) = block["legs"]["cache-warm"]["failures"]
        assert "not below cache-cold's" in failure

    def test_telemetry_off_against_a_slowed_hub(self, monkeypatch, tmp_path):
        count = tele.TelemetryHub.count

        def slow_count(self, name, value):
            time.sleep(0.002)
            count(self, name, value)

        monkeypatch.setattr(tele.TelemetryHub, "count", slow_count)
        code, block = _cli(tmp_path, "telemetry-off")
        assert code == 1
        leg = block["legs"]["telemetry-off"]
        assert leg["p50_ratio"] > legs_mod.OVERHEAD_BOUND
        (failure,) = leg["failures"]
        assert "telemetry overhead" in failure

    def test_runner_reports_the_failed_leg(self, monkeypatch):
        monkeypatch.setitem(LEGS, "serial", Leg("serial", {"workers": 1, "seed": 7}))
        report = run_legs(["serial"], workers=2, **TINY)
        (failure,) = report.failures
        assert failure.startswith("serial: fingerprint")
        assert report.to_dict()["ok"] is False


class TestOutcomeKey:
    """One field tuple defines the fingerprint in-process and on the wire."""

    def test_wire_payload_reduces_to_the_in_process_key(self):
        response = ServeResponse(
            "s1", 3, "applied", detail="ok", position=2, llm_calls=4,
            questions=1, attempts=2, overlaps=(1, 5), gate_warnings=("w",),
            config_sha256="ab", latency_s=0.5, trace_id="t",
        )
        key = response.outcome_key()
        assert tuple(key) == OUTCOME_KEY_FIELDS
        wire = json.loads(json.dumps(response.to_dict()))
        assert outcome_key(wire) == key

    def test_missing_wire_fields_take_canonical_defaults(self):
        key = outcome_key({"session": "s", "seq": 0, "outcome": "error"})
        assert key == ServeResponse("s", 0, "error").outcome_key()
