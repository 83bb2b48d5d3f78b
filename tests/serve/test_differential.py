"""The serial-vs-pooled differential suite.

The serving layer's core invariant: a pooled run of a seeded campaign
produces exactly the per-session outcomes of a serial run — concurrency
changes latency, never results.
"""

import pytest

from repro.llm.intents import parse_acl_intent, parse_route_map_intent
from repro.serve import generate_workload, run_legs, run_loadgen


class TestWorkloadGeneration:
    def test_pure_function_of_seed(self):
        first = generate_workload(12, 3, seed=7)
        second = generate_workload(12, 3, seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        assert generate_workload(12, 3, seed=7) != generate_workload(
            12, 3, seed=8
        )

    def test_mixes_campus_and_cloud(self):
        archetypes = {s.archetype for s in generate_workload(16, 2, seed=2025)}
        assert archetypes == {"campus", "cloud"}

    def test_every_intent_parses_under_the_grammar(self):
        for spec in generate_workload(24, 3, seed=2025):
            for intent in spec.intents:
                if spec.archetype == "campus":
                    parsed = parse_route_map_intent(intent)
                    assert parsed.action in ("permit", "deny")
                else:
                    parsed = parse_acl_intent(intent)
                    assert parsed.protocol == "tcp"

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_workload(0)
        with pytest.raises(ValueError):
            generate_workload(4, 0)


class TestSerialPooledIdentity:
    def test_identity_holds(self):
        legs = run_legs(
            ["serial"], sessions=8, requests_per_session=2, workers=4, seed=2025
        )
        assert not legs.failures, legs.failures
        serial, pooled = legs.results["serial"].report, legs.reference
        assert serial.fingerprint == pooled.fingerprint
        assert serial.outcomes == pooled.outcomes
        assert serial.workers == 1
        assert pooled.workers == 4

    def test_identity_holds_for_another_seed(self):
        legs = run_legs(
            ["serial"], sessions=6, requests_per_session=2, workers=3, seed=99
        )
        assert not legs.failures, legs.failures
        assert legs.results["serial"].report.fingerprint == (
            legs.reference.fingerprint
        )

    def test_fingerprint_reproducible_across_runs(self):
        first = run_loadgen(sessions=6, requests_per_session=2, workers=2, seed=5)
        second = run_loadgen(sessions=6, requests_per_session=2, workers=2, seed=5)
        assert first.fingerprint == second.fingerprint

    def test_fingerprint_sensitive_to_seed(self):
        a = run_loadgen(sessions=6, requests_per_session=2, workers=2, seed=5)
        b = run_loadgen(sessions=6, requests_per_session=2, workers=2, seed=6)
        assert a.fingerprint != b.fingerprint
