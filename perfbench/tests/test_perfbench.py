"""The benchmark's own tests: inputs, metric names, checks and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import time

import pytest

import metrics
import serving
import study
import workloads
from repro.serve import ServeResponse
from tracer import TARGETS, Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ------------------------------------------------------------- inputs


@pytest.mark.parametrize("workload", workloads.SERVE_WORKLOADS)
def test_serve_inputs_are_a_pure_function_of_the_seed(workload):
    assert workloads.serve_cycle(workload, 7) == workloads.serve_cycle(workload, 7)
    assert workloads.serve_cycle(workload, 7) != workloads.serve_cycle(workload, 8)


def test_serve_cycles_are_loadgen_sessions():
    from repro.serve.loadgen import generate_workload

    default = generate_workload(16, 2, 2025)
    campus = [spec for spec in default if spec.archetype == "campus"]
    for seed in (0, 1, 99):
        cycle = workloads.routemap_cycle(seed)
        assert sorted(cycle, key=lambda s: s.session_id) == campus
        drawn = generate_workload(64, 2, seed)
        assert workloads.acl_cycle(seed) == [
            spec for spec in drawn if spec.archetype == "cloud"
        ][: workloads.ACL_SESSIONS_PER_CYCLE]


def test_study_inputs_are_a_pure_function_of_the_seed():
    def digest(inputs):
        return (
            [acl.name for acl in inputs.campus_acls],
            [str(acl) for acl in inputs.campus_acls[:50]],
            [rm.name for rm in inputs.campus_route_maps],
            [acl.name for acl in inputs.cloud_acls],
            [rm.name for rm in inputs.cloud_route_maps],
            list(inputs.cloud_chains),
        )

    first = digest(workloads.study_inputs(3))
    assert first == digest(workloads.study_inputs(3))
    assert first != digest(workloads.study_inputs(4))


# ------------------------------------------------------------ metrics


def test_metric_names_are_valid_and_match_benchmark_json():
    declared = _benchmark_json()
    for section, rows in (
        ("end_to_end", metrics.END_TO_END),
        ("per_layer", metrics.PER_LAYER),
    ):
        names = [name for name, _, _ in rows]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names), names
        listed = [(m["name"], m["unit"], m["better"]) for m in declared[section]]
        assert listed == list(rows), section
    workload_names = [w["name"] for w in declared["workloads"]]
    assert workload_names == list(workloads.WORKLOADS)


def test_every_span_target_exists_in_the_program():
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert {name for name, _ in TARGETS} <= set(n.rsplit(".", 1)[0] for n, _, _ in metrics.PER_LAYER)


# ------------------------------------------------------------- checks


def _response(session, seq, outcome="applied", position=1):
    return ServeResponse(
        session=session, seq=seq, outcome=outcome, position=position,
        llm_calls=3, attempts=1, config_sha256="abc",
    )


def _loop(outcome="applied", count=4):
    sessions = [
        serving.Served(
            index, [_response(f"s{index}", seq, outcome) for seq in range(2)],
            [0.1, 0.2],
        )
        for index in range(count)
    ]
    return serving.LoopResult(sessions, cycle_len=2, errors=[])


def test_session_check_passes_on_pinned_fingerprints():
    result = _loop()
    expected = [serving.spec_fingerprint(result.sessions[i].responses) for i in (0, 1)]
    check = serving.check_sessions(result, expected)
    assert (check["attempted"], check["failed"]) == (8, 0)


def test_session_check_fails_on_a_wrong_fingerprint():
    result = _loop()
    right = serving.spec_fingerprint(result.sessions[0].responses)
    check = serving.check_sessions(result, [right, "0" * 16])
    assert check["failed"] == 4  # both sessions of spec 1, two requests each
    assert check["mismatches"]


def test_session_check_fails_on_an_unapplied_request():
    result = _loop(outcome="needs-clarification")
    expected = [serving.spec_fingerprint(result.sessions[i].responses) for i in (0, 1)]
    assert serving.check_sessions(result, expected)["failed"] == 8


def test_fingerprint_ignores_the_session_name():
    a = [_response("rm0-0", 0)]
    b = [_response("rm0-8", 0)]
    assert serving.spec_fingerprint(a) == serving.spec_fingerprint(b)
    assert serving.spec_fingerprint(a) != serving.spec_fingerprint(
        [_response("rm0-0", 0, position=2)]
    )


def test_pins_match_a_serial_reference_run():
    with open(os.path.join(BENCH, "pins.json")) as handle:
        pins = json.load(handle)
    cycle = workloads.acl_cycle(0) + workloads.routemap_cycle(0)[:3]
    assert [pins[workloads.spec_key(spec)] for spec in cycle] == (
        serving.reference_fingerprints(cycle)
    )


def test_loop_metrics_are_medians_over_blocks_of_whole_cycles():
    result = _loop(count=6)  # cycle of two sessions: three cycles
    for session in result.sessions:
        session.arrived = [session.index + 0.5, session.index + 1.0]
    assert [[s.index for s in block] for block in serving.blocks(result)] == [
        [0, 1], [2, 3], [4, 5],
    ]
    result.sessions[3].latencies = [9.0, 9.0]  # one slow block
    figures = serving.loop_metrics(result)
    assert figures["latency_p50_s"] == pytest.approx(0.15)
    assert figures["throughput_rps"] == pytest.approx(2.0)
    assert figures["study_s"] == pytest.approx(2.0)  # four requests a cycle


def test_timed_loop_serves_whole_cycles_and_reads_rss_at_fixed_work():
    cycle = workloads.acl_cycle(0)
    harness = serving.Harness()
    try:
        result = serving.closed_loop(harness, cycle, "", seconds=0.0, rss_after=3)
    finally:
        harness.close()
    assert len(result.sessions) == len(cycle)
    assert result.rss_mb is not None and result.rss_mb > 0
    check = serving.check_sessions(result, serving.reference_fingerprints(cycle))
    assert check["failed"] == 0


def test_durable_store_sessions_match_the_in_memory_reference(tmp_path):
    cycle = workloads.acl_cycle(0)
    harness = serving.Harness(serving.fresh_store_dir(str(tmp_path)))
    try:
        result = serving.closed_loop(harness, cycle, "d-", max_sessions=len(cycle))
    finally:
        harness.close()
    check = serving.check_sessions(result, serving.reference_fingerprints(cycle))
    assert (check["attempted"], check["failed"]) == (2 * len(cycle), 0)
    assert list(tmp_path.iterdir()) == []  # the store is removed on close


def test_engine_is_inferred_from_workers_and_chunks():
    from repro.perf.campaign import CampaignResult
    from repro.perf import pool

    def run(workers, chunks):
        result = CampaignResult((), {}, workers, chunks)
        return study.StudyRun({"c": result}, {"c": 1.0}, 1.0)

    def engine(workers, chunks, mode):
        return study.engine_of(run(workers, chunks), mode)["calls"]["c"]["engine"]

    assert engine(1, 1, "serial") == "inline"
    if pool.fork_available():
        assert engine(2, 9, "persistent") == "persistent"
        assert engine(2, 2, "persistent") == "inline (persistent pool fell back)"


class _Parts:
    campus_acls = tuple(range(100))
    campus_route_maps = tuple(range(10))
    cloud_acls = tuple(range(20))
    cloud_route_maps = tuple(range(30))
    cloud_chains = tuple(range(4))
    policies = 164


def test_study_check_passes_on_the_paper_figures():
    check = study.check_figures(dict(study.PAPER), _Parts)
    assert (check["attempted"], check["failed"]) == (164, 0)


@pytest.mark.parametrize(
    "key, part_size",
    [
        ("campus.acl.conflict_pct", 100),
        ("campus.route_maps.overlapping", 10),
        ("cloud.acls.many", 20),
        ("cloud.route_maps.overlapping", 30),
        ("cloud.chains.cross_map_pairs", 4),
    ],
)
def test_study_check_fails_on_a_wrong_count(key, part_size):
    figures = dict(study.PAPER)
    figures[key] += 1
    check = study.check_figures(figures, _Parts)
    assert check["failed"] == part_size
    assert key in check["mismatches"]


# ------------------------------------------------------------ tracing


def _target_attributes():
    import importlib
    import sys

    seen = {}
    for _, target in TARGETS:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            seen[(id(owner), method)] = vars(owner)[method]
        else:
            original = getattr(module, attr)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") or mod is module:
                    for key, value in vars(mod).items():
                        if value is original:
                            seen[(id(mod), key)] = value
    return seen


def test_untraced_runs_are_unaffected_by_the_wrappers():
    from repro.analysis.prefixspace import PrefixSpace
    from repro.core import disambiguator

    before = _target_attributes()
    original_compare = disambiguator.compare_route_policies
    tracer = Tracer().install()
    try:
        assert disambiguator.compare_route_policies is not original_compare
        PrefixSpace.universe().subtract(PrefixSpace.empty())
        assert tracer.calls("prefixspace.subtract") == 1
    finally:
        tracer.uninstall()
    assert _target_attributes() == before
    assert disambiguator.compare_route_policies is original_compare
    PrefixSpace.universe().subtract(PrefixSpace.empty())
    assert tracer.calls("prefixspace.subtract") == 1


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)

    def parent():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    tracer.wrap("parent", parent)()
    assert tracer.calls("leaf") == 2
    assert tracer.self_s("parent") == pytest.approx(
        tracer.total_s("parent") - tracer.total_s("leaf"), abs=1e-9
    )
    assert 0.009 < tracer.self_s("parent") < 0.03
    assert tracer.attributed_s() == pytest.approx(
        tracer.self_s("parent") + tracer.self_s("leaf"), abs=1e-9
    )
    assert [span[1] for span in tracer.raw] == ["parent", "parent", ""]
