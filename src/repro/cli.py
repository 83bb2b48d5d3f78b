"""The ``clarify`` command-line front end.

Subcommands::

    clarify add        one incremental update (interactive disambiguation)
    clarify overlaps   the §3 overlap analysis over a config file
    clarify compare    differential examples between two route-maps
    clarify eval       the §5 evaluation (Figure 4 + global policies)
    clarify corpus     generate a §3 synthetic corpus and report stats
    clarify trace      one instrumented cycle: span tree + metric summary
    clarify lint       symbolic static analysis: shadowed/conflicting
                       rules, dangling references, naming drift
    clarify replay     re-drive a recorded journal with zero LLM calls
                       and verify it matches byte for byte
    clarify bench-check  diff a benchmark metric snapshot against the
                       committed baseline (the perf-regression gate)
    clarify serve      serve many sessions concurrently over a JSONL
                       stdin/stdout request loop (admission control,
                       per-request deadlines, LLM deduplication); with
                       --metrics-port, a live /metrics endpoint and a
                       wide-event request log
    clarify loadgen    drive the serving layer with a deterministic
                       seeded campus/cloud intent mix; optionally check
                       serial-vs-pooled outcome identity, SLO burn
                       rates, and telemetry overhead
    clarify tail       follow a wide-event request log and print rolling
                       p50/p95 latency and error rate

``clarify add`` reads an existing IOS configuration, runs the full
Clarify cycle for an English intent, asks the differential questions on
stdin, and prints the updated configuration to stdout.  ``add``,
``trace``, and ``eval`` accept ``--journal PATH`` to record a replayable
session journal (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.config import parse_config, render_config
from repro.core import ClarifySession, DisambiguationMode, ScriptedOracle
from repro.core.errors import ClarifyError
from repro.core.oracle import DisambiguationQuestion
from repro.llm.simulated import SimulatedLLM

#: The §2 walkthrough scenario, used by ``clarify trace`` when no
#: configuration/intent is supplied (same inputs as the paper's Fig. 2).
WALKTHROUGH_CONFIG = """
ip as-path access-list D0 permit _32$
ip prefix-list D1 seq 10 permit 10.0.0.0/8 le 24
ip prefix-list D1 seq 20 permit 20.0.0.0/16 le 32
ip prefix-list D1 seq 30 permit 1.0.0.0/20 ge 24
route-map ISP_OUT deny 10
 match as-path D0
route-map ISP_OUT deny 20
 match ip address prefix-list D1
route-map ISP_OUT permit 30
 match local-preference 300
"""

WALKTHROUGH_INTENT = (
    "Write a route-map stanza that permits routes containing the prefix "
    "100.0.0.0/16 with mask length less than or equal to 23 and tagged "
    "with the community 300:3. Their MED value should be set to 55."
)

WALKTHROUGH_TARGET = "ISP_OUT"


class StdioOracle:
    """Asks differential questions on the terminal."""

    def __init__(self, out=sys.stdout, inp=sys.stdin) -> None:
        self._out = out
        self._in = inp

    def choose(self, question: DisambiguationQuestion) -> int:
        self._out.write(question.render() + "\n")
        self._out.flush()
        while True:
            line = self._in.readline()
            if not line:
                raise ClarifyError("no answer on stdin")
            answer = line.strip()
            if answer in ("1", "2"):
                return int(answer)
            self._out.write("Please answer 1 or 2: ")
            self._out.flush()


def _read_config(path: Optional[str]):
    if path is None:
        return parse_config("")
    with open(path) as handle:
        return parse_config(handle.read())


@contextlib.contextmanager
def _journal_scope(path: Optional[str]):
    """Record a session journal to ``path`` for the enclosed block."""
    from repro import obs

    if path is None:
        yield None
        return
    with obs.JournalRecorder(path) as journal:
        with obs.journaling(journal):
            yield journal


def cmd_add(args: argparse.Namespace) -> int:
    store = _read_config(args.config)
    if args.answers:
        oracle = ScriptedOracle([int(a) for a in args.answers.split(",")])
    else:
        oracle = StdioOracle()
    mode = (
        DisambiguationMode.TOP_BOTTOM
        if args.top_bottom
        else DisambiguationMode.FULL
    )
    with _journal_scope(args.journal):
        session = ClarifySession(
            store=store, llm=SimulatedLLM(), oracle=oracle, mode=mode
        )
        try:
            report = session.request(args.intent, args.target)
        except (ClarifyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(
        f"! inserted at position {report.position} "
        f"({report.llm_calls} LLM calls, {report.questions} questions)",
        file=sys.stderr,
    )
    if args.diff:
        print(report.diff)
    else:
        print(render_config(session.store))
    return 0


def cmd_overlaps(args: argparse.Namespace) -> int:
    from repro.overlap import (
        AclCorpusStats,
        RouteMapCorpusStats,
        acl_overlap_report,
        route_map_overlap_report,
    )

    store = _read_config(args.config)
    acl_reports = [
        acl_overlap_report(acl, with_witnesses=args.verbose)
        for acl in store.acls()
    ]
    rm_reports = [
        route_map_overlap_report(rm, store, with_witnesses=args.verbose)
        for rm in store.route_maps()
    ]
    if acl_reports:
        print(AclCorpusStats.collect(acl_reports).render())
    if rm_reports:
        print(RouteMapCorpusStats.collect(rm_reports).render())
    if args.verbose:
        for report in acl_reports + rm_reports:
            for pair in report.pairs:
                kind = "conflict" if pair.conflicting else "overlap"
                extra = " (subset)" if pair.subset else ""
                print(f"{report.name}: {pair.seq_a} ~ {pair.seq_b}: {kind}{extra}")
                if pair.witness is not None:
                    print(pair.witness.render(indent="    "))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_route_policies

    store_a = _read_config(args.config_a)
    store_b = _read_config(args.config_b)
    differences = compare_route_policies(
        store_a.route_map(args.name),
        store_b.route_map(args.name),
        store_a,
        store_b,
        max_differences=args.limit,
    )
    if not differences:
        print("the two route-maps are behaviourally equivalent")
        return 0
    for idx, diff in enumerate(differences, start=1):
        print(f"=== difference {idx} ===")
        print(diff.render())
        print()
    return 2


def cmd_eval(args: argparse.Namespace) -> int:
    from repro.evalcase import build_figure3, figure4_rows

    with _journal_scope(args.journal):
        if args.from_configs:
            from repro.evalcase.devices import build_figure3_from_files

            result = build_figure3_from_files()
            print("(network reassembled from rendered device files)")
        else:
            result = build_figure3()
    print("Figure 4: router statistics")
    print(f"{'Router':<8}{'#Route-maps':<14}{'#LLM calls':<12}{'#Disambiguation'}")
    for name, maps, calls, interactions in figure4_rows(result.stats):
        print(f"{name:<8}{maps:<14}{calls:<12}{interactions}")
    print()
    print("Global policies:")
    ok = True
    for policy, holds in result.policy_results.items():
        print(f"  {policy}: {'PASS' if holds else 'FAIL'}")
        ok = ok and holds
    return 0 if ok else 1


def cmd_list_add(args: argparse.Namespace) -> int:
    """Disambiguated insertion into a prefix-list (the §7 extension)."""
    from repro.config.lists import PrefixListEntry
    from repro.core.listinsert import disambiguate_prefix_list_entry
    from repro.netaddr import Ipv4Prefix

    store = _read_config(args.config)
    try:
        entry = PrefixListEntry(
            seq=0,
            action=args.action,
            prefix=Ipv4Prefix.parse(args.prefix),
            ge=args.ge,
            le=args.le,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.answers:
        oracle = ScriptedOracle([int(a) for a in args.answers.split(",")])
    else:
        oracle = StdioOracle()
    try:
        result = disambiguate_prefix_list_entry(
            store, args.target, entry, oracle
        )
    except ClarifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"! inserted at position {result.position} "
        f"({result.question_count} questions)",
        file=sys.stderr,
    )
    print(render_config(result.store))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one Clarify cycle under a recorder; print spans + metrics.

    With no arguments this traces the paper's §2 walkthrough (the
    ``ISP_OUT`` policy and intent), so it doubles as an instrumentation
    smoke test: the cross-check section asserts that the recorded
    counters agree with the cycle's :class:`~repro.core.UpdateReport`.
    """
    from repro import obs
    from repro.core import FirstOptionOracle

    if args.config:
        store = _read_config(args.config)
    else:
        store = parse_config(WALKTHROUGH_CONFIG)
    intent = args.intent if args.intent else WALKTHROUGH_INTENT
    if args.answers:
        oracle = ScriptedOracle([int(a) for a in args.answers.split(",")])
    else:
        oracle = FirstOptionOracle()
    mode = (
        DisambiguationMode.TOP_BOTTOM
        if args.top_bottom
        else DisambiguationMode.FULL
    )
    recorder = obs.Recorder()
    with _journal_scope(args.journal), obs.recording(recorder):
        session = ClarifySession(
            store=store, llm=SimulatedLLM(), oracle=oracle, mode=mode
        )
        try:
            report = session.request(intent, args.target)
        except (ClarifyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(obs.to_json(recorder))
        return 0
    print("== span tree ==")
    print(obs.render_span_tree(recorder.roots))
    print()
    print("== metrics ==")
    print(obs.render_metrics(recorder))
    print()
    print("== cross-check vs UpdateReport ==")
    checks = (
        ("llm calls", report.llm_calls, recorder.counter("llm.calls")),
        ("questions", report.questions, recorder.counter("disambiguation.questions")),
        ("attempts", report.attempts, recorder.counter("synthesis.attempts")),
    )
    ok = True
    for label, from_report, from_metrics in checks:
        match = from_report == from_metrics
        ok = ok and match
        print(
            f"{label}: report={from_report} metrics={from_metrics} "
            f"{'OK' if match else 'MISMATCH'}"
        )
    return 0 if ok else 1


def cmd_corpus(args: argparse.Namespace) -> int:
    from repro.overlap import (
        AclCorpusStats,
        RouteMapCorpusStats,
        acl_overlap_report,
        route_map_overlap_report,
    )

    if args.which == "cloud":
        from repro.synth import generate_cloud_corpus

        corpus = generate_cloud_corpus(seed=args.seed, scale=args.scale)
    else:
        from repro.synth import generate_campus_corpus
        from repro.synth.campus import TOTAL_ACLS, TOTAL_ROUTE_MAPS

        corpus = generate_campus_corpus(
            seed=args.seed,
            total_acls=max(1, round(TOTAL_ACLS * args.scale)),
            route_maps=max(1, round(TOTAL_ROUTE_MAPS * args.scale)),
        )
    acl_stats = AclCorpusStats.collect(
        acl_overlap_report(acl) for acl in corpus.acls
    )
    rm_stats = RouteMapCorpusStats.collect(
        route_map_overlap_report(rm, corpus.store) for rm in corpus.route_maps
    )
    print(acl_stats.render())
    print()
    print(rm_stats.render())
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a §3 overlap study (or the §5 evaluation) as a parallel campaign.

    With ``--benchmark`` the study runs twice — serial, then across the
    worker pool — asserting identical results and reporting both times.
    """
    import time

    from repro.perf import campaign

    workers = 1 if args.serial else args.workers

    def run(worker_count: Optional[int], pool: Optional[str] = None):
        pool = pool if pool is not None else args.pool
        if args.which == "campus":
            from repro.synth.campus import TOTAL_ACLS, TOTAL_ROUTE_MAPS

            acl_stats, rm_stats, _, _ = campaign.campus_overlap_study(
                workers=worker_count,
                chunks=args.chunks,
                seed=args.seed if args.seed is not None else 1421,
                total_acls=max(1, round(TOTAL_ACLS * args.scale)),
                route_maps=max(1, round(TOTAL_ROUTE_MAPS * args.scale)),
                pool=pool,
            )
            return acl_stats, rm_stats
        if args.which == "cloud":
            acl_stats, rm_stats, _ = campaign.cloud_overlap_study(
                workers=worker_count,
                chunks=args.chunks,
                seed=args.seed if args.seed is not None else 2025,
                scale=args.scale,
                pool=pool,
            )
            return acl_stats, rm_stats
        return campaign.evaluation_campaign(
            runs=args.runs, workers=worker_count, chunks=args.chunks, pool=pool
        ).results

    def render(outcome) -> None:
        if args.which == "eval":
            rows, policies = outcome[0]
            print("Figure 4: router statistics")
            for name, maps, calls, interactions in rows:
                print(f"  {name}: {maps} route-maps, {calls} LLM calls, "
                      f"{interactions} disambiguations")
            for policy, holds in policies.items():
                print(f"  {policy}: {'PASS' if holds else 'FAIL'}")
            return
        acl_stats, rm_stats = outcome
        print(acl_stats.render())
        print()
        print(rm_stats.render())

    if args.benchmark:
        start = time.perf_counter()
        serial_outcome = run(1, pool="serial")
        serial_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        parallel_outcome = run(workers)
        parallel_elapsed = time.perf_counter() - start
        if serial_outcome != parallel_outcome:
            print("error: serial and parallel results differ", file=sys.stderr)
            return 2
        render(parallel_outcome)
        print()
        print(f"serial:   {serial_elapsed:.2f}s")
        print(
            f"parallel: {parallel_elapsed:.2f}s "
            f"({args.workers or campaign.default_workers()} workers)"
        )
        return 0

    render(run(workers))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Lint a configuration (or a §3 corpus) with the symbolic checks.

    Exit status is 0 when no diagnostic reaches the ``--fail-on``
    threshold (and, in corpus mode, the archetype cross-check matches),
    1 otherwise.
    """
    from repro.lint import lint_campus_corpus, lint_store, render_json, render_text
    from repro.lint.diagnostics import Severity

    select = args.select.split(",") if args.select else None
    threshold = (
        None if args.fail_on == "none" else Severity.parse(args.fail_on)
    )
    with_witnesses = not args.no_witness

    if args.corpus == "campus":
        from repro.synth import generate_campus_corpus
        from repro.synth.campus import TOTAL_ACLS, TOTAL_ROUTE_MAPS

        corpus = generate_campus_corpus(
            seed=args.seed,
            total_acls=max(1, round(TOTAL_ACLS * args.scale)),
            route_maps=max(1, round(TOTAL_ROUTE_MAPS * args.scale)),
        )
        result = lint_campus_corpus(corpus, with_witnesses=with_witnesses)
        print(result.render())
        return 0 if result.matches_expected else 1
    if args.corpus == "cloud":
        from repro.synth import generate_cloud_corpus

        corpus = generate_cloud_corpus(seed=args.seed, scale=args.scale)
        store = corpus.store
        title = "cloud corpus"
    elif args.config:
        store = _read_config(args.config)
        title = args.config
    else:
        store = parse_config(WALKTHROUGH_CONFIG)
        title = "walkthrough (§2 ISP_OUT sample)"

    report = lint_store(store, select=select, with_witnesses=with_witnesses)
    if args.format == "json":
        print(render_json(report, title=title))
    else:
        print(render_text(report, title=title))
    return 1 if report.fails(threshold) else 0


def cmd_netlint(args: argparse.Namespace) -> int:
    """Network-wide static analysis over a whole device set.

    Exit status: 0 clean, 1 when a finding reaches the ``--fail-on``
    threshold, 3 when ``--baseline`` is given and the rendered JSON
    report differs from the blessed baseline byte for byte.
    """
    import os
    import tempfile

    from repro.config.device import parse_device
    from repro.lint import render_json, render_text
    from repro.lint.diagnostics import Severity
    from repro.lint.netwide import (
        analyze_network,
        default_contracts,
        load_contracts,
        seed_devices,
    )

    threshold = (
        None if args.fail_on == "none" else Severity.parse(args.fail_on)
    )

    if args.devices:
        devices = []
        for path in args.devices:
            with open(path) as handle:
                devices.append(parse_device(handle.read()))
        title = f"{len(devices)} device file(s)"
    elif args.corpus == "campus":
        from repro.synth import generate_campus_corpus
        from repro.synth.campus import TOTAL_ACLS, TOTAL_ROUTE_MAPS

        corpus = generate_campus_corpus(
            seed=args.seed,
            total_acls=max(1, round(TOTAL_ACLS * args.scale)),
            route_maps=max(1, round(TOTAL_ROUTE_MAPS * args.scale)),
        )
        devices = corpus.devices(args.device_count)
        title = f"campus corpus ({len(devices)} devices)"
    elif args.corpus == "cloud":
        from repro.synth import generate_cloud_corpus

        corpus = generate_cloud_corpus(seed=args.seed, scale=args.scale)
        devices = corpus.devices(args.device_count)
        title = f"cloud corpus ({len(devices)} devices)"
    else:
        devices = seed_devices(
            inject_shadow=args.inject_shadow,
            inject_drift=args.inject_drift,
            inject_route_shadow=args.inject_route_shadow,
        )
        title = f"seeded demo topology ({len(devices)} devices)"

    contracts = ()
    if args.contracts == "default":
        contracts = default_contracts()
    elif args.contracts:
        contracts = load_contracts(args.contracts)

    report = analyze_network(
        devices,
        contracts=contracts,
        workers=args.workers,
        chunks=args.chunks,
        pool=args.pool,
    )
    if args.title:
        title = args.title
    rendered_json = render_json(report, title=title)
    if args.format == "json":
        print(rendered_json)
    else:
        print(render_text(report, title=title))

    if args.output:
        directory = os.path.dirname(args.output) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(rendered_json)
                handle.write("\n")
            os.replace(tmp_path, args.output)
        except BaseException:
            os.unlink(tmp_path)
            raise

    if args.baseline:
        try:
            with open(args.baseline) as handle:
                blessed = handle.read()
        except OSError as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 3
        if blessed.rstrip("\n") != rendered_json.rstrip("\n"):
            print(
                f"BASELINE MISMATCH: report differs from {args.baseline}; "
                "regenerate with --output if the change is intended",
                file=sys.stderr,
            )
            return 3

    return 1 if report.fails(threshold) else 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-drive a recorded journal and verify it matches byte for byte.

    Exit status: 0 when the replayed session reproduces the journal
    exactly (same configs, diffs, verdicts, questions — all with zero
    LLM or oracle calls), 2 on divergence, 1 on a malformed journal.
    """
    import json as _json

    from repro import obs
    from repro.obs.replay import ReplayError, replay_journal

    try:
        events = obs.read_journal(args.journal)
    except (OSError, obs.JournalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = replay_journal(events)
    except (ReplayError, ClarifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = {
            "ok": result.ok,
            "cycles": result.cycles,
            "events": len(result.recorded_events),
            "matched_events": result.matched_events,
            "llm_calls_served": result.llm_calls_served,
            "answers_served": result.answers_served,
        }
        if result.divergence is not None:
            payload["divergence"] = {
                "seq": result.divergence.seq,
                "kind": result.divergence.kind,
                "detail": result.divergence.detail,
            }
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.ok else 2
    print(
        f"replayed {result.cycles} cycle{'s' if result.cycles != 1 else ''} "
        f"({result.llm_calls_served} recorded LLM responses, "
        f"{result.answers_served} recorded answers, 0 live calls)"
    )
    if result.ok:
        print(
            f"journal verified: all {len(result.recorded_events)} events "
            "reproduced exactly"
        )
        return 0
    print(
        f"DIVERGED: {result.matched_events}/{len(result.recorded_events)} "
        "events matched",
        file=sys.stderr,
    )
    if args.divergence and result.divergence is not None:
        print(result.divergence.render(), file=sys.stderr)
    else:
        print("(re-run with --divergence for the first mismatch)", file=sys.stderr)
    return 2


def cmd_bench_check(args: argparse.Namespace) -> int:
    """Diff a benchmark metric snapshot against the committed baseline.

    Counter mismatches are behavioural regressions and always fail;
    ``span.*`` timing regressions fail unless ``--timing-warn-only``.
    With ``--slo-report`` a ``clarify loadgen --output`` artifact's SLO
    verdict is checked too (``--slo-only`` skips the snapshot diff).
    With ``--perf-snapshot`` the campaign scaling contract inside a
    ``BENCH_perf.json`` artifact is checked: parallel must not lose to
    serial by more than ``--campaign-tolerance`` and the serial/parallel
    results must have been identical (``--perf-only`` skips the
    snapshot diff).  Exit status: 0 clean, 2 on regression, an alerting
    SLO, or a scaling violation, 1 on unreadable snapshots/artifacts.
    """
    import json as _json

    from repro.obs import regress

    perf_failures: List[str] = []
    if args.perf_snapshot:
        try:
            with open(args.perf_snapshot, "r", encoding="utf-8") as handle:
                perf = _json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read perf snapshot: {exc}", file=sys.stderr)
            return 1
        block = perf.get("campaign")
        if not isinstance(block, dict):
            print(
                f"error: {args.perf_snapshot} carries no campaign block "
                "(regenerate with the perf benchmark suite)",
                file=sys.stderr,
            )
            return 1
        try:
            serial_s = float(block["serial_s"])
            parallel_s = float(block["parallel_2worker_s"])
        except (KeyError, TypeError, ValueError):
            print(
                f"error: {args.perf_snapshot} campaign block is missing "
                "serial_s/parallel_2worker_s timings",
                file=sys.stderr,
            )
            return 1
        if not block.get("identical", False):
            perf_failures.append(
                "campaign serial and parallel results were NOT identical"
            )
        allowed = serial_s * (1.0 + args.campaign_tolerance)
        if parallel_s > allowed:
            perf_failures.append(
                f"campaign parallel_2worker_s {parallel_s:.4f}s exceeds "
                f"serial_s {serial_s:.4f}s by more than "
                f"{args.campaign_tolerance:.0%} (limit {allowed:.4f}s)"
            )
        for failure in perf_failures:
            print(f"PERF SCALING: {failure}", file=sys.stderr)
        if not perf_failures:
            print(
                f"campaign scaling: parallel {parallel_s:.4f}s vs serial "
                f"{serial_s:.4f}s (identical results) ok"
            )
        if args.perf_only:
            return 2 if perf_failures else 0

    slo_failures: List[str] = []
    if args.slo_report:
        try:
            with open(args.slo_report, "r", encoding="utf-8") as handle:
                artifact = _json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read SLO report: {exc}", file=sys.stderr)
            return 1
        slo_block = (
            artifact.get("loadgen", {}).get("telemetry", {}).get("slo")
        )
        if slo_block is None:
            print(
                f"error: {args.slo_report} carries no telemetry/slo block "
                "(run clarify loadgen with telemetry on)",
                file=sys.stderr,
            )
            return 1
        alerting = slo_block.get("alerting", [])
        if alerting:
            slo_failures = [str(name) for name in alerting]
            for name in slo_failures:
                print(f"SLO ALERTING: {name}", file=sys.stderr)
        else:
            print(
                f"slo: {len(slo_block.get('objectives', []))} objective(s) ok "
                f"over {slo_block.get('events', 0)} event(s)"
            )
        if args.slo_only:
            return 2 if slo_failures else 0

    try:
        baseline = regress.load_snapshot(args.baseline)
        current = regress.load_snapshot(args.current)
        tolerances = regress.Tolerances(
            counter_rel=args.counter_rel,
            timing_max_ratio=args.timing_max_ratio,
            timing_warn_only=args.timing_warn_only,
        )
        report = regress.compare_snapshots(baseline, current, tolerances)
    except regress.SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(regress.render_json(report))
    else:
        print(regress.render_text(report, verbose=args.verbose))
    return 0 if report.ok and not slo_failures and not perf_failures else 2


def _serve_router(args: argparse.Namespace) -> int:
    """``clarify serve --shards N``: the thin router over shard processes.

    Speaks the same JSONL protocol as a single-process serve loop, but
    routes each command to its session's ring-assigned shard
    (:mod:`repro.serve.shard`) and applies router-side admission
    control.  Two extra operations drive chaos drills::

        {"op": "kill-shard", "shard": 0}
        {"op": "restart-shard", "shard": 0}

    ``restart-shard`` respawns the shard with ``--restore``; the reply
    carries how many sessions the shard rebuilt from its journals.
    """
    import json as _json

    from repro.serve.service import AdmissionError
    from repro.serve.shard import ClusterError, ShardedCluster

    out = sys.stdout
    cluster = ShardedCluster(
        shards=args.shards,
        workers_per_shard=args.shard_workers or args.workers,
        store_root=args.store_dir,
        high_water=args.high_water or 32,
        max_attempts=args.max_attempts,
        backend=args.backend,
        deadline_s=args.deadline,
    )

    def reply(tag: Optional[str] = None, **payload) -> None:
        if tag is not None:
            payload["tag"] = tag
        out.write(_json.dumps(payload, sort_keys=True) + "\n")
        out.flush()

    def relay(tag: Optional[str], payload: Optional[dict]) -> None:
        """Forward a shard reply, swapping its tag for the client's."""
        body = dict(payload or {"ok": False, "error": "no reply"})
        # The shard's own wire tag must not leak (or collide with) the
        # client's; strip it before the keyword expansion.
        body.pop("tag", None)
        reply(tag, **body)

    print(
        f"router: {args.shards} shard(s) under {cluster.store_root}",
        file=sys.stderr,
    )
    sys.stderr.flush()
    with cluster:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                command = _json.loads(line)
                op = command["op"]
            except (ValueError, KeyError, TypeError) as exc:
                reply(None, ok=False, error=f"bad command: {exc}")
                continue
            tag = command.get("tag")
            if op == "quit":
                reply(tag, ok=True, op="quit")
                break
            try:
                if op == "open":
                    relay(
                        tag,
                        cluster.open(
                            command["session"], command.get("config", "")
                        ),
                    )
                elif op == "request":
                    try:
                        call = cluster.submit(
                            command["session"],
                            command["intent"],
                            command["target"],
                        )
                    except AdmissionError as exc:
                        reply(
                            tag,
                            ok=False,
                            op="request",
                            outcome="rejected",
                            session=command["session"],
                            retry_after_s=exc.retry_after_s,
                            error=str(exc),
                        )
                        continue
                    relay(tag, call.wait())
                elif op == "close":
                    relay(tag, cluster.close_session(command["session"]))
                elif op == "stats":
                    reply(
                        tag,
                        ok=True,
                        op="stats",
                        shards=cluster.stats(),
                        rejected=cluster.rejected,
                        kills=cluster.kills,
                        restored=cluster.restored_sessions,
                        store_root=cluster.store_root,
                    )
                elif op == "kill-shard":
                    cluster.kill_shard(int(command["shard"]))
                    reply(
                        tag, ok=True, op="kill-shard",
                        shard=int(command["shard"]),
                    )
                elif op == "restart-shard":
                    restored = cluster.restart_shard(int(command["shard"]))
                    reply(
                        tag,
                        ok=True,
                        op="restart-shard",
                        shard=int(command["shard"]),
                        restored=restored,
                    )
                else:
                    reply(tag, ok=False, error=f"unknown op {op!r}")
            except (KeyError, ValueError, TypeError, ClusterError) as exc:
                reply(tag, ok=False, op=op, error=str(exc))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """An in-process request/response loop over a session pool.

    Reads one JSON object per stdin line and answers each with one JSON
    line on stdout.  Operations::

        {"op": "open", "session": "s1", "config": "<IOS text>"}
        {"op": "request", "session": "s1", "target": "ISP_OUT",
         "intent": "...", "deadline_s": 5.0}
        {"op": "close", "session": "s1"}
        {"op": "stats"}
        {"op": "quit"}

    This is the serving layer without a network: the same admission
    control, deadlines, and per-session FIFO that ``clarify loadgen``
    hammers, driveable from a shell pipe or a test harness.

    Commands may carry a ``tag``; the matching reply echoes it, and a
    tagged ``request`` is answered asynchronously (out of order) so the
    worker pool actually pipelines — this is how the shard router keeps
    every shard busy.  With ``--store-dir`` every session's journal
    lives in a :class:`~repro.serve.store.DurableSessionStore`
    (fsynced, crash-safe) and ``--restore`` rebuilds all previously
    open sessions before serving; a re-sent ``request`` whose ``seq``
    already resolved before the crash is answered from the journal
    (marked ``"recovered": true``) instead of running twice.  With
    ``--shards N`` this process becomes the shard *router* instead —
    see ``_serve_router``.

    With ``--metrics-port`` (or ``CLARIFY_METRICS_PORT``) a live
    Prometheus ``/metrics`` + ``/healthz`` endpoint is served on
    loopback and every request produces one wide event; ``--event-log``
    (or ``CLARIFY_EVENT_LOG``) appends those events as JSONL for
    ``clarify tail``.
    """
    import json as _json
    import os
    import threading

    from repro import obs
    from repro.obs import telemetry as tele
    from repro.serve import ClarifyService, ServeRequest, SessionManager
    from repro.serve.loadgen import build_llm_stack
    from repro.serve.service import AdmissionError, ServeResponse
    from repro.serve.store import DurableSessionStore

    if args.shards and args.shards > 1:
        return _serve_router(args)

    out = sys.stdout
    out_lock = threading.Lock()
    metrics_port = args.metrics_port
    if metrics_port is None and os.environ.get("CLARIFY_METRICS_PORT"):
        metrics_port = int(os.environ["CLARIFY_METRICS_PORT"])
    event_log = args.event_log or os.environ.get("CLARIFY_EVENT_LOG") or None
    telemetry_on = metrics_port is not None or event_log is not None

    stack = build_llm_stack(
        backend=args.backend,
        cache_dir=args.cache_dir,
        batch_window_s=args.batch_window,
    )
    store = DurableSessionStore(args.store_dir) if args.store_dir else None
    manager = SessionManager(
        llm=stack.client,
        max_attempts=args.max_attempts,
        journal_dir=args.journal_dir,
        session_store=store,
    )
    restored_ids: List[str] = []
    if args.restore:
        if store is None:
            print("error: --restore requires --store-dir", file=sys.stderr)
            return 1
        restored_ids = manager.restore_all()
        print(
            f"restored {len(restored_ids)} session(s) from {args.store_dir}",
            file=sys.stderr,
        )
        sys.stderr.flush()

    def reply(tag: Optional[str] = None, **payload) -> None:
        if tag is not None:
            payload["tag"] = tag
        with out_lock:
            out.write(_json.dumps(payload, sort_keys=True) + "\n")
            out.flush()

    def send_response(
        tag: Optional[str], response: ServeResponse, recovered: bool = False
    ) -> None:
        payload = response.to_dict()
        if recovered:
            payload["recovered"] = True
        reply(tag, ok=response.ok, op="request", **payload)

    recorder = None
    hub = None
    server = None
    exit_stack = contextlib.ExitStack()
    if telemetry_on:
        # Spans stay off: the tap times phases itself, and span trees
        # grow without bound under a long-lived server.
        recorder = obs.Recorder(capture_spans=False)
        exit_stack.enter_context(obs.recording(recorder))
        hub = tele.install_hub(tele.TelemetryHub(sink=event_log))
        exit_stack.callback(hub.close)
        exit_stack.callback(tele.uninstall_hub)
        if metrics_port is not None:
            server = exit_stack.enter_context(
                tele.MetricsServer(port=metrics_port, recorder_fn=lambda: recorder)
            )
            print(
                f"telemetry: /metrics on 127.0.0.1:{server.port}",
                file=sys.stderr,
            )
            sys.stderr.flush()

    with exit_stack, ClarifyService(
        manager,
        workers=args.workers,
        queue_limit=args.queue_limit,
        high_water=args.high_water,
    ) as service:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                command = _json.loads(line)
                op = command["op"]
            except (ValueError, KeyError, TypeError) as exc:
                reply(None, ok=False, error=f"bad command: {exc}")
                continue
            tag = command.get("tag")
            if op == "quit":
                reply(tag, ok=True, op="quit")
                break
            try:
                if op == "open":
                    existing = (
                        manager.get(command["session"])
                        if command.get("idempotent")
                        else None
                    )
                    if existing is not None:
                        # A router re-send after a restore: the session
                        # is already live (rebuilt from its journal).
                        reply(
                            tag,
                            ok=True,
                            op="open",
                            session=existing.session_id,
                            config_sha256=existing.config_sha256(),
                            recovered=True,
                        )
                        continue
                    managed = manager.open(
                        command["session"], command.get("config", "")
                    )
                    reply(
                        tag,
                        ok=True,
                        op="open",
                        session=managed.session_id,
                        config_sha256=managed.config_sha256(),
                    )
                elif op == "request":
                    seq = command.get("seq")
                    if seq is not None:
                        handle = manager.get(command["session"])
                        replayed = (
                            handle.replayed_response(int(seq))
                            if handle is not None
                            else None
                        )
                        if replayed is not None:
                            # Resolved before the crash; answer from the
                            # journal instead of running a second time.
                            assert isinstance(replayed, ServeResponse)
                            send_response(tag, replayed, recovered=True)
                            continue
                    request = ServeRequest(
                        session=command["session"],
                        intent=command["intent"],
                        target=command["target"],
                        deadline_s=command.get("deadline_s", args.deadline),
                        request_id=command.get("request_id"),
                        trace_id=command.get("trace_id"),
                    )
                    if tag is None:
                        send_response(None, service.call(request))
                        continue
                    # Tagged requests pipeline: submit now, answer from a
                    # waiter thread when the pool resolves the ticket, and
                    # keep reading stdin meanwhile.
                    try:
                        ticket = service.submit(request)
                    except AdmissionError as exc:
                        reply(
                            tag,
                            ok=False,
                            op="request",
                            outcome="rejected",
                            session=request.session,
                            retry_after_s=exc.retry_after_s,
                            error=str(exc),
                        )
                        continue
                    threading.Thread(
                        target=lambda t=ticket, g=tag: send_response(
                            g, t.wait()
                        ),
                        name=f"serve-reply-{tag}",
                        daemon=True,
                    ).start()
                elif op == "close":
                    reply(
                        tag,
                        ok=manager.close(command["session"]),
                        op="close",
                        session=command["session"],
                    )
                elif op == "stats":
                    stats_payload = dict(
                        sessions=len(manager),
                        depth=service.depth(),
                        rejected=service.rejected,
                        restored=len(restored_ids),
                        backend=stack.backend,
                        upstream_llm_calls=stack.upstream_calls,
                        cache=(
                            stack.cached.stats()
                            if stack.cached is not None
                            else None
                        ),
                    )
                    if store is not None:
                        stats_payload["store_dir"] = args.store_dir
                    if telemetry_on:
                        stats_payload["telemetry"] = {
                            "metrics_port": (
                                server.port if server is not None else None
                            ),
                            "event_log": event_log,
                            "wide_events": hub.finished if hub else 0,
                            "completed": manager.completed_counts(),
                        }
                    reply(tag, ok=True, op="stats", **stats_payload)
                else:
                    reply(tag, ok=False, error=f"unknown op {op!r}")
            except (KeyError, ValueError, TypeError) as exc:
                reply(tag, ok=False, op=op, error=str(exc))
    if store is None:
        manager.close_all()
    # With a store, sessions outlive a clean shutdown: an explicit
    # "close" op is the only thing that tombstones them, and journals
    # are fsynced per event, so there is nothing to flush here.
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    """Follow a wide-event request log with rolling latency/error stats.

    Prints one line per wide event (outcome, latency, trace id) plus a
    rolling-window summary every ``--every`` events.  With ``--follow``
    the log is tailed live until ``--idle-timeout`` seconds pass with no
    new events.  Exit status: 0 normally, 1 when the log is unreadable.
    """
    from repro.obs import telemetry as tele

    stats = tele.RollingStats(window=args.window)
    try:
        if args.follow:
            events = tele.follow_events(
                args.event_log, idle_timeout_s=args.idle_timeout
            )
        else:
            events = tele.iter_events(args.event_log)
        seen = 0
        for event in events:
            stats.add(event)
            seen += 1
            timings = event.get("timings", {})
            latency = float(timings.get("latency_s", 0.0))
            print(
                f"{event.get('request_id', '?'):<18} "
                f"{event.get('outcome', '?'):<18} "
                f"{latency * 1000:8.1f}ms  trace={event.get('trace_id', '?')}"
            )
            if args.every and seen % args.every == 0:
                summary = stats.summary()
                print(
                    f"-- last {summary['events']}/{summary['window']}: "
                    f"p50 {summary['p50_s'] * 1000:.1f}ms  "
                    f"p95 {summary['p95_s'] * 1000:.1f}ms  "
                    f"error-rate {summary['error_rate']:.3f}"
                )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = stats.summary()
    print(
        f"tail: {summary['events']} event(s) in window "
        f"(p50 {summary['p50_s'] * 1000:.1f}ms  "
        f"p95 {summary['p95_s'] * 1000:.1f}ms  "
        f"error-rate {summary['error_rate']:.3f})"
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Run a seeded load campaign against the serving layer.

    Exit status: 0 clean; 1 when any ticket never resolved, any request
    ended in ``internal-error``, or the ``--check-serial-identity``
    differential found a serial/pooled divergence.
    """
    import json as _json
    import os
    import tempfile

    from repro import obs
    from repro.obs import slo as slo_mod
    from repro.serve import (
        check_cache_effectiveness,
        check_serial_identity,
        check_telemetry_overhead,
        run_loadgen,
    )

    slo_config = None
    if args.slo:
        try:
            slo_config = slo_mod.load_config(args.slo)
        except (OSError, slo_mod.SLOConfigError) as exc:
            print(f"error: cannot load SLO config: {exc}", file=sys.stderr)
            return 1

    kwargs = dict(
        fault_rate=args.fault_rate,
        deadline_s=args.deadline,
        queue_limit=args.queue_limit,
        high_water=args.high_water,
        max_attempts=args.max_attempts,
        backend=args.backend,
        batch_window_s=args.batch_window,
        netwide=args.netwide,
        telemetry=not args.no_telemetry,
        event_log=args.event_log,
        slo=slo_config,
    )
    failures: List[str] = []
    serial = None
    effectiveness = None
    overhead = None
    shard_identity = None
    if args.check_shard_identity:
        from repro.serve.shard import check_shard_identity

        if args.fault_rate > 0.0 or args.deadline is not None or args.netwide:
            print(
                "error: --check-shard-identity requires a fault-free, "
                "deadline-free, gate-free campaign (shard processes run "
                "the plain serving stack, so the in-process legs must "
                "too)",
                file=sys.stderr,
            )
            return 1
        try:
            shard_identity = check_shard_identity(
                args.sessions,
                args.requests_per_session,
                workers=args.workers,
                seed=args.seed,
                shards=args.shards,
                store_root=args.store_dir,
                max_attempts=args.max_attempts,
                backend=args.backend,
                telemetry=False,
            )
        except AssertionError as exc:
            print(f"SHARD IDENTITY FAILED: {exc}", file=sys.stderr)
            return 1
    if args.check_telemetry_overhead:
        if args.fault_rate > 0.0 or args.deadline is not None:
            print(
                "error: --check-telemetry-overhead requires a fault-free, "
                "deadline-free campaign (outcomes must be identical across "
                "the telemetry-off and telemetry-on runs)",
                file=sys.stderr,
            )
            return 1
        overhead_kwargs = {
            k: v
            for k, v in kwargs.items()
            if k
            not in ("fault_rate", "deadline_s", "telemetry", "event_log", "slo")
        }
        try:
            overhead = check_telemetry_overhead(
                args.sessions,
                args.requests_per_session,
                workers=args.workers,
                seed=args.seed,
                repeats=args.overhead_repeats,
                bound=args.overhead_bound,
                cache_dir=args.cache_dir,
                **overhead_kwargs,
            )
        except AssertionError as exc:
            print(f"TELEMETRY OVERHEAD FAILED: {exc}", file=sys.stderr)
            return 1
        if not overhead.ok:
            failures.append(
                f"telemetry overhead {overhead.ratio:.3f}x exceeds "
                f"bound {overhead.bound:g}x"
            )
    if args.check_cache_effectiveness:
        if args.fault_rate > 0.0 or args.deadline is not None:
            print(
                "error: --check-cache-effectiveness requires a fault-free, "
                "deadline-free campaign (chaos bypasses the cache and "
                "deadlines are schedule-dependent)",
                file=sys.stderr,
            )
            return 1
        cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="clarify-cache-")
        try:
            effectiveness = check_cache_effectiveness(
                args.sessions,
                args.requests_per_session,
                workers=args.workers,
                seed=args.seed,
                cache_dir=cache_dir,
                **kwargs,
            )
        except AssertionError as exc:
            print(f"CACHE EFFECTIVENESS FAILED: {exc}", file=sys.stderr)
            return 1
    if args.check_serial_identity:
        if args.fault_rate > 0.0 or args.deadline is not None:
            print(
                "error: --check-serial-identity requires a fault-free, "
                "deadline-free campaign (fault placement and deadlines "
                "are schedule-dependent)",
                file=sys.stderr,
            )
            return 1
        try:
            serial, report = check_serial_identity(
                args.sessions,
                args.requests_per_session,
                workers=args.workers,
                seed=args.seed,
                cache_dir=args.cache_dir,
                **kwargs,
            )
        except AssertionError as exc:
            print(f"IDENTITY FAILED: {exc}", file=sys.stderr)
            return 1
    elif effectiveness is not None:
        report = effectiveness.warm
    elif shard_identity is not None:
        report = shard_identity.pooled
    else:
        report = run_loadgen(
            args.sessions,
            args.requests_per_session,
            workers=args.workers,
            seed=args.seed,
            cache_dir=args.cache_dir,
            **kwargs,
        )

    if report.unresolved:
        failures.append(f"{report.unresolved} request(s) never resolved")
    internal = report.outcomes.get("internal-error", 0)
    if internal:
        failures.append(f"{internal} internal-error outcome(s)")

    slo_alerting: List[str] = []
    slo_block = report.telemetry.get("slo") if report.telemetry else None
    if slo_block and slo_block.get("alerting"):
        slo_alerting = list(slo_block["alerting"])
        failures.append(
            "SLO burn-rate alert: " + ", ".join(slo_alerting)
        )

    # schema_version 2 added the meta run-metadata block and the
    # telemetry/slo/overhead sections; "version" kept for old tooling.
    payload = {
        "schema_version": 2,
        "version": 2,
        "meta": obs.run_metadata(),
        "loadgen": report.to_dict(),
    }
    if serial is not None:
        payload["serial"] = serial.to_dict()
        payload["identity"] = serial.fingerprint == report.fingerprint
    if shard_identity is not None:
        payload["shard"] = shard_identity.to_dict()
    if effectiveness is not None:
        payload["cache_effectiveness"] = effectiveness.to_dict()
    if overhead is not None:
        payload["telemetry_overhead"] = overhead.to_dict()
    if args.output:
        directory = os.path.dirname(args.output) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(_json.dumps(payload, indent=1, sort_keys=True))
                handle.write("\n")
            os.replace(tmp_path, args.output)
        except BaseException:
            os.unlink(tmp_path)
            raise

    if args.json:
        print(_json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(
            f"loadgen: {report.requests} requests over {report.sessions} "
            f"sessions, {report.workers} workers, seed {report.seed}"
        )
        print(
            f"  wall {report.wall_s:.2f}s  "
            f"throughput {report.throughput_rps:.1f} req/s"
        )
        quant = report.latency_quantiles
        print(
            f"  latency p50 {quant['p50'] * 1000:.1f}ms  "
            f"p95 {quant['p95'] * 1000:.1f}ms  "
            f"p99 {quant['p99'] * 1000:.1f}ms"
        )
        wait = report.queue_wait_quantiles
        service = report.service_quantiles
        print(
            f"  queue wait p50 {wait['p50'] * 1000:.1f}ms  "
            f"service p50 {service['p50'] * 1000:.1f}ms  "
            f"p95 {service['p95'] * 1000:.1f}ms"
        )
        print(f"  outcomes {report.outcomes}")
        print(
            f"  dedup {report.dedup}  injected_faults "
            f"{report.injected_faults}  rejected "
            f"{report.rejected_submissions}"
        )
        if report.netwide:
            print(f"  netwide {report.netwide}")
        if serial is not None:
            print(f"  serial identity OK ({report.fingerprint[:16]}…)")
        if shard_identity is not None:
            chaos = shard_identity.chaos
            print(
                f"  shard identity OK: serial = pooled = "
                f"{chaos.shards}-shard = chaos "
                f"({report.fingerprint[:16]}…); chaos leg restarted "
                f"{chaos.restarts} shard(s), restored "
                f"{chaos.restored_sessions} session(s)"
            )
        if effectiveness is not None:
            eff = effectiveness.to_dict()
            print(
                "  cache effectiveness OK: upstream calls "
                f"{eff['uncached_upstream_calls']} uncached → "
                f"{eff['cold_upstream_calls']} cold → "
                f"{eff['warm_upstream_calls']} warm"
            )
        if report.telemetry.get("enabled"):
            coverage = report.telemetry.get("trace_coverage", {})
            print(
                f"  telemetry: {report.telemetry.get('wide_events', 0)} "
                f"wide events, trace coverage "
                f"{'complete' if coverage.get('complete') else 'INCOMPLETE'}"
            )
            if slo_block is not None:
                verdict = (
                    "alerting: " + ", ".join(slo_alerting)
                    if slo_alerting
                    else "ok"
                )
                print(f"  slo: {verdict}")
        if overhead is not None:
            print(
                f"  telemetry overhead {'OK' if overhead.ok else 'FAILED'}: "
                f"p50 {overhead.p50_off_s * 1000:.1f}ms off → "
                f"{overhead.p50_on_s * 1000:.1f}ms on "
                f"({overhead.ratio:.3f}x, bound {overhead.bound:g}x)"
            )
    for failure in failures:
        print(f"LOADGEN FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clarify",
        description="LLM-based incremental network configuration synthesis "
        "with intent disambiguation (HotNets '25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_add = sub.add_parser("add", help="run one incremental update")
    p_add.add_argument("intent", help="the English intent for the new stanza")
    p_add.add_argument("--config", help="existing IOS configuration file")
    p_add.add_argument(
        "--target", required=True, help="route-map or ACL to update"
    )
    p_add.add_argument(
        "--answers",
        help="comma-separated scripted answers (1/2) instead of stdin",
    )
    p_add.add_argument(
        "--top-bottom",
        action="store_true",
        help="use the prototype's top/bottom-only disambiguation",
    )
    p_add.add_argument(
        "--diff",
        action="store_true",
        help="print a unified diff of the change instead of the full config",
    )
    p_add.add_argument(
        "--journal",
        metavar="PATH",
        help="record a replayable session journal (JSONL) to PATH",
    )
    p_add.set_defaults(func=cmd_add)

    p_overlaps = sub.add_parser("overlaps", help="run the §3 overlap analysis")
    p_overlaps.add_argument("--config", required=True)
    p_overlaps.add_argument("--verbose", action="store_true")
    p_overlaps.set_defaults(func=cmd_overlaps)

    p_compare = sub.add_parser(
        "compare", help="differential examples between two route-maps"
    )
    p_compare.add_argument("--config-a", required=True)
    p_compare.add_argument("--config-b", required=True)
    p_compare.add_argument("--name", required=True, help="route-map name")
    p_compare.add_argument("--limit", type=int, default=3)
    p_compare.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser("eval", help="run the §5 evaluation (Figure 4)")
    p_eval.add_argument(
        "--from-configs",
        action="store_true",
        help="re-check the policies on a network reassembled from rendered "
        "device configuration files",
    )
    p_eval.add_argument(
        "--journal",
        metavar="PATH",
        help="record a replayable session journal (JSONL) to PATH",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_list = sub.add_parser(
        "list-add",
        help="insert a prefix-list entry with disambiguation (§7 extension)",
    )
    p_list.add_argument("--config", help="existing IOS configuration file")
    p_list.add_argument("--target", required=True, help="prefix-list name")
    p_list.add_argument("--action", choices=("permit", "deny"), required=True)
    p_list.add_argument("--prefix", required=True, help="e.g. 10.1.2.0/24")
    p_list.add_argument("--ge", type=int)
    p_list.add_argument("--le", type=int)
    p_list.add_argument(
        "--answers",
        help="comma-separated scripted answers (1/2) instead of stdin",
    )
    p_list.set_defaults(func=cmd_list_add)

    p_trace = sub.add_parser(
        "trace",
        help="run one instrumented Clarify cycle and print the span tree "
        "plus metric summary (defaults to the §2 walkthrough)",
    )
    p_trace.add_argument(
        "intent",
        nargs="?",
        help="English intent for the new stanza (default: the §2 walkthrough)",
    )
    p_trace.add_argument(
        "--config",
        help="existing IOS configuration file (default: the §2 ISP_OUT sample)",
    )
    p_trace.add_argument(
        "--target",
        default=WALKTHROUGH_TARGET,
        help="route-map or ACL to update (default: %(default)s)",
    )
    p_trace.add_argument(
        "--answers",
        help="comma-separated scripted answers (1/2); default answers 1 "
        "to every question",
    )
    p_trace.add_argument(
        "--top-bottom",
        action="store_true",
        help="use the prototype's top/bottom-only disambiguation",
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="emit the trace snapshot as JSON instead of text",
    )
    p_trace.add_argument(
        "--journal",
        metavar="PATH",
        help="record a replayable session journal (JSONL) to PATH",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_corpus = sub.add_parser(
        "corpus", help="generate a §3 corpus and report overlap statistics"
    )
    p_corpus.add_argument("which", choices=("cloud", "campus"))
    p_corpus.add_argument("--seed", type=int, default=2025)
    p_corpus.add_argument("--scale", type=float, default=1.0)
    p_corpus.set_defaults(func=cmd_corpus)

    p_campaign = sub.add_parser(
        "campaign",
        help="fan a §3 overlap study or the §5 evaluation across a "
        "process pool (deterministic results and counters)",
    )
    p_campaign.add_argument("which", choices=("campus", "cloud", "eval"))
    p_campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: the CPU count)",
    )
    p_campaign.add_argument(
        "--chunks",
        type=int,
        default=None,
        help="chunk count (default: the worker count); fix it to make "
        "the cache.* counters machine-independent",
    )
    p_campaign.add_argument(
        "--serial",
        action="store_true",
        help="force the in-process serial fallback (workers=1)",
    )
    p_campaign.add_argument(
        "--pool",
        choices=("auto", "persistent", "spawn", "serial"),
        default=None,
        help="worker-pool engine: 'persistent' reuses fork-warm workers "
        "across campaigns, 'spawn' builds a fresh pool per campaign, "
        "'serial' runs in process, 'auto' picks per machine (default: "
        "the REPRO_POOL environment variable, else auto)",
    )
    p_campaign.add_argument("--seed", type=int, default=None)
    p_campaign.add_argument("--scale", type=float, default=1.0)
    p_campaign.add_argument(
        "--runs", type=int, default=1, help="eval repetitions (eval only)"
    )
    p_campaign.add_argument(
        "--benchmark",
        action="store_true",
        help="time serial vs parallel and assert identical results",
    )
    p_campaign.set_defaults(func=cmd_campaign)

    p_lint = sub.add_parser(
        "lint",
        help="symbolic static analysis of a configuration or §3 corpus",
    )
    p_lint.add_argument(
        "--config",
        help="IOS configuration file to lint (default: the §2 ISP_OUT sample)",
    )
    p_lint.add_argument(
        "--corpus",
        choices=("campus", "cloud"),
        help="lint a generated §3 corpus instead of a file; campus mode "
        "cross-checks recovered archetype counts against the generator",
    )
    p_lint.add_argument(
        "--seed", type=int, default=2025, help="corpus generator seed"
    )
    p_lint.add_argument(
        "--scale", type=float, default=0.01, help="corpus size scale factor"
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: %(default)s)",
    )
    p_lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "none"),
        default="error",
        help="exit 1 when a diagnostic at or above this severity is found "
        "(default: %(default)s)",
    )
    p_lint.add_argument(
        "--select",
        help="comma-separated diagnostic codes to run (e.g. RM001,AC001)",
    )
    p_lint.add_argument(
        "--no-witness",
        action="store_true",
        help="skip witness extraction (faster on large corpora)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_netlint = sub.add_parser(
        "netlint",
        help="network-wide static analysis: cross-device conflicts, "
        "drift, and reachability contracts with symbolic witnesses",
    )
    p_netlint.add_argument(
        "--devices",
        nargs="+",
        metavar="FILE",
        help="device configuration files forming the network (default: "
        "the seeded demo topology)",
    )
    p_netlint.add_argument(
        "--corpus",
        choices=("campus", "cloud"),
        help="analyze a generated §3 corpus's devices instead of files "
        "(no BGP topology: drift-only analysis)",
    )
    p_netlint.add_argument(
        "--seed", type=int, default=2025, help="corpus generator seed"
    )
    p_netlint.add_argument(
        "--scale", type=float, default=0.01, help="corpus size scale factor"
    )
    p_netlint.add_argument(
        "--device-count",
        type=int,
        default=24,
        help="devices to materialise from the corpus (default: 24)",
    )
    p_netlint.add_argument(
        "--inject-shadow",
        action="store_true",
        help="demo: inject a cross-device ACL shadow into the seeded "
        "topology (NW001)",
    )
    p_netlint.add_argument(
        "--inject-drift",
        action="store_true",
        help="demo: inject same-named ACL drift into the seeded topology "
        "(NW005)",
    )
    p_netlint.add_argument(
        "--inject-route-shadow",
        action="store_true",
        help="demo: inject a route-map chain cancellation into the seeded "
        "topology (NW003 + NW007)",
    )
    p_netlint.add_argument(
        "--contracts",
        metavar="FILE",
        help="reachability contract file ('SRC ~> PREFIX must-reach'); "
        "the literal value 'default' loads the demo topology's contracts",
    )
    p_netlint.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan path analysis across a process pool (default: serial)",
    )
    p_netlint.add_argument(
        "--chunks",
        type=int,
        default=None,
        help="chunk count for the pool (default: calibrated)",
    )
    p_netlint.add_argument(
        "--pool",
        choices=("auto", "persistent", "spawn", "serial"),
        default=None,
        help="worker-pool engine for --workers > 1 (see 'clarify "
        "campaign --pool'; default: the REPRO_POOL environment "
        "variable, else auto)",
    )
    p_netlint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: %(default)s)",
    )
    p_netlint.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "none"),
        default="error",
        help="exit 1 when a finding at or above this severity is present "
        "(default: %(default)s)",
    )
    p_netlint.add_argument(
        "--output",
        metavar="PATH",
        help="write the JSON report to PATH (atomic replace)",
    )
    p_netlint.add_argument(
        "--baseline",
        metavar="PATH",
        help="compare the JSON report against a blessed baseline file; "
        "exit 3 on any byte difference",
    )
    p_netlint.add_argument("--title", help="report title override")
    p_netlint.set_defaults(func=cmd_netlint)

    p_replay = sub.add_parser(
        "replay",
        help="re-drive a recorded session journal with zero LLM calls "
        "and verify it reproduces exactly",
    )
    p_replay.add_argument("journal", help="journal file (JSONL) to replay")
    p_replay.add_argument(
        "--divergence",
        action="store_true",
        help="on mismatch, print the first diverging event in full",
    )
    p_replay.add_argument(
        "--json",
        action="store_true",
        help="emit the replay verdict as JSON",
    )
    p_replay.set_defaults(func=cmd_replay)

    p_bench = sub.add_parser(
        "bench-check",
        help="compare a benchmark metric snapshot against the committed "
        "baseline (perf-regression gate)",
    )
    p_bench.add_argument(
        "--baseline",
        default="benchmarks/BASELINE_obs.json",
        help="blessed snapshot to compare against (default: %(default)s)",
    )
    p_bench.add_argument(
        "--current",
        default="benchmarks/BENCH_obs.json",
        help="snapshot from the run under test (default: %(default)s)",
    )
    p_bench.add_argument(
        "--counter-rel",
        type=float,
        default=0.0,
        help="relative tolerance on counter values (default: exact)",
    )
    p_bench.add_argument(
        "--timing-max-ratio",
        type=float,
        default=1.5,
        help="maximum allowed slowdown ratio for span.* timings "
        "(default: %(default)s)",
    )
    p_bench.add_argument(
        "--timing-warn-only",
        action="store_true",
        help="report timing regressions as warnings instead of failures "
        "(for noisy shared runners)",
    )
    p_bench.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: %(default)s)",
    )
    p_bench.add_argument(
        "--verbose",
        action="store_true",
        help="show every compared metric, not just the interesting rows",
    )
    p_bench.add_argument(
        "--slo-report",
        metavar="PATH",
        help="also check the SLO verdict inside a clarify loadgen "
        "--output artifact; any alerting objective fails the gate",
    )
    p_bench.add_argument(
        "--slo-only",
        action="store_true",
        help="with --slo-report, check only the SLO verdict and skip "
        "the snapshot diff",
    )
    p_bench.add_argument(
        "--perf-snapshot",
        metavar="PATH",
        help="also gate on the campaign scaling contract inside a "
        "BENCH_perf.json artifact: fails when parallel_2worker_s "
        "exceeds serial_s by more than --campaign-tolerance, or when "
        "the serial/parallel results were not identical",
    )
    p_bench.add_argument(
        "--campaign-tolerance",
        type=float,
        default=0.10,
        help="allowed relative slack on parallel vs serial campaign time "
        "(default: %(default)s; raise on noisy shared runners)",
    )
    p_bench.add_argument(
        "--perf-only",
        action="store_true",
        help="with --perf-snapshot, check only the scaling contract and "
        "skip the snapshot diff",
    )
    p_bench.set_defaults(func=cmd_bench_check)

    p_serve = sub.add_parser(
        "serve",
        help="serve many Clarify sessions concurrently over a JSONL "
        "stdin/stdout request loop",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4, help="worker threads (default: 4)"
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="maximum admitted-but-incomplete requests (default: 64)",
    )
    p_serve.add_argument(
        "--high-water",
        type=int,
        default=None,
        help="backlog depth past which submissions are rejected with a "
        "retry-after (default: the queue limit)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request time budget in seconds",
    )
    p_serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="synthesis retry threshold per request (default: 3)",
    )
    p_serve.add_argument(
        "--journal-dir",
        metavar="DIR",
        help="record one replayable journal per session under DIR",
    )
    p_serve.add_argument(
        "--backend",
        default="simulated",
        help="LLM backend spec: 'simulated', 'remote', or a comma-separated "
        "fallback chain like 'remote,simulated' (default: %(default)s)",
    )
    p_serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="durable response cache directory (memoizes verified-pure "
        "responses across runs)",
    )
    p_serve.add_argument(
        "--batch-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="micro-batch concurrent LLM calls behind a flush window "
        "(default: off)",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a live Prometheus /metrics + /healthz endpoint on "
        "127.0.0.1:PORT (0 picks a free port, announced on stderr; "
        "env: CLARIFY_METRICS_PORT)",
    )
    p_serve.add_argument(
        "--event-log",
        metavar="PATH",
        help="append one wide event per request as JSONL to PATH "
        "(env: CLARIFY_EVENT_LOG); follow it with clarify tail",
    )
    p_serve.add_argument(
        "--store-dir",
        metavar="DIR",
        help="durable session store: fsynced per-session journals plus a "
        "manifest under DIR, restorable after a crash",
    )
    p_serve.add_argument(
        "--restore",
        action="store_true",
        help="with --store-dir, rebuild every previously open session "
        "from its journal (deterministic replay) before serving",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run as a router over N shard serve processes placed by a "
        "consistent-hash ring (each shard gets its own store under "
        "--store-dir); adds kill-shard/restart-shard chaos ops",
    )
    p_serve.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker threads per shard process (default: --workers)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_tail = sub.add_parser(
        "tail",
        help="follow a wide-event request log and print rolling "
        "p50/p95 latency and error rate",
    )
    p_tail.add_argument(
        "event_log",
        help="wide-event JSONL file written by clarify serve --event-log "
        "or clarify loadgen --event-log",
    )
    p_tail.add_argument(
        "--window",
        type=int,
        default=128,
        help="rolling-window size in events (default: %(default)s)",
    )
    p_tail.add_argument(
        "--every",
        type=int,
        default=16,
        metavar="N",
        help="print a rolling summary every N events (0 disables; "
        "default: %(default)s)",
    )
    p_tail.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the log for new events instead of stopping "
        "at end of file",
    )
    p_tail.add_argument(
        "--idle-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="with --follow, stop after this long with no new events "
        "(default: %(default)s)",
    )
    p_tail.set_defaults(func=cmd_tail)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive the serving layer with a deterministic seeded "
        "campus/cloud intent mix and report throughput + latency",
    )
    p_loadgen.add_argument(
        "--sessions", type=int, default=16, help="sessions to open (default: 16)"
    )
    p_loadgen.add_argument(
        "--requests-per-session",
        type=int,
        default=2,
        help="intents per session (default: 2)",
    )
    p_loadgen.add_argument(
        "--workers", type=int, default=4, help="worker threads (default: 4)"
    )
    p_loadgen.add_argument(
        "--seed", type=int, default=2025, help="workload seed (default: 2025)"
    )
    p_loadgen.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="FaultyLLM chaos rate in [0, 1] (default: off)",
    )
    p_loadgen.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request time budget in seconds (default: none)",
    )
    p_loadgen.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="maximum admitted-but-incomplete requests (default: 64)",
    )
    p_loadgen.add_argument(
        "--high-water",
        type=int,
        default=None,
        help="backlog depth past which submissions are rejected "
        "(default: the queue limit)",
    )
    p_loadgen.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="synthesis retry threshold per request (default: 3)",
    )
    p_loadgen.add_argument(
        "--backend",
        default="simulated",
        help="LLM backend spec: 'simulated', 'remote', or a comma-separated "
        "fallback chain like 'remote,simulated' (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="durable response cache directory (memoizes verified-pure "
        "responses across runs)",
    )
    p_loadgen.add_argument(
        "--batch-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="micro-batch concurrent LLM calls behind a flush window "
        "(default: off)",
    )
    p_loadgen.add_argument(
        "--netwide",
        action="store_true",
        help="attach the network-wide advisory gate to every session "
        "(edits embedded onto the demo topology's EDGE router) and "
        "report the netwide.* conflict counters as a quality axis",
    )
    p_loadgen.add_argument(
        "--check-serial-identity",
        action="store_true",
        help="also run the campaign with one worker and fail unless the "
        "pooled run's per-session outcomes match byte for byte",
    )
    p_loadgen.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="shard processes for --check-shard-identity (default: 2)",
    )
    p_loadgen.add_argument(
        "--store-dir",
        metavar="DIR",
        help="root directory for the sharded legs' durable session "
        "stores (default: a fresh temp directory)",
    )
    p_loadgen.add_argument(
        "--check-shard-identity",
        action="store_true",
        help="run the campaign serial, pooled, sharded across --shards "
        "processes, and sharded with one shard SIGKILLed and restored "
        "mid-campaign; fail unless all four outcome fingerprints are "
        "byte-identical",
    )
    p_loadgen.add_argument(
        "--check-cache-effectiveness",
        action="store_true",
        help="run the campaign uncached, cold-cache, and warm-cache and "
        "fail unless outcomes are identical while upstream LLM calls "
        "drop (uses --cache-dir or a fresh temp directory)",
    )
    p_loadgen.add_argument(
        "--no-telemetry",
        action="store_true",
        help="run without the telemetry hub (no wide events, no SLO "
        "evaluation, no trace-coverage check)",
    )
    p_loadgen.add_argument(
        "--event-log",
        metavar="PATH",
        help="append one wide event per request as JSONL to PATH",
    )
    p_loadgen.add_argument(
        "--slo",
        metavar="PATH",
        help="evaluate burn rates against the SLO config at PATH instead "
        "of the built-in default objectives",
    )
    p_loadgen.add_argument(
        "--check-telemetry-overhead",
        action="store_true",
        help="also run interleaved telemetry-off/on campaigns and fail "
        "when the telemetry-on p50 exceeds the off p50 by more than "
        "--overhead-bound (outcomes must stay byte-identical)",
    )
    p_loadgen.add_argument(
        "--overhead-bound",
        type=float,
        default=1.05,
        metavar="RATIO",
        help="maximum allowed telemetry-on/off p50 ratio "
        "(default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--overhead-repeats",
        type=int,
        default=3,
        metavar="N",
        help="off/on campaign pairs to run for the overhead check; the "
        "minimum p50 per mode is compared (default: %(default)s)",
    )
    p_loadgen.add_argument(
        "--output",
        metavar="PATH",
        help="write the campaign report as JSON to PATH (atomic replace)",
    )
    p_loadgen.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of the text summary",
    )
    p_loadgen.set_defaults(func=cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
