"""The Clarify benchmark: serving latency and §3 study time, with checks.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload serve-routemap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in fresh interpreters: a few set-up probes (for
``setup_s``) and one measured process.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ledger of a traced run.  See README.md in
this directory for the workloads, metrics and the first baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run leaves behind (results, traces, durable stores).
OUT = os.path.join(ROOT, ".perfbench-out")

#: Fresh interpreters timed for ``setup_s`` besides the measured one.
SETUP_PROBES = 6

#: Sessions served by the traced phase of a serving run (fixed work, so
#: ledger totals compare across commits): one cycle of route-map
#: sessions, forty cycles of ACL sessions.
TRACE_SESSIONS = {"serve-routemap": 10, "serve-acl": 320}

#: Sessions the traced run of ``serve-acl`` serves again from a durable
#: session store, for the ``store.fsync`` layer.  The timed loop keeps
#: its sessions in memory: with every journal line fsynced, its latency
#: followed the shared disk (run-to-run spread of p90 0.29 of the median
#: on one client), more than the bound an end-to-end metric may have.
DURABLE_TRACE_SESSIONS = {"serve-acl": 320}

#: Seconds a child process may take before the run fails.
CHILD_TIMEOUT_S = 170.0


# ------------------------------------------------------------ children


def _meta() -> Dict[str, Any]:
    from repro.perf import cache_stats

    meta: Dict[str, Any] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cache_stats": cache_stats(),
    }
    try:
        from repro.perf import kernels

        meta["kernels_backend"] = kernels.active_backend()
    except (ImportError, AttributeError):
        meta["kernels_backend"] = "n/a"
    return meta


def _hit_ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _span_metrics(tracer: Any) -> Dict[str, float]:
    from tracer import SPAN_NAMES

    metrics: Dict[str, float] = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = tracer.calls(span)
        metrics[f"{span}.self_s"] = tracer.self_s(span)
    return metrics


def _probe(args: argparse.Namespace) -> Dict[str, Any]:
    """Set up as the measured run would, then stop: returns ``setup_s``."""
    if args.workload == "overlap-s3":
        import study

        study.warm_pool()
        setup_s = time.monotonic() - args.t0
        study.shutdown_pool()
        return {"setup_s": setup_s}
    harness, _, setup_s = _serve_setup(args)
    harness.close()
    return {"setup_s": setup_s}


def _serve_setup(args: argparse.Namespace):
    import serving
    import workloads

    os.makedirs(OUT, exist_ok=True)
    harness = serving.Harness()
    started = time.monotonic()
    cycle = workloads.serve_cycle(args.workload, args.seed)
    gen_s = time.monotonic() - started
    for index, spec in enumerate(cycle):
        harness.open("", spec, index)
    setup_s = time.monotonic() - args.t0 - gen_s
    return harness, cycle, setup_s


def _cache_delta(before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]):
    return {
        name: (
            stats["hits"] - before.get(name, {}).get("hits", 0),
            stats["misses"] - before.get(name, {}).get("misses", 0),
        )
        for name, stats in after.items()
    }


def _measure_serve(args: argparse.Namespace) -> Dict[str, Any]:
    import serving
    import workloads
    from repro.perf import cache_stats

    harness, cycle, setup_s = _serve_setup(args)
    tracer = None
    traced = None
    try:
        before = cache_stats()
        result = serving.closed_loop(
            harness,
            cycle,
            "",
            seconds=args.seconds,
            rss_after=workloads.RSS_AFTER_SESSIONS[args.workload],
        )
        caches = _cache_delta(before, cache_stats())
        if args.trace:
            from tracer import LLM_SPAN, Tracer

            tracer = Tracer()
            with tracer:
                tracer.wrap_method(LLM_SPAN, type(harness.stack.client), "complete")
                traced = serving.closed_loop(
                    harness,
                    cycle,
                    "t-",
                    max_sessions=TRACE_SESSIONS[args.workload],
                )
    finally:
        harness.close()
    durable_tracer = durable = None
    if args.trace and args.workload in DURABLE_TRACE_SESSIONS:
        durable_tracer, durable = _trace_durable(args, cycle)

    pins = _pins()
    expected = [pins.get(workloads.spec_key(spec)) for spec in cycle]
    unpinned = [spec for spec, pin in zip(cycle, expected) if pin is None]
    if unpinned:
        reference = iter(serving.reference_fingerprints(unpinned))
        expected = [pin or next(reference) for pin in expected]
    checks = [serving.check_sessions(result, expected)]
    for loop in (traced, durable):
        if loop is not None:
            checks.append(serving.check_sessions(loop, expected))
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "attempted": sum(c["attempted"] for c in checks),
        "failed": sum(c["failed"] for c in checks),
        "mismatches": [m for c in checks for m in c["mismatches"]],
        "meta": {
            **_meta(),
            "fingerprints": {
                "pinned": len(cycle) - len(unpinned),
                "serial reference": len(unpinned),
            },
            "sessions": len(result.sessions),
            "requests": result.requests,
        },
    }
    metrics = serving.loop_metrics(result)
    metrics["peak_rss_mb"] = result.rss_mb
    out["metrics"] = metrics
    if tracer is None or traced is None:
        return out

    replies = traced.replies
    requests = max(len(replies), 1)
    services = [r.latency_s - r.queue_wait_s for r in replies]
    layer = _span_metrics(tracer)
    untraced = result.replies
    # The traced phase re-serves the first sessions of the cycle with warm
    # caches; its untraced twin is the second block of as many sessions
    # (the first block ran from cold caches).
    block = len(traced.sessions)
    same_work = [
        latency
        for session in result.sessions
        if block <= session.index < 2 * block
        for latency in session.latencies
    ]
    layer.update(
        {
            "serve.queue_wait_p50_s": serving.quantile(
                [r.queue_wait_s for r in untraced], 0.5
            ),
            "serve.service_p50_s": serving.quantile(
                [r.latency_s - r.queue_wait_s for r in untraced], 0.5
            ),
            "journal.events_per_req": tracer.calls("journal.event") / requests,
            "llm.calls_per_req": tracer.calls(LLM_SPAN) / requests,
            "llm.complete_s": tracer.total_s(LLM_SPAN),
            "synthesis.attempts_per_req": sum(r.attempts for r in replies)
            / requests,
            "disambiguate.questions_per_req": sum(r.questions for r in replies)
            / requests,
            "disambiguate.overlaps_per_req": sum(len(r.overlaps) for r in replies)
            / requests,
            "trace.measured_s": sum(services),
            "trace.attributed_s": tracer.attributed_s("clarify-serve"),
            "trace.overhead_ratio": serving.quantile(traced.latencies, 0.5)
            / serving.quantile(same_work or result.latencies, 0.5),
        }
    )
    layer["trace.unattributed_s"] = (
        layer["trace.measured_s"] - layer["trace.attributed_s"]
    )
    # The store layer is measured where it writes: on the durable store
    # if the workload has a durable phase, else on the loop's own store.
    store_tracer, store_loop = (
        (durable_tracer, durable) if durable is not None else (tracer, traced)
    )
    store_requests = max(len(store_loop.replies), 1)
    layer.update(
        {
            "store.fsync.calls": store_tracer.calls("store.fsync"),
            "store.fsync.self_s": store_tracer.self_s("store.fsync"),
            "store.fsync_per_req": store_tracer.calls("store.fsync") / store_requests,
            "store.fsync_s_per_req": store_tracer.total_s("store.fsync")
            / store_requests,
        }
    )
    if durable is not None:
        out["meta"]["durable_phase"] = {
            "requests": durable.requests,
            "latency_p50_s": serving.quantile(durable.latencies, 0.5),
            "journal.event.self_s": durable_tracer.self_s("journal.event"),
        }
    _add_cache_ratios(layer, caches)
    out["per_layer"] = layer
    _write_trace(tracer, args, layer)
    return out


def _trace_durable(args: argparse.Namespace, cycle: List[Any]):
    """Serve the cycle's first sessions, traced, from a durable store."""
    import serving
    from tracer import Tracer

    harness = serving.Harness(serving.fresh_store_dir(OUT))
    try:
        tracer = Tracer()
        with tracer:
            served = serving.closed_loop(
                harness,
                cycle,
                "d-",
                max_sessions=DURABLE_TRACE_SESSIONS[args.workload],
            )
    finally:
        harness.close()
    return tracer, served


def _add_cache_ratios(layer: Dict[str, float], tables) -> None:
    from metrics import CACHE_TABLES

    for table in CACHE_TABLES:
        hits, misses = tables.get(table, (0, 0))
        layer[f"cache.{table}.hit_ratio"] = _hit_ratio(hits, misses)


def _write_trace(tracer: Any, args: argparse.Namespace, layer: Dict[str, float]) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "per_layer": layer})


def _measure_study(args: argparse.Namespace) -> Dict[str, Any]:
    import serving
    import study
    import workloads

    study.warm_pool()
    started = time.monotonic()
    inputs = workloads.study_inputs(args.seed)
    gen_s = time.monotonic() - started
    setup_s = time.monotonic() - args.t0 - gen_s
    tracer = None
    try:
        # Another study only if it fits in the time left, so a run's
        # length does not jump by a whole study on noise.
        runs: List[Any] = [study.run_study(inputs)]
        # Read after one study, a fixed amount of work.
        parent_rss_mb = serving.peak_rss_mb()
        spent = runs[0].wall_s
        while spent + runs[-1].wall_s <= args.seconds:
            runs.append(study.run_study(inputs))
            spent += runs[-1].wall_s
        if args.trace:
            from tracer import Tracer

            base = study.run_study(inputs, pool="serial")
            tracer = Tracer()
            with tracer:
                traced = study.run_study(inputs, pool="serial")
            runs_checked = runs + [base, traced]
        else:
            runs_checked = runs
    finally:
        study.shutdown_pool()

    checks = [
        study.check_figures(study.study_figures(run), inputs)
        for run in runs_checked
    ]
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "attempted": sum(c["attempted"] for c in checks),
        "failed": sum(c["failed"] for c in checks),
        "mismatches": [c["mismatches"] for c in checks if c["mismatches"]],
        "meta": {
            **_meta(),
            "studies": len(runs),
            "campaign_engine": study.engine_of(runs[0]),
        },
    }
    metrics = study.study_metrics(runs, inputs)
    # The pool workers that ran the study have been joined; the largest
    # one's peak adds to this process's.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = parent_rss_mb + children
    out["meta"]["peak_rss_mb"] = {"process": parent_rss_mb, "largest_worker": children}
    out["metrics"] = metrics
    if tracer is None:
        return out

    layer = _span_metrics(tracer)
    layer.update(study.campaign_layer(runs[0]))
    layer.update(
        {
            "trace.measured_s": traced.wall_s,
            "trace.attributed_s": tracer.attributed_s(),
            "trace.overhead_ratio": traced.wall_s / base.wall_s,
        }
    )
    layer["trace.unattributed_s"] = traced.wall_s - layer["trace.attributed_s"]
    _add_cache_ratios(layer, study.cache_counters(runs[0]))
    out["per_layer"] = layer
    out["meta"]["serial_study"] = dict(
        study.engine_of(base, "serial"), wall_s=base.wall_s
    )
    _write_trace(tracer, args, layer)
    return out


def _pins() -> Dict[str, str]:
    path = os.path.join(HERE, "pins.json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def _child_main(args: argparse.Namespace) -> int:
    if args.role == "probe":
        result = _probe(args)
    elif args.workload == "overlap-s3":
        result = _measure_study(args)
    else:
        result = _measure_serve(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


# --------------------------------------------------------- orchestrator


def _spawn(role: str, args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--role", role,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    t0 = time.monotonic()
    done = subprocess.run(
        command + ["--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{role} process for {workload} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} process for {workload} printed nothing")
    return json.loads(lines[-1])


def run_workload(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Probes plus one measured process; returns the workload's result."""
    from metrics import END_TO_END, PER_LAYER

    setups: List[float] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_spawn("probe", args, workload)["setup_s"])
    child = _spawn("measure", args, workload)
    setups.append(child["setup_s"])
    if args.trace:
        declared = PER_LAYER
        values = child.get("per_layer", {})
    else:
        declared = END_TO_END
        values = dict(child["metrics"], setup_s=statistics.median(setups))
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in declared
    }
    # Measured but not declared (see metrics.END_TO_END): printed and
    # recorded, left out of the result line.
    extra = {
        name: {"value": value, "unit": "s"}
        for name, value in values.items()
        if name not in metrics
    }
    meta = dict(child["meta"], setup_samples_s=setups, seed=args.seed)
    return {
        "workload": workload,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "mismatches": child["mismatches"],
        "metrics": metrics,
        "extra": extra,
        "meta": meta,
    }


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role is not None:
        return _child_main(args)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args) for name in names]
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    for result in results:
        _report(result, args)
    prefixed = len(results) > 1
    print(
        json.dumps(
            {
                "correct": all(r["failed"] == 0 for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    (f"{r['workload']}." if prefixed else "") + name: metric
                    for r in results
                    for name, metric in r["metrics"].items()
                },
            }
        )
    )
    return 0


def _report(result: Dict[str, Any], args: argparse.Namespace) -> None:
    """Print one workload's metrics, checks and metadata; save them."""
    workload = result["workload"]
    for name, metric in {**result["metrics"], **result["extra"]}.items():
        print(f"{workload:<18} {name:<40} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{workload:<18} {'failed_frac':<40} "
        f"{failed / max(attempted, 1):.6g} ({failed}/{attempted})"
    )
    for mismatch in result["mismatches"]:
        print(f"{workload:<18} CHECK FAILED {json.dumps(mismatch)}")
    print(f"{workload:<18} meta {json.dumps(result['meta'], sort_keys=True)}")
    path = os.path.join(OUT, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
