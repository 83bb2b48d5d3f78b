"""The §3 overlap studies as campaigns, and their output checks.

One study runs the five campaigns of §3: campus ACLs and route-maps
(§3.2), cloud ACLs, route-maps and neighbor chains (§3.1).  The engine
is the default (``auto``) unless a caller pins one.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.overlap import AclCorpusStats, RouteMapCorpusStats
from repro.perf import campaign

from workloads import StudyInputs

#: The figures the paper reports (``benchmarks/results.txt``).  Campus
#: percentages are compared at the paper's one-decimal precision.
PAPER = {
    "campus.acl.conflict_pct": 37.7,
    "campus.acl.many_conflict_pct": 27.0,
    "campus.acl.nontrivial_pct": 18.6,
    "campus.acl.many_nontrivial_pct": 16.3,
    "campus.route_maps": 169,
    "campus.route_maps.overlapping": 2,
    "cloud.acls": 237,
    "cloud.acls.overlapping": 69,
    "cloud.acls.many": 48,
    "cloud.route_maps": 800,
    "cloud.route_maps.overlapping": 140,
    "cloud.route_maps.many": 3,
    "cloud.chains": 40,
    "cloud.chains.overlapping": 13,
    "cloud.chains.cross_map_pairs": 91,
}

#: Which corpus part each figure describes (a wrong figure fails its part).
PART_OF = {
    "campus.acl": "campus_acls",
    "campus.route_maps": "campus_route_maps",
    "cloud.acls": "cloud_acls",
    "cloud.route_maps": "cloud_route_maps",
    "cloud.chains": "cloud_chains",
}

#: Campaign calls of one study: (name, campaign layer, payloads field,
#: store field the route-map guards resolve against).
CALLS = (
    ("campus.acl", "acl", "campus_acls", None),
    ("campus.route_map", "route_map", "campus_route_maps", "campus_store"),
    ("cloud.acl", "acl", "cloud_acls", None),
    ("cloud.route_map", "route_map", "cloud_route_maps", "cloud_store"),
    ("cloud.chain", "chain", "cloud_chains", "cloud_store"),
)

_CAMPAIGNS = {
    "acl": campaign.acl_overlap_campaign,
    "route_map": campaign.route_map_overlap_campaign,
    "chain": campaign.chain_overlap_campaign,
}


@dataclasses.dataclass
class StudyRun:
    """One study: per-call results and wall times."""

    results: Dict[str, Any]
    call_s: Dict[str, float]
    wall_s: float


def run_study(inputs: StudyInputs, pool: Optional[str] = None) -> StudyRun:
    """Run the five §3 campaigns over ``inputs`` on engine ``pool``."""
    results: Dict[str, Any] = {}
    call_s: Dict[str, float] = {}
    started = time.perf_counter()
    for name, layer, payloads, store in CALLS:
        args = [getattr(inputs, payloads)]
        if store is not None:
            args.append(getattr(inputs, store))
        t0 = time.perf_counter()
        results[name] = _CAMPAIGNS[layer](*args, pool=pool)
        call_s[name] = time.perf_counter() - t0
    return StudyRun(results, call_s, time.perf_counter() - started)


def study_figures(run: StudyRun) -> Dict[str, float]:
    """The §3 figures of one study, keyed as in :data:`PAPER`."""
    campus_acl = AclCorpusStats.collect(run.results["campus.acl"].results)
    campus_rm = RouteMapCorpusStats.collect(
        run.results["campus.route_map"].results
    )
    cloud_acl = AclCorpusStats.collect(run.results["cloud.acl"].results)
    cloud_rm = RouteMapCorpusStats.collect(run.results["cloud.route_map"].results)
    chains = run.results["cloud.chain"].results
    return {
        "campus.acl.conflict_pct": round(campus_acl.conflict_fraction, 1),
        "campus.acl.many_conflict_pct": round(campus_acl.many_conflict_fraction, 1),
        "campus.acl.nontrivial_pct": round(campus_acl.nontrivial_fraction, 1),
        "campus.acl.many_nontrivial_pct": round(
            campus_acl.many_nontrivial_fraction, 1
        ),
        "campus.route_maps": campus_rm.total,
        "campus.route_maps.overlapping": campus_rm.with_overlaps,
        "cloud.acls": cloud_acl.total,
        "cloud.acls.overlapping": cloud_acl.with_conflicts,
        "cloud.acls.many": cloud_acl.with_many_conflicts,
        "cloud.route_maps": cloud_rm.total,
        "cloud.route_maps.overlapping": cloud_rm.with_overlaps,
        "cloud.route_maps.many": cloud_rm.with_many_overlaps,
        "cloud.chains": len(chains),
        "cloud.chains.overlapping": sum(1 for r in chains if r.has_overlap()),
        "cloud.chains.cross_map_pairs": sum(r.overlap_count for r in chains),
    }


def check_figures(
    figures: Dict[str, float], inputs: StudyInputs
) -> Dict[str, Any]:
    """Compare a study's figures with the paper's.

    Every payload of a corpus part with a wrong figure counts as failed.
    """
    wrong: Dict[str, Tuple[Any, Any]] = {}
    failed_parts = set()
    for key, expected in PAPER.items():
        if figures.get(key) != expected:
            wrong[key] = (figures.get(key), expected)
            part = next(p for prefix, p in PART_OF.items() if key.startswith(prefix))
            failed_parts.add(part)
    return {
        "attempted": inputs.policies,
        "failed": sum(len(getattr(inputs, part)) for part in failed_parts),
        "mismatches": wrong,
    }


def study_metrics(runs: List[StudyRun], inputs: StudyInputs) -> Dict[str, float]:
    """End-to-end metrics over the studies of one run.

    The operation an analyst waits on is the whole study, so the latency
    quantiles are over the run's studies (one, at the default length).
    """
    from serving import quantile

    walls = [run.wall_s for run in runs]
    study_s = quantile(walls, 0.50)
    return {
        "latency_p50_s": study_s,
        "latency_p90_s": quantile(walls, 0.90),
        "latency_p99_s": quantile(walls, 0.99),
        "throughput_rps": inputs.policies / study_s,
        "study_s": study_s,
    }


def campaign_layer(run: StudyRun) -> Dict[str, float]:
    """``campaign.*`` per-layer metrics of one (untraced) study."""
    metrics: Dict[str, float] = {
        "campaign.acl.wall_s": 0.0,
        "campaign.route_map.wall_s": 0.0,
        "campaign.chain.wall_s": 0.0,
    }
    for name, layer, _, _ in CALLS:
        metrics[f"campaign.{layer}.wall_s"] += run.call_s[name]
    results = run.results.values()
    metrics["campaign.workers"] = max(r.workers for r in results)
    metrics["campaign.chunks"] = sum(r.chunks for r in results)
    return metrics


def cache_counters(run: StudyRun) -> Dict[str, Tuple[float, float]]:
    """(hits, misses) per cache table, summed over the study's chunks.

    Chunks run from cold, isolated caches (in pool workers or in
    process), so the chunk counters are the only complete record.
    """
    tables: Dict[str, List[float]] = {}
    for result in run.results.values():
        for name, value in result.counters.items():
            for kind, slot in (("cache.hits.", 0), ("cache.misses.", 1)):
                if name.startswith(kind):
                    table = tables.setdefault(name[len(kind):], [0.0, 0.0])
                    table[slot] += value
    return {name: (h, m) for name, (h, m) in tables.items()}


def engine_of(run: StudyRun, pool: Optional[str] = None) -> Dict[str, Any]:
    """The campaign engine each call ran on, inferred from its result.

    ``CampaignResult`` does not name its engine, so the engine is read
    off the resolved mode and the worker and chunk counts.  On the
    persistent pool a calibrated campaign cuts a probe chunk plus at
    least one chunk per worker; a run with exactly one chunk per worker
    therefore fell back to running in process.
    """
    from repro.perf import pool as _pool

    mode = campaign.resolve_pool_mode(pool)
    pooled = _pool.fork_available() and (
        mode == "persistent" or (mode == "auto" and (os.cpu_count() or 1) > 1)
    )
    engines = {}
    for name, result in run.results.items():
        if result.workers == 1:
            engine = "inline"
        elif mode == "spawn" or (mode == "persistent" and not pooled):
            engine = "spawn"
        elif pooled and result.chunks != result.workers:
            engine = "persistent"
        else:
            engine = "inline (persistent pool fell back)"
        engines[name] = {
            "engine": engine,
            "workers": result.workers,
            "chunks": result.chunks,
            "wall_s": run.call_s[name],
        }
    return {"mode": mode, "inferred": True, "calls": engines}


def warm_pool() -> None:
    """Pre-fork the campaign pool when the default engine would use it."""
    try:
        from repro.perf import pool as _pool
    except ImportError:
        return
    workers = campaign.default_workers()
    if workers > 1 and _pool.fork_available():
        _pool.warm_pool(workers)


def shutdown_pool() -> None:
    """Stop the campaign pool's worker processes and wait for them."""
    try:
        from repro.perf import pool as _pool
    except ImportError:
        return
    _pool.shutdown_shared_pool()
