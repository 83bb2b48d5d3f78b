"""One differential harness over the seeded loadgen campaign.

The same seeded campaign must give the same outcome fingerprint however
it runs; each way of running it is a :class:`Leg` in :data:`LEGS`, and
:func:`run_legs` checks them against the ``pooled`` reference.  The
table is explained in ``docs/SERVING.md`` ("Differential legs").
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.serve.loadgen import LoadgenReport, run_loadgen
from repro.serve.shard import run_sharded_loadgen

#: The ``telemetry-off`` leg's bound on min p50 on / min p50 off.
OVERHEAD_BOUND = 1.05

#: Interleaved (telemetry-off, reference) campaign pairs that leg runs.
OVERHEAD_REPEATS = 3

#: The leg every other leg's fingerprint must equal.
REFERENCE = "pooled"

#: Override keys naming a directory relative to the scratch root.
_DIR_KEYS = ("cache_dir", "store_root")

#: Campaign keywords the shard processes honour.
_SHARD_KEYS = ("sessions", "requests_per_session", "seed", "max_attempts", "backend")

#: Report fields a leg's measures include when its report has them.
_MEASURES = ("workers", "upstream_llm_calls", "restarts", "restored_sessions")


@dataclasses.dataclass(frozen=True)
class Leg:
    """One way to run the campaign.

    ``overrides`` are campaign keywords (``cache_dir``/``store_root``
    relative to the scratch root).  With ``pairs`` the leg runs that
    many times, each run followed by one of the reference configuration.
    ``condition(result, results)`` returns why the leg failed, or None.
    """

    name: str
    overrides: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    sharded: bool = False
    pairs: int = 0
    condition: Optional[
        Callable[[LegResult, Mapping[str, LegResult]], Optional[str]]
    ] = None


@dataclasses.dataclass
class LegResult:
    """One leg's campaign reports and its failures."""

    leg: Leg
    #: A :class:`LoadgenReport` or ``ShardCampaignReport`` per run.
    runs: List[Any]
    #: The reference-configuration runs interleaved with a paired leg's.
    paired: List[LoadgenReport]
    failures: List[str] = dataclasses.field(default_factory=list)

    @property
    def report(self) -> Any:
        return self.runs[0]

    @property
    def p50_ratio(self) -> float:
        """Minimum p50 of the paired reference runs over the leg's."""
        leg_p50 = min(run.latency_quantiles["p50"] for run in self.runs)
        paired_p50 = min(run.latency_quantiles["p50"] for run in self.paired)
        return float(paired_p50 / leg_p50) if leg_p50 > 0 else 1.0

    @property
    def measures(self) -> Dict[str, float]:
        """The leg's own numbers: workers, upstream calls, restarts, …"""
        measures = {
            name: getattr(self.report, name)
            for name in _MEASURES
            if hasattr(self.report, name)
        }
        if self.paired:
            measures["p50_ratio"] = self.p50_ratio
        return measures

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "overrides": dict(self.leg.overrides),
            "ok": not self.failures,
            "failures": self.failures,
            "fingerprint": self.report.fingerprint,
            "outcomes": self.report.outcomes,
            **self.measures,
        }
        if self.paired:
            data["p50_s"] = [r.latency_quantiles["p50"] for r in self.runs]
            data["paired_p50_s"] = [r.latency_quantiles["p50"] for r in self.paired]
            data["service_p50_s"] = [r.service_quantiles["p50"] for r in self.runs]
            data["paired_service_p50_s"] = [
                r.service_quantiles["p50"] for r in self.paired
            ]
        return data


@dataclasses.dataclass
class LegsReport:
    """Every leg's result, the reference first."""

    results: Dict[str, LegResult]

    @property
    def reference(self) -> LoadgenReport:
        report: LoadgenReport = self.results[REFERENCE].report
        return report

    @property
    def failures(self) -> List[str]:
        return [
            f"{name}: {failure}"
            for name, result in self.results.items()
            for failure in result.failures
        ]

    def to_dict(self) -> Dict[str, Any]:
        """The ``legs`` block of ``BENCH_serve.json``."""
        return {
            "ok": not self.failures,
            "reference": REFERENCE,
            "fingerprint": self.reference.fingerprint,
            "legs": {name: r.to_dict() for name, r in self.results.items()},
        }


def _restored(result: LegResult, results: Mapping[str, LegResult]) -> Optional[str]:
    report = result.report
    if report.restarts >= 1 and report.restored_sessions >= 1:
        return None
    return (
        f"the kill exercised no recovery: restarts={report.restarts} "
        f"restored_sessions={report.restored_sessions}"
    )


def _upstream_calls(than: str, strictly: bool) -> Callable[..., Optional[str]]:
    """Upstream LLM calls at most (or, ``strictly``, below) leg ``than``'s."""

    def condition(result: LegResult, results: Mapping[str, Any]) -> Optional[str]:
        calls = result.report.upstream_llm_calls
        bound = results[than].report.upstream_llm_calls
        if calls < bound or (calls == bound and not strictly):
            return None
        relation = "below" if strictly else "at most"
        return f"upstream LLM calls {calls}, not {relation} {than}'s {bound}"

    return condition


def _overhead(result: LegResult, results: Mapping[str, LegResult]) -> Optional[str]:
    if result.p50_ratio <= OVERHEAD_BOUND:
        return None
    return (
        f"telemetry overhead {result.p50_ratio:.3f}x exceeds "
        f"bound {OVERHEAD_BOUND:g}x"
    )


#: The leg table, in run order.
LEGS: Dict[str, Leg] = {
    leg.name: leg
    for leg in (
        Leg(REFERENCE),
        Leg("serial", {"workers": 1}),
        Leg("sharded", {"store_root": "sharded"}, sharded=True),
        Leg(
            "killed",
            {"store_root": "killed", "kill_and_restart": True},
            sharded=True,
            condition=_restored,
        ),
        Leg(
            "cache-cold",
            {"cache_dir": "cache"},
            condition=_upstream_calls(REFERENCE, strictly=False),
        ),
        Leg(
            "cache-warm",
            {"cache_dir": "cache"},
            condition=_upstream_calls("cache-cold", strictly=True),
        ),
        Leg(
            "telemetry-off",
            {"telemetry": False},
            pairs=OVERHEAD_REPEATS,
            condition=_overhead,
        ),
    )
}


def _select(names: Sequence[str], campaign: Mapping[str, Any]) -> List[Leg]:
    """The legs to run, in table order; refuses campaigns they cannot compare."""
    unknown = [name for name in names if name not in LEGS]
    if unknown:
        raise ValueError(f"unknown leg {unknown[0]!r} (choose from {', '.join(LEGS)})")
    if "cache-warm" in names and "cache-cold" not in names:
        raise ValueError("the cache-warm leg needs the cache-cold leg")
    legs = [leg for name, leg in LEGS.items() if name == REFERENCE or name in names]
    if len(legs) > 1 and (
        campaign.get("fault_rate") or campaign.get("deadline_s") is not None
    ):
        raise ValueError(
            "the legs need a fault-free, deadline-free campaign (fault "
            "placement and deadlines are schedule-dependent)"
        )
    if campaign.get("netwide") and any(leg.sharded for leg in legs):
        raise ValueError(
            "the sharded legs need a gate-free campaign (shard processes "
            "run the plain serving stack, without --netwide)"
        )
    if campaign.get("telemetry") is False and any(leg.pairs for leg in legs):
        raise ValueError(
            "the telemetry-off leg compares against a telemetry-on "
            "reference; drop --no-telemetry"
        )
    return legs


def run_legs(
    names: Sequence[str],
    shards: int = 2,
    root: Optional[str] = None,
    **campaign: Any,
) -> LegsReport:
    """Run ``pooled``, then the :data:`LEGS` named by ``names``.

    ``campaign`` holds :func:`run_loadgen`'s keywords; only the
    reference run writes its ``event_log``.  ``root`` holds the sharded
    legs' session stores and the cache legs' response cache (default: a
    temporary directory).  Raises :class:`ValueError` for unknown legs
    and for campaigns the legs cannot compare.
    """
    legs = _select(names, campaign)
    quiet = dict(campaign, event_log=None)
    shard_base = {key: campaign[key] for key in _SHARD_KEYS if key in campaign}
    if "workers" in campaign:
        shard_base["workers_per_shard"] = campaign["workers"]
    results: Dict[str, LegResult] = {}
    with contextlib.ExitStack() as stack:
        scratch = root or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="clarify-legs-")
        )
        for leg in legs:
            overrides = {
                key: os.path.join(scratch, value) if key in _DIR_KEYS else value
                for key, value in leg.overrides.items()
            }
            result = LegResult(leg, [], [])
            for _ in range(max(1, leg.pairs)):
                if leg.sharded:
                    params = {**shard_base, **overrides}
                    result.runs.append(run_sharded_loadgen(shards=shards, **params))
                else:
                    params = campaign if leg.name == REFERENCE else quiet
                    result.runs.append(run_loadgen(**{**params, **overrides}))
                if leg.pairs:
                    result.paired.append(run_loadgen(**quiet))
            expected = results.get(REFERENCE, result).report
            for run in result.runs + result.paired:
                if run.fingerprint != expected.fingerprint:
                    result.failures.append(
                        f"fingerprint {run.fingerprint} != {REFERENCE}'s "
                        f"{expected.fingerprint} (outcomes {run.outcomes} "
                        f"vs {expected.outcomes})"
                    )
                    break
            results[leg.name] = result
            failure = leg.condition(result, results) if leg.condition else None
            if failure is not None:
                result.failures.append(failure)
    return LegsReport(results)


__all__ = [
    "LEGS",
    "Leg",
    "LegResult",
    "LegsReport",
    "OVERHEAD_BOUND",
    "OVERHEAD_REPEATS",
    "REFERENCE",
    "run_legs",
]
