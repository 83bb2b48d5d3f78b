"""A deterministic load generator for the Clarify service.

``clarify loadgen`` drives :class:`~repro.serve.service.ClarifyService`
with a seeded, reproducible campaign: a mix of **campus** sessions
(route-map policy edits against a walkthrough-style BGP config) and
**cloud** sessions (ACL rule additions against an edge filter), each
issuing several intents drawn from templates the simulated LLM's intent
grammar (:mod:`repro.llm.intents`) understands.  The parameter spaces
are deliberately small so distinct sessions collide on identical
intents — exercising the :class:`~repro.llm.dedup.DedupClient`
in-flight coalescing path under real concurrency.

Everything about the workload is a pure function of ``seed``, which is
what makes the serial-vs-pooled differential check meaningful: run the
same campaign with one worker and with N workers, fingerprint the
schedule-independent outcome fields, and the fingerprints must match
byte for byte (:func:`check_serial_identity`).

With ``fault_rate > 0`` the upstream LLM is wrapped in a
:class:`~repro.llm.faulty.FaultyLLM` chaos layer.  Fault placement then
depends on global call order, so outcomes are no longer
schedule-independent — the chaos gate instead asserts *liveness and
containment*: every request resolves, no session wedges, and no
``internal-error`` outcomes occur.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.disambiguator import DisambiguationMode
from repro.llm.batching import BatchingClient
from repro.llm.client import LLMClient
from repro.llm.dedup import DedupClient
from repro.llm.faulty import FaultyLLM
from repro.llm.respcache import CachedClient, ResponseCache, cache_safe_of
from repro.llm.router import BackendRouter, build_backend
from repro.obs import slo as slo_mod
from repro.obs import telemetry as tele
from repro.obs.metrics import Histogram
from repro.serve.service import (
    AdmissionError,
    ClarifyService,
    ServeRequest,
    ServeResponse,
    Ticket,
)
from repro.serve.session import SessionManager

#: Campus archetype: the §2 walkthrough configuration (BGP export policy).
CAMPUS_CONFIG = """
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

CAMPUS_TARGET = "ISP_OUT"

#: Cloud archetype: an edge ACL with one existing allow rule.
CLOUD_CONFIG = """
ip access-list extended EDGE_IN
 10 permit tcp host 1.1.1.1 host 2.2.2.2
"""

CLOUD_TARGET = "EDGE_IN"

#: Small parameter spaces → cross-session intent collisions → dedup hits.
_ASNS = (32, 44, 65, 77)
_LOCAL_PREFS = (100, 200, 300)
_MED_PREFIXES = (100, 120, 140)
_ACL_NETS = (3, 5, 7)
_ACL_PORTS = (22, 443, 8080)


def _campus_intents(rng: random.Random, count: int) -> List[str]:
    intents: List[str] = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            intents.append(
                "Write a route-map stanza that denies routes originating "
                f"from AS {rng.choice(_ASNS)}."
            )
        elif kind == 1:
            intents.append(
                "Write a route-map stanza that permits routes with "
                f"local-preference {rng.choice(_LOCAL_PREFS)}."
            )
        else:
            octet = rng.choice(_MED_PREFIXES)
            intents.append(
                "Write a route-map stanza that permits routes containing "
                f"the prefix {octet}.0.0.0/16 with mask length less than "
                f"or equal to {rng.randrange(17, 25)} and tagged with the "
                f"community 300:{rng.randrange(1, 4)}. Their MED value "
                f"should be set to {rng.choice((55, 70))}."
            )
    return intents


def _cloud_intents(rng: random.Random, count: int) -> List[str]:
    intents: List[str] = []
    for _ in range(count):
        action = rng.choice(("denies", "permits"))
        net = rng.choice(_ACL_NETS)
        port = rng.choice(_ACL_PORTS)
        intents.append(
            f"Add a rule that {action} tcp traffic from 10.{net}.0.0/16 "
            f"to host 2.2.2.{rng.randrange(2, 6)} on destination port "
            f"{port}."
        )
    return intents


@dataclasses.dataclass(frozen=True)
class SessionSpec:
    """One generated session: its seed config and intent script."""

    session_id: str
    archetype: str
    config_text: str
    target: str
    intents: Tuple[str, ...]


def generate_workload(
    sessions: int, requests_per_session: int = 2, seed: int = 2025
) -> List[SessionSpec]:
    """The campaign is a pure function of ``(sessions, rps, seed)``."""
    if sessions < 1:
        raise ValueError("sessions must be at least 1")
    if requests_per_session < 1:
        raise ValueError("requests_per_session must be at least 1")
    specs: List[SessionSpec] = []
    for index in range(sessions):
        rng = random.Random(f"loadgen:{seed}:{index}")
        archetype = "campus" if rng.random() < 0.5 else "cloud"
        if archetype == "campus":
            intents = _campus_intents(rng, requests_per_session)
            config, target = CAMPUS_CONFIG, CAMPUS_TARGET
        else:
            intents = _cloud_intents(rng, requests_per_session)
            config, target = CLOUD_CONFIG, CLOUD_TARGET
        specs.append(
            SessionSpec(
                session_id=f"{archetype}-{index:03d}",
                archetype=archetype,
                config_text=config,
                target=target,
                intents=tuple(intents),
            )
        )
    return specs


class _CountingClient:
    """Counts completions that truly reach the backend.

    The dedup/cache/batch layers each report their own savings; this
    innermost wrapper is the ground truth the cache-effectiveness gate
    compares — how many calls the real (metered, billed) backend served.
    """

    def __init__(self, inner: LLMClient) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0

    @property
    def cache_safe(self) -> bool:
        """Delegates to the wrapped backend (counting adds no impurity)."""
        return cache_safe_of(self._inner)

    def complete(self, system: str, prompt: str) -> str:
        """Count, then complete via the wrapped backend."""
        with self._lock:
            self.calls += 1
        return self._inner.complete(system, prompt)


@dataclasses.dataclass
class LLMStack:
    """The layered shared client a campaign (or ``clarify serve``) uses.

    Layering, outermost first (see ``docs/LLM_BACKENDS.md``)::

        DedupClient → BatchingClient? → CachedClient? → FaultyLLM?
                    → counter → backend (simulated / remote / router)

    ``client`` is what sessions share; the other fields expose each
    layer's counters for the campaign report.
    """

    client: DedupClient
    backend: str
    counting: _CountingClient
    faulty: Optional[FaultyLLM]
    cached: Optional[CachedClient]
    batcher: Optional[BatchingClient]
    router: Optional[BackendRouter]

    @property
    def upstream_calls(self) -> int:
        """Completions that reached the real backend."""
        return self.counting.calls


def build_llm_stack(
    backend: str = "simulated",
    cache_dir: Optional[str] = None,
    batch_window_s: Optional[float] = None,
    fault_rate: float = 0.0,
    seed: int = 0,
    llm_factory: Optional[Callable[[], LLMClient]] = None,
    **remote_kwargs: Any,
) -> LLMStack:
    """Build the shared client stack from serving-layer knobs.

    ``llm_factory`` (tests) overrides ``backend``.  With a
    ``fault_rate`` the chaos layer sits *inside* the cache layer, which
    therefore bypasses itself (corrupted responses are never memoized —
    see :func:`repro.llm.respcache.cache_safe_of`).  ``remote_kwargs``
    are forwarded to :func:`repro.llm.router.build_backend` for specs
    naming the ``remote`` backend (tests inject fake transports).
    """
    base = (
        llm_factory()
        if llm_factory is not None
        else build_backend(backend, **remote_kwargs)
    )
    router = base if isinstance(base, BackendRouter) else None
    counting = _CountingClient(base)
    upstream: LLMClient = counting
    faulty: Optional[FaultyLLM] = None
    if fault_rate > 0.0:
        faulty = FaultyLLM(upstream, error_rate=fault_rate, seed=seed)
        upstream = faulty
    cached: Optional[CachedClient] = None
    if cache_dir is not None:
        cached = CachedClient(upstream, ResponseCache(cache_dir))
        upstream = cached
    batcher: Optional[BatchingClient] = None
    if batch_window_s is not None:
        batcher = BatchingClient(upstream, flush_window_s=batch_window_s)
        upstream = batcher
    return LLMStack(
        client=DedupClient(upstream),
        backend=backend if llm_factory is None else "custom",
        counting=counting,
        faulty=faulty,
        cached=cached,
        batcher=batcher,
        router=router,
    )


@dataclasses.dataclass
class LoadgenReport:
    """What one campaign did, with the identity fingerprint."""

    sessions: int
    requests: int
    workers: int
    seed: int
    fault_rate: float
    wall_s: float
    throughput_rps: float
    outcomes: Dict[str, int]
    latency_quantiles: Dict[str, float]
    queue_wait_quantiles: Dict[str, float]
    #: Per reply, ``latency_s - queue_wait_s``: the time a worker spent
    #: on the request once it left the queue.
    service_quantiles: Dict[str, float]
    fingerprint: str
    rejected_submissions: int
    dedup: Dict[str, int]
    injected_faults: int
    counters: Dict[str, float]
    unresolved: int
    backend: str = "simulated"
    #: Completions that truly reached the backend (the billed calls).
    upstream_llm_calls: int = 0
    cache: Dict[str, int] = dataclasses.field(default_factory=dict)
    batch: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Network-wide quality axis (``--netwide``): gate checks run, gate
    #: warnings raised, and the ``netwide.*`` analyzer counters.
    netwide: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Telemetry axis: wide-event count, the SLO burn-rate report, and
    #: whether every tracked LLM-tier counter resolved to a trace.
    telemetry: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-serialisable dict."""
        return dataclasses.asdict(self)


def _quantiles(histogram: Histogram) -> Dict[str, float]:
    return {
        "p50": histogram.quantile(0.5) or 0.0,
        "p95": histogram.quantile(0.95) or 0.0,
        "p99": histogram.quantile(0.99) or 0.0,
        "max": float(histogram.max),
    }


def timing_quantiles(
    responses: Sequence[ServeResponse],
) -> Dict[str, Dict[str, float]]:
    """Latency, queue-wait and service-time quantiles over ``responses``."""
    latency = Histogram()
    queue_wait = Histogram()
    service = Histogram()
    for response in responses:
        latency.observe(response.latency_s)
        queue_wait.observe(response.queue_wait_s)
        service.observe(response.latency_s - response.queue_wait_s)
    return {
        "latency": _quantiles(latency),
        "queue_wait": _quantiles(queue_wait),
        "service": _quantiles(service),
    }


def _fingerprint(keys: List[Dict[str, Any]]) -> str:
    canonical = json.dumps(
        sorted(keys, key=lambda k: (k["session"], k["seq"])),
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _trace_coverage(
    recorder: obs.Recorder, events: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Do the run's LLM-tier counters all resolve to a wide event?

    Compares the recorder's global ``llm.*`` totals against the sum of
    the same counters across every wide event.  A shortfall means some
    deltas were emitted with no trace active (e.g. on a background flush
    thread) — reported per counter so the gap is debuggable.
    """
    attributed: Dict[str, float] = {}
    for event in events:
        for name, value in event.get("counters", {}).items():
            attributed[name] = attributed.get(name, 0) + value
    missing: Dict[str, float] = {}
    for name, total in recorder.counters.items():
        if not name.startswith("llm."):
            continue
        shortfall = total - attributed.get(name, 0)
        if shortfall > 0:
            missing[name] = shortfall
    return {
        "complete": not missing,
        "missing": dict(sorted(missing.items())),
    }


def run_loadgen(
    sessions: int = 16,
    requests_per_session: int = 2,
    workers: int = 4,
    seed: int = 2025,
    fault_rate: float = 0.0,
    deadline_s: Optional[float] = None,
    queue_limit: int = 64,
    high_water: Optional[int] = None,
    max_attempts: int = 3,
    wait_timeout_s: float = 120.0,
    llm_factory: Optional[Callable[[], LLMClient]] = None,
    backend: str = "simulated",
    cache_dir: Optional[str] = None,
    batch_window_s: Optional[float] = None,
    netwide: bool = False,
    telemetry: bool = True,
    event_log: Optional[str] = None,
    slo: Optional[slo_mod.SLOConfig] = None,
) -> LoadgenReport:
    """Run one seeded campaign and aggregate the results.

    Admission rejections are retried (after the advertised
    ``retry_after_s``) until accepted, so backpressure shapes *when*
    work runs, never *whether* it runs — a prerequisite for the
    serial-vs-pooled identity check.

    ``backend`` is a :func:`repro.llm.router.build_backend` spec,
    ``cache_dir`` enables the durable response cache, and
    ``batch_window_s`` enables micro-batching (see
    :func:`build_llm_stack` for the layering).  ``netwide`` attaches a
    per-session :class:`~repro.lint.netwide.gate.NetwideGate` (each
    session's edits embedded onto the seeded demo topology's EDGE
    router) and adds the network-wide conflict counters to the report —
    the quality axis alongside the throughput/latency ones.

    ``telemetry`` (on by default) installs a
    :class:`~repro.obs.telemetry.TelemetryHub` for the campaign: the
    report gains a ``telemetry`` block (wide-event count, the SLO
    burn-rate evaluation under ``slo`` or the default objectives, and
    the LLM-counter trace-coverage check), and ``event_log`` streams the
    wide events as JSONL.  Trace ids never enter ``outcome_key``, so the
    identity fingerprint is telemetry-invariant.
    """
    workload = generate_workload(sessions, requests_per_session, seed)
    stack = build_llm_stack(
        backend=backend,
        cache_dir=cache_dir,
        batch_window_s=batch_window_s,
        fault_rate=fault_rate,
        seed=seed,
        llm_factory=llm_factory,
    )
    shared = stack.client
    faulty = stack.faulty

    netwide_gate_factory = None
    if netwide:
        # Imported lazily: the netwide layer pulls in the BGP simulator,
        # which fault-only or cache-only campaigns never need.
        from repro.lint.netwide import NetwideGate, default_contracts, embed_on_edge

        contracts = default_contracts()
        netwide_gate_factory = lambda: NetwideGate(  # noqa: E731
            embed_on_edge, contracts=contracts
        )

    recorder = obs.Recorder()
    hub: Optional[tele.TelemetryHub] = None
    t_start = time.perf_counter()
    with obs.recording(recorder):
        if telemetry:
            hub = tele.install_hub(tele.TelemetryHub(sink=event_log))
        try:
            manager = SessionManager(
                llm=shared,
                mode=DisambiguationMode.FULL,
                max_attempts=max_attempts,
                netwide_gate_factory=netwide_gate_factory,
            )
            for spec in workload:
                manager.open(spec.session_id, config_text=spec.config_text)
            rejected_submissions = 0
            tickets: List[Ticket] = []
            with ClarifyService(
                manager,
                workers=workers,
                queue_limit=queue_limit,
                high_water=high_water,
            ) as service:
                # Round-robin across sessions so concurrent requests
                # overlap across many sessions (and dedup sees
                # simultaneous twins).
                for round_idx in range(requests_per_session):
                    for spec in workload:
                        request = ServeRequest(
                            session=spec.session_id,
                            intent=spec.intents[round_idx],
                            target=spec.target,
                            deadline_s=deadline_s,
                        )
                        while True:
                            try:
                                tickets.append(service.submit(request))
                                break
                            except AdmissionError as exc:
                                rejected_submissions += 1
                                time.sleep(min(exc.retry_after_s, 0.05))
                responses: List[Optional[ServeResponse]] = [
                    t.wait(wait_timeout_s) for t in tickets
                ]
        finally:
            if hub is not None:
                tele.uninstall_hub()
                hub.close()
    wall = time.perf_counter() - t_start

    telemetry_block: Dict[str, Any] = {"enabled": hub is not None}
    if hub is not None:
        slo_report = slo_mod.evaluate(hub.events, slo)
        telemetry_block["wide_events"] = hub.finished
        telemetry_block["slo"] = slo_report.to_dict()
        telemetry_block["trace_coverage"] = _trace_coverage(
            recorder, hub.events
        )

    resolved = [r for r in responses if r is not None]
    unresolved = len(responses) - len(resolved)
    outcomes: Dict[str, int] = {}
    for response in resolved:
        outcomes[response.outcome] = outcomes.get(response.outcome, 0) + 1
    timings = timing_quantiles(resolved)
    return LoadgenReport(
        sessions=sessions,
        requests=len(tickets),
        workers=workers,
        seed=seed,
        fault_rate=fault_rate,
        wall_s=wall,
        throughput_rps=len(resolved) / wall if wall > 0 else 0.0,
        outcomes=dict(sorted(outcomes.items())),
        latency_quantiles=timings["latency"],
        queue_wait_quantiles=timings["queue_wait"],
        service_quantiles=timings["service"],
        fingerprint=_fingerprint([r.outcome_key() for r in resolved]),
        rejected_submissions=rejected_submissions,
        dedup=shared.stats(),
        injected_faults=faulty.injected_faults if faulty else 0,
        counters={
            name: value
            for name, value in sorted(recorder.counters.items())
            if name.startswith(("serve.", "llm."))
        },
        unresolved=unresolved,
        backend=stack.backend,
        upstream_llm_calls=stack.upstream_calls,
        cache=stack.cached.stats() if stack.cached is not None else {},
        batch=stack.batcher.stats() if stack.batcher is not None else {},
        netwide={
            name: value
            for name, value in sorted(recorder.counters.items())
            if name.startswith(("netwide.", "lint.netwide"))
        },
        telemetry=telemetry_block,
    )


def check_serial_identity(
    sessions: int,
    requests_per_session: int,
    workers: int,
    seed: int,
    **kwargs: Any,
) -> Tuple[LoadgenReport, LoadgenReport]:
    """Run the campaign serially and pooled; raise if outcomes diverge.

    Fault injection and deadlines are schedule-dependent by nature, so
    the identity check always runs fault-free and deadline-free.
    """
    serial = run_loadgen(
        sessions, requests_per_session, workers=1, seed=seed, **kwargs
    )
    pooled = run_loadgen(
        sessions, requests_per_session, workers=workers, seed=seed, **kwargs
    )
    if serial.fingerprint != pooled.fingerprint:
        raise AssertionError(
            "serial and pooled runs diverged: "
            f"{serial.fingerprint} != {pooled.fingerprint} "
            f"(serial outcomes {serial.outcomes}, "
            f"pooled outcomes {pooled.outcomes})"
        )
    return serial, pooled


@dataclasses.dataclass
class CacheEffectiveness:
    """The cached-vs-uncached differential: same outcomes, fewer calls.

    Three runs of the identical seeded campaign: ``uncached`` (no durable
    cache), ``cold`` (fresh cache directory — repeats *within* the run
    hit), and ``warm`` (same directory again — every prompt hits).  The
    gate holds when all three fingerprints are byte-identical and the
    upstream call count strictly drops at each stage.
    """

    uncached: LoadgenReport
    cold: LoadgenReport
    warm: LoadgenReport

    @property
    def identical(self) -> bool:
        """True when every run produced byte-identical outcomes."""
        return (
            self.uncached.fingerprint
            == self.cold.fingerprint
            == self.warm.fingerprint
        )

    def to_dict(self) -> Dict[str, Any]:
        """The before/after call counts BENCH_serve.json records."""
        return {
            "identical_outcomes": self.identical,
            "requests": self.uncached.requests,
            "uncached_upstream_calls": self.uncached.upstream_llm_calls,
            "cold_upstream_calls": self.cold.upstream_llm_calls,
            "warm_upstream_calls": self.warm.upstream_llm_calls,
            "cold_cache": self.cold.cache,
            "warm_cache": self.warm.cache,
            "fingerprint": self.uncached.fingerprint,
        }


def check_cache_effectiveness(
    sessions: int,
    requests_per_session: int,
    workers: int,
    seed: int,
    cache_dir: str,
    **kwargs: Any,
) -> CacheEffectiveness:
    """Run the cached-vs-uncached differential gate; raise on violation.

    Requires a fault-free, deadline-free campaign (chaos bypasses the
    cache by design, and both chaos and deadlines make outcomes
    schedule-dependent).  Asserts that (1) the uncached, cold-cache, and
    warm-cache runs produce byte-identical per-session outcomes and
    (2) the warm run reaches the backend strictly less than the cold
    run, which reaches it no more than the uncached run.
    """
    if kwargs.get("fault_rate") or kwargs.get("deadline_s") is not None:
        raise ValueError(
            "cache effectiveness requires a fault-free, deadline-free "
            "campaign"
        )
    uncached = run_loadgen(
        sessions, requests_per_session, workers=workers, seed=seed, **kwargs
    )
    cold = run_loadgen(
        sessions,
        requests_per_session,
        workers=workers,
        seed=seed,
        cache_dir=cache_dir,
        **kwargs,
    )
    warm = run_loadgen(
        sessions,
        requests_per_session,
        workers=workers,
        seed=seed,
        cache_dir=cache_dir,
        **kwargs,
    )
    result = CacheEffectiveness(uncached=uncached, cold=cold, warm=warm)
    if not result.identical:
        raise AssertionError(
            "cached and uncached runs diverged: "
            f"uncached {uncached.fingerprint} / cold {cold.fingerprint} / "
            f"warm {warm.fingerprint}"
        )
    if cold.upstream_llm_calls > uncached.upstream_llm_calls:
        raise AssertionError(
            f"cold cache increased upstream calls: "
            f"{cold.upstream_llm_calls} > {uncached.upstream_llm_calls}"
        )
    if warm.upstream_llm_calls >= cold.upstream_llm_calls:
        raise AssertionError(
            f"warm cache did not reduce upstream calls: "
            f"{warm.upstream_llm_calls} >= {cold.upstream_llm_calls}"
        )
    return result


@dataclasses.dataclass
class TelemetryOverhead:
    """The telemetry-on vs telemetry-off differential.

    ``repeats`` interleaved pairs of the identical seeded campaign, one
    with the hub installed and one without; the compared p50 is the
    **minimum** across repeats per mode (the least-noisy estimate of the
    achievable latency), and every run must produce the same identity
    fingerprint — telemetry that changed outcomes would be a bug, not an
    overhead.
    """

    p50_off_s: float
    p50_on_s: float
    ratio: float
    bound: float
    repeats: int
    fingerprint: str

    @property
    def ok(self) -> bool:
        """True when the measured p50 regression is within ``bound``."""
        return self.ratio <= self.bound

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["ok"] = self.ok
        return data


def check_telemetry_overhead(
    sessions: int,
    requests_per_session: int,
    workers: int,
    seed: int,
    repeats: int = 3,
    bound: float = 1.05,
    **kwargs: Any,
) -> TelemetryOverhead:
    """Measure the hub's p50 latency cost; raise if outcomes diverge.

    Requires a fault-free, deadline-free campaign (otherwise outcomes
    are schedule-dependent and the fingerprint cross-check is vacuous).
    The returned report says whether the ``bound`` held; the caller
    (``clarify loadgen --check-telemetry-overhead``) turns that into an
    exit code.
    """
    if kwargs.get("fault_rate") or kwargs.get("deadline_s") is not None:
        raise ValueError(
            "telemetry overhead requires a fault-free, deadline-free "
            "campaign"
        )
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    p50_off: List[float] = []
    p50_on: List[float] = []
    fingerprints = set()
    for _ in range(repeats):
        off = run_loadgen(
            sessions,
            requests_per_session,
            workers=workers,
            seed=seed,
            telemetry=False,
            **kwargs,
        )
        on = run_loadgen(
            sessions,
            requests_per_session,
            workers=workers,
            seed=seed,
            telemetry=True,
            **kwargs,
        )
        p50_off.append(off.latency_quantiles["p50"])
        p50_on.append(on.latency_quantiles["p50"])
        fingerprints.update((off.fingerprint, on.fingerprint))
    if len(fingerprints) != 1:
        raise AssertionError(
            f"telemetry changed campaign outcomes: {sorted(fingerprints)}"
        )
    best_off = min(p50_off)
    best_on = min(p50_on)
    ratio = best_on / best_off if best_off > 0 else 1.0
    return TelemetryOverhead(
        p50_off_s=best_off,
        p50_on_s=best_on,
        ratio=ratio,
        bound=bound,
        repeats=repeats,
        fingerprint=next(iter(fingerprints)),
    )


__all__ = [
    "CAMPUS_CONFIG",
    "CAMPUS_TARGET",
    "CLOUD_CONFIG",
    "CLOUD_TARGET",
    "CacheEffectiveness",
    "LLMStack",
    "LoadgenReport",
    "SessionSpec",
    "TelemetryOverhead",
    "build_llm_stack",
    "check_cache_effectiveness",
    "check_serial_identity",
    "check_telemetry_overhead",
    "generate_workload",
    "run_loadgen",
    "timing_quantiles",
]
