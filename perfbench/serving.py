"""Closed-loop serving workloads over the in-process Clarify service.

The service is configured as ``clarify serve`` configures it by
default: the shared LLM client stack, a telemetry hub, and a recorder
without spans.  The timed loops keep sessions in an
:class:`~repro.serve.store.InMemorySessionStore`; the traced run of
``serve-acl`` also serves sessions from a
:class:`~repro.serve.store.DurableSessionStore` (fsynced journals).

Each client thread claims the next session index, opens the session
(unless set-up already did), sends the spec's intents one at a time,
waiting for each reply, and closes the session.  Once the run's time is
up, the clients finish the cycle they are in and claim no more, so a
run serves whole cycles and every session it started completes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.obs import telemetry
from repro.serve import (
    ClarifyService,
    DurableSessionStore,
    InMemorySessionStore,
    ServeRequest,
    ServeResponse,
    SessionManager,
    build_llm_stack,
)

#: Client threads of the closed loop: one, a user waiting on each reply.
#: The requests are pure-Python CPU work, so a second client added
#: little or no throughput (route-map 2.6 replies per second with one
#: client or two, ACL 646 against 603); it made each request wait for the
#: GIL held by the other worker, and the latency then followed the host's
#: scheduler from run to run (route-map p50 spread 0.18 of the median
#: over five seeds with two clients, 0.08 with one).
CLIENTS = 1
#: Service workers, as ``clarify serve`` starts them.
WORKERS = 2

#: A reply slower than this is a failed request.
REPLY_TIMEOUT_S = 120.0

#: The end-to-end figures of a run are medians over this many blocks of
#: consecutive whole cycles (fewer if the run served fewer cycles), so a
#: burst of co-tenant load spoils one block, not the figure.
BLOCKS = 9


def spec_fingerprint(responses: Sequence[ServeResponse]) -> str:
    """Digest of one session's outcomes, without the session's name.

    Every instance of a spec must produce the same digest, whichever
    cycle it was served in and whichever worker ran it.
    """
    keys = []
    for response in responses:
        key = response.outcome_key()
        key.pop("session")
        keys.append(key)
    canonical = json.dumps(keys, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class Harness:
    """One service plus its session manager, LLM stack and telemetry."""

    def __init__(self, store_dir: Optional[str] = None) -> None:
        self.stack = build_llm_stack()
        self.recorder = obs.Recorder(capture_spans=False)
        self._recording = obs.recording(self.recorder)
        self._recording.__enter__()
        self.hub = telemetry.install_hub(telemetry.TelemetryHub())
        self.store_dir = store_dir
        store: Any
        if store_dir is not None:
            store = DurableSessionStore(store_dir)
        else:
            store = InMemorySessionStore()
        self.manager = SessionManager(llm=self.stack.client, session_store=store)
        self.service = ClarifyService(self.manager, workers=WORKERS).start()

    def open(self, prefix: str, spec: Any, index: int) -> str:
        """Open the session for cycle index ``index`` unless it is open."""
        session_id = f"{prefix}{spec.session_id}-{index}"
        if session_id not in self.manager:
            self.manager.open(session_id, config_text=spec.config_text)
        return session_id

    def close(self) -> None:
        """Stop the workers, close every session and the telemetry."""
        self.service.stop()
        self.manager.close_all()
        telemetry.uninstall_hub()
        self.hub.close()
        self._recording.__exit__(None, None, None)
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


@dataclasses.dataclass
class Served:
    """One served session: its cycle index, its replies in order, their
    latencies and when each arrived (seconds into the loop)."""

    index: int
    responses: List[Optional[ServeResponse]]
    latencies: List[float]
    arrived: List[float] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class LoopResult:
    """What one closed-loop run served."""

    sessions: List[Served]
    cycle_len: int
    errors: List[str]
    #: Peak RSS (MB) once ``rss_after`` sessions had completed, if asked.
    rss_mb: Optional[float] = None

    @property
    def latencies(self) -> List[float]:
        return [lat for s in self.sessions for lat in s.latencies]

    @property
    def replies(self) -> List[ServeResponse]:
        return [r for s in self.sessions for r in s.responses if r is not None]

    @property
    def requests(self) -> int:
        return sum(len(s.responses) for s in self.sessions)

    @property
    def requests_per_cycle(self) -> int:
        return max(1, self.requests * self.cycle_len // max(len(self.sessions), 1))


def closed_loop(
    harness: Harness,
    cycle: Sequence[Any],
    prefix: str,
    seconds: Optional[float] = None,
    max_sessions: Optional[int] = None,
    rss_after: Optional[int] = None,
) -> LoopResult:
    """Serve the cycle with :data:`CLIENTS` clients until time or sessions run out.

    A timed loop serves whole cycles and at least ``rss_after`` sessions;
    the peak RSS is read when the ``rss_after``-th session completes.
    """
    lock = threading.Lock()
    next_index = [0]
    served: List[Served] = []
    errors: List[str] = []
    rss: List[float] = []
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None

    def claim() -> Optional[int]:
        with lock:
            index = next_index[0]
            if (
                deadline is not None
                and time.perf_counter() >= deadline
                and index % len(cycle) == 0
                and index >= (rss_after or 0)
            ):
                return None
            if max_sessions is not None and index >= max_sessions:
                return None
            next_index[0] += 1
            return index

    def client() -> None:
        while True:
            index = claim()
            if index is None:
                return
            spec = cycle[index % len(cycle)]
            record = Served(index, [], [])
            try:
                session_id = harness.open(prefix, spec, index)
                for intent in spec.intents:
                    request = ServeRequest(
                        session=session_id, intent=intent, target=spec.target
                    )
                    sent = time.perf_counter()
                    try:
                        response: Optional[ServeResponse] = harness.service.call(
                            request, timeout=REPLY_TIMEOUT_S
                        )
                    except TimeoutError as exc:
                        response = None
                        errors.append(str(exc))
                    now = time.perf_counter()
                    record.latencies.append(now - sent)
                    record.arrived.append(now - started)
                    record.responses.append(response)
                harness.manager.close(session_id)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                errors.append(f"{type(exc).__name__}: {exc}")
            while len(record.responses) < len(spec.intents):
                record.responses.append(None)
            with lock:
                served.append(record)
                if rss_after is not None and len(served) == rss_after:
                    rss.append(peak_rss_mb())

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{i}")
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    served.sort(key=lambda s: s.index)
    return LoopResult(served, len(cycle), errors, rss[0] if rss else None)


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_fingerprints(cycle: Sequence[Any]) -> List[str]:
    """Per-spec fingerprints from a serial run in a fresh in-memory service."""
    harness = Harness()
    try:
        fingerprints = []
        for index, spec in enumerate(cycle):
            session_id = harness.open("ref-", spec, index)
            replies = [
                harness.service.call(
                    ServeRequest(
                        session=session_id, intent=intent, target=spec.target
                    ),
                    timeout=REPLY_TIMEOUT_S,
                )
                for intent in spec.intents
            ]
            fingerprints.append(spec_fingerprint(replies))
        return fingerprints
    finally:
        harness.close()


def check_sessions(
    result: LoopResult, expected: Sequence[str]
) -> Dict[str, Any]:
    """Every request applied and every session's fingerprint as pinned.

    A session that fails either check fails all of its requests.
    """
    failed = 0
    bad: List[Dict[str, Any]] = []
    for session in result.sessions:
        spec_index = session.index % result.cycle_len
        pinned = expected[spec_index] if spec_index < len(expected) else None
        replies = session.responses
        outcomes = [r.outcome if r is not None else "unresolved" for r in replies]
        ok = all(outcome == "applied" for outcome in outcomes)
        fingerprint = (
            spec_fingerprint([r for r in replies if r is not None]) if ok else ""
        )
        if not ok or fingerprint != pinned:
            failed += len(replies)
            if len(bad) < 5:
                bad.append(
                    {
                        "session": session.index,
                        "outcomes": outcomes,
                        "fingerprint": fingerprint,
                        "expected": pinned,
                    }
                )
    if result.errors:
        bad.append({"errors": result.errors[:5]})
    return {
        "attempted": result.requests,
        "failed": failed,
        "mismatches": bad,
    }


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (``statistics`` inclusive)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])


def _block_of(cycle: int, cycles: int) -> int:
    return min(cycle, cycles - 1) * min(BLOCKS, cycles) // cycles


def blocks(result: LoopResult) -> List[List[Served]]:
    """The run's sessions in up to :data:`BLOCKS` blocks of whole cycles."""
    cycles = max(1, len(result.sessions) // result.cycle_len)
    grouped: List[List[Served]] = [[] for _ in range(min(BLOCKS, cycles))]
    for session in result.sessions:
        grouped[_block_of(session.index // result.cycle_len, cycles)].append(session)
    return [block for block in grouped if block]


def _block_rates(result: LoopResult) -> List[float]:
    """Replies per second in each block of the run's timeline.

    The replies, in order of arrival, are cut into blocks of whole
    cycles' worth; a block's time runs from the previous block's last
    reply to its own.  Blocks of sessions would overlap in time, by as
    much as the session that ends a block, which the seed picks.
    """
    arrivals = sorted(
        at
        for s in result.sessions
        for at, r in zip(s.arrived, s.responses)
        if r is not None
    )
    per_cycle = result.requests_per_cycle
    cycles = max(1, len(arrivals) // per_cycle)
    ends: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for rank, at in enumerate(arrivals):
        block = _block_of(rank // per_cycle, cycles)
        ends[block] = at
        counts[block] = counts.get(block, 0) + 1
    rates, previous = [], 0.0
    for block in sorted(ends):
        rates.append(counts[block] / (ends[block] - previous))
        previous = ends[block]
    return rates


def loop_metrics(result: LoopResult) -> Dict[str, float]:
    """End-to-end metrics of one closed-loop run: medians over its blocks."""
    rows: Dict[str, List[float]] = {}
    for block in blocks(result):
        latencies = [lat for s in block for lat in s.latencies]
        for name, q in (
            ("latency_p50_s", 0.50),
            ("latency_p90_s", 0.90),
            ("latency_p99_s", 0.99),
        ):
            rows.setdefault(name, []).append(quantile(latencies, q))
    figures = {name: statistics.median(values) for name, values in rows.items()}
    rate = statistics.median(_block_rates(result))
    figures["throughput_rps"] = rate
    # One cycle of sessions is the serving workload's unit of work.
    figures["study_s"] = result.requests_per_cycle / rate
    return figures


def fresh_store_dir(root: str) -> str:
    """A new, empty directory for a durable session store under ``root``."""
    path = os.path.join(root, f"store-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path
