"""``repro.serve`` — concurrent multi-session Clarify serving.

The paper's Clarify loop is one user talking to one session; the
north-star system serves fleets of operators concurrently.  This package
is that serving layer (architecture in ``docs/SERVING.md``):

* :class:`~repro.serve.session.SessionManager` — owns per-session state
  (configuration store, oracle, optional journal) keyed by session id,
  with the per-session locks/FIFO ordering that make
  :class:`~repro.core.workflow.ClarifySession` safe to drive from a pool;
* :class:`~repro.serve.service.ClarifyService` — a bounded work queue and
  thread pool with admission control (reject-with-retry-after past the
  high-water mark) and per-request time budgets
  (:class:`~repro.core.budget.TimeBudget`);
* :mod:`~repro.serve.loadgen` — a deterministic seeded workload generator
  (campus/cloud intent mix, optional :class:`~repro.llm.faulty.FaultyLLM`
  chaos rate) reporting throughput, latency quantiles, and per-outcome
  counters to ``benchmarks/BENCH_serve.json``;
* :mod:`~repro.serve.store` — pluggable session durability: an
  in-memory store and a :class:`~repro.serve.store.DurableSessionStore`
  (fsynced per-session journals plus a manifest) whose snapshots rebuild
  live sessions bit-exactly by deterministic journal replay;
* :mod:`~repro.serve.shard` — horizontal scale-out: a consistent-hash
  ring (:class:`~repro.serve.shard.HashRing`) placing sessions onto N
  shard serve processes behind a thin router with per-shard and global
  admission high-water marks, plus first-class crash recovery
  (SIGKILL a shard, restart with ``--restore``, replay its journals);
* :mod:`~repro.serve.legs` — the differential harness: one leg table
  and one runner, :func:`~repro.serve.legs.run_legs`.

The layer's core invariant: the same seeded workload produces
**identical per-session outcomes** however it runs — serial, pooled,
sharded, killed and restored, cached, or without telemetry.  ``clarify
loadgen --legs serial,pooled,sharded,killed,cache-cold,cache-warm,telemetry-off``
asserts this end to end; CI runs every leg on every push.
"""

from repro.serve.legs import LEGS, Leg, LegResult, LegsReport, run_legs
from repro.serve.loadgen import (
    LLMStack,
    LoadgenReport,
    SessionSpec,
    build_llm_stack,
    generate_workload,
    run_loadgen,
)
from repro.serve.service import (
    AdmissionError,
    ClarifyService,
    ServeRequest,
    ServeResponse,
    Ticket,
)
from repro.serve.session import ManagedSession, SessionManager
from repro.serve.shard import (
    HashRing,
    ShardCampaignReport,
    ShardedCluster,
    run_sharded_loadgen,
)
from repro.serve.store import (
    DurableSessionStore,
    InMemorySessionStore,
    RestoreError,
    SessionRecord,
    SessionSnapshot,
    SessionStore,
    rebuild_session,
)

__all__ = [
    "AdmissionError",
    "ClarifyService",
    "DurableSessionStore",
    "HashRing",
    "InMemorySessionStore",
    "LEGS",
    "LLMStack",
    "Leg",
    "LegResult",
    "LegsReport",
    "LoadgenReport",
    "ManagedSession",
    "RestoreError",
    "ServeRequest",
    "ServeResponse",
    "SessionSpec",
    "SessionManager",
    "SessionRecord",
    "SessionSnapshot",
    "SessionStore",
    "ShardCampaignReport",
    "ShardedCluster",
    "Ticket",
    "build_llm_stack",
    "generate_workload",
    "rebuild_session",
    "run_legs",
    "run_loadgen",
    "run_sharded_loadgen",
]
