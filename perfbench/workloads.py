"""Seeded inputs for the Clarify benchmark.

Every input the program sees is a pure function of the ``--seed``
argument.  The serving workloads take their sessions from
:func:`repro.serve.loadgen.generate_workload`, the traffic model behind
``clarify loadgen``; the overlap study takes its corpora from
:mod:`repro.synth`.

A serving workload is a *cycle* of session specs.  The closed loop
serves the cycle over and over, each time with fresh sessions and always
in whole cycles, so every served session can be checked against the
pinned outcome of its spec and every run holds the same request mix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Any, List, Tuple

WORKLOADS = ("serve-routemap", "serve-acl", "overlap-s3")
SERVE_WORKLOADS = ("serve-routemap", "serve-acl")

#: The route-map cycle is the campus half of ``clarify loadgen``'s
#: default campaign (16 sessions, 2 requests each, seed 2025): 10
#: sessions, 20 requests.  A per-seed draw would change the mix of
#: cheap and expensive requests from seed to seed (a prefix-list request
#: costs 10-30 times an AS or local-preference one), and a run serves
#: too few requests for that mix to settle.  So the benchmark seed only
#: orders the sessions, as it orders the cloud corpus of ``overlap-s3``.
LOADGEN_SESSIONS = 16
LOADGEN_REQUESTS_PER_SESSION = 2
LOADGEN_SEED = 2025

#: Cloud sessions in one cycle of the ACL workload.  Their requests all
#: cost about the same, so the seed draws them.
ACL_SESSIONS_PER_CYCLE = 8

#: Sessions served before the serving workloads read their peak RSS:
#: two route-map cycles, a thousand ACL sessions.  A fixed amount of
#: work, so the figure does not grow with the host's speed.
RSS_AFTER_SESSIONS = {"serve-routemap": 20, "serve-acl": 1000}


def spec_key(spec: Any) -> str:
    """Digest of a session spec's content, the key of its pinned outcome."""
    canonical = json.dumps(
        [spec.config_text, spec.target, list(spec.intents)], sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _loadgen_sessions(archetype: str, sessions: int, seed: int) -> List[Any]:
    from repro.serve.loadgen import generate_workload

    specs = generate_workload(sessions, LOADGEN_REQUESTS_PER_SESSION, seed)
    return [spec for spec in specs if spec.archetype == archetype]


def routemap_cycle(seed: int) -> List[Any]:
    """The campus route-map cycle for ``seed``: loadgen's default campus
    sessions in a seeded order."""
    specs = _loadgen_sessions("campus", LOADGEN_SESSIONS, LOADGEN_SEED)
    random.Random(f"perfbench:serve-routemap:{seed}").shuffle(specs)
    return specs


def acl_cycle(seed: int) -> List[Any]:
    """The cloud ACL cycle for ``seed``: the first cloud sessions of the
    loadgen campaign with that seed."""
    # Each loadgen session is drawn on its own, so a longer campaign
    # starts with the same sessions; 8 cloud sessions in 64 draws at 50%.
    specs = _loadgen_sessions("cloud", 8 * ACL_SESSIONS_PER_CYCLE, seed)
    if len(specs) < ACL_SESSIONS_PER_CYCLE:
        raise ValueError(f"seed {seed} draws too few cloud sessions")
    return specs[:ACL_SESSIONS_PER_CYCLE]


def serve_cycle(workload: str, seed: int) -> List[Any]:
    """The session cycle of a serving workload."""
    if workload == "serve-routemap":
        return routemap_cycle(seed)
    if workload == "serve-acl":
        return acl_cycle(seed)
    raise ValueError(f"not a serving workload: {workload!r}")


#: The §3.1 cloud corpus seed.  Its neighbor-chain figures (13 of 40
#: chains, 91 cross-map pairs) are specific to this seed, so the
#: benchmark seed permutes the cloud payload order instead.
CLOUD_CORPUS_SEED = 2025


@dataclasses.dataclass(frozen=True)
class StudyInputs:
    """The corpora of the §3 overlap study."""

    campus_acls: Tuple
    campus_route_maps: Tuple
    campus_store: object
    cloud_acls: Tuple
    cloud_route_maps: Tuple
    cloud_chains: Tuple
    cloud_store: object

    @property
    def policies(self) -> int:
        """Payloads analysed by one study (ACLs, route-maps, chains)."""
        return (
            len(self.campus_acls)
            + len(self.campus_route_maps)
            + len(self.cloud_acls)
            + len(self.cloud_route_maps)
            + len(self.cloud_chains)
        )


def study_inputs(seed: int) -> StudyInputs:
    """The campus corpus for ``seed`` and the shuffled cloud corpus.

    The campus generator places its archetypes exactly, so every seed
    reproduces the §3.2 figures with different policies.
    """
    from repro.synth import generate_campus_corpus, generate_cloud_corpus

    campus = generate_campus_corpus(seed=seed)
    cloud = generate_cloud_corpus(seed=CLOUD_CORPUS_SEED)
    rng = random.Random(f"perfbench:overlap-s3:{seed}")

    def shuffled(items) -> Tuple:
        items = list(items)
        rng.shuffle(items)
        return tuple(items)

    return StudyInputs(
        campus_acls=tuple(campus.acls),
        campus_route_maps=tuple(campus.route_maps),
        campus_store=campus.store,
        cloud_acls=shuffled(cloud.acls),
        cloud_route_maps=shuffled(cloud.route_maps),
        cloud_chains=shuffled(tuple(chain) for chain in cloud.neighbor_chains),
        cloud_store=cloud.store,
    )
