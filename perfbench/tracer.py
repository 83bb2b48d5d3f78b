"""Span-stack wrappers around the program's public entry points.

The traced run installs a wrapper on every entry point in
:data:`TARGETS`; each call records a span (name, start, end, parent) on
a per-thread stack.  A span's *self time* is its duration minus the
time its child spans cover.  Spans are aggregated in memory per name,
the first :data:`RAW_SPAN_LIMIT` are kept raw, and both are written out
when the run ends.  :meth:`Tracer.uninstall` restores every patched
attribute, so an untraced run afterwards executes the original code.

A function imported by name into other modules is patched in every
``repro`` module that binds it, so callers that did ``from x import f``
are traced too.  A target the program no longer has is reported in
:attr:`Tracer.missing` rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, "module:attribute" or "module:Class.method").  Several
#: targets may share a span name (both verify entry points are "verify").
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("serve.request", "repro.core.workflow:ClarifySession.request"),
    ("synthesis", "repro.core.synthesis:SynthesisPipeline.synthesize"),
    ("verify", "repro.core.verify:verify_route_map_snippet"),
    ("verify", "repro.core.verify:verify_acl_snippet"),
    ("disambiguate", "repro.core.disambiguator:disambiguate_stanza"),
    ("disambiguate", "repro.core.disambiguator:disambiguate_acl_rule"),
    ("compare.route_policies", "repro.analysis.compare:compare_route_policies"),
    ("compare.filters", "repro.analysis.compare:compare_filters"),
    (
        "routespace.reachable",
        "repro.analysis.routespace:route_map_reachable_spaces",
    ),
    ("routespace.subtract", "repro.analysis.routespace:RouteSpace.subtract"),
    ("routespace.intersect", "repro.analysis.routespace:RouteSpace.intersect"),
    (
        "routespace.is_subset_of",
        "repro.analysis.routespace:RouteSpace.is_subset_of",
    ),
    ("prefixspace.subtract", "repro.analysis.prefixspace:PrefixSpace.subtract"),
    (
        "prefixspace.complement",
        "repro.analysis.prefixspace:PrefixSpace.complement",
    ),
    (
        "prefixspace.intersect",
        "repro.analysis.prefixspace:PrefixSpace.intersect",
    ),
    (
        "prefixspace.is_subset_of",
        "repro.analysis.prefixspace:PrefixSpace.is_subset_of",
    ),
    ("headerspace.reachable", "repro.analysis.headerspace:acl_reachable_spaces"),
    ("headerspace.subtract", "repro.analysis.headerspace:PacketSpace.subtract"),
    (
        "headerspace.intersect",
        "repro.analysis.headerspace:PacketSpace.intersect",
    ),
    ("overlap.acl_report", "repro.overlap.detector:acl_overlap_report"),
    (
        "overlap.route_map_report",
        "repro.overlap.detector:route_map_overlap_report",
    ),
    ("overlap.chain_report", "repro.overlap.chains:chain_overlap_report"),
    ("kernels.disjoint_matrix", "repro.perf.kernels:disjoint_matrix"),
    ("kernels.subset_matrix", "repro.perf.kernels:subset_matrix"),
    ("journal.event", "repro.obs.journal:JournalRecorder.event"),
    ("store.fsync", "os:fsync"),
)

#: The span name of calls into the shared LLM client stack; its class is
#: only known once the stack is built (see :meth:`Tracer.wrap_method`).
LLM_SPAN = "llm.complete"

#: Every span name the tracer can report.
SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys([name for name, _ in TARGETS] + [LLM_SPAN])
)

#: Raw spans kept for the written-out trace; the aggregate is exact.
RAW_SPAN_LIMIT = 20000


class _Frame:
    __slots__ = ("name", "start", "child_s", "root")

    def __init__(self, name: str, start: float, root: int) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.root = root


class Tracer:
    """Installs span wrappers, aggregates spans, and removes the wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: Root-span time per thread-name prefix (e.g. serve workers).
        self.root_s: Dict[str, float] = {}
        #: (name, parent name, request id, start, end, self_s); the
        #: request id numbers root spans, shared by all their children.
        self.raw: List[Tuple[str, str, int, float, float, float]] = []
        self.missing: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._next_root = 0

    # ------------------------------------------------------------ spans

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper recording one span named ``name`` per call of ``fn``."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if stack:
                root = stack[-1].root
            else:
                with self._lock:
                    root = self._next_root
                    self._next_root += 1
            frame = _Frame(name, clock(), root)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child_s += duration
                self._record(frame, end, duration, parent)

        return traced

    def _record(
        self, frame: _Frame, end: float, duration: float, parent: Optional[_Frame]
    ) -> None:
        self_s = duration - frame.child_s
        thread = threading.current_thread()
        with self._lock:
            entry = self.stats.get(frame.name)
            if entry is None:
                entry = self.stats[frame.name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s
            if parent is None:
                key = thread.name.rsplit("-", 1)[0]
                self.root_s[key] = self.root_s.get(key, 0.0) + duration
            if len(self.raw) < RAW_SPAN_LIMIT:
                self.raw.append(
                    (frame.name, parent.name if parent else "", frame.root,
                     frame.start, end, self_s)
                )

    # ---------------------------------------------------------- patching

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`TARGETS` that exists."""
        for name, target in TARGETS:
            module_name, _, attr = target.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target)
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or method not in vars(owner):
                    self.missing.append(target)
                    continue
                self.wrap_method(name, owner, method)
            else:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(target)
                    continue
                self._patch_everywhere(name, module, attr, original)
        return self

    def wrap_method(self, name: str, owner: type, method: str) -> None:
        """Wrap ``owner.method`` (a plain function attribute of a class)."""
        original = vars(owner)[method]
        self._patches.append((owner, method, original))
        setattr(owner, method, self.wrap(name, original))

    def _patch_everywhere(
        self, name: str, module: Any, attr: str, original: Any
    ) -> None:
        wrapper = self.wrap(name, original)
        holders = [module] + [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name.startswith("repro") and mod is not module
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ----------------------------------------------------------- results

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[2])

    def attributed_s(self, thread_prefix: Optional[str] = None) -> float:
        """Time covered by root spans, optionally of one thread family."""
        if thread_prefix is None:
            return sum(self.root_s.values())
        return self.root_s.get(thread_prefix, 0.0)

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the aggregate ledger and the raw spans as JSON lines."""
        with open(path, "w") as handle:
            ledger = {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            }
            handle.write(
                json.dumps({"ledger": ledger, "missing": self.missing, **extra})
                + "\n"
            )
            for name, parent, root, start, end, self_s in self.raw:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "parent": parent,
                            "request": root,
                            "start": start,
                            "end": end,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )
