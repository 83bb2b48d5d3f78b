#!/usr/bin/env python3
"""Microbenchmark the batch interval kernels against per-pair baselines.

Times the :mod:`repro.perf.kernels` matrix and element-wise kernels
over a seeded random interval-set population, against the equivalent
per-pair ``IntervalSet`` loops run under ``perf.disabled()`` (so the
baseline pays the real per-call algebra, not a memo lookup).  The
equivalence of outputs is asserted as the benchmark runs — a kernel
that drifted from the algebra fails here before it misleads anyone
with a fast wrong answer.

The resulting ``kernels`` block is merged into
``benchmarks/BENCH_perf.json`` (atomic replace, other keys preserved).

Usage::

    PYTHONPATH=src python tools/profile_regions.py [--sets N]
        [--repeat R] [--seed S] [--output PATH] [--dry-run]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Sequence

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro import perf  # noqa: E402
from repro.netaddr.intervals import IntervalSet  # noqa: E402
from repro.perf import kernels  # noqa: E402

#: The population mimics the practical field universes: 32-bit address
#: ranges with a handful of intervals per set.
ADDRESS_HI = 0xFFFFFFFF

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "BENCH_perf.json",
)


def build_population(seed: int, count: int) -> List[IntervalSet]:
    """Seeded random interval sets shaped like ACL address fields."""
    rng = random.Random(seed)
    sets: List[IntervalSet] = [IntervalSet.empty()]
    while len(sets) < count:
        pairs = []
        for _ in range(rng.randint(1, 4)):
            lo = rng.randint(0, ADDRESS_HI)
            hi = min(ADDRESS_HI, lo + rng.randint(0, ADDRESS_HI // 8))
            pairs.append((lo, hi))
        sets.append(IntervalSet.from_pairs(pairs))
    return sets


def best_of(repeat: int, fn: Callable[[], Any]) -> float:
    """The fastest of ``repeat`` timed calls (seconds)."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def baseline_results(sets: Sequence[IntervalSet]) -> Dict[str, Any]:
    """The per-pair loop answers, for equivalence checks."""
    n = len(sets)
    half = n // 2
    return {
        "disjoint": [
            [sets[i].intersect(sets[j]).is_empty() for j in range(n)]
            for i in range(n)
        ],
        "subset": [
            [sets[i].is_subset_of(sets[j]) for j in range(n)]
            for i in range(n)
        ],
        "intersect": [
            sets[i].intersect(sets[i + half]) for i in range(half)
        ],
        "subtract": [
            sets[i].subtract(sets[i + half]) for i in range(half)
        ],
    }


def time_baselines(sets: Sequence[IntervalSet], repeat: int) -> Dict[str, float]:
    """Per-pair ``IntervalSet`` loop timings with the cache layer off."""
    n = len(sets)
    half = n // 2
    with perf.disabled():
        return {
            "disjoint_matrix_s": best_of(
                repeat,
                lambda: [
                    sets[i].intersect(sets[j]).is_empty()
                    for i in range(n)
                    for j in range(n)
                ],
            ),
            "subset_matrix_s": best_of(
                repeat,
                lambda: [
                    sets[i].is_subset_of(sets[j])
                    for i in range(n)
                    for j in range(n)
                ],
            ),
            "intersect_many_s": best_of(
                repeat,
                lambda: [
                    sets[i].intersect(sets[i + half]) for i in range(half)
                ],
            ),
            "subtract_many_s": best_of(
                repeat,
                lambda: [
                    sets[i].subtract(sets[i + half]) for i in range(half)
                ],
            ),
        }


def time_kernels(
    sets: Sequence[IntervalSet],
    repeat: int,
    expected: Dict[str, Any],
) -> Dict[str, float]:
    """Kernel timings; asserts exact equivalence with ``expected``."""
    half = len(sets) // 2
    flat = kernels.encode(sets)
    front = kernels.encode(sets[:half])
    back = kernels.encode(sets[half : half * 2])

    disjoint = kernels.disjoint_matrix(flat, flat)
    subset = kernels.subset_matrix(flat, flat)
    intersected = kernels.intersect_many(front, back)
    subtracted = kernels.subtract_many(front, back)
    for i, row in enumerate(expected["disjoint"]):
        for j, value in enumerate(row):
            assert bool(disjoint[i][j]) == value, ("disjoint", i, j)
    for i, row in enumerate(expected["subset"]):
        for j, value in enumerate(row):
            assert bool(subset[i][j]) == value, ("subset", i, j)
    assert intersected == expected["intersect"], "intersect_many diverged"
    assert subtracted == expected["subtract"], "subtract_many diverged"

    return {
        "encode_s": best_of(repeat, lambda: kernels.encode(sets)),
        "disjoint_matrix_s": best_of(
            repeat, lambda: kernels.disjoint_matrix(flat, flat)
        ),
        "subset_matrix_s": best_of(
            repeat, lambda: kernels.subset_matrix(flat, flat)
        ),
        "intersect_many_s": best_of(
            repeat, lambda: kernels.intersect_many(front, back)
        ),
        "subtract_many_s": best_of(
            repeat, lambda: kernels.subtract_many(front, back)
        ),
    }


def profile(seed: int, count: int, repeat: int) -> Dict[str, Any]:
    """The full ``kernels`` block: population, baselines, kernels."""
    sets = build_population(seed, count)
    with perf.disabled():
        expected = baseline_results(sets)
    baselines = time_baselines(sets, repeat)
    timings = time_kernels(sets, repeat, expected)
    # The matrix question the hot paths actually ask, including the
    # one-off encode, against the same question asked per pair.
    batched = timings["encode_s"] + timings["disjoint_matrix_s"]
    timings["disjoint_speedup"] = round(
        baselines["disjoint_matrix_s"] / max(batched, 1e-9), 2
    )
    return {
        "population": {"seed": seed, "sets": count, "repeat": repeat},
        "baseline": baselines,
        "batched": timings,
    }


def merge_into_snapshot(path: str, block: Dict[str, Any]) -> None:
    """Write ``block`` under the ``kernels`` key of ``path`` atomically."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except FileNotFoundError:
        snapshot = {}
    snapshot["kernels"] = block
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def main(argv: Sequence[str]) -> int:
    """CLI entry point; see the module docstring for usage."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sets", type=int, default=96, help="population size (default: 96)"
    )
    parser.add_argument(
        "--repeat", type=int, default=5, help="best-of repetitions (default: 5)"
    )
    parser.add_argument(
        "--seed", type=int, default=1421, help="population seed (default: 1421)"
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="snapshot to merge the kernels block into (default: %(default)s)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the block without touching the snapshot",
    )
    args = parser.parse_args(argv)
    if args.sets < 4 or args.sets % 2:
        print("error: --sets must be an even number >= 4", file=sys.stderr)
        return 2
    block = profile(args.seed, args.sets, args.repeat)
    print(json.dumps(block, indent=2))
    if not args.dry_run:
        merge_into_snapshot(args.output, block)
        print(f"merged kernels block into {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
