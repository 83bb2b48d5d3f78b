"""Pin the per-spec outcome fingerprints of the serving workloads.

    python3 perfbench/pin.py --seeds 0-63

Serves every session spec of each seed's cycles serially in a fresh
in-memory service and writes the fingerprints to ``pins.json`` beside
this file, keyed by a digest of the spec's content.  The benchmark
checks every served session against them; a spec without a pin falls
back to a serial reference run inside the benchmark.  Re-pin only when
the program's answers are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import serving  # noqa: E402
import workloads  # noqa: E402

PINS = os.path.join(HERE, "pins.json")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="a seed or a range, e.g. 0-63")
    args = parser.parse_args()
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as handle:
            pins = json.load(handle)
    specs = {}
    for seed in _seeds(args.seeds):
        for workload in workloads.SERVE_WORKLOADS:
            for spec in workloads.serve_cycle(workload, seed):
                specs.setdefault(workloads.spec_key(spec), spec)
    keys = sorted(specs)
    fingerprints = serving.reference_fingerprints([specs[key] for key in keys])
    pins.update(zip(keys, fingerprints))
    print(f"pinned {len(keys)} specs", flush=True)
    with open(PINS, "w") as handle:
        json.dump(dict(sorted(pins.items())), handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
