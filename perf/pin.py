"""Regenerate ``perf/pins.json``: every point's digest for the pinned seeds.

    python3 perf/pin.py

Each point runs once through the same pass child the benchmark uses, in
a fresh interpreter. Seed 0 is the development seed; seed 1 is held out
for checking claims. Regenerate only when a change is meant to alter
simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import PINS, run_child
from workloads import WORKLOADS

SEEDS = (0, 1)


def main() -> int:
    seeds = {}
    for seed in SEEDS:
        seeds[str(seed)] = {}
        for name in WORKLOADS:
            points = run_child("pass", name, seed)["points"]
            failed = [p for p in points if p["error"]]
            if failed:
                print(f"seed {seed} {name}: {failed[0]['point']} raised "
                      f"{failed[0]['error']}", file=sys.stderr)
                return 1
            seeds[str(seed)][name] = {p["point"]: p["digest"] for p in points}
            print(f"seed {seed} {name}: {len(points)} points pinned")
    PINS.write_text(json.dumps(
        {"held_out_seeds": [1], "seeds": seeds}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
