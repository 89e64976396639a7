#!/usr/bin/env python3
"""Recompute the pinned outcome digests of the default seed.

    python3 perfbench/pin.py

Every run on the pinned seed compares the digest of each unit it
replays (a scenario's (app, mode) records; a rack scenario's (node,
mode) placements plus its throttled-tick count; the serve schedule's
(status, node, mode) deploy responses) with perfbench/pinned.json.
Re-pin only when a change is meant to alter what the simulator decides,
and say so in that change.
"""

from __future__ import annotations

import json
import sys

from common import PINNED, ROOT, SRC, digest

sys.path.insert(0, str(SRC))


#: The pinned seed.
SEED = 0


def main() -> int:
    import serve
    import sim

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    pinned = {}
    for name in sim.WORKLOADS:
        # Exactly the units a run at run_seconds replays.
        units = sim.unit_count(name, seconds)
        workload = sim.WORKLOADS[name](SEED)
        digests = []
        for index in range(units):
            digests.append(digest(workload.unit(index)["outcomes"]))
            print(f"{name} unit {index}: {digests[-1]}", flush=True)
        pinned[name] = {"seed": SEED, "digests": digests}
    # Write before the serve run, which reads the file for its own check.
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
    result = serve.run(SEED, traced=False)
    if result["problems"]:
        print("\n".join(result["problems"]), file=sys.stderr)
        return 1
    pinned["serve-daemon"] = {"seed": SEED, "digests": result["digests"]}
    print(f"serve-daemon: {result['digests'][0]}")
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
