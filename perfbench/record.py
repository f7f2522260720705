"""Rewrite ``checksums.json``: every workload's results at the reference seed.

The benchmark fails any op at the reference seed whose result checksum
differs from the one pinned here.  Re-record only after a change that
is meant to alter results::

    python3 perfbench/record.py

Each point is computed serially and uncached; the ``cli-sweep`` points
are the same configurations the CLI computes through its process pool,
so the benchmark also checks that the pool and the serial path agree.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads
from repro.experiments.records import payload_checksum


def main() -> None:
    pinned = {}
    for workload in workloads.WORKLOADS.values():
        seed = workloads.REFERENCE_SEED
        settings = workloads.settings_for(workload, seed)
        pinned[workload.name] = {
            point.label: payload_checksum(workloads.run_point(
                point, settings, use_cache=False).to_dict())
            for point in workloads.grid(workload)}
        print(workload.name, pinned[workload.name])
    path = Path(__file__).resolve().parent / "checksums.json"
    path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
