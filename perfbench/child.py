"""Subprocess entry points of the benchmark (run by ``run.py``).

Usage: ``python3 perfbench/child.py MODE [ARGS]`` where MODE is

- ``setup WORKLOAD``: import the program and run the workload's set-up
  (one FAST warm-up point at the reference seed); ``run.py`` times the
  whole process;
- ``resume WORKLOAD SEED``: ask for the workload's grid again from the
  result cache in ``REPRO_CACHE_DIR``; prints the JSON list of result
  checksums as the last line;
- ``cli ARGS...``: run ``python -m repro ARGS...`` in this process;
- ``import``: print the seconds ``import repro.cli`` takes.

With ``PERFBENCH_SPANS`` set to a directory, the modes that run the
program record layer spans (see ``layers.py``) into it, from this
process and from any pool worker it forks.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _start_tracing() -> None:
    sink = os.environ.get("PERFBENCH_SPANS")
    if not sink:
        return
    import layers

    recorder = layers.Recorder(Path(sink),
                               os.environ.get("PERFBENCH_OP", "subprocess"))
    layers.install(recorder)
    os.register_at_fork(after_in_child=recorder.reset_after_fork)


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "import":
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        started = time.perf_counter()
        import repro.cli  # noqa: F401
        print(time.perf_counter() - started)
        return 0
    import workloads

    if mode == "cli":
        import repro.cli

        _start_tracing()
        return repro.cli.main(args)
    _start_tracing()
    workload = workloads.WORKLOADS[args[0]]
    if mode == "setup":
        workloads.warm_up(workload)
        return 0
    if mode == "resume":
        settings = workloads.settings_for(workload, int(args[1]))
        from repro.experiments.records import payload_checksum

        checksums = [payload_checksum(
            workloads.run_point(point, settings).to_dict())
            for point in workloads.grid(workload)]
        print(json.dumps(checksums))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
