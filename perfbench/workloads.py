"""The benchmark's workloads: what each one runs, built from a seed.

Every workload is a closed loop with one caller.  A *round* computes
the workload's grid cold into a fresh result cache, then *resumes* it:
a fresh interpreter asks for the same results again, which must come
back from the cache (or the sweep journal) without recomputation.

- ``scenarios-fast``: every shipped scenario at ``FAST_SETTINGS``,
  serially through ``run_configuration``.
- ``cli-sweep``: ``python -m repro sweep ... --jobs 2 --journal J`` as a
  subprocess; the resume op is the same command again.

The serial workloads thread the seed into ``RunnerSettings.seed``.  The
CLI has no seed flag (``--fast`` pins seed 42), so ``cli-sweep`` runs
the same inputs at every seed.  Letting the seed pick the grid instead
made the seed, not the program, the largest source of spread: new
warehouse values change the client counts and so the work (CPU time
varied by 12%), and a new order changes how the pool packs the points
(wall time varied by 18%).
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments import runner  # noqa: E402
from repro.experiments.configs import (  # noqa: E402
    FAST_SETTINGS,
    RunnerSettings,
    client_count,
)
from repro.hw.machine import XEON_MP_QUAD  # noqa: E402
from repro.workload import workload_by_name  # noqa: E402

#: The seed whose results are pinned in ``checksums.json`` (and the only
#: seed the ``cli-sweep`` inputs and the set-up's warm-up point have).
REFERENCE_SEED = 42

SCENARIOS = ("banking", "key-value", "odb-standard", "order-entry-burst",
             "social-feed")
CLI_GRID = (10, 50, 100, 400)
CLI_PROCESSORS = 4
CLI_JOBS = 2


@dataclasses.dataclass(frozen=True)
class Point:
    """One configuration of a serial workload."""

    scenario: str
    warehouses: int
    processors: int

    @property
    def label(self) -> str:
        return f"{self.scenario}/{self.warehouses}W{self.processors}P"


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named workload: its points, fidelity and resumes per round."""

    name: str
    settings: RunnerSettings
    points: tuple[Point, ...] = ()
    #: Resume ops after each cold pass (enough for a median per run).
    resumes: int = 1
    cli: bool = False


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("scenarios-fast", FAST_SETTINGS,
                 points=tuple(Point(name, w, p) for name in SCENARIOS
                              for w, p in ((50, 2), (400, 4))),
                 resumes=6),
        Workload("cli-sweep", FAST_SETTINGS, resumes=3, cli=True),
    )
}


def settings_for(workload: Workload, seed: int) -> RunnerSettings:
    """The workload's fidelity with the run's seed (the CLI has none)."""
    if workload.cli:
        return workload.settings
    return dataclasses.replace(workload.settings, seed=seed)


def grid(workload: Workload) -> tuple[Point, ...]:
    """The points one cold pass computes, in order."""
    if not workload.cli:
        return workload.points
    # No --workload on the command line means the built-in mix, which
    # odb-standard compiles to bit-identically (and shares cache keys).
    return tuple(Point("odb-standard", w, CLI_PROCESSORS) for w in CLI_GRID)


def point_keys(workload: Workload, seed: int) -> dict[str, str]:
    """Point label -> result cache key, in grid order."""
    settings = settings_for(workload, seed)
    return {point.label: runner.configuration_key(
                XEON_MP_QUAD, point.warehouses,
                client_count(point.warehouses, point.processors),
                point.processors, settings,
                workload=workload_by_name(point.scenario))
            for point in grid(workload)}


def run_point(point: Point, settings: RunnerSettings, cache=None,
              use_cache: bool = True):
    """One configuration through ``run_configuration``."""
    return runner.run_configuration(
        point.warehouses, point.processors, settings=settings,
        use_cache=use_cache, cache=cache,
        workload=workload_by_name(point.scenario))


def warm_up(workload: Workload) -> None:
    """Set-up: load the scenarios and run one untimed FAST point.

    The point runs at the reference seed whatever the run's seed, so the
    seed cannot change the set-up's work.
    """
    for point in grid(workload):
        workload_by_name(point.scenario)
    run_point(Point("odb-standard", 10, 1),
              dataclasses.replace(FAST_SETTINGS, seed=REFERENCE_SEED),
              use_cache=False)
