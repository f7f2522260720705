"""Self-check: is the benchmark steady enough to judge a change?

Runs ``run.py`` several times per workload, each with another seed, and
reports every end-to-end metric's spread -- the distance between the
first and third quartile as a share of the median -- against the
metric's bound in ``BENCHMARK.json``.  A spread under a third of the
bound is ``steady``; under the bound, ``wide``; otherwise ``NOISY``::

    python3 perfbench/selfcheck.py --runs 10 --first-seed 1
    python3 perfbench/selfcheck.py --runs 5 --workload cli-sweep

Raw values go to ``perfbench/.work/selfcheck/``; give two such files to
``--compare`` to check that their medians agree within the bounds.
Exits 1 when a run fails or reports an incorrect result, or a spread or
median drift is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}: {proc.stderr[-600:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - started
    factor = re.search(r"median factor ([0-9.]+)", proc.stderr)
    result["speed"] = float(factor.group(1))
    cpu_factor = re.search(r"cpu factor ([0-9.]+)", proc.stderr)
    result["cpu_speed"] = float(cpu_factor.group(1))
    return result


def measure(workload: str, seeds: range, seconds: int) -> tuple[dict, bool]:
    values: dict[str, list[float]] = {name: [] for name in BOUNDS}
    values["speed"] = []
    values["cpu_speed"] = []
    ok = True
    for seed in seeds:
        result = run_once(workload, seed, seconds)
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: {result['failed']} of "
                  f"{result['attempted']} ops failed", file=sys.stderr)
            ok = False
        for name in BOUNDS:
            values[name].append(result["metrics"][name]["value"])
        values["speed"].append(result["speed"])
        values["cpu_speed"].append(result["cpu_speed"])
        shown = ", ".join(f"{name}={values[name][-1]:.4g}"
                          for name in BOUNDS)
        print(f"{workload} seed {seed} ({result['elapsed_s']:.0f} s): "
              f"{shown}", file=sys.stderr, flush=True)
    return values, ok


def report(workload: str, values: dict) -> bool:
    ok = True
    print(f"\n{workload}: {len(values['wall_s'])} runs")
    print(f"  {'metric':<14} {'median':>10} {'spread':>8} {'bound':>6}"
          f"  (spread at the median factor; cpu_s: at its cpu factor)")
    for name, metric in BOUNDS.items():
        share = spread(values[name])
        speeds = values["cpu_speed" if name == "cpu_s" else "speed"]
        unscaled = [value / speed if metric["unit"] == "s"
                    else value * speed if metric["unit"] == "1/s" else value
                    for value, speed in zip(values[name], speeds)]
        bound = metric["bound"]
        status = ("steady" if share < bound / 3
                  else "wide" if share <= bound else "NOISY")
        if status == "NOISY":
            ok = False
        print(f"  {name:<14} {statistics.median(values[name]):>10.4g} "
              f"{share:>8.2%} {bound:>6.0%}  {status:<13} "
              f"({spread(unscaled):.2%})")
    return ok


def compare(first: dict, second: dict) -> bool:
    ok = True
    for workload in first:
        print(f"\n{workload}: median drift, second set vs first")
        for name, metric in BOUNDS.items():
            a = statistics.median(first[workload][name])
            b = statistics.median(second[workload][name])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            status = "ok" if worse <= metric["bound"] else "DRIFT"
            ok = ok and status == "ok"
            print(f"  {name:<14} {a:>10.4g} {b:>10.4g} {worse:>+8.2%} "
                  f"{metric['bound']:>6.0%}  {status}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--compare", nargs=2, metavar="FILE", default=None)
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text())
                         for p in args.compare)
        return 0 if compare(first, second) else 1
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    collected, ok = {}, True
    for workload in workloads:
        values, runs_ok = measure(workload, seeds, args.seconds)
        collected[workload] = values
        ok = report(workload, values) and runs_ok and ok
    out = HERE / ".work" / "selfcheck"
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{'+'.join(workloads)}-seeds{seeds.start}-"
                  f"{seeds.stop - 1}.json")
    path.write_text(json.dumps(collected, indent=1))
    print(f"\nraw values: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
