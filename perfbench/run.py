"""The repository benchmark: two workloads, checked results, a traced run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scenarios-fast --seed 42 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``scenarios-fast``
and ``cli-sweep``.  Each is a closed loop with one caller that runs
whole rounds (the grid cold, then resume ops that read it back) until
the next round would overrun ``--seconds`` (default: ``run_seconds`` in
``BENCHMARK.json``); at least one round always runs.  Every op is
checked: at the reference seed each result's checksum must equal the one
in ``checksums.json``; at any other seed the rates must validate and a
repeat of the first point must be bit-identical.  Resume ops must
recompute nothing.  An op that fails several checks counts once in
``failed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds untraced and then traced, and prints the per-layer metrics from
the spans ``layers.py`` records.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Progress and a readable summary go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
#: Half run before the rounds and half after them.
SETUP_PROBES = 8
#: Fresh-interpreter ``import repro.cli`` timings per traced run.
IMPORT_PROBES = 3
#: Wall-clock cap on any one subprocess.
OP_TIMEOUT_S = 150
#: Host-speed calibration: a fixed pure-Python loop that shares no code
#: with the program, timed just before and just after every timed op, in
#: as many processes at once as the op keeps busy.  The speed of the
#: shared host drifts by 20-35% over minutes and jumps from one second to
#: the next, far more than the program's own op-to-op noise, so each
#: op's wall time is multiplied by CALIBRATION_REF_S / the mean of its
#: two loop times: it reads as on a host where the loop takes
#: CALIBRATION_REF_S (about this repository's 2-vCPU reference host).
#: CPU time is scaled by the loops' CPU time instead, with one factor per
#: run: CALIBRATION_REF_S / the median CPU time of the loops around the
#: cold ops.  CPU time leaves out the time the hypervisor takes the vCPU
#: away (steal), which makes most of the second-to-second jumps that
#: per-op wall factors follow, so for CPU a per-op factor adds its
#: loop's own noise and follows nothing.
CALIBRATION_LOOPS = 900_000
CALIBRATION_REF_S = 0.15


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def _loop() -> tuple[float, float]:
    """Wall and CPU seconds of one calibration loop (CALIBRATION_LOOPS)."""
    values = list(range(97))
    acc = 0
    started, cpu_started = time.perf_counter(), time.process_time()
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + values[i % 97]) % 1_000_003
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    if acc < 0:  # pragma: no cover - keeps the loop's result live
        raise AssertionError
    return elapsed, cpu


def calibrate(processes: int = 1) -> tuple[float, float]:
    """Mean wall and CPU seconds of the loop run in ``processes`` at once."""
    children = []
    for _ in range(processes - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the forked loop
            os.close(read)
            os.write(write, json.dumps(_loop()).encode())
            os._exit(0)
        os.close(write)
        children.append((pid, read))
    times = [_loop()]
    for pid, read in children:
        os.waitpid(pid, 0)
        times.append(json.loads(os.read(read, 128)))
        os.close(read)
    return (statistics.fmean(wall for wall, _ in times),
            statistics.fmean(cpu for _, cpu in times))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def run_process(command: list[str], env: dict) -> tuple[int, str, str]:
    """Run ``command`` in its own session; kill the session on timeout."""
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -1, out, err + f"\ntimed out after {OP_TIMEOUT_S} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


def dir_state(path: Path) -> list[tuple]:
    """Name, size and mtime of every file under ``path``."""
    return [(str(f), f.stat().st_size, f.stat().st_mtime_ns)
            for f in sorted(path.rglob("*")) if f.is_file()]


class Bench:
    """One benchmark run: set-up, measured rounds, checks and metrics."""

    def __init__(self, workload, seed: int, work: Path):
        import workloads
        from repro.experiments.records import (
            ConfigResult,
            ResultCache,
            payload_checksum,
        )

        self.w = workloads
        self.ConfigResult = ConfigResult
        self.ResultCache = ResultCache
        self.checksum = payload_checksum
        self.workload = workload
        self.seed = seed
        self.work = work
        self.settings = workloads.settings_for(workload, seed)
        # The CLI takes no seed, so cli-sweep always has the pinned inputs.
        self.reference = seed == workloads.REFERENCE_SEED or workload.cli
        with open(HERE / "checksums.json", encoding="utf-8") as handle:
            self.expected = json.load(handle)[workload.name]
        self.grid = workloads.grid(workload)
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.rounds = 0
        self.first_checksums: list[str] | None = None
        self.recorder = None
        self.sink: Path | None = None
        self.calibration: list[float] = []
        #: CPU seconds of the loops around the cold ops (for ``cpu_s``).
        self.cold_loop_cpu: list[float] = []

    @functools.cached_property
    def keys(self) -> dict[str, str]:
        """Point label -> cache key; resolved after set-up, untraced."""
        return self.w.point_keys(self.workload, self.seed)

    # -- checks ---------------------------------------------------------

    @property
    def failed(self) -> int:
        """Attempted ops that failed at least one check."""
        return len(self.failed_ops)

    def fail(self, op: str, why: str) -> None:
        """Log a failed check; ``op`` is the id of an attempted op."""
        self.failed_ops.add(op)
        log(f"FAILED {self.workload.name} op {op}: {why}")

    def check_point(self, op: str, label: str, result) -> str | None:
        """Validate one result; returns its checksum, or None on failure."""
        try:
            result.rates.validate()
        except ValueError as error:
            self.fail(op, f"{label}: rates do not validate: {error}")
            return None
        checksum = self.checksum(result.to_dict())
        if self.reference and checksum != self.expected.get(label):
            self.fail(op, f"{label}: checksum {checksum} != pinned "
                          f"{self.expected.get(label)}")
            return None
        return checksum

    def read_cached(self, cache_dir: Path, op_of) -> tuple[list, float,
                                                            float]:
        """Results the program stored, and its manifests' wall/CPU sums.

        ``op_of(label)`` names the op that computed the point.
        """
        results, wall, cpu = [], 0.0, 0.0
        for label, key in self.keys.items():
            try:
                with open(cache_dir / f"{key}.json", encoding="utf-8") as f:
                    payload = json.load(f)["result"]
                with open(cache_dir / f"{key}.manifest.json",
                          encoding="utf-8") as f:
                    manifest = json.load(f)
            except (OSError, ValueError, KeyError) as error:
                self.fail(op_of(label),
                          f"{label}: no readable cache entry: {error}")
                results.append((label, None))
                continue
            results.append((label, self.ConfigResult.from_dict(payload)))
            wall += manifest["wall_time_s"]
            cpu += manifest["cpu_time_s"]
        return results, wall, cpu

    # -- subprocesses -----------------------------------------------------

    def env(self, op: str, cache_dir: Path | None = None,
            no_cache: bool = False) -> dict:
        env = dict(os.environ)
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        if no_cache:
            env["REPRO_NO_CACHE"] = "1"
        if self.sink is not None:
            env["PERFBENCH_SPANS"] = str(self.sink)
            env["PERFBENCH_OP"] = op
        return env

    def program(self, args: list[str]) -> list[str]:
        """``python -m repro ARGS``, through the span launcher if traced."""
        if self.sink is not None:
            return [sys.executable, str(HERE / "child.py"), "cli", *args]
        return [sys.executable, "-m", "repro", *args]

    def child(self, *args: str) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), *args]

    # -- set-up ---------------------------------------------------------------

    def setup_command(self) -> tuple[list[str], dict]:
        if self.workload.cli:
            return (self.program(["run", "-w", "10", "-p", "1", "--fast"]),
                    self.env("setup", no_cache=True))
        return self.child("setup", self.workload.name), self.env("setup")

    def setup_probe(self) -> float:
        """One set-up in a fresh interpreter; its calibrated seconds."""
        command, env = self.setup_command()
        (code, _, err), elapsed, _, factor = self.timed(
            lambda: run_process(command, env))
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.strip()[-400:]}")
        return elapsed * factor

    def warm_up(self) -> None:
        """Untimed set-up in this process (the serial workloads' runner)."""
        if self.workload.cli:
            self.setup_probe()
        else:
            self.w.warm_up(self.workload)

    # -- rounds ---------------------------------------------------------------

    def timed(self, op, processes: int = 1, cold: bool = False) -> tuple:
        """``op()`` between two calibration loops.

        Returns its result, wall and CPU seconds (CPU includes waited-for
        children), and the factor that scales its wall time to the
        reference host.  ``cold`` keeps the loops' CPU times for ``cpu_s``.
        """
        before = calibrate(processes)
        started, cpu_started = time.perf_counter(), cpu_seconds()
        result = op()
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_started
        after = calibrate(processes)
        self.calibration += [before[0], after[0]]
        if cold:
            self.cold_loop_cpu += [before[1], after[1]]
        factor = 2 * CALIBRATION_REF_S / (before[0] + after[0])
        return result, wall, cpu, factor

    def set_op(self, op: str) -> None:
        if self.recorder is not None:
            self.recorder.op = op

    def serial_pass(self, tag: str, cache_dir: Path) -> dict:
        cache = self.ResultCache(cache_dir)
        op_times, scaled, results = [], [], []
        cpu = 0.0
        op_ids = [f"{tag}:cold:{point.label}" for point in self.grid]
        def attempt(point):
            try:
                return self.w.run_point(point, self.settings, cache=cache)
            except Exception as error:  # an op failure is counted, not fatal
                return error

        for point, op in zip(self.grid, op_ids):
            self.set_op(op)
            result, wall, op_cpu, factor = self.timed(
                lambda: attempt(point), cold=True)
            op_times.append(wall)
            scaled.append(wall * factor)
            cpu += op_cpu
            results.append((point.label, result))
        self.attempted += len(results)
        checksums = []
        for op, (label, result) in zip(op_ids, results):
            if isinstance(result, Exception):
                self.fail(op, f"{label}: {type(result).__name__}: {result}")
                checksums.append(None)
            else:
                checksums.append(self.check_point(op, label, result))
        _, manifest_wall, manifest_cpu = self.read_cached(
            cache_dir, lambda label: f"{tag}:cold:{label}")
        return {"wall": sum(op_times), "cpu": cpu, "scaled_wall": sum(scaled),
                "scaled_ops": scaled,
                "op_ids": op_ids, "points": len(results),
                "checksums": checksums,
                "jobs": 1, "point_wall": manifest_wall,
                "point_cpu": manifest_cpu}

    def cli_sweep_args(self, journal: Path) -> list[str]:
        grid = ",".join(str(point.warehouses) for point in self.grid)
        return ["sweep", "-p", str(self.w.CLI_PROCESSORS), "--grid", grid,
                "--fast", "--jobs", str(self.w.CLI_JOBS),
                "--journal", str(journal)]

    def cli_run(self, op: str, cache_dir: Path, journal: Path,
                done: int) -> tuple[float, float, float, str | None]:
        """One CLI sweep: wall, CPU, calibration factor, table (None: failed)."""
        command = self.program(self.cli_sweep_args(journal))
        # A cold op keeps the pool's workers busy; a resume runs no pool.
        processes = self.w.CLI_JOBS if done == 0 else 1
        (code, out, err), wall, cpu, factor = self.timed(
            lambda: run_process(command, self.env(op, cache_dir)), processes,
            cold=done == 0)
        self.attempted += 1
        header, _, table = out.partition("\n")
        expected = f"journal: {journal} ({done} point(s) already complete)"
        if code != 0:
            self.fail(op, f"exit {code}: {err.strip()[-400:]}")
            return wall, cpu, factor, None
        if header != expected:
            self.fail(op, f"journal line {header!r}, expected {expected!r}")
            return wall, cpu, factor, None
        return wall, cpu, factor, table

    def cli_pass(self, tag: str, cache_dir: Path) -> dict:
        journal = cache_dir.parent / "journal.jsonl"
        op = f"{tag}:cold"
        self.set_op(op)
        wall, cpu, factor, table = self.cli_run(op, cache_dir, journal, 0)
        checksums: list[str | None] = [None] * len(self.keys)
        manifest_wall = manifest_cpu = 0.0
        if table is not None:
            results, manifest_wall, manifest_cpu = self.read_cached(
                cache_dir, lambda label: op)
            checksums = [self.check_point(op, label, result)
                         if result is not None else None
                         for label, result in results]
        return {"wall": wall, "cpu": cpu, "scaled_wall": wall * factor,
                "scaled_ops": [wall * factor],
                "op_ids": [op] * len(self.keys), "points": len(self.keys),
                "checksums": checksums,
                "table": table, "jobs": self.w.CLI_JOBS,
                "point_wall": manifest_wall, "point_cpu": manifest_cpu}

    def resume(self, tag: str, cache_dir: Path, cold: dict) -> float:
        """Ask for the finished grid again; it must recompute nothing.

        Returns the op's calibrated seconds.
        """
        op = f"{tag}:resume"
        self.set_op(op)
        journal = cache_dir.parent / "journal.jsonl"
        before = dir_state(cache_dir.parent)
        if self.workload.cli:
            wall, _, factor, table = self.cli_run(op, cache_dir, journal,
                                                  len(self.keys))
            if table is not None and table != cold["table"]:
                self.fail(op, "table differs from the cold op's")
        else:
            command = self.child("resume", self.workload.name,
                                 str(self.seed))
            (code, out, err), wall, _, factor = self.timed(
                lambda: run_process(command, self.env(op, cache_dir)))
            self.attempted += 1
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                self.fail(op, f"exit {code}: {err.strip()[-400:]}")
            elif json.loads(lines[-1]) != cold["checksums"]:
                self.fail(op, "results differ from the cold pass")
        if dir_state(cache_dir.parent) != before:
            self.fail(op, "the resume op wrote to the cache or journal")
        return wall * factor

    def one_round(self) -> dict:
        self.rounds += 1
        tag = f"round{self.rounds}"
        cache_dir = self.work / tag / "cache"
        cache_dir.mkdir(parents=True)
        if self.workload.cli:
            cold = self.cli_pass(tag, cache_dir)
        else:
            cold = self.serial_pass(tag, cache_dir)
        if self.first_checksums is None:
            self.first_checksums = cold["checksums"]
        for op, point, checksum, first in zip(
                cold["op_ids"], self.grid, cold["checksums"],
                self.first_checksums):
            if checksum != first:
                self.fail(op, f"{point.label}: result differs from round 1's")
        cold["resumes"] = [self.resume(f"{tag}.{index}", cache_dir, cold)
                           for index in range(1, self.workload.resumes + 1)]
        shutil.rmtree(self.work / tag)
        log(f"{tag}: cold {cold['wall']:.3f} s, cpu {cold['cpu']:.3f} s; "
            f"calibrated: cold {cold['scaled_wall']:.3f} s, resume "
            f"{statistics.median(cold['resumes']):.3f} s")
        return cold

    def measure(self, seconds: float, rounds: int | None = None) -> list:
        """Whole rounds until the next would overrun ``seconds``.

        With ``rounds`` given, exactly that many instead.
        """
        done = []
        started = time.perf_counter()
        while True:
            done.append(self.one_round())
            elapsed = time.perf_counter() - started
            if rounds is not None:
                if len(done) >= rounds:
                    return done
            elif elapsed + elapsed / len(done) > seconds:
                return done

    def repeat_first_point(self) -> None:
        """Off the reference seed: the first point again, uncached."""
        if self.reference:
            return
        point = self.grid[0]
        op = f"repeat:{point.label}"
        self.attempted += 1
        try:
            checksum = self.checksum(self.w.run_point(
                point, self.settings, use_cache=False).to_dict())
        except Exception as error:  # an op failure is counted, not fatal
            self.fail(op, f"{type(error).__name__}: {error}")
            return
        if checksum != self.first_checksums[0]:
            self.fail(op, "a repeat of the first point is not bit-identical")

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, rounds: list, setup: list[float]) -> dict:
        """The end-to-end metrics, times scaled to the reference host."""
        median = statistics.median(self.calibration)
        cpu_factor = CALIBRATION_REF_S / statistics.median(self.cold_loop_cpu)
        log(f"calibration: median {median:.4f} s over "
            f"{len(self.calibration)} samples; each op's wall time is "
            f"multiplied by {CALIBRATION_REF_S} s / the mean of its two "
            f"samples, median factor {CALIBRATION_REF_S / median:.4f}; CPU "
            f"time by {CALIBRATION_REF_S} s / the median loop CPU time around "
            f"the cold ops, cpu factor {cpu_factor:.4f}")
        walls = [r["scaled_wall"] for r in rounds]
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu"] for r in rounds) * cpu_factor,
            "op_s.p50": statistics.median(t for r in rounds
                                          for t in r["scaled_ops"]),
            "points_per_s": sum(r["points"] for r in rounds) / sum(walls),
            "peak_rss_mb": peak_rss_mb(),
            "resume_s.p50": statistics.median(t for r in rounds
                                              for t in r["resumes"]),
        }

    @staticmethod
    def executor(rounds: list) -> dict:
        return {
            "experiments.executor_overhead_s": sum(
                r["wall"] - r["point_wall"] / r["jobs"] for r in rounds),
            "experiments.executor_busy_ratio": sum(
                r["point_cpu"] for r in rounds) / sum(
                r["jobs"] * r["wall"] for r in rounds),
        }


def import_probe(bench: Bench) -> float:
    code, out, err = run_process(bench.child("import"), dict(os.environ))
    if code != 0:
        raise RuntimeError(f"import probe failed: {err.strip()[-400:]}")
    return float(out.strip().splitlines()[-1])


def run_untraced(bench: Bench, seconds: float) -> dict:
    setup = [bench.setup_probe() for _ in range(SETUP_PROBES // 2)]
    if not bench.workload.cli:  # the probes already warmed the CLI path
        bench.warm_up()
    rounds = bench.measure(seconds)
    bench.repeat_first_point()
    setup += [bench.setup_probe() for _ in range(SETUP_PROBES // 2)]
    return bench.end_to_end(rounds, setup)


def run_traced(bench: Bench, seconds: float, trace_file: Path) -> dict:
    import layers

    bench.sink = bench.work / "spans"
    bench.sink.mkdir(parents=True)
    recorder = layers.Recorder()
    bench.recorder = recorder
    uninstall = layers.install(recorder)
    bench.warm_up()
    uninstall()
    saved_sink, bench.sink = bench.sink, None
    plain = bench.measure(seconds)
    bench.sink = saved_sink
    uninstall = layers.install(recorder)
    traced = bench.measure(seconds, rounds=len(plain))
    uninstall()
    bench.repeat_first_point()
    spans = recorder.spans + layers.read_sink(bench.sink)
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s["start"]):
            handle.write(json.dumps(span) + "\n")
    log(f"{len(spans)} spans written to {trace_file}")
    metrics = layers.aggregate(spans)
    metrics.update(bench.executor(traced))
    metrics["cli.import_s"] = statistics.median(
        import_probe(bench) for _ in range(IMPORT_PROBES))
    metrics["obs.tracing_overhead_s"] = (sum(r["wall"] for r in traced)
                                         - sum(r["wall"] for r in plain))
    if not bench.workload.cli:
        bench.attempted += 1  # the trace's own check counts as an op
        gap = layers.point_identity_gap(metrics)
        if abs(gap) > 1e-6 * max(1.0, metrics["experiments.point_s"]):
            bench.fail("trace", f"layer self-times miss point_s by {gap} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program source at {ROOT / 'src' / 'repro'}; run from the "
            f"root of a full checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    # The runs own their environment: no inherited cache, serial or
    # scheduler overrides, and subprocesses import this checkout's source.
    for key in [k for k in os.environ
                if k.startswith(("REPRO_", "PERFBENCH_"))]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.WORKLOADS)}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workloads.WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            trace_file = (WORK / "traces"
                          / f"{args.workload}-seed{args.seed}.jsonl")
            values = run_traced(bench, args.seconds, trace_file)
        else:
            values = run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = set(units) ^ set(values)
    if missing:
        raise AssertionError(f"metric names out of step with "
                             f"BENCHMARK.json: {sorted(missing)}")
    for name in units:
        log(f"{args.workload:>15} {name:<34} {values[name]:>14.6g} "
            f"{units[name]}")
    log(f"{bench.rounds} round(s), {bench.attempted} op(s), "
        f"{bench.failed} failed")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
