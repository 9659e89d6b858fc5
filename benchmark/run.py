#!/usr/bin/env python3
"""dsgd-lab benchmark: times the `dsgd-lab` CLI on configs made from a seed.

Run from the root of a dsgd-lab checkout:

    python3 benchmark/run.py --workload compare-m16 --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seconds 20

Each measured run is one fresh `python3 -m dsgd_lab.cli` process writing to a
fresh, empty output directory, timed from outside. With --trace 0 a run
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced CLI runs at --jobs 1 and reports the per-layer metrics (tracer.py) and
the tracing overhead. Every run's artifacts are checked (checks.py); failed
checks count toward `failed`. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; `--workload all`
prints one such object per workload, keyed by name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from checks import check_run
from tracer import METRICS as LAYER_METRICS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
RUNS_DIR = ".benchmark_runs"
SETUP_PROBES = 9
# Everything a benchmark run starts is killed once the run is this many
# seconds past its --seconds window, so that only a hung process is killed.
HARD_MARGIN_S = 150.0
# One BLAS thread per process keeps processes x BLAS threads <= nproc at any
# --jobs; the lab's products are too small to gain from more.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict[str, str]:
    """Environment of every measured process: the checkout's src/, fixed BLAS threads.

    Bytecode caching is left on, as in an installed package, so that only the
    untimed warm-up probe compiles the sources.
    """
    env = dict(os.environ)
    env.pop("DSGD_LAB_JOBS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(cmd: list[str], cwd: Path, env: dict, log: Path, timeout: float) -> tuple[int, float, float]:
    """Run cmd to completion; return (exit code, wall seconds, peak RSS in MB).

    The peak RSS comes from wait4 for this one process, so it covers the
    process and the pool workers it reaped, and nothing from earlier runs.
    """
    with log.open("wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=sink,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
    watchdog = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _kill_group(proc.pid)  # pool workers a failed run may leave behind
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


class Session:
    """The measured processes of one benchmark run, and what their checks found."""

    def __init__(self, root: Path, workload: Workload, seed: int, seconds: float, scratch: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.kill_at = time.perf_counter() + seconds + HARD_MARGIN_S
        self.env = child_env(root)
        self.config_path = scratch / "config.json"
        self.config_path.write_text(json.dumps(workload.config_for(seed)))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.csv_bytes: bytes | None = None
        self.count = 0

    def _spawn(self, cmd: list[str], name: str) -> tuple[int, float, float, Path]:
        log = self.scratch / f"{name}.log"
        remaining = self.kill_at - time.perf_counter()
        return (*spawn(cmd, self.root, self.env, log, remaining), log)

    def _record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def probe(self, host: bool = False) -> dict | None:
        """One set-up probe in a fresh interpreter; None if it failed."""
        self.count += 1
        cmd = [sys.executable, str(HERE / "probe.py"), str(self.config_path)]
        code, _, _, log = self._spawn(cmd + (["--host"] if host else []), f"probe-{self.count}")
        try:
            result = json.loads(log.read_text().splitlines()[-1]) if code == 0 else None
        except (IndexError, ValueError):
            result = None
        self._record([] if result else [f"set-up probe failed: {_tail(log)}"])
        return result

    def cli_run(self, jobs: int, traced: bool = False) -> tuple[float, float, dict | None] | None:
        """One checked CLI run: (wall s, peak RSS MB, traced metrics), None if it failed."""
        self.count += 1
        out = self.scratch / f"run-{self.count}"
        trace = self.scratch / f"trace-{self.count}.json"
        cli = [str(self.config_path), "--output-dir", str(out), "--jobs", str(jobs)]
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace), *cli]
        else:
            cmd = [sys.executable, "-m", "dsgd_lab.cli", *cli]
        code, wall, rss, log = self._spawn(cmd, f"run-{self.count}")
        if code != 0:
            problems = [f"exit code {code}: {_tail(log)}"]
        else:
            problems = check_run(out, self.workload, self.seed)
        if not problems:
            # Same config, so every run of this benchmark run (traced or not,
            # at any --jobs) must write the same bytes.
            data = (out / self.workload.csv).read_bytes()
            if self.csv_bytes is None:
                self.csv_bytes = data
            elif data != self.csv_bytes:
                problems = [f"{self.workload.csv} differs between runs of one config"]
        self._record(problems)
        if problems:
            return None
        return wall, rss, (json.loads(trace.read_text()) if traced else None)


def _time_left(deadline: float, durations: list[float]) -> bool:
    """Whether another run of the median duration ends before the deadline."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def _median(values: list) -> float | int | None:
    if not values or any(v is None for v in values):
        return None
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure_end_to_end(session: Session, deadline: float) -> dict:
    """Set-up probes, then CLI runs at the workload's --jobs until the deadline."""
    setups = [p["setup_s"] for p in (session.probe() for _ in range(SETUP_PROBES)) if p]
    walls, rss, durations = [], [], []
    jobs = session.workload.resolved_jobs()
    while True:
        start = time.perf_counter()
        run = session.cli_run(jobs)
        durations.append(time.perf_counter() - start)
        if run is not None:
            walls.append(run[0])
            rss.append(run[1])
        if not _time_left(deadline, durations):
            break
    updates = session.workload.updates()
    return {
        "wall_s": (_median(walls), "s", len(walls)),
        "setup_s": (_median(setups), "s", len(setups)),
        "updates_per_s": (_median([updates / w for w in walls]), "1/s", len(walls)),
        "peak_rss_mb": (_median(rss), "MB", len(rss)),
    }


def measure_layers(session: Session, deadline: float) -> dict:
    """Pairs of untraced and traced CLI runs at --jobs 1, alternating which goes first."""
    untraced, traced, traces, durations = [], [], [], []
    while True:
        start = time.perf_counter()
        for is_traced in ((False, True) if len(durations) % 2 == 0 else (True, False)):
            run = session.cli_run(1, traced=is_traced)
            if run is not None:
                (traced if is_traced else untraced).append(run[0])
                if is_traced:
                    traces.append(run[2])
        durations.append(time.perf_counter() - start)
        if not _time_left(deadline, durations):
            break
    if traces:
        keep = session.root / RUNS_DIR / f"{session.workload.name}.trace.json"
        keep.write_text(json.dumps(traces[-1]))
    metrics = {
        name: (_median([t["metrics"][name] for t in traces]), unit, len(traces))
        for name, (_, _, unit) in LAYER_METRICS.items()
    }
    overhead = None
    if traced and untraced:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac", min(len(traced), len(untraced)))
    for reason in traces[-1]["missing"].values() if traces else []:
        print(f"missing: {reason}")
    return metrics


def run_workload(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    runs_dir = root / RUNS_DIR
    runs_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=runs_dir))
    try:
        session = Session(root, workload, seed, seconds, scratch)
        deadline = time.perf_counter() + seconds
        host = session.probe(host=True)  # also fills the bytecode cache, untimed
        if host is not None:
            print(json.dumps({
                "workload": workload.name, "seed": seed,
                "jobs": 1 if trace else workload.resolved_jobs(),
                "blas_threads_set": BLAS_THREADS, "host": host["host"],
            }))
        measured = measure_layers(session, deadline) if trace else measure_end_to_end(session, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, (value, unit, count) in measured.items():
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"{workload.name:14s} {name:26s} {shown:>20s}  n={count}")
    print(f"{workload.name:14s} {'error_rate':26s} {session.failed / session.attempted:>20.6g}"
          f"  ({session.failed}/{session.attempted} failed)")
    for problem in session.problems[:10]:
        print(f"{workload.name:14s} check failed: {problem}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in measured.items()},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dsgd_lab" / "cli.py").is_file():
        print("error: run from the root of a dsgd-lab checkout (no src/dsgd_lab/cli.py)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
