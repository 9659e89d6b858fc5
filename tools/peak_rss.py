#!/usr/bin/env python3
"""Run a dsgd-lab config, or a pytest node, in a child process: print wall time and peak RSS.

    python3 tools/peak_rss.py CONFIG.json [--jobs K]
    python3 tools/peak_rss.py tests/test_acceptance.py::test_criterion_09_worker_count_effect

An argument ending in .json is run as `python3 -m dsgd_lab.cli CONFIG
--jobs K --output-dir <temporary directory>`; anything else as
`python3 -m pytest -q NODE`. The child gets the environment of the
benchmark's processes: this checkout's src/ on PYTHONPATH, one BLAS thread,
bytecode caching on (PYTHONDONTWRITEBYTECODE dropped, so the sources are
not compiled again on every run) and no DSGD_LAB_JOBS. The peak
RSS is the ru_maxrss that wait4 reports for the child: the largest of the
child and of every process it reaped, such as its pool workers. Prints
`wall_s`, `maxrss_mb` and the child's exit code; exits with that code.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(cmd: list[str]) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of cmd run to completion from the checkout."""
    env = dict(os.environ)
    env.pop("DSGD_LAB_JOBS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss * 1024 / 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", help="a JSON config, or a pytest node id")
    parser.add_argument("--jobs", type=int, default=1, help="--jobs of a config run (default 1)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as output_dir:
        if args.target.endswith(".json"):
            cmd = [
                sys.executable, "-m", "dsgd_lab.cli", str(Path(args.target).resolve()),
                "--jobs", str(args.jobs), "--output-dir", output_dir,
            ]
        else:
            cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", args.target]
        code, wall, peak = measure(cmd)
    print(f"wall_s {wall:.3f}  maxrss_mb {peak:.1f}  exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
