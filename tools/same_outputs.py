#!/usr/bin/env python3
"""Run dsgd-lab configs from another source tree and from this one: are the artifacts the same?

    python3 tools/same_outputs.py PARENT_TREE [CONFIG...] [--jobs 1 2] [--seed S ...]

Each config runs as `python3 -m dsgd_lab.cli CONFIG --jobs K --output-dir OUT
[--seed S]`, once with PARENT_TREE/src and once with this checkout's src/ on
PYTHONPATH, at every --jobs value and seed given (default: jobs 1, the
config's own seed). With no CONFIG, it runs the committed identity set: the
configs under tools/identity/ at their own seeds, and the benchmark's
workloads (benchmark/workloads.py) at seeds 0 and 1, each at --jobs 1 and 2
unless --jobs says otherwise. Both runs of a pair write to the same OUT,
since the summary and the manifest hash the config and output_dir is part
of it. The runs get one BLAS thread and no DSGD_LAB_JOBS. Every file either
run writes is compared byte for byte, except manifest.json, which is
compared as JSON without its wall_seconds. Prints one `same` or `DIFF` line
per file and a count, and exits 1 on any difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENTITY_CONFIGS = ROOT / "tools" / "identity"
WORKLOAD_SEEDS = (0, 1)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def artifacts(tree: Path, config: Path, jobs: int, seed: int | None, out: Path) -> dict:
    """The files one CLI run from tree's src writes into out, by name; raises on failure."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ)
    env.pop("DSGD_LAB_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    cmd = [sys.executable, "-m", "dsgd_lab.cli", str(config), "--jobs", str(jobs),
           "--output-dir", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    run = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{tree}: exit {run.returncode}: {run.stderr.strip()}")
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def comparable(name: str, data: bytes | None):
    """A file's contents as compared: manifest.json without wall_seconds, the rest as bytes."""
    if name != "manifest.json" or data is None:
        return data
    record = json.loads(data)
    record.pop("wall_seconds", None)
    return record


def identity_set(scratch: Path) -> list[Path]:
    """The committed configs, then each benchmark workload's config at each
    of WORKLOAD_SEEDS, written into scratch."""
    # Read only: no bytecode cache is written under benchmark/.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "benchmark"))
    from workloads import WORKLOADS

    configs = sorted(IDENTITY_CONFIGS.glob("*.json"))
    for workload in WORKLOADS.values():
        for seed in WORKLOAD_SEEDS:
            path = scratch / f"{workload.name}-seed{seed}.json"
            path.write_text(json.dumps(workload.config_for(seed)))
            configs.append(path)
    return configs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the source tree to compare against")
    parser.add_argument("configs", type=Path, nargs="*",
                        help="JSON experiment configs (default: the identity set)")
    parser.add_argument("--jobs", type=int, nargs="+", default=None,
                        help="--jobs values (default: 1, or 1 2 for the identity set)")
    parser.add_argument("--seed", type=int, nargs="+", default=[None], help="--seed overrides")
    args = parser.parse_args()
    differ, same_count, total = False, 0, 0
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        configs = args.configs or identity_set(Path(scratch))
        jobs_values = args.jobs or ([1] if args.configs else [1, 2])
        for config in configs:
            for seed in args.seed:
                for jobs in jobs_values:
                    label = f"{config.name} seed={'config' if seed is None else seed} jobs={jobs}"
                    try:
                        before = artifacts(args.parent.resolve(), config, jobs, seed, out)
                        after = artifacts(ROOT, config, jobs, seed, out)
                    except RuntimeError as exc:
                        print(f"FAILED {label}: {exc}")
                        differ = True
                        continue
                    for name in sorted(before.keys() | after.keys()):
                        same = comparable(name, before.get(name)) == comparable(
                            name, after.get(name)
                        )
                        differ |= not same
                        same_count, total = same_count + same, total + 1
                        print(f"{'same' if same else 'DIFF'} {label} {name}")
    print(f"{same_count} of {total} artifacts the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
