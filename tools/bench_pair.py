#!/usr/bin/env python3
"""Run the benchmark in another source tree and in this one, in alternating pairs.

    python3 tools/bench_pair.py PARENT_TREE --output BENCH_<n>.json
        [--workload W] [--pairs N] [--seed S] [--seconds T]

Each pair runs `python3 benchmark/run.py --workload W --seed S --seconds T
--trace 0` once from the root of PARENT_TREE and once from this checkout,
each tree with its own benchmark/ and src/; even pairs run the parent first,
odd pairs this checkout. With --workload all (the default), every pair runs
each workload of benchmark/workloads.py in turn. The record written to
--output holds the host, each run's end-to-end metrics, and per workload and
metric both sides' medians and quartiles and the number of pairs in which
this checkout did better (ties count for neither side); the metrics and
their better direction come from BENCHMARK.json. Exits 1 if any run failed
its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def tree_label(tree: Path) -> dict:
    """The tree's git description, if it has one, and a digest of its src/ files."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    git = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    )
    return {
        "git": git.stdout.strip() if git.returncode == 0 else None,
        "src_sha256": digest.hexdigest(),
    }


def bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    """One benchmark run from tree's root: its result object and the host it printed."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=tree, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": (run.stderr.strip().splitlines() or ["(no output)"])[-1]}
    host = next((json.loads(line)["host"] for line in lines if line.startswith('{"workload"')), None)
    return result, host


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 2 if values else []
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summary(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs this checkout won."""
    out = {}
    for name, spec in metrics.items():
        values = {side: [pair[side]["metrics"].get(name) for pair in pairs] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            out[name] = None
            continue
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **{f"{side}_median": statistics.median(values[side]) for side in SIDES},
            **{f"{side}_quartiles": quartiles(values[side]) for side in SIDES},
            "change_better_in": wins,
            "of": len(pairs),
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the source tree to compare against")
    parser.add_argument("--output", type=Path, required=True, help="where to write the record")
    parser.add_argument("--workload", default="all", choices=[*workloads, "all"])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    names = workloads if args.workload == "all" else [args.workload]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    record = {
        "command": ["benchmark/run.py", "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", "0"],
        "trees": {side: tree_label(tree) for side, tree in trees.items()},
        "host": {"platform": platform.platform(), "machine": platform.machine()},
        "pairs": args.pairs,
        "workloads": {name: {"pairs": []} for name in names},
    }
    correct = True
    for index in range(args.pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for name in names:
            pair = {"first": order[0]}
            for side in order:
                result, host = bench(trees[side], name, args.seed, args.seconds)
                if host is not None:
                    record["host"]["benchmark"] = host
                correct &= bool(result["correct"])
                pair[side] = {
                    "correct": result["correct"],
                    "failed": result["failed"],
                    "attempted": result["attempted"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    **({"error": result["error"]} if "error" in result else {}),
                }
                shown = pair[side]["metrics"].get("wall_s")
                print(f"pair {index + 1}/{args.pairs} {name:14s} {side:6s} wall_s={shown} "
                      f"correct={result['correct']}", flush=True)
            record["workloads"][name]["pairs"].append(pair)
    for name in names:
        entry = record["workloads"][name]
        entry["summary"] = summary(entry["pairs"], metrics)
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
