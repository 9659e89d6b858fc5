"""Output checks for one `dsgd-lab` run; each returns a list of problems.

A run passes when its manifest hashes match its files, summary.json is strict
JSON with finite numbers, and its CSV holds the workload's shape invariants.
For the reference seed the CSV must also match the one recorded from the seed
code, within REL_TOL relative (ABS_TOL absolute near zero).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import KINDS, REFERENCE_SEED, Workload

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-standard JSON constant {name}")


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def strict_json(path: Path):
    """Parse JSON that holds no NaN or infinity, or raise ValueError."""
    value = json.loads(path.read_text(), parse_constant=_reject_constant)
    if not _finite(value):
        raise ValueError(f"{path.name} holds a non-finite number")
    return value


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return header, rows


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def check_artifacts(out: Path, workload: Workload) -> list[str]:
    """Manifest hashes and strict, finite summary.json."""
    try:
        manifest = strict_json(out / "manifest.json")
    except (OSError, ValueError) as exc:
        return [f"manifest.json: {exc}"]
    problems = []
    files = manifest.get("files", {})
    for name in (workload.csv, "summary.json"):
        if name not in files:
            problems.append(f"manifest.json does not list {name}")
    for name, digest in files.items():
        try:
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if actual != digest:
            problems.append(f"{name}: sha256 differs from manifest.json")
    try:
        strict_json(out / "summary.json")
    except (OSError, ValueError) as exc:
        problems.append(f"summary.json: {exc}")
    return problems


def check_invariants(header: list[str], rows: list[list[str]], workload: Workload) -> list[str]:
    """Shape invariants that hold for every seed."""
    problems = []
    for row in rows:
        for name, cell in zip(header, row):
            value = _number(cell)
            if value is not None and not math.isfinite(value):
                problems.append(f"{name} is not finite: {cell}")
    if problems:
        return problems
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    experiment = workload.config["experiment"]
    if experiment == "compare":
        if columns.get("kind") != KINDS:
            return [f"compare rows {columns.get('kind')} differ from {KINDS}"]
        lam = [float(v) for v in columns["lambda"]]
        if not all(a < b for a, b in zip(lam, lam[1:])):
            problems.append(f"lambda not ordered {' < '.join(KINDS)}: {lam}")
        stability = columns["stability_final"]
    elif experiment == "gengap":
        iterations = [int(v) for v in columns.get("iter", [])]
        if iterations != workload.snapshots():
            return [f"gengap has {len(iterations)} snapshots, expected {len(workload.snapshots())}"]
        stability = []
    else:
        onsets = [int(v) for v in columns.get("t_gamma", [])]
        if onsets != workload.onsets():
            return [f"consensus-control onsets {onsets}, expected {workload.onsets()}"]
        stability = columns["stability_final"]
    if any(float(v) < 0 for v in stability):
        problems.append("negative stability")
    for name in header:
        if name.endswith("_se") and any(float(v) < 0 for v in columns[name]):
            problems.append(f"negative {name}")
    return problems


def check_reference(header: list[str], rows: list[list[str]], reference: Path) -> list[str]:
    """Cell-by-cell agreement with a recorded CSV."""
    try:
        ref_header, ref_rows = read_csv(reference)
    except OSError as exc:
        return [f"reference: {exc}"]
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"shape differs from {reference.name}"]
    for r, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for name, cell, ref_cell in zip(header, row, ref_row):
            value, expected = _number(cell), _number(ref_cell)
            if value is None or expected is None:
                agree = cell == ref_cell
            else:
                agree = abs(value - expected) <= max(ABS_TOL, REL_TOL * abs(expected))
            if not agree:
                return [f"row {r} {name}: {cell} != reference {ref_cell}"]
    return []


def check_run(out: Path, workload: Workload, seed: int) -> list[str]:
    """Every check for one run's output directory."""
    problems = check_artifacts(out, workload)
    try:
        header, rows = read_csv(out / workload.csv)
    except (OSError, ValueError) as exc:
        return problems + [f"{workload.csv}: {exc}"]
    try:
        problems += check_invariants(header, rows, workload)
    except (KeyError, IndexError, ValueError) as exc:
        problems.append(f"{workload.csv} is malformed: {exc!r}")
    if seed == REFERENCE_SEED:
        problems += check_reference(header, rows, REFERENCE_DIR / f"{workload.name}.csv")
    return problems
