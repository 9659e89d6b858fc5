"""Tests of the benchmark's own code: tracer transparency, refactor survival, checks.

    PYTHONPATH=src python3 -m pytest benchmark
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dsgd_lab import cli

import checks
from tracer import METRICS, SITES, Tracer
from workloads import WORKLOADS

SMALL = {
    "compare": {"experiment": "compare", "m": 4, "T": 40, "R": 2, "pairs": 1},
    "gengap": {"experiment": "gengap", "family": "two_layer_mlp", "m": 4, "T": 40,
               "R": 2, "mc_samples": 2000},
    "consensus-control": {"experiment": "consensus-control", "m": 4, "T": 40, "R": 5,
                          "pairs": 1},
}


def _run(config: dict, out: Path, tracer: Tracer | None = None) -> bytes:
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps(config))
    if tracer is not None:
        tracer.install()
    try:
        assert cli.main([str(path), "--output-dir", str(out), "--jobs", "1"]) == 0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return b"".join((out / name).read_bytes() for name in sorted(p.name for p in out.glob("*.csv")))


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_traced_and_untraced_csvs_are_byte_identical(tmp_path, experiment):
    tracer = Tracer()
    plain = _run(SMALL[experiment], tmp_path / "plain")
    traced = _run(SMALL[experiment], tmp_path / "traced", tracer)
    assert plain and traced == plain
    metrics = tracer.report()["metrics"]
    assert tracer.missing == {}
    assert all(value is not None for value in metrics.values())
    assert metrics["cli.parse_s"] > 0 and metrics["cli.emit_bytes"] > 0


def test_renamed_site_reports_missing_metrics_and_run_finishes(tmp_path):
    sites = [
        (module, "dsgd_step_renamed" if name == "dsgd_step" else name, *rest)
        for module, name, *rest in SITES
    ]
    tracer = Tracer(sites)
    _run(SMALL["compare"], tmp_path / "out", tracer)
    metrics = tracer.report()["metrics"]
    assert metrics["engine.step_self_s"] is None and metrics["engine.step_calls"] is None
    assert metrics["models.grad_calls"] == 4 * 2 * 1 * 2 * 40
    assert "step" in tracer.missing


def test_failing_counter_drops_only_its_counts(tmp_path):
    def broken(args, kwargs, result):
        raise TypeError("signature changed")

    sites = [
        (module, name, record, broken if record == "emit" else counter, span)
        for module, name, record, counter, span in SITES
    ]
    tracer = Tracer(sites)
    _run(SMALL["compare"], tmp_path / "out", tracer)
    metrics = tracer.report()["metrics"]
    assert metrics["cli.emit_bytes"] is None
    assert metrics["cli.emit_s"] > 0
    assert set(METRICS) - {"cli.emit_bytes"} == {k for k, v in metrics.items() if v is not None}


def test_checks_catch_tampered_artifacts(tmp_path):
    workload = WORKLOADS["compare-m16"]
    out = tmp_path / "out"
    _run(SMALL["compare"], out)
    assert checks.check_artifacts(out, workload) == []
    summary = out / "summary.json"
    summary.write_text(summary.read_text().replace("{", '{"x": NaN, ', 1))
    problems = checks.check_artifacts(out, workload)
    assert any("sha256" in p for p in problems) and any("NaN" in p for p in problems)


def test_reference_comparison_tolerates_only_tiny_differences(tmp_path):
    reference = tmp_path / "ref.csv"
    reference.write_text("kind,value\nring,0.5\nfully_connected,0\n")
    ok = [["ring", "0.5000000000001"], ["fully_connected", "1e-13"]]
    assert checks.check_reference(["kind", "value"], ok, reference) == []
    bad = [["ring", "0.50001"], ["fully_connected", "0"]]
    assert checks.check_reference(["kind", "value"], bad, reference)


def test_invariants_reject_misordered_lambda():
    header, rows = checks.read_csv(checks.REFERENCE_DIR / "compare-m16.csv")
    workload = WORKLOADS["compare-m16"]
    assert checks.check_invariants(header, rows, workload) == []
    lam = header.index("lambda")
    swapped = [list(row) for row in rows]
    swapped[2][lam], swapped[3][lam] = rows[3][lam], rows[2][lam]
    assert any("lambda" in p for p in checks.check_invariants(header, swapped, workload))
