"""Config parsing, experiment dispatch, artifact schemas, and exit codes."""

import json
import math

import numpy as np
import pytest

import dsgd_lab.cli as cli
from dsgd_lab.analysis import topology_comparison
from dsgd_lab.cli import (
    RunManifest,
    emit_json_summary,
    main,
    parse_config,
    run_experiment,
)
from dsgd_lab.errors import InputError, NumericalError
from dsgd_lab.models import ModelFamily
from dsgd_lab.topology import TopologyKind


def write_config(tmp_path, **entries):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entries))
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def test_minimal_config_fills_defaults(tmp_path):
    config = parse_config(write_config(tmp_path, experiment="topology", kind="ring", m=8))
    assert config.kind is TopologyKind.RING
    assert config.m == 8
    assert config.family is ModelFamily.LINEAR_REGRESSION
    assert config.R == 20 and config.pairs == 8
    assert config.resolved_feature_variance() == pytest.approx(1 / 20)
    assert config.t_gamma_values() == [0, 500, 1000, 1500, 2000]


def test_grid_worker_count_constraint_is_named(tmp_path):
    with pytest.raises(InputError, match="perfect-square"):
        parse_config(write_config(tmp_path, experiment="topology", kind="grid", m=10))


def test_unknown_key_is_rejected(tmp_path):
    with pytest.raises(InputError, match="lr_warmup"):
        parse_config(write_config(tmp_path, experiment="topology", lr_warmup=5))


def test_missing_experiment_is_rejected(tmp_path):
    with pytest.raises(InputError, match="experiment"):
        parse_config(write_config(tmp_path, kind="ring"))


def test_bad_json_is_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(InputError, match="JSON"):
        parse_config(path)


def test_missing_file_is_rejected(tmp_path):
    with pytest.raises(InputError, match="not found"):
        parse_config(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "entries,fragment",
    [
        (dict(experiment="mystery"), "experiment"),
        (dict(experiment="topology", kind="moebius"), "topology"),
        (dict(experiment="stability", mode="sometimes"), "mode"),
        (dict(experiment="stability", family="svm"), "family"),
        (dict(experiment="stability", schedule="cosine"), "schedule"),
        (dict(experiment="stability", eta="fast"), "eta"),
        (dict(experiment="stability", R=0), "R"),
        (dict(experiment="stability", alpha=1.5), "alpha"),
        (dict(experiment="consensus-control", t_gamma=[100, 0]), "t_gamma"),
        (dict(experiment="consensus-control", t_gamma=[0, 5000]), "t_gamma"),
        (dict(experiment="consensus-control", R=4), "R"),
        (dict(experiment="topology", kind="custom"), "matrix_path"),
        (dict(experiment="stability", jobs=0), "jobs"),
        (dict(experiment="stability", eta=float("inf")), "eta"),
        (dict(experiment="bound", alpha=0.0), "alpha"),
        (dict(experiment="compare", kinds=["ring", "ring", "fully_connected"]), "kinds"),
    ],
)
def test_constraint_violations_name_the_key(tmp_path, entries, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_config(write_config(tmp_path, **entries))


def test_overrides_replace_config_values(tmp_path):
    path = write_config(tmp_path, experiment="topology", kind="ring", m=8, seed=1)
    config = parse_config(path, {"seed": 9, "output_dir": "elsewhere", "jobs": None})
    assert config.seed == 9
    assert config.output_dir == "elsewhere"


# ---------------------------------------------------------------------------
# Experiments and artifacts
# ---------------------------------------------------------------------------


def test_topology_experiment_artifacts(tmp_path):
    out = tmp_path / "out"
    config = parse_config(
        write_config(tmp_path, experiment="topology", kind="ring", m=4,
                     output_dir=str(out))
    )
    assert run_experiment(config) == 0
    header, rows = read_csv(out / "topology.csv")
    assert header == ["kind", "m", "lambda", "gap"]
    assert rows[0][0] == "ring" and rows[0][1] == "4"
    assert float(rows[0][2]) == pytest.approx(1 / 3, abs=1e-9)
    assert float(rows[0][3]) == pytest.approx(2 / 3, abs=1e-9)
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["index", "eigenvalue"]
    assert len(rows) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["spectral_gap"] == pytest.approx(2 / 3, abs=1e-9)


def test_topology_experiment_with_custom_matrix(tmp_path):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("0.5,0.5\n0.5,0.5\n")
    out = tmp_path / "out"
    config = parse_config(
        write_config(tmp_path, experiment="topology", kind="custom",
                     matrix_path=str(matrix), output_dir=str(out))
    )
    assert run_experiment(config) == 0
    _, rows = read_csv(out / "topology.csv")
    assert rows[0][0] == "custom"
    assert float(rows[0][3]) == 1.0


def test_stability_experiment_zero_rate_column(tmp_path):
    out = tmp_path / "out"
    config = parse_config(
        write_config(tmp_path, experiment="stability", kind="ring", m=3,
                     d_x=2, n=4, T=6, eta=0.0, R=2, pairs=1, output_dir=str(out))
    )
    assert run_experiment(config) == 0
    header, rows = read_csv(out / "stability.csv")
    assert header == ["iter", "stability_mean", "stability_se"]
    assert all(float(row[1]) == 0.0 for row in rows)


def test_compare_experiment_four_topologies(tmp_path):
    out = tmp_path / "out"
    config = parse_config(
        write_config(tmp_path, experiment="compare", m=16, d_x=3, n=4, T=10,
                     R=2, pairs=1, mc_samples=2000, output_dir=str(out))
    )
    assert run_experiment(config) == 0
    header, rows = read_csv(out / "compare.csv")
    assert header == ["kind", "m", "lambda", "stability_final", "stability_se",
                      "gengap_final", "gengap_se"]
    assert len(rows) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["rows"]) == {"fully_connected", "exponential", "grid", "ring"}
    assert "stability_ordered_by_lambda" not in summary
    assert "gengap_ordered_by_lambda" not in summary
    # Paired differences against the smallest-lambda kind, from the row arrays.
    result = topology_comparison(
        config.kinds, config.m, config.task(), config.loss_model(),
        config.train_config(), n=config.n, replicates=config.R,
        pairs=config.pairs, mc_draws=config.mc_samples,
    )
    reference = min(result.rows, key=lambda row: row.lam)
    assert summary["paired_reference_kind"] == reference.kind.value == "fully_connected"
    assert set(summary["paired_differences"]) == set(summary["rows"])
    for row in result.rows:
        entry = summary["paired_differences"][row.kind.value]
        for key, values, ref in (
            ("stability", row.stability_replicates, reference.stability_replicates),
            ("gengap", row.gengap_replicates, reference.gengap_replicates),
        ):
            diff = values - ref
            assert entry[key]["replicates"] == diff.tolist()
            assert entry[key]["mean"] == float(diff.mean())
            assert entry[key]["se"] == float(diff.std(ddof=1) / math.sqrt(config.R))
    ring = summary["paired_differences"]["ring"]["stability"]["replicates"]
    assert len(ring) == config.R and any(value != 0.0 for value in ring)


def test_gaussianity_experiment_histogram_schema(tmp_path):
    out = tmp_path / "out"
    config = parse_config(
        write_config(tmp_path, experiment="gaussianity", kind="ring", m=4,
                     d_x=10, n=4, T=8, R=3, pairs=1, output_dir=str(out))
    )
    assert run_experiment(config) == 0
    header, rows = read_csv(out / "histogram.csv")
    assert header == ["bin_left", "bin_right", "count"]
    assert len(rows) == 50
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pooled_count"] == 3 * 4 * 10


def test_gengap_experiment(tmp_path):
    out = tmp_path / "out"
    config = parse_config(
        write_config(tmp_path, experiment="gengap", kind="ring", m=4, d_x=2,
                     n=3, T=8, R=3, mc_samples=2000, output_dir=str(out))
    )
    assert run_experiment(config) == 0
    header, rows = read_csv(out / "gengap.csv")
    assert header == ["iter", "gap_mean", "gap_se"]
    assert rows[0][0] == "0"


def test_mlp_gengap_csv_does_not_depend_on_jobs(tmp_path):
    # 201 snapshots of width 3 give holdout blocks of 108 samples, so 1,001
    # samples end in a partial block.
    entries = dict(experiment="gengap", kind="ring", m=4, family="two_layer_mlp",
                   hidden_width=3, d_x=3, n=5, T=200, R=3, mc_samples=1001)
    csvs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs-{jobs}"
        path = write_config(tmp_path, output_dir=str(out), **entries)
        assert main([str(path), "--jobs", jobs]) == 0
        csvs.append((out / "gengap.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_bound_experiment_summary_and_domination_flag(tmp_path):
    out = tmp_path / "out"
    config = parse_config(
        write_config(tmp_path, experiment="bound", kind="ring", m=4, d_x=2,
                     feature_variance=0.3, noise_std=1.0, n=10, T=40, eta=0.05,
                     R=3, pairs=2, holder_pairs=300, output_dir=str(out))
    )
    with pytest.warns(UserWarning, match="validity limit"):
        assert run_experiment(config) == 0
    header, rows = read_csv(out / "bound.csv")
    assert header == ["iter", "stability_mean", "stability_se", "bound_value"]
    summary = json.loads((out / "summary.json").read_text())
    for key in ("L", "sigma_sq", "mu_sq", "epsilon_s", "contraction",
                "bound_dominates_measurement", "gen_bound_closed_final"):
        assert key in summary


def test_consensus_control_experiment(tmp_path):
    out = tmp_path / "out"
    config = parse_config(
        write_config(tmp_path, experiment="consensus-control", kind="ring", m=4,
                     d_x=2, n=4, T=8, R=5, pairs=1, t_gamma=[0, 4, 8],
                     gamma_sq=1e-3, output_dir=str(out))
    )
    assert run_experiment(config) == 0
    header, rows = read_csv(out / "consensus_control.csv")
    assert header == ["t_gamma", "stability_final", "stability_se"]
    assert [row[0] for row in rows] == ["0", "4", "8"]
    summary = json.loads((out / "summary.json").read_text())
    assert "spearman" in summary


# ---------------------------------------------------------------------------
# Manifest and determinism
# ---------------------------------------------------------------------------


def test_manifest_lists_files_with_matching_hashes(tmp_path):
    import hashlib

    out = tmp_path / "out"
    config = parse_config(
        write_config(tmp_path, experiment="topology", kind="ring", m=8,
                     output_dir=str(out))
    )
    run_experiment(config)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["config"]["kind"] == "ring"
    assert set(manifest["files"]) == {"topology.csv", "spectrum.csv", "summary.json"}
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_rerun_reproduces_numeric_csv_bytes(tmp_path):
    entries = dict(experiment="stability", kind="ring", m=4, d_x=2, n=4, T=10,
                   R=3, pairs=2, seed=5)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment(parse_config(write_config(tmp_path, **entries, output_dir=str(out_a))))
    run_experiment(parse_config(write_config(tmp_path, **entries, output_dir=str(out_b))))
    assert (out_a / "stability.csv").read_bytes() == (out_b / "stability.csv").read_bytes()


def test_csv_floats_use_twelve_significant_digits(tmp_path):
    out = tmp_path / "out"
    run_experiment(parse_config(write_config(
        tmp_path, experiment="topology", kind="ring", m=4, output_dir=str(out))))
    _, rows = read_csv(out / "topology.csv")
    assert rows[0][2] == "0.333333333333"


# ---------------------------------------------------------------------------
# Entry point and exit codes
# ---------------------------------------------------------------------------


def test_main_success_and_flag_overrides(tmp_path, capsys):
    out = tmp_path / "cli-out"
    path = write_config(tmp_path, experiment="topology", kind="ring", m=4)
    assert main([str(path), "--output-dir", str(out), "--seed", "3"]) == 0
    assert (out / "manifest.json").is_file()


def test_main_maps_input_errors_to_exit_one(tmp_path, capsys):
    path = write_config(tmp_path, experiment="topology", kind="grid", m=10)
    assert main([str(path)]) == 1
    assert "perfect-square" in capsys.readouterr().err


def test_main_maps_numerical_errors_to_exit_two(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, experiment="topology", kind="ring", m=4)

    def explode(config):
        raise NumericalError("did not converge")

    monkeypatch.setattr(cli, "run_experiment", explode)
    assert main([str(path)]) == 2
    assert "did not converge" in capsys.readouterr().err


# A RuntimeWarning is an error here, so one raised in this process or in a
# forked pool worker fails the test even where pytest would capture it.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_divergent_run_exits_two_without_summary(tmp_path, capfd, jobs):
    out = tmp_path / "out"
    path = write_config(tmp_path, experiment="stability", kind="ring", m=4, eta=50,
                        T=200, R=2, pairs=1, n=10, output_dir=str(out))
    assert main([str(path), "--jobs", jobs]) == 2
    # capfd, not capsys: pool workers write their warnings to file descriptor 2.
    err = capfd.readouterr().err
    assert "diverged" in err and "seed" in err and "step" in err
    assert "RuntimeWarning" not in err
    assert not (out / "summary.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergent_ring_gossiped_by_shifted_slices_exits_two(tmp_path, capfd):
    # At m = 256 the ring gossips as shifted slices, not a dense product; a
    # divergent run must still stop at its first non-finite snapshot with
    # one numerical failure line and no warning.
    out = tmp_path / "out"
    path = write_config(tmp_path, experiment="stability", kind="ring", m=256, eta=50,
                        T=200, R=2, pairs=1, n=10, output_dir=str(out))
    assert main([str(path), "--jobs", "1"]) == 2
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
    assert "diverged" in lines[0]
    assert not (out / "summary.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bound_overflow_exits_two(tmp_path, capfd):
    # eta = 8 blows the coupled runs up to finite but huge weights (stability
    # near 1e178) within 300 steps, and the bound's contraction C compounds
    # past the float range: one numerical failure line, no traceback.
    out = tmp_path / "out"
    path = write_config(tmp_path, experiment="bound", kind="ring", m=4, eta=8, T=300, R=2,
                        pairs=1, n=10, alpha=1.0, output_dir=str(out))
    assert main([str(path), "--jobs", "1"]) == 2
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
    assert not (out / "summary.json").exists()


def test_single_onset_consensus_control_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, experiment="consensus-control", kind="ring", m=4,
                        T=50, R=5, pairs=1, n=10, t_gamma=[10],
                        output_dir=str(tmp_path / "out"))
    assert main([str(path)]) == 1
    assert "t_gamma" in capsys.readouterr().err


def test_repeated_compare_kind_exits_one_without_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, experiment="compare", kinds=["ring", "ring", "fully_connected"],
                        m=4, T=10, R=2, pairs=1, n=4, output_dir=str(out))
    assert main([str(path)]) == 1
    assert "repeats ring" in capsys.readouterr().err
    assert not (out / "compare.csv").exists()


def test_json_artifacts_reject_non_finite_numbers(tmp_path):
    with pytest.raises(NumericalError, match="summary.json"):
        emit_json_summary({"value": float("nan")}, tmp_path / "summary.json")
    manifest = RunManifest(config={}, config_sha256="", tool_version="",
                           wall_seconds=float("inf"), seeds={}, files={})
    with pytest.raises(NumericalError, match="manifest.json"):
        manifest.write(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_jobs_env_default(tmp_path, monkeypatch):
    out = tmp_path / "out"
    path = write_config(tmp_path, experiment="topology", kind="ring", m=4,
                        output_dir=str(out))
    monkeypatch.setenv("DSGD_LAB_JOBS", "2")
    assert main([str(path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["jobs"] == 2


def test_jobs_env_invalid(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, experiment="topology", kind="ring", m=4)
    monkeypatch.setenv("DSGD_LAB_JOBS", "many")
    assert main([str(path)]) == 1
