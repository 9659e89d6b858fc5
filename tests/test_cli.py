"""Config parsing, experiment dispatch, artifact schemas, and exit codes."""

import json
import math
import types
import typing
from dataclasses import fields
from enum import Enum

import numpy as np
import pytest

import dsgd_lab.cli as cli
from dsgd_lab.analysis import topology_comparison
from dsgd_lab.cli import (
    ExperimentConfig,
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


def test_config_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
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
        (dict(experiment="compare", kinds=[], T=10, R=2, pairs=1, m=4), "kinds"),
        (dict(experiment="consensus-control", m=4, T=8, R=5, pairs=1, t_gamma=[0, 0, 8]),
         "t_gamma"),
    ],
)
def test_constraint_violations_name_the_key(tmp_path, entries, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_config(write_config(tmp_path, **entries))


def _declared(hint):
    """A field's annotation without its `| None`."""
    if isinstance(hint, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return hint


def _choices(hint):
    """The declared values of an Enum or Literal annotation (or of a list's
    items) as (JSON value, parsed value) pairs; none for any other type."""
    hint = _declared(hint)
    if typing.get_origin(hint) is list:
        return [([raw], [parsed]) for raw, parsed in _choices(typing.get_args(hint)[0])]
    if typing.get_origin(hint) is typing.Literal:
        return [(value, value) for value in typing.get_args(hint)]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return [(member.value, member) for member in hint]
    return []


HINTS = typing.get_type_hints(ExperimentConfig)
KEYS = [f.name for f in fields(ExperimentConfig)]
CHOICE_KEYS = [key for key in KEYS if _choices(HINTS[key])]


def _wrong_json_type(hint):
    """A JSON value of a type the key does not take: a string for a number,
    bool or list key, a number for a string key."""
    hint = _declared(hint)
    return "x" if hint in (int, float, bool) or typing.get_origin(hint) is list else 1


def _rejects(tmp_path, key, value):
    entries = {"experiment": "stability", key: value}
    with pytest.raises(InputError, match=f"config key '{key}'"):
        parse_config(write_config(tmp_path, **entries))


@pytest.mark.parametrize("key", KEYS)
def test_every_key_rejects_null_a_boolean_and_a_wrong_json_type(tmp_path, key):
    hint = HINTS[key]
    _rejects(tmp_path, key, None)
    _rejects(tmp_path, key, _wrong_json_type(hint))
    if _declared(hint) is not bool:
        _rejects(tmp_path, key, True)


@pytest.mark.parametrize("key, value", [
    ("kinds", "ring"),
    ("kinds", ["ring", 3]),
    ("t_gamma", [0, True]),
    ("t_gamma", [0, 1.5]),
])
def test_list_keys_reject_a_non_list_and_a_wrong_item(tmp_path, key, value):
    _rejects(tmp_path, key, value)


@pytest.mark.parametrize("key", CHOICE_KEYS)
def test_choice_keys_take_each_declared_value_and_no_other(tmp_path, key):
    # matrix_path lets kind "custom" through the cross-key check; the file is
    # only read when an experiment runs.
    for raw, parsed in _choices(HINTS[key]):
        config = parse_config(write_config(
            tmp_path, experiment="stability", matrix_path="unread.csv", **{key: raw}
        ))
        # repr tells an enum member from its value string.
        assert repr(getattr(config, key)) == repr(parsed)
    unknown = ["no-such-value"] if isinstance(raw, list) else "no-such-value"
    _rejects(tmp_path, key, unknown)


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
    rows = topology_comparison(
        config.kinds, config.m, config.task(), config.loss_model(),
        config.train_config(), n=config.n, replicates=config.R,
        pairs=config.pairs, mc_draws=config.mc_samples,
    )
    reference = min(rows, key=lambda row: row.lam)
    assert summary["paired_reference_kind"] == reference.kind.value == "fully_connected"
    assert set(summary["paired_differences"]) == set(summary["rows"])
    for row in rows:
        entry = summary["paired_differences"][row.kind.value]
        for key, values, ref in (
            ("stability", row.stability.replicates, reference.stability.replicates),
            ("gengap", row.gap.replicates, reference.gap.replicates),
        ):
            diff = values[:, -1] - ref[:, -1]
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


def test_only_the_bound_experiment_records_worker_risks(tmp_path, monkeypatch):
    # The risk envelope (bound) reads per-worker risks; gaussianity keeps its
    # traces only for their final differences, so it records none.
    import dsgd_lab.analysis as analysis

    flags = []
    run_coupled = analysis.run_coupled

    def recording_run_coupled(*args, risks=False, **kwargs):
        flags.append(risks)
        return run_coupled(*args, risks=risks, **kwargs)

    monkeypatch.setattr(analysis, "run_coupled", recording_run_coupled)
    common = dict(kind="ring", m=4, d_x=10, n=4, T=8, R=3, pairs=1, eta=0.001, holder_pairs=100)
    for experiment, recorded in (("gaussianity", False), ("bound", True)):
        flags.clear()
        out = tmp_path / experiment
        config = parse_config(write_config(tmp_path, experiment=experiment,
                                           output_dir=str(out), **common))
        assert run_experiment(config) == 0
        assert flags == [recorded]


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


@pytest.mark.parametrize("experiment, csv", [("bound", "bound.csv"),
                                             ("gaussianity", "histogram.csv"),
                                             ("compare", "compare.csv"),
                                             ("consensus-control", "consensus_control.csv")])
def test_joined_replicate_experiments_do_not_depend_on_jobs(tmp_path, experiment, csv):
    # bound reads its envelopes, and gaussianity its pooled differences, from
    # the traces of every replicate group, joined at --jobs 2; compare and
    # consensus-control join the groups' replicates into each kind's or
    # onset's estimates, and consensus-control sums their control counters.
    # The CSV must be byte-identical at --jobs 1 and 2, and so must every
    # summary value but config_sha256, which hashes the config, jobs
    # included.
    path = write_config(tmp_path, experiment=experiment, kind="ring", m=4, d_x=10, n=4, T=30,
                        R=5, pairs=2, eta=0.01, holder_pairs=100,
                        output_dir=str(tmp_path / "out"))
    outputs = []
    for jobs in ("1", "2"):
        assert main([str(path), "--jobs", jobs]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        del summary["config_sha256"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        outputs.append(((tmp_path / "out" / csv).read_bytes(), summary, manifest.get("counters")))
    assert outputs[0] == outputs[1]


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


def test_optimized_bound_gives_its_validity_warning_once_from_the_cli(tmp_path):
    # Choosing p evaluates the bound at 92 trial values of p; the warning is
    # given once, where the CLI builds the bound's inputs.
    path = write_config(tmp_path, experiment="bound", optimize_p=True, R=2, pairs=1, T=20,
                        n=5, m=4, d_x=3, output_dir=str(tmp_path / "out"))
    with pytest.warns(UserWarning, match="validity limit") as record:
        assert main([str(path), "--jobs", "1"]) == 0
    validity = [w for w in record if "validity limit" in str(w.message)]
    assert len(validity) == 1
    assert validity[0].filename == cli.__file__


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


def test_main_reports_an_impossible_allocation_as_one_error_line(tmp_path, capsys):
    # n = 10**12 makes the first stack allocation 1.14 PiB, past the 47-bit
    # address space, so it fails at once under any overcommit policy and
    # nothing large is ever allocated.
    path = write_config(tmp_path, experiment="stability", kind="ring", m=4, n=10**12,
                        T=5, R=2, pairs=1, output_dir=str(tmp_path / "out"))
    assert main([str(path), "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_main_reports_an_unwritable_output_dir_as_one_error_line(tmp_path, capsys):
    # The output directory is an existing file, so creating it fails.
    afile = tmp_path / "afile"
    afile.write_text("")
    path = write_config(tmp_path, experiment="topology", kind="ring", m=4)
    assert main([str(path), "--output-dir", str(afile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# A RuntimeWarning is an error here, so one raised in this process or in a
# forked pool worker fails the test even where pytest would capture it.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_divergent_run_exits_two_without_summary(tmp_path, capfd, jobs):
    # A learning rate far past stability, and label noise so large that its
    # draw overflows to infinite labels.
    for diverging in ({"eta": 50}, {"noise_std": 1e308}):
        out = tmp_path / "out"
        path = write_config(tmp_path, experiment="stability", kind="ring", m=4, T=200, R=2,
                            pairs=1, n=10, output_dir=str(out), **diverging)
        assert main([str(path), "--jobs", jobs]) == 2
        # capfd, not capsys: pool workers write their warnings to file descriptor 2.
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert "diverged" in lines[0] and "seed" in lines[0] and "step" in lines[0]
        assert not (out / "summary.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_line_does_not_depend_on_jobs(tmp_path, capfd):
    # At --jobs 2 replicates 0-2 and 3-5 are two groups, and a run of the
    # later group diverges first. Every group runs to its end, so both --jobs
    # values name that run, as one stack of all six replicates does.
    path = write_config(tmp_path, experiment="stability", m=4, n=10, T=400, R=6, pairs=1,
                        eta=0.6, d_x=5, feature_variance=2.0, snapshot_every=1,
                        output_dir=str(tmp_path / "out"))
    lines = {}
    for jobs in ("1", "2"):
        assert main([str(path), "--jobs", jobs]) == 2
        lines[jobs] = capfd.readouterr().err
    assert lines["1"] == lines["2"]
    assert lines["1"].endswith("consensus distance is inf at step 313\n")


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


@pytest.mark.parametrize("flag, expected", [([], 1), (["--jobs", "2"], 2)])
def test_config_and_flag_jobs_win_over_the_env(tmp_path, monkeypatch, flag, expected):
    # The variable only supplies a default: a config's own jobs, and --jobs
    # above both, win over it.
    out = tmp_path / "out"
    path = write_config(tmp_path, experiment="topology", kind="ring", m=4, jobs=1,
                        output_dir=str(out))
    monkeypatch.setenv("DSGD_LAB_JOBS", "3")
    assert main([str(path), *flag]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["jobs"] == expected


def test_jobs_env_invalid(tmp_path, monkeypatch, capsys):
    # A non-positive value is rejected as the variable's, like a non-integer
    # one, not as a config key 'jobs' that the config does not hold.
    path = write_config(tmp_path, experiment="topology", kind="ring", m=4)
    for value in ("many", "1.5", "0", "-2"):
        monkeypatch.setenv("DSGD_LAB_JOBS", value)
        assert main([str(path)]) == 1
        assert capsys.readouterr().err == "error: DSGD_LAB_JOBS must be a positive integer\n"
