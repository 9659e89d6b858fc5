"""Batch front end: JSON configs in, CSV/JSON artifacts and a manifest out.

Invocation:

    dsgd-lab <config.json> [--output-dir DIR] [--jobs K] [--seed S]

The config is a flat JSON object; unknown keys are rejected. Keys and
defaults (not every experiment consumes every key):

    experiment       one of topology, stability, gengap, bound, compare,
                     consensus-control, gaussianity            (required)
    kind             topology kind                             ["ring"]
    kinds            distinct kinds for the compare experiment [all four connected]
    m                worker count                              [16]
    matrix_path      CSV path for kind "custom"                [null]
    family           task/loss family                          ["linear_regression"]
    d_x              feature dimension                         [20]
    hidden_width     MLP hidden width                          [8]
    feature_variance isotropic feature covariance scale        [1/d_x]
    noise_std        regression label noise                    [0.1]
    w_star_scale     norm of the ground-truth weights          [1.0]
    n                samples per worker                        [50]
    T                iterations                                [2000]
    eta              learning rate                             [0.05]
    schedule         "constant" or "step_decay"                ["constant"]
    snapshot_every   trace cadence                             [max(1, T/200)]
    R                replicates                                [20]
    pairs            perturbations per replicate               [8]
    mode             "synchronized" or "single_worker"         ["synchronized"]
    alpha            Hoelder exponent of the bounds, in (0, 1] [1.0]
    p                free bound parameter                      [1.0]
    optimize_p       minimize the bound over p                 [false]
    holder_pairs     probes for the Hoelder-constant estimate  [2000]
    holder_radius    probe ball radius                         [5.0]
    gamma_sq         consensus-distance target                 [1e-4]
    t_gamma          control onsets for the sweep, at least 2  [0, T/4, T/2, 3T/4, T]
    max_rounds       gossip-round cap per control step         [200]
    mc_samples       Monte-Carlo draws for population risks    [100000]
    skew_tol         gaussianity skewness threshold            [0.5]
    kurt_tol         gaussianity excess-kurtosis threshold     [1.0]
    output_dir       artifact directory                        ["out"]
    seed             base seed                                 [0]
    jobs             parallel replicate workers                [env DSGD_LAB_JOBS or 1]

Exit codes: 0 success, 1 rejected input, 2 numerical failure (a divergent
run, or a NaN or infinity bound for a JSON artifact). Re-running with the
same config and seed reproduces byte-identical numeric CSV content, at any
--jobs value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analysis import (
    BoundInputs,
    estimate_epsilon_s,
    estimate_sigma_mu,
    estimate_stability,
    consensus_control_sweep,
    gaussianity_report,
    generalization_bound_closed,
    generalization_bound_from_stability,
    mean_and_se,
    optimize_bound_p,
    replicated_generalization_gap,
    stability_bound_curve,
    stability_bound_limit,
    topology_comparison,
)
from .engine import ConstantRate, PerturbationMode, StepDecayRate, TrainConfig
from .errors import InputError, NumericalError
from .models import LossModel, ModelFamily, SyntheticTask, estimate_holder_constant
from .seeding import derive_seed
from .topology import (
    CONNECTED_KINDS,
    TopologyKind,
    build_gossip_matrix,
    eigenvalues_symmetric,
    load_gossip_matrix,
    validate_worker_count,
)

EXPERIMENTS = (
    "topology",
    "stability",
    "gengap",
    "bound",
    "compare",
    "consensus-control",
    "gaussianity",
)

FLOAT_FORMAT = "%.12g"


# Sign constraints a config value must meet, kept in its field's metadata.
POSITIVE = {"sign": "positive"}
NONNEGATIVE = {"sign": "nonnegative"}


@dataclass
class ExperimentConfig:
    """A fully validated, defaults-applied experiment description.

    Each field is one config key. The JSON types a key accepts follow from
    its annotation (see _accepted_types) and its sign constraint from its
    metadata.
    """

    experiment: str
    kind: TopologyKind = TopologyKind.RING
    kinds: list[TopologyKind] = field(default_factory=lambda: list(CONNECTED_KINDS))
    m: int = field(default=16, metadata=POSITIVE)
    matrix_path: str | None = None
    family: ModelFamily = ModelFamily.LINEAR_REGRESSION
    d_x: int = field(default=20, metadata=POSITIVE)
    hidden_width: int = field(default=8, metadata=POSITIVE)
    feature_variance: float | None = field(default=None, metadata=POSITIVE)
    noise_std: float = field(default=0.1, metadata=NONNEGATIVE)
    w_star_scale: float = field(default=1.0, metadata=NONNEGATIVE)
    n: int = field(default=50, metadata=POSITIVE)
    T: int = field(default=2000, metadata=NONNEGATIVE)
    eta: float = field(default=0.05, metadata=NONNEGATIVE)
    schedule: str = "constant"
    snapshot_every: int | None = field(default=None, metadata=POSITIVE)
    R: int = field(default=20, metadata=POSITIVE)
    pairs: int = field(default=8, metadata=POSITIVE)
    mode: PerturbationMode = PerturbationMode.SYNCHRONIZED
    alpha: float = 1.0
    p: float = field(default=1.0, metadata=POSITIVE)
    optimize_p: bool = False
    holder_pairs: int = field(default=2000, metadata=POSITIVE)
    holder_radius: float = field(default=5.0, metadata=POSITIVE)
    gamma_sq: float = field(default=1e-4, metadata=POSITIVE)
    t_gamma: list[int] | None = None
    max_rounds: int = field(default=200, metadata=POSITIVE)
    mc_samples: int = field(default=100_000, metadata=POSITIVE)
    skew_tol: float = field(default=0.5, metadata=POSITIVE)
    kurt_tol: float = field(default=1.0, metadata=POSITIVE)
    output_dir: str = "out"
    seed: int = 0
    jobs: int = field(default=1, metadata=POSITIVE)

    def resolved_feature_variance(self) -> float:
        return self.feature_variance if self.feature_variance is not None else 1.0 / self.d_x

    def t_gamma_values(self) -> list[int]:
        if self.t_gamma is not None:
            return self.t_gamma
        return sorted({0, self.T // 4, self.T // 2, (3 * self.T) // 4, self.T})

    def train_config(self) -> TrainConfig:
        rate = ConstantRate(self.eta) if self.schedule == "constant" else StepDecayRate(self.eta)
        return TrainConfig(
            iterations=self.T,
            rate=rate,
            seed=self.seed,
            snapshot_every=self.snapshot_every,
        )

    def task(self) -> SyntheticTask:
        rng = np.random.default_rng(derive_seed(self.seed, "task-w-star"))
        direction = rng.standard_normal(self.d_x)
        w_star = self.w_star_scale * direction / np.linalg.norm(direction)
        return SyntheticTask.isotropic(
            family=self.family,
            d_x=self.d_x,
            w_star=w_star,
            noise_std=self.noise_std,
            feature_variance=self.resolved_feature_variance(),
        )

    def loss_model(self) -> LossModel:
        return LossModel(family=self.family, hidden_width=self.hidden_width)

    def gossip_matrix(self):
        if self.kind is TopologyKind.CUSTOM:
            if self.matrix_path is None:
                raise InputError("kind 'custom' requires matrix_path")
            return load_gossip_matrix(self.matrix_path)
        return build_gossip_matrix(self.kind, self.m)


def _accepted_types(hint: Any) -> type | tuple[type, ...]:
    """The JSON value types a config field accepts, from its type annotation.

    X | None accepts what X accepts (null is never a value), list[X] any list,
    an enum its value string, and float an int as well.
    """
    if isinstance(hint, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    hint = typing.get_origin(hint) or hint
    if issubclass(hint, Enum):
        return str
    return (int, float) if hint is float else hint


_HINTS = typing.get_type_hints(ExperimentConfig)
# key: (accepted JSON types, sign constraint or None)
_SPEC = {
    f.name: (_accepted_types(_HINTS[f.name]), f.metadata.get("sign"))
    for f in fields(ExperimentConfig)
}


def _parse_kind(raw: Any, key: str) -> TopologyKind:
    try:
        return TopologyKind(raw)
    except ValueError:
        valid = ", ".join(k.value for k in TopologyKind)
        raise InputError(f"config key {key!r}: unknown topology {raw!r} (one of {valid})")


def parse_config(path: str | Path, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Parse and validate a JSON config file, applying defaults and overrides.

    Raises:
        InputError: missing file, malformed JSON, unknown key, or any violated
            constraint, naming the offending key.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return _build_config(raw)


def _build_config(raw: dict[str, Any]) -> ExperimentConfig:
    unknown = sorted(set(raw) - set(_SPEC))
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")
    if "experiment" not in raw:
        raise InputError("config key 'experiment' is required")
    for key, value in raw.items():
        accepted, constraint = _SPEC[key]
        if isinstance(value, bool) and accepted is not bool:
            raise InputError(f"config key {key!r}: boolean not accepted here")
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"config key {key!r} must be finite, got {value}")
        if not isinstance(value, accepted):
            raise InputError(f"config key {key!r}: expected {accepted}, got {type(value).__name__}")
        if constraint == "positive" and not value > 0:
            raise InputError(f"config key {key!r} must be positive, got {value}")
        if constraint == "nonnegative" and value < 0:
            raise InputError(f"config key {key!r} must be nonnegative, got {value}")

    config = ExperimentConfig(**raw)
    if config.experiment not in EXPERIMENTS:
        raise InputError(
            f"config key 'experiment': unknown experiment {config.experiment!r} "
            f"(one of {', '.join(EXPERIMENTS)})"
        )
    # Normalise the string-valued keys in place; enum defaults pass through.
    config.kind = _parse_kind(config.kind, "kind")
    config.kinds = [_parse_kind(k, "kinds") for k in config.kinds]
    try:
        config.family = ModelFamily(config.family)
    except ValueError:
        valid = ", ".join(f.value for f in ModelFamily)
        raise InputError(
            f"config key 'family': unknown family {config.family!r} (one of {valid})"
        )
    try:
        config.mode = PerturbationMode(config.mode)
    except ValueError:
        raise InputError("config key 'mode' must be 'synchronized' or 'single_worker'")
    if config.schedule not in ("constant", "step_decay"):
        raise InputError("config key 'schedule' must be 'constant' or 'step_decay'")
    if config.t_gamma is not None and not all(
        isinstance(v, int) and not isinstance(v, bool) for v in config.t_gamma
    ):
        raise InputError("config key 't_gamma' must be a list of integers")
    _validate_config(config)
    return config


def _validate_config(config: ExperimentConfig) -> None:
    if not 0.0 <= config.alpha <= 1.0:
        raise InputError("config key 'alpha' must lie in [0, 1]")
    if config.experiment == "bound" and config.alpha == 0.0:
        raise InputError("config key 'alpha' must be positive for the bound experiment")
    if config.kind is not TopologyKind.CUSTOM:
        try:
            validate_worker_count(config.kind, config.m)
        except InputError as exc:
            raise InputError(f"config key 'm': {exc}") from exc
    elif config.matrix_path is None:
        raise InputError("config key 'matrix_path' is required for kind 'custom'")
    if config.experiment == "compare":
        repeated = sorted({k.value for k in config.kinds if config.kinds.count(k) > 1})
        if repeated:
            raise InputError(f"config key 'kinds' repeats {', '.join(repeated)}")
        for kind in config.kinds:
            if kind is TopologyKind.CUSTOM:
                raise InputError("config key 'kinds' cannot include 'custom'")
            try:
                validate_worker_count(kind, config.m)
            except InputError as exc:
                raise InputError(f"config key 'kinds': {exc}") from exc
    if config.experiment in ("stability", "gengap", "bound", "compare",
                             "consensus-control", "gaussianity"):
        if config.R < 2:
            raise InputError("config key 'R' must be >= 2")
    if config.experiment == "consensus-control":
        values = config.t_gamma_values()
        if len(values) < 2:
            raise InputError(f"config key 't_gamma' needs at least 2 onsets, got {values}")
        if values != sorted(values):
            raise InputError("config key 't_gamma' must be sorted ascending")
        if any(v < 0 or v > config.T for v in values):
            raise InputError("config key 't_gamma' entries must lie in [0, T]")
        if config.R < 5:
            raise InputError("config key 'R' must be >= 5 for consensus-control")


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return FLOAT_FORMAT % float(value)
    return str(value)


def emit_csv(rows: list[tuple], header: list[str], path: Path) -> None:
    """Write rows under a fixed header; floats printed with 12 significant digits."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _json_text(payload: dict[str, Any], name: str) -> str:
    """Strict indented JSON; a NaN or infinity is a numerical failure."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{name} would hold a non-finite number: {exc}") from exc


def emit_json_summary(summary: dict[str, Any], path: Path) -> None:
    """Write the experiment's headline numbers as indented JSON."""
    path.write_text(_json_text(summary, path.name))


def _config_digest(config: ExperimentConfig) -> str:
    blob = json.dumps(_config_echo(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _config_echo(config: ExperimentConfig) -> dict[str, Any]:
    echo = asdict(config)
    echo["kind"] = config.kind.value
    echo["kinds"] = [k.value for k in config.kinds]
    echo["family"] = config.family.value
    echo["mode"] = config.mode.value
    return echo


@dataclass
class RunManifest:
    """Provenance record emitted alongside every experiment's artifacts."""

    config: dict[str, Any]
    config_sha256: str
    tool_version: str
    wall_seconds: float
    seeds: dict[str, int]
    files: dict[str, str]
    schema_version: int = 1

    def write(self, output_dir: Path) -> None:
        # Written atomically once all artifacts exist, so the recorded hashes
        # always describe the final files.
        target = output_dir / "manifest.json"
        temp = output_dir / "manifest.json.tmp"
        temp.write_text(_json_text(asdict(self), target.name))
        temp.replace(target)


def _write_manifest(
    output_dir: Path,
    config: ExperimentConfig,
    seeds: dict[str, int],
    started: float,
    files: list[Path],
) -> None:
    RunManifest(
        config=_config_echo(config),
        config_sha256=_config_digest(config),
        tool_version=__version__,
        wall_seconds=time.time() - started,
        seeds=seeds,
        files={f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
    ).write(output_dir)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> int:
    """Execute the configured experiment; write artifacts; return the exit code."""
    started = time.time()
    output_dir = Path(config.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    runner = {
        "topology": _run_topology,
        "stability": _run_stability,
        "gengap": _run_gengap,
        "bound": _run_bound,
        "compare": _run_compare,
        "consensus-control": _run_consensus_control,
        "gaussianity": _run_gaussianity,
    }[config.experiment]
    files, summary_extra, seeds = runner(config, output_dir)
    summary = {
        "schema_version": 1,
        "experiment": config.experiment,
        "config_sha256": _config_digest(config),
        **summary_extra,
    }
    summary_path = output_dir / "summary.json"
    emit_json_summary(summary, summary_path)
    files.append(summary_path)
    _write_manifest(output_dir, config, seeds, started, files)
    return 0


def _run_topology(config: ExperimentConfig, out: Path) -> tuple[list[Path], dict, dict]:
    P = config.gossip_matrix()
    spectrum = eigenvalues_symmetric(P)
    kind_label = P.kind.value if config.kind is TopologyKind.CUSTOM else config.kind.value
    topo_path = out / "topology.csv"
    emit_csv(
        [(kind_label, P.m, spectrum.lam, spectrum.spectral_gap)],
        ["kind", "m", "lambda", "gap"],
        topo_path,
    )
    spectrum_path = out / "spectrum.csv"
    emit_csv(
        list(enumerate(spectrum.eigenvalues)),
        ["index", "eigenvalue"],
        spectrum_path,
    )
    summary = {
        "kind": kind_label,
        "m": P.m,
        "lambda": spectrum.lam,
        "spectral_gap": spectrum.spectral_gap,
    }
    return [topo_path, spectrum_path], summary, {}


def _stability_csv(estimate, path: Path) -> None:
    rows = [
        (int(estimate.iterations[j]), estimate.mean[j], estimate.se[j])
        for j in range(len(estimate.iterations))
    ]
    emit_csv(rows, ["iter", "stability_mean", "stability_se"], path)


def _run_stability(config: ExperimentConfig, out: Path) -> tuple[list[Path], dict, dict]:
    estimate = estimate_stability(
        config.gossip_matrix(),
        config.task(),
        config.loss_model(),
        config.train_config(),
        n=config.n,
        replicates=config.R,
        pairs=config.pairs,
        mode=config.mode,
        jobs=config.jobs,
    )
    path = out / "stability.csv"
    _stability_csv(estimate, path)
    summary = {
        "mode": config.mode.value,
        "replicates": config.R,
        "pairs": config.pairs,
        "stability_final": estimate.final,
        "stability_final_se": estimate.final_se,
    }
    return [path], summary, _replicate_seeds(config, "stability")


def _run_gengap(config: ExperimentConfig, out: Path) -> tuple[list[Path], dict, dict]:
    report = replicated_generalization_gap(
        config.gossip_matrix(),
        config.task(),
        config.loss_model(),
        config.train_config(),
        n=config.n,
        replicates=config.R,
        jobs=config.jobs,
        mc_draws=config.mc_samples,
    )
    path = out / "gengap.csv"
    rows = [
        (int(report.iterations[j]), report.mean[j], report.se[j])
        for j in range(len(report.iterations))
    ]
    emit_csv(rows, ["iter", "gap_mean", "gap_se"], path)
    summary = {
        "replicates": config.R,
        "gap_final": report.final,
        "gap_final_se": report.final_se,
    }
    return [path], summary, _replicate_seeds(config, "gengap")


def _run_bound(config: ExperimentConfig, out: Path) -> tuple[list[Path], dict, dict]:
    task = config.task()
    model = config.loss_model()
    train = config.train_config()
    P = config.gossip_matrix()
    estimate = estimate_stability(
        P, task, model, train,
        n=config.n, replicates=config.R, pairs=config.pairs, mode=config.mode,
        jobs=config.jobs, keep_traces=True,
    )
    assert estimate.coupled is not None
    holder_seed = derive_seed(config.seed, "holder")
    L = estimate_holder_constant(
        model, task, config.alpha, config.holder_pairs, config.holder_radius, holder_seed
    )
    sigma_sq, mu_sq = estimate_sigma_mu(estimate.coupled)
    epsilon_s = estimate_epsilon_s([c.base for c in estimate.coupled], config.alpha)
    inputs = BoundInputs(
        L=L,
        alpha=config.alpha,
        rate=train.rate,
        n=config.n,
        m=P.m,
        d=model.dim(config.d_x),
        lam=eigenvalues_symmetric(P).lam,
        sigma_sq=sigma_sq,
        mu_sq=mu_sq,
        epsilon_s=epsilon_s,
        p=config.p,
    )
    risk_curve = np.full(config.T, epsilon_s)
    if config.optimize_p:
        inputs = replace(inputs, p=optimize_bound_p(inputs, risk_curve, config.T))
    curve = stability_bound_curve(inputs, risk_curve, config.T)
    path = out / "bound.csv"
    rows = [
        (
            int(estimate.iterations[j]),
            estimate.mean[j],
            estimate.se[j],
            curve[int(estimate.iterations[j])],
        )
        for j in range(len(estimate.iterations))
    ]
    emit_csv(rows, ["iter", "stability_mean", "stability_se", "bound_value"], path)
    dominated = all(
        curve[int(estimate.iterations[j])] >= estimate.mean[j]
        for j in range(len(estimate.iterations))
    )
    summary = {
        "L": L,
        "alpha": config.alpha,
        "sigma_sq": sigma_sq,
        "mu_sq": mu_sq,
        "epsilon_s": epsilon_s,
        "p": inputs.p,
        "lambda": inputs.lam,
        "contraction": inputs.contraction,
        "bound_final": float(curve[-1]),
        "stability_final": estimate.final,
        "bound_dominates_measurement": dominated,
        "gen_bound_closed_final": generalization_bound_closed(inputs, config.T),
        "gen_bound_from_measured_stability": generalization_bound_from_stability(
            estimate.final, L, config.alpha, P.m, config.n
        ),
    }
    if isinstance(train.rate, ConstantRate) and inputs.contraction < 1.0:
        summary["stability_bound_limit"] = stability_bound_limit(inputs)
    seeds = _replicate_seeds(config, "stability")
    seeds["holder"] = holder_seed
    return [path], summary, seeds


def _run_compare(config: ExperimentConfig, out: Path) -> tuple[list[Path], dict, dict]:
    result = topology_comparison(
        config.kinds,
        config.m,
        config.task(),
        config.loss_model(),
        config.train_config(),
        n=config.n,
        replicates=config.R,
        pairs=config.pairs,
        mode=config.mode,
        jobs=config.jobs,
        mc_draws=config.mc_samples,
    )
    path = out / "compare.csv"
    rows = [
        (
            row.kind.value, row.m, row.lam,
            row.stability_final, row.stability_se,
            row.gengap_final, row.gengap_se,
        )
        for row in result.rows
    ]
    emit_csv(
        rows,
        ["kind", "m", "lambda", "stability_final", "stability_se",
         "gengap_final", "gengap_se"],
        path,
    )
    by_lam = sorted(result.rows, key=lambda r: r.lam)
    reference = by_lam[0]
    summary = {
        "kinds_by_lambda": [r.kind.value for r in by_lam],
        "paired_reference_kind": reference.kind.value,
        "paired_differences": {
            r.kind.value: {
                "stability": _paired_difference(
                    r.stability_replicates, reference.stability_replicates
                ),
                "gengap": _paired_difference(r.gengap_replicates, reference.gengap_replicates),
            }
            for r in result.rows
        },
        "rows": {
            r.kind.value: {
                "lambda": r.lam,
                "stability_final": r.stability_final,
                "gengap_final": r.gengap_final,
            }
            for r in result.rows
        },
    }
    return [path], summary, _replicate_seeds(config, "stability")


def _paired_difference(values: np.ndarray, reference: np.ndarray) -> dict:
    """Per-replicate differences from a reference kind, their mean and paired SE."""
    diff = values - reference
    mean, se = mean_and_se(diff)
    return {"replicates": diff.tolist(), "mean": float(mean), "se": float(se)}


def _run_consensus_control(config: ExperimentConfig, out: Path) -> tuple[list[Path], dict, dict]:
    result = consensus_control_sweep(
        config.gossip_matrix(),
        config.task(),
        config.loss_model(),
        config.train_config(),
        n=config.n,
        gamma_sq=config.gamma_sq,
        t_gamma_values=config.t_gamma_values(),
        replicates=config.R,
        pairs=config.pairs,
        mode=config.mode,
        max_rounds=config.max_rounds,
        jobs=config.jobs,
    )
    path = out / "consensus_control.csv"
    rows = [
        (int(result.t_gammas[i]), result.stability_final[i], result.stability_se[i])
        for i in range(len(result.t_gammas))
    ]
    emit_csv(rows, ["t_gamma", "stability_final", "stability_se"], path)
    summary = {
        "gamma_sq": config.gamma_sq,
        "spearman": result.spearman,
        "monotone_signal": result.spearman > 0,
    }
    return [path], summary, _replicate_seeds(config, "stability")


def _run_gaussianity(config: ExperimentConfig, out: Path) -> tuple[list[Path], dict, dict]:
    estimate = estimate_stability(
        config.gossip_matrix(),
        config.task(),
        config.loss_model(),
        config.train_config(),
        n=config.n,
        replicates=config.R,
        pairs=config.pairs,
        mode=config.mode,
        jobs=config.jobs,
        keep_traces=True,
    )
    assert estimate.coupled is not None
    report = gaussianity_report(
        estimate.coupled, skew_tol=config.skew_tol, kurt_tol=config.kurt_tol
    )
    path = out / "histogram.csv"
    rows = [
        (report.histogram_edges[i], report.histogram_edges[i + 1], int(report.histogram_counts[i]))
        for i in range(len(report.histogram_counts))
    ]
    emit_csv(rows, ["bin_left", "bin_right", "count"], path)
    summary = {
        "pooled_count": report.pooled_count,
        "skewness": report.skewness,
        "excess_kurtosis": report.excess_kurtosis,
        "degenerate": report.degenerate,
        "passed": report.passed,
    }
    return [path], summary, _replicate_seeds(config, "stability")


def _replicate_seeds(config: ExperimentConfig, label: str) -> dict[str, int]:
    return {
        f"{label}-data-{r}": derive_seed(config.seed, "stability-data", r)
        for r in range(config.R)
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="dsgd-lab",
        description="Run a decentralized-SGD stability/generalization experiment "
        "from a JSON config.",
    )
    parser.add_argument("config", help="path to the JSON experiment config")
    parser.add_argument("--output-dir", default=None, help="override output_dir")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel replicate workers (default: config, env DSGD_LAB_JOBS, or 1)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    overrides: dict[str, Any] = {
        "output_dir": args.output_dir,
        "jobs": args.jobs,
        "seed": args.seed,
    }
    if args.jobs is None and "DSGD_LAB_JOBS" in os.environ:
        try:
            overrides["jobs"] = int(os.environ["DSGD_LAB_JOBS"])
        except ValueError:
            print("error: DSGD_LAB_JOBS must be an integer", file=sys.stderr)
            return 1
    try:
        config = parse_config(args.config, overrides)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_experiment(config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
