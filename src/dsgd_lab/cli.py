"""Batch front end: JSON configs in, CSV/JSON artifacts and a manifest out.

Invocation:

    dsgd-lab <config.json> [--output-dir DIR] [--jobs K] [--seed S]

The config is a flat JSON object; unknown keys are rejected. A key's type,
choices and sign follow from its ExperimentConfig field: null is never a
value, a boolean fits only a bool key, a float key takes an int too, every
number must be finite, and a list is checked item by item. Keys and
defaults (not every experiment consumes every key):

    experiment       one of topology, stability, gengap, bound, compare,
                     consensus-control, gaussianity            (required)
    kind             topology kind                             ["ring"]
    kinds            one or more distinct kinds, for compare   [all four connected]
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
    schedule         one of constant, step_decay               ["constant"]
    snapshot_every   trace cadence                             [max(1, T/200)]
    R                replicates                                [20]
    pairs            perturbations per replicate               [8]
    mode             one of synchronized, single_worker        ["synchronized"]
    alpha            Hoelder exponent of the bounds, in (0, 1] [1.0]
    p                free bound parameter                      [1.0]
    optimize_p       minimize the bound over p                 [false]
    holder_pairs     probes for the Hoelder-constant estimate  [2000]
    holder_radius    probe ball radius                         [5.0]
    gamma_sq         consensus-distance target                 [1e-4]
    t_gamma          distinct ascending control onsets, >= 2   [0, T/4, T/2, 3T/4, T]
    max_rounds       gossip-round cap per control step         [200]
    mc_samples       Monte-Carlo holdout size for population   [100000]
                     risks; streamed, so one chunk of memory at
                     any size, time linear in it
    skew_tol         gaussianity skewness threshold            [0.5]
    kurt_tol         gaussianity excess-kurtosis threshold     [1.0]
    output_dir       artifact directory                        ["out"]
    seed             base seed                                 [0]
    jobs             parallel replicate workers                [env DSGD_LAB_JOBS or 1]

Exit codes: 0 success, 1 rejected input, an allocation the machine cannot
make (a MemoryError) or a file that cannot be read or written (an OSError,
say an output directory that is an existing file), each reported as one
error line; 2 numerical failure (a divergent run, or a NaN or infinity
bound for a JSON artifact).
Re-running with the same config and seed reproduces byte-identical numeric
CSV content, at any --jobs value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Any, Literal

import numpy as np

from . import __version__
from .analysis import (
    BoundInputs,
    Estimate,
    estimate_epsilon_s,
    estimate_sigma_mu,
    estimate_stability,
    consensus_control_sweep,
    gaussianity_report,
    generalization_bound_closed,
    generalization_bound_from_stability,
    mean_and_se,
    optimize_bound_p,
    replicate_data_seed,
    replicated_generalization_gap,
    spearman_rank_correlation,
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

FLOAT_FORMAT = "%.12g"

# The version of the summary.json and manifest.json layouts.
SCHEMA_VERSION = 1


# Sign constraints a config value must meet, kept in its field's metadata.
POSITIVE = {"sign": "positive"}
NONNEGATIVE = {"sign": "nonnegative"}


@dataclass
class ExperimentConfig:
    """A fully validated, defaults-applied experiment description.

    Each field is one config key. _convert checks and converts a key's JSON
    value by the field's annotation, which gives its type, its choices (an
    Enum or a Literal) and its list items; the field's metadata gives its
    sign constraint.
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
    schedule: Literal["constant", "step_decay"] = "constant"
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
        return SyntheticTask(
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
            return load_gossip_matrix(self.matrix_path)
        return build_gossip_matrix(self.kind, self.m)


_HINTS = typing.get_type_hints(ExperimentConfig)


def _convert(key: str, hint: Any, value: Any) -> Any:
    """A config key's JSON value, checked and converted by its field's annotation.

    X | None takes what X takes (null is never a value); list[X] converts item
    by item; a Literal or an Enum takes one of its values, and an Enum yields
    its member; float takes an int as well; a boolean fits only bool; every
    number must be finite.
    """
    if isinstance(hint, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    origin = typing.get_origin(hint)
    if isinstance(value, bool) and hint is not bool:
        raise InputError(f"config key {key!r}: boolean not accepted here")
    if origin is list:
        if not isinstance(value, list):
            raise InputError(f"config key {key!r}: expected a list, got {type(value).__name__}")
        (item,) = typing.get_args(hint)
        return [_convert(key, item, v) for v in value]
    enum = isinstance(hint, type) and issubclass(hint, Enum)
    if enum or origin is typing.Literal:
        choices = [c.value for c in hint] if enum else list(typing.get_args(hint))
        if value not in choices:
            # An enum is named in words (TopologyKind: "topology kind"), a Literal by its key.
            noun = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", hint.__name__).lower() if enum else key
            raise InputError(
                f"config key {key!r}: unknown {noun} {value!r} (one of {', '.join(choices)})"
            )
        return hint(value) if enum else value
    if isinstance(value, float) and not math.isfinite(value):
        raise InputError(f"config key {key!r} must be finite, got {value}")
    if not isinstance(value, (int, float) if hint is float else hint):
        got = type(value).__name__
        raise InputError(f"config key {key!r}: expected {hint.__name__}, got {got}")
    return value


def parse_config(
    path: str | Path,
    overrides: dict[str, Any] | None = None,
    defaults: dict[str, Any] | None = None,
) -> ExperimentConfig:
    """Parse and validate a JSON config file, applying defaults and overrides.

    defaults fill keys that the file does not set; non-None overrides
    replace the file's values.

    Raises:
        InputError: missing file, malformed JSON, unknown key, or any violated
            constraint, naming the offending key.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    for key, value in (defaults or {}).items():
        raw.setdefault(key, value)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return _build_config(raw)


def _build_config(raw: dict[str, Any]) -> ExperimentConfig:
    signs = {f.name: f.metadata.get("sign") for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - set(signs))
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")
    if "experiment" not in raw:
        raise InputError("config key 'experiment' is required")
    values = {key: _convert(key, _HINTS[key], value) for key, value in raw.items()}
    for key, value in values.items():
        if signs[key] == "positive" and not value > 0:
            raise InputError(f"config key {key!r} must be positive, got {value}")
        if signs[key] == "nonnegative" and value < 0:
            raise InputError(f"config key {key!r} must be nonnegative, got {value}")
    if values["experiment"] not in RUNNERS:
        raise InputError(
            f"config key 'experiment': unknown experiment {values['experiment']!r} "
            f"(one of {', '.join(RUNNERS)})"
        )
    config = ExperimentConfig(**values)
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
        if not config.kinds:
            raise InputError("config key 'kinds' must list at least one kind")
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
    if config.experiment != "topology" and config.R < 2:
        raise InputError("config key 'R' must be >= 2")
    if config.experiment == "consensus-control":
        values = config.t_gamma_values()
        if len(values) < 2:
            raise InputError(f"config key 't_gamma' needs at least 2 onsets, got {values}")
        if values != sorted(values):
            raise InputError("config key 't_gamma' must be sorted ascending")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise InputError(f"config key 't_gamma' repeats {', '.join(map(str, repeated))}")
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


@dataclass
class RunManifest:
    """Provenance record emitted alongside every experiment's artifacts.

    counters, written only when an experiment has them, count what the run
    did that its artifacts do not show (consensus-control: per onset, the
    extra gossip rounds and the control calls that hit the round cap).
    """

    config: dict[str, Any]
    config_sha256: str
    tool_version: str
    wall_seconds: float
    seeds: dict[str, int]
    files: dict[str, str]
    schema_version: int = SCHEMA_VERSION
    counters: dict[str, Any] | None = None

    def write(self, output_dir: Path) -> None:
        # Written atomically once all artifacts exist, so the recorded hashes
        # always describe the final files.
        target = output_dir / "manifest.json"
        temp = output_dir / "manifest.json.tmp"
        record = asdict(self)
        if self.counters is None:
            del record["counters"]
        temp.write_text(_json_text(record, target.name))
        temp.replace(target)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> int:
    """Execute the configured experiment; write artifacts; return the exit code."""
    started = time.time()
    output_dir = Path(config.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    files, summary_extra, seeds, counters = RUNNERS[config.experiment](config, output_dir)
    # The enum fields are str enums, which json writes as their values.
    digest = hashlib.sha256(json.dumps(asdict(config), sort_keys=True).encode()).hexdigest()
    summary = {
        "schema_version": SCHEMA_VERSION,
        "experiment": config.experiment,
        "config_sha256": digest,
        **summary_extra,
    }
    summary_path = output_dir / "summary.json"
    emit_json_summary(summary, summary_path)
    files.append(summary_path)
    RunManifest(
        config=asdict(config),
        config_sha256=digest,
        tool_version=__version__,
        wall_seconds=time.time() - started,
        seeds=seeds,
        files={f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
        counters=counters,
    ).write(output_dir)
    return 0


# What a runner returns: its artifact files, its summary fields, the seeds
# and the counters (or None) for the manifest.
Outcome = tuple[list[Path], dict, dict, dict | None]


def _run_topology(config: ExperimentConfig, out: Path) -> Outcome:
    P = config.gossip_matrix()
    spectrum = eigenvalues_symmetric(P)
    kind_label = P.kind.value if config.kind is TopologyKind.CUSTOM else config.kind.value
    topo_path, spectrum_path = out / "topology.csv", out / "spectrum.csv"
    row = (kind_label, P.m, spectrum.lam, spectrum.spectral_gap)
    emit_csv([row], ["kind", "m", "lambda", "gap"], topo_path)
    emit_csv(list(enumerate(spectrum.eigenvalues)), ["index", "eigenvalue"], spectrum_path)
    summary = {
        "kind": kind_label,
        "m": P.m,
        "lambda": spectrum.lam,
        "spectral_gap": spectrum.spectral_gap,
    }
    return [topo_path, spectrum_path], summary, {}, None


def _curve_csv(estimate: Estimate, name: str, path: Path, **columns: np.ndarray) -> None:
    """One row per snapshot: its iteration, the estimate's mean and SE, then
    the snapshot's entry of each extra column."""
    emit_csv(
        list(zip(estimate.iterations.tolist(), estimate.mean, estimate.se, *columns.values())),
        ["iter", f"{name}_mean", f"{name}_se", *columns],
        path,
    )


def _estimate_stability(
    config: ExperimentConfig, P, risks: bool = False, final_diffs: bool = False
):
    """The configured stability estimate of gossip matrix P."""
    return estimate_stability(
        P, config.task(), config.loss_model(), config.train_config(),
        n=config.n, replicates=config.R, pairs=config.pairs, mode=config.mode,
        jobs=config.jobs, risks=risks, final_diffs=final_diffs,
    )


def _run_stability(config: ExperimentConfig, out: Path) -> Outcome:
    estimate = _estimate_stability(config, config.gossip_matrix())
    path = out / "stability.csv"
    _curve_csv(estimate, "stability", path)
    summary = {
        "mode": config.mode.value,
        "replicates": config.R,
        "pairs": config.pairs,
        "stability_final": estimate.final,
        "stability_final_se": estimate.final_se,
    }
    return [path], summary, _replicate_seeds(config, "stability"), None


def _run_gengap(config: ExperimentConfig, out: Path) -> Outcome:
    estimate = replicated_generalization_gap(
        config.gossip_matrix(), config.task(), config.loss_model(), config.train_config(),
        n=config.n, replicates=config.R, jobs=config.jobs, mc_draws=config.mc_samples,
    )
    path = out / "gengap.csv"
    _curve_csv(estimate, "gap", path)
    summary = {
        "replicates": config.R,
        "gap_final": estimate.final,
        "gap_final_se": estimate.final_se,
    }
    return [path], summary, _replicate_seeds(config, "gengap"), None


def _run_bound(config: ExperimentConfig, out: Path) -> Outcome:
    task = config.task()
    model = config.loss_model()
    train = config.train_config()
    P = config.gossip_matrix()
    estimate = _estimate_stability(config, P, risks=True, final_diffs=True)
    holder_seed = derive_seed(config.seed, "holder")
    L = estimate_holder_constant(
        model, task, config.alpha, config.holder_pairs, config.holder_radius, holder_seed
    )
    sigma_sq, mu_sq = estimate_sigma_mu(estimate.final_diffs)
    epsilon_s = estimate_epsilon_s(estimate.risks, config.alpha)
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
        inputs = inputs.with_p(optimize_bound_p(inputs, risk_curve, config.T))
    curve = stability_bound_curve(inputs, risk_curve, config.T)
    path = out / "bound.csv"
    logged = curve[estimate.iterations]
    _curve_csv(estimate, "stability", path, bound_value=logged)
    dominated = bool(np.all(logged >= estimate.mean))
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
    return [path], summary, seeds, None


def _run_compare(config: ExperimentConfig, out: Path) -> Outcome:
    rows = topology_comparison(
        config.kinds, config.m, config.task(), config.loss_model(), config.train_config(),
        n=config.n, replicates=config.R, pairs=config.pairs, mode=config.mode,
        jobs=config.jobs, mc_draws=config.mc_samples,
    )
    path = out / "compare.csv"
    emit_csv(
        [
            (row.kind.value, config.m, row.lam, row.stability.final, row.stability.final_se,
             row.gap.final, row.gap.final_se)
            for row in rows
        ],
        ["kind", "m", "lambda", "stability_final", "stability_se", "gengap_final", "gengap_se"],
        path,
    )
    by_lam = sorted(rows, key=lambda r: r.lam)
    reference = by_lam[0]
    summary = {
        "kinds_by_lambda": [r.kind.value for r in by_lam],
        "paired_reference_kind": reference.kind.value,
        "paired_differences": {
            r.kind.value: {
                "stability": _paired_difference(r.stability, reference.stability),
                "gengap": _paired_difference(r.gap, reference.gap),
            }
            for r in rows
        },
        "rows": {
            r.kind.value: {
                "lambda": r.lam,
                "stability_final": r.stability.final,
                "gengap_final": r.gap.final,
            }
            for r in rows
        },
    }
    return [path], summary, _replicate_seeds(config, "stability"), None


def _paired_difference(estimate: Estimate, reference: Estimate) -> dict:
    """Per-replicate differences of the final values from a reference
    estimate on the same replicates, their mean and paired SE."""
    diff = estimate.replicates[:, -1] - reference.replicates[:, -1]
    mean, se = mean_and_se(diff)
    return {"replicates": diff.tolist(), "mean": float(mean), "se": float(se)}


def _run_consensus_control(config: ExperimentConfig, out: Path) -> Outcome:
    onsets = config.t_gamma_values()
    estimates = consensus_control_sweep(
        config.gossip_matrix(), config.task(), config.loss_model(), config.train_config(),
        n=config.n, gamma_sq=config.gamma_sq, t_gamma_values=onsets, replicates=config.R,
        pairs=config.pairs, mode=config.mode, max_rounds=config.max_rounds, jobs=config.jobs,
    )
    path = out / "consensus_control.csv"
    emit_csv(
        [(t_gamma, e.final, e.final_se) for t_gamma, e in zip(onsets, estimates)],
        ["t_gamma", "stability_final", "stability_se"],
        path,
    )
    spearman = spearman_rank_correlation(
        np.array(onsets, dtype=float), np.array([e.final for e in estimates])
    )
    summary = {
        "gamma_sq": config.gamma_sq,
        "spearman": spearman,
        "monotone_signal": spearman > 0,
    }
    labels = [str(t_gamma) for t_gamma in onsets]
    counters = {
        "extra_gossip_rounds": dict(zip(labels, (e.extra_gossip_rounds for e in estimates))),
        "control_cap_hits": dict(zip(labels, (e.control_cap_hits for e in estimates))),
    }
    return [path], summary, _replicate_seeds(config, "stability"), counters


def _run_gaussianity(config: ExperimentConfig, out: Path) -> Outcome:
    estimate = _estimate_stability(config, config.gossip_matrix(), final_diffs=True)
    report = gaussianity_report(
        estimate.final_diffs, skew_tol=config.skew_tol, kurt_tol=config.kurt_tol
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
    return [path], summary, _replicate_seeds(config, "stability"), None


def _replicate_seeds(config: ExperimentConfig, label: str) -> dict[str, int]:
    return {f"{label}-data-{r}": replicate_data_seed(config.seed, r) for r in range(config.R)}


# The experiments, in the order the config error lists them.
RUNNERS = {
    "topology": _run_topology,
    "stability": _run_stability,
    "gengap": _run_gengap,
    "bound": _run_bound,
    "compare": _run_compare,
    "consensus-control": _run_consensus_control,
    "gaussianity": _run_gaussianity,
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
    # The variable is only a default: the config's own jobs and --jobs win.
    defaults: dict[str, Any] = {}
    if args.jobs is None and "DSGD_LAB_JOBS" in os.environ:
        try:
            defaults["jobs"] = int(os.environ["DSGD_LAB_JOBS"])
        except ValueError:
            defaults["jobs"] = 0
        if defaults["jobs"] < 1:
            print("error: DSGD_LAB_JOBS must be a positive integer", file=sys.stderr)
            return 1
    try:
        return run_experiment(parse_config(args.config, overrides, defaults))
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
