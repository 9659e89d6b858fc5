"""Stability and generalization: statistical estimators and bound evaluators.

The measured side estimates, over replicate datasets and sampled
perturbations, the mean squared per-worker weight difference between coupled
runs (on-average stability), the generalization gap of the consensus model,
and the moments of the final weight differences.

The theoretical side evaluates, with explicit constants, the stability
recursion

    B[t+1] = C B[t] + [1 + p/n + (1-1/n) eta_t] d (sigma^2 + mu^2)
                      [(1-1/m) lambda^2 + 1/m]
                    + (2/n)(1 + 1/p) c^2 eta_t^2 risk[t],
    C = 2 eta_0 L (1 - 1/n),

its fixed-rate infinite-horizon limit (valid when C < 1), and the two-term
generalization bound driven by the same sums. Constants fed to the
evaluators are conservative envelopes (max over workers and iterations), so
bound-versus-measurement comparisons honor the constants' upper-bound roles.
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    ConsensusControl,
    ConstantRate,
    CoupledTrace,
    Perturbation,
    PerturbationMode,
    RunTrace,
    Schedule,
    TrainConfig,
    _snapshot_iterations,
    draw_perturbation,
    run_coupled,
    run_dsgd,
)
from .errors import InputError
from .models import (
    LossModel,
    ModelFamily,
    Shards,
    SyntheticTask,
    c_alpha_constant,
    dataset_risk,
    draw_dataset_arrays,
    population_risk,
)
from .seeding import derive_seed
from .topology import GossipMatrix, TopologyKind, build_gossip_matrix, eigenvalues_symmetric

__all__ = [
    "StabilityEstimate",
    "BoundInputs",
    "GenGapReport",
    "GaussianityReport",
    "ControlSweepResult",
    "ComparisonRow",
    "ComparisonResult",
    "estimate_stability",
    "stability_exhaustive",
    "estimate_sigma_mu",
    "estimate_epsilon_s",
    "risk_exponent_curve",
    "stability_bound_curve",
    "stability_bound_limit",
    "generalization_bound_from_stability",
    "generalization_bound_closed",
    "optimize_bound_p",
    "generalization_gap",
    "replicated_generalization_gap",
    "gaussianity_report",
    "consensus_control_sweep",
    "topology_comparison",
    "spearman_rank_correlation",
]

EXHAUSTIVE_SEQUENCE_LIMIT = 65536


# ---------------------------------------------------------------------------
# Measured side
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StabilityEstimate:
    """Mean squared per-worker weight difference, per logged iteration.

    mean[j] estimates (1/m) sum_k ||w_k - w~_k||^2 at snapshot j, averaged
    over sampled perturbations and replicate datasets; se[j] is the standard
    error over replicate means. replicate_means[r, j] is replicate r's mean
    over its pairs (mean and se summarize its rows), kept so that estimates
    run on the same replicate data can be compared pair by pair. With
    keep_traces, the underlying coupled traces (replicate-major) and
    per-replicate shards are retained.
    """

    iterations: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    replicate_means: np.ndarray
    replicates: int
    pairs: int
    mode: PerturbationMode
    coupled: list[CoupledTrace] | None = None
    shards: list[Shards] | None = None

    @property
    def final(self) -> float:
        return float(self.mean[-1])

    @property
    def final_se(self) -> float:
        return float(self.se[-1])


def _make_shards(task: SyntheticTask, n: int, m: int, seed: int) -> Shards:
    xs, ys = draw_dataset_arrays(task, n * m, np.random.default_rng(seed))
    return Shards(xs=xs.reshape(m, n, task.d_x), ys=ys.reshape(m, n))


def _stability_replicate(
    args: tuple,
) -> tuple[np.ndarray, list[CoupledTrace] | None, Shards | None]:
    """One replicate: fresh shards, `pairs` sampled perturbations, coupled runs."""
    (P, task, model, config, n, pairs, mode, control, r, keep) = args
    shards = _make_shards(task, n, P.m, derive_seed(config.seed, "stability-data", r))
    curves = []
    kept: list[CoupledTrace] | None = [] if keep else None
    for j in range(pairs):
        perturbation = draw_perturbation(
            task, n, P.m, mode, derive_seed(config.seed, "stability-pert", r, j)
        )
        run_config = replace(config, seed=derive_seed(config.seed, "stability-run", r, j))
        coupled = run_coupled(P, shards, model, run_config, perturbation, control=control)
        curves.append(coupled.sq_diffs.mean(axis=1))
        if kept is not None:
            kept.append(coupled)
    return np.mean(curves, axis=0), kept, (shards if keep else None)


def _parallel_map(fn, items: list, jobs: int) -> list:
    """Order-preserving map, optionally fanned out over worker processes."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def estimate_stability(
    P: GossipMatrix,
    task: SyntheticTask,
    model: LossModel,
    config: TrainConfig,
    n: int,
    replicates: int,
    pairs: int,
    mode: PerturbationMode = PerturbationMode.SYNCHRONIZED,
    jobs: int = 1,
    keep_traces: bool = False,
    control: ConsensusControl | None = None,
) -> StabilityEstimate:
    """Estimate the on-average stability curve of the configured dynamics.

    Each of `replicates` replicates draws fresh shards (n samples per worker),
    samples `pairs` perturbations of the given mode, and averages the coupled
    squared weight differences; the standard error is taken over replicate
    means. Replicate seeds derive from config.seed with fixed labels, so
    results are independent of `jobs`, and two estimates with the same base
    seed see identical data across topologies.
    """
    if replicates < 2:
        raise InputError(f"replicates must be >= 2, got {replicates}")
    if pairs < 1:
        raise InputError(f"pairs must be >= 1, got {pairs}")
    items = [
        (P, task, model, config, n, pairs, mode, control, r, keep_traces)
        for r in range(replicates)
    ]
    results = _parallel_map(_stability_replicate, items, jobs)
    rep_curves = np.stack([curve for curve, _, _ in results])
    coupled: list[CoupledTrace] | None = None
    shards: list[Shards] | None = None
    if keep_traces:
        coupled = [trace for _, kept, _ in results for trace in kept]
        shards = [sh for _, _, sh in results]
    reference = run_iterations(config)
    return StabilityEstimate(
        iterations=reference,
        mean=rep_curves.mean(axis=0),
        se=rep_curves.std(axis=0, ddof=1) / math.sqrt(replicates),
        replicate_means=rep_curves,
        replicates=replicates,
        pairs=pairs,
        mode=mode,
        coupled=coupled,
        shards=shards,
    )


def run_iterations(config: TrainConfig) -> np.ndarray:
    """The snapshot iteration numbers a run with this config logs."""
    return np.array(_snapshot_iterations(config.iterations, config.cadence), dtype=int)


def stability_exhaustive(
    P: GossipMatrix,
    shards: Shards,
    model: LossModel,
    config: TrainConfig,
    mode: PerturbationMode,
    replacement_shards: Shards,
) -> np.ndarray:
    """Exact expected stability curve for fixed data, by full enumeration.

    Averages (1/m) sum_k ||w_k - w~_k||^2 uniformly over every sampling
    sequence (n^(m*T) of them) and every perturbation position, with the
    replacement for position (k, i) fixed to replacement_shards[k, i]. Only
    feasible for tiny systems; guarded by EXHAUSTIVE_SEQUENCE_LIMIT.
    """
    m, n = shards.m, shards.n
    total = config.iterations
    if replacement_shards.xs.shape != shards.xs.shape:
        raise InputError("replacement shards must mirror the shard shapes")
    count = n ** (m * total)
    if count > EXHAUSTIVE_SEQUENCE_LIMIT:
        raise InputError(
            f"{count} sampling sequences exceed the enumeration limit "
            f"{EXHAUSTIVE_SEQUENCE_LIMIT}"
        )
    if mode is PerturbationMode.SYNCHRONIZED:
        positions = [(np.arange(m), i) for i in range(n)]
    else:
        positions = [(np.array([k]), i) for k in range(m) for i in range(n)]
    curves = []
    for workers, index in positions:
        perturbation = Perturbation(
            mode=mode,
            index=index,
            workers=workers,
            replacement_xs=replacement_shards.xs[workers, index],
            replacement_ys=replacement_shards.ys[workers, index],
        )
        for flat in itertools.product(range(n), repeat=m * total):
            sequence = np.array(flat, dtype=int).reshape(total, m)
            coupled = run_coupled(
                P, shards, model, config, perturbation, index_sequence=sequence
            )
            curves.append(coupled.sq_diffs.mean(axis=1))
    return np.mean(curves, axis=0)


def estimate_sigma_mu(coupled: list[CoupledTrace]) -> tuple[float, float]:
    """Envelope moments of the final per-worker weight differences.

    Pools final difference vectors per worker across the given coupled traces;
    returns (sigma_sq, mu_sq) where sigma_sq is the largest per-worker mean
    per-coordinate variance and mu_sq the largest per-worker squared mean
    norm divided by d. Max-over-workers envelopes keep the values usable as
    the bound evaluators' uniform constants.
    """
    if len(coupled) < 2:
        raise InputError("at least 2 coupled traces are required")
    diffs = np.stack([trace.final_diffs for trace in coupled])  # (R, m, d)
    d = diffs.shape[2]
    worker_means = diffs.mean(axis=0)  # (m, d)
    worker_vars = diffs.var(axis=0, ddof=1).mean(axis=1)  # (m,)
    mu_sq = float(np.max(np.sum(worker_means**2, axis=1)) / d)
    sigma_sq = float(np.max(worker_vars))
    return sigma_sq, mu_sq


def risk_exponent_curve(trace: RunTrace, alpha: float) -> np.ndarray:
    """Per-snapshot (1/m) sum_k F_k^(2 alpha / (1 + alpha)) of one trace."""
    exponent = 2.0 * alpha / (1.0 + alpha)
    return np.mean(trace.risks**exponent, axis=1)


def estimate_epsilon_s(traces: list[RunTrace], alpha: float) -> float:
    """Upper envelope of the exponentiated averaged empirical risk.

    Max over traces and logged iterations of
    (1/m) sum_k F_k^(2 alpha / (1 + alpha)). The convention 0^0 = 1 applies
    at alpha = 0, keeping the envelope an upper bound.
    """
    if not traces:
        raise InputError("at least one trace is required")
    return float(max(np.max(risk_exponent_curve(trace, alpha)) for trace in traces))


# ---------------------------------------------------------------------------
# Bound evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundInputs:
    """Every constant the stability and generalization bounds consume.

    L and alpha describe the gradient regularity, rate the learning-rate
    schedule, (n, m, d) the system shape, lam the topology's eigenvalue
    envelope, sigma_sq and mu_sq the weight-difference moment envelopes,
    epsilon_s the risk envelope, and p the free splitting parameter.
    """

    L: float
    alpha: float
    rate: Schedule
    n: int
    m: int
    d: int
    lam: float
    sigma_sq: float
    mu_sq: float
    epsilon_s: float
    p: float = 1.0
    grad_at_zero_sup: float | None = None

    def __post_init__(self) -> None:
        if self.L <= 0:
            raise InputError("L must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError("alpha must lie in [0, 1]")
        if self.n < 1 or self.m < 1 or self.d < 1:
            raise InputError("n, m and d must be positive integers")
        if not 0.0 <= self.lam <= 1.0:
            raise InputError("lam must lie in [0, 1]")
        if self.sigma_sq < 0 or self.mu_sq < 0 or self.epsilon_s < 0:
            raise InputError("moment and risk envelopes must be nonnegative")
        if self.p <= 0:
            raise InputError("p must be positive")
        limit = (1.0 - 2.0 / self.m) / (2.0 * self.L)
        if self.rate.initial > limit:
            warnings.warn(
                f"initial learning rate {self.rate.initial:.4g} exceeds the "
                f"fixed-rate validity limit {limit:.4g} = (1 - 2/m) / (2 L); "
                "the evaluated bound may not apply",
                stacklevel=2,
            )

    @property
    def c_alpha(self) -> float:
        return c_alpha_constant(self.alpha, self.L, self.grad_at_zero_sup)

    @property
    def contraction(self) -> float:
        """Scaling coefficient C = 2 eta_0 L (1 - 1/n) of the recursion."""
        return 2.0 * self.rate.initial * self.L * (1.0 - 1.0 / self.n)


def _topology_term(inputs: BoundInputs, eta: float) -> float:
    mixing = (1.0 - 1.0 / inputs.m) * inputs.lam**2 + 1.0 / inputs.m
    scale = 1.0 + inputs.p / inputs.n + (1.0 - 1.0 / inputs.n) * eta
    return scale * inputs.d * (inputs.sigma_sq + inputs.mu_sq) * mixing


def _risk_coefficient(inputs: BoundInputs) -> float:
    return 2.0 / inputs.n * (1.0 + 1.0 / inputs.p) * inputs.c_alpha**2


def stability_bound_curve(
    inputs: BoundInputs, risk_curve: np.ndarray, t_max: int
) -> np.ndarray:
    """Finite-horizon stability bound, entry t bounding the iterate after t steps.

    risk_curve[tau] is the exponentiated averaged empirical risk of the
    pre-update iterate at step tau and must cover 0..t_max-1; a constant
    epsilon_s envelope is the conservative choice.
    """
    if t_max < 0:
        raise InputError("t_max must be >= 0")
    risk_curve = np.asarray(risk_curve, dtype=float)
    if risk_curve.ndim != 1 or risk_curve.shape[0] < t_max:
        raise InputError(f"risk_curve must cover steps 0..{t_max - 1}")
    if np.any(risk_curve < 0):
        raise InputError("risk_curve entries must be nonnegative")
    C = inputs.contraction
    risk_coeff = _risk_coefficient(inputs)
    bound = np.zeros(t_max + 1)
    for t in range(t_max):
        eta = inputs.rate.at(t, t_max)
        fresh = _topology_term(inputs, eta) + risk_coeff * eta**2 * risk_curve[t]
        bound[t + 1] = C * bound[t] + fresh
    return bound


def stability_bound_limit(inputs: BoundInputs) -> float:
    """Fixed-rate infinite-horizon stability bound.

    Requires a constant schedule and contraction C < 1; the geometric sum
    then closes to 1/(1-C) times the per-step term with the epsilon_s
    envelope standing in for the risk curve.
    """
    if not isinstance(inputs.rate, ConstantRate):
        raise InputError("the infinite-horizon bound requires a constant rate")
    C = inputs.contraction
    if C >= 1.0:
        raise InputError(
            f"contraction C = {C:.4g} >= 1: the geometric sum diverges"
        )
    eta = inputs.rate.eta
    fresh = _topology_term(inputs, eta) + _risk_coefficient(inputs) * eta**2 * inputs.epsilon_s
    return fresh / (1.0 - C)


def generalization_bound_from_stability(
    stability: float, L: float, alpha: float, m: int, n: int
) -> float:
    """Generalization bound implied by an on-average stability value:
    L / (m n^(1 - alpha/2)) * stability^(alpha/2)."""
    if stability < 0:
        raise InputError("stability must be nonnegative")
    if L <= 0 or m < 1 or n < 1:
        raise InputError("L, m and n must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise InputError("alpha must lie in [0, 1]")
    return L / (m * n ** (1.0 - alpha / 2.0)) * stability ** (alpha / 2.0)


def generalization_bound_closed(inputs: BoundInputs, t: int) -> float:
    """Two-term closed-form generalization bound for the iterate after t steps.

    (L/N) [sum C^(t-1-tau) 2 (1+1/p) c^2 eta_tau^2 epsilon_s]^(alpha/2)
      + (L n^(alpha/2) / N) [sum C^(t-1-tau) topology term]^(alpha/2),
    with N = n m and full explicit constants in both terms. A step-decay
    schedule is evaluated as if t were the run length; the expression is
    primarily meant for fixed rates.
    """
    if t < 0:
        raise InputError("t must be >= 0")
    C = inputs.contraction
    risk_coeff_full = inputs.n * _risk_coefficient(inputs)  # 2 (1+1/p) c^2
    sum_risk = 0.0
    sum_topology = 0.0
    for tau in range(t):
        eta = inputs.rate.at(tau, t)
        weight = C ** (t - 1 - tau)
        sum_risk += weight * risk_coeff_full * eta**2 * inputs.epsilon_s
        sum_topology += weight * _topology_term(inputs, eta)
    N = inputs.n * inputs.m
    half = inputs.alpha / 2.0
    return (
        inputs.L / N * sum_risk**half
        + inputs.L * inputs.n**half / N * sum_topology**half
    )


def optimize_bound_p(
    inputs: BoundInputs, risk_curve: np.ndarray, t_max: int, p_max: float = 100.0
) -> float:
    """Golden-section minimizer of the final stability bound over p in (0, p_max]."""
    if p_max <= 0:
        raise InputError("p_max must be positive")

    def value(p: float) -> float:
        return float(stability_bound_curve(replace(inputs, p=p), risk_curve, t_max)[-1])

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-6, p_max
    a = hi - ratio * (hi - lo)
    b = lo + ratio * (hi - lo)
    fa, fb = value(a), value(b)
    for _ in range(90):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = value(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = value(b)
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Generalization gap and distribution diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GenGapReport:
    """Population minus empirical risk of the consensus model, per snapshot."""

    iterations: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    traces: int

    @property
    def final(self) -> float:
        return float(self.mean[-1])

    @property
    def final_se(self) -> float:
        return float(self.se[-1])


def generalization_gap(
    traces: list[RunTrace],
    task: SyntheticTask,
    model: LossModel,
    shards: Shards,
    mc_draws: int = 100_000,
    seed: int = 0,
) -> GenGapReport:
    """Gap curve F(consensus) - F_S(consensus) for traces trained on `shards`.

    The population risk uses the closed form for linear regression and a
    fixed fresh holdout of mc_draws samples otherwise; the empirical risk is
    the mean loss over the full training set. The standard error is over the
    given traces.
    """
    if not traces:
        raise InputError("at least one trace is required")
    reference = traces[0].iterations
    for trace in traces[1:]:
        if not np.array_equal(trace.iterations, reference):
            raise InputError("traces must share their snapshot iterations")
    xs_train, ys_train = shards.flat()
    eval_data: tuple[np.ndarray, np.ndarray] | None = None
    if task.family is not ModelFamily.LINEAR_REGRESSION:
        rng = np.random.default_rng(derive_seed(seed, "gengap-holdout"))
        eval_data = draw_dataset_arrays(task, mc_draws, rng)
    curves = np.zeros((len(traces), len(reference)))
    for i, trace in enumerate(traces):
        for j in range(len(reference)):
            w = trace.consensus[j]
            if eval_data is None:
                population = population_risk(task, w)
            else:
                population = dataset_risk(model, w, *eval_data)
            curves[i, j] = population - dataset_risk(model, w, xs_train, ys_train)
    se = (
        curves.std(axis=0, ddof=1) / math.sqrt(len(traces))
        if len(traces) > 1
        else np.zeros(len(reference))
    )
    return GenGapReport(
        iterations=reference.copy(), mean=curves.mean(axis=0), se=se, traces=len(traces)
    )


def _gengap_replicate(args: tuple) -> np.ndarray:
    (P, task, model, config, n, mc_draws, r) = args
    shards = _make_shards(task, n, P.m, derive_seed(config.seed, "stability-data", r))
    run_config = replace(config, seed=derive_seed(config.seed, "gengap-run", r))
    trace = run_dsgd(P, shards, model, run_config)
    report = generalization_gap([trace], task, model, shards, mc_draws, config.seed)
    return report.mean


def replicated_generalization_gap(
    P: GossipMatrix,
    task: SyntheticTask,
    model: LossModel,
    config: TrainConfig,
    n: int,
    replicates: int,
    jobs: int = 1,
    mc_draws: int = 100_000,
) -> GenGapReport:
    """Gap curve averaged over replicate datasets, each with its own run.

    Data seeds match estimate_stability's, so gap and stability replicates
    see identical shards for a given base seed.
    """
    if replicates < 2:
        raise InputError(f"replicates must be >= 2, got {replicates}")
    items = [(P, task, model, config, n, mc_draws, r) for r in range(replicates)]
    curves = np.stack(_parallel_map(_gengap_replicate, items, jobs))
    return GenGapReport(
        iterations=run_iterations(config),
        mean=curves.mean(axis=0),
        se=curves.std(axis=0, ddof=1) / math.sqrt(replicates),
        traces=replicates,
    )


@dataclass(frozen=True, eq=False)
class GaussianityReport:
    """Moment diagnostics of pooled final weight-difference coordinates.

    passed is None when the pooled differences are degenerate (zero
    variance); histogram_counts/edges give a plot-ready 50-bin summary.
    """

    pooled_count: int
    skewness: float
    excess_kurtosis: float
    passed: bool | None
    degenerate: bool
    worker_mean_norms: np.ndarray
    worker_variances: np.ndarray
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray


def gaussianity_report(
    coupled: list[CoupledTrace],
    skew_tol: float = 0.5,
    kurt_tol: float = 1.0,
    bins: int = 50,
) -> GaussianityReport:
    """Moment-based normality verdict for final weight differences.

    Pools every coordinate of every worker's final difference vector across
    the given traces; passes when |skewness| <= skew_tol and
    |excess kurtosis| <= kurt_tol. All-zero differences yield a degenerate
    report instead of a verdict.
    """
    if not coupled:
        raise InputError("at least one coupled trace is required")
    diffs = np.stack([trace.final_diffs for trace in coupled])  # (R, m, d)
    pool = diffs.reshape(-1)
    if pool.size < 100:
        raise InputError(
            f"pooled coordinate count {pool.size} is below the required 100"
        )
    worker_mean_norms = np.linalg.norm(diffs.mean(axis=0), axis=1)
    if len(coupled) > 1:
        worker_variances = diffs.var(axis=0, ddof=1).mean(axis=1)
    else:
        worker_variances = np.full(diffs.shape[1], np.nan)
    centered = pool - pool.mean()
    variance = float(np.mean(centered**2))
    counts, edges = np.histogram(pool, bins=bins)
    if variance < 1e-24:
        return GaussianityReport(
            pooled_count=pool.size,
            skewness=0.0,
            excess_kurtosis=0.0,
            passed=None,
            degenerate=True,
            worker_mean_norms=worker_mean_norms,
            worker_variances=worker_variances,
            histogram_counts=counts,
            histogram_edges=edges,
        )
    skewness = float(np.mean(centered**3) / variance**1.5)
    excess_kurtosis = float(np.mean(centered**4) / variance**2 - 3.0)
    return GaussianityReport(
        pooled_count=pool.size,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        passed=bool(abs(skewness) <= skew_tol and abs(excess_kurtosis) <= kurt_tol),
        degenerate=False,
        worker_mean_norms=worker_mean_norms,
        worker_variances=worker_variances,
        histogram_counts=counts,
        histogram_edges=edges,
    )


# ---------------------------------------------------------------------------
# Sweeps and comparisons
# ---------------------------------------------------------------------------


def spearman_rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation with average ranks for ties; 0 for flat input."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise InputError("inputs must be equal-length 1-D arrays of size >= 2")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    sx = rx - rx.mean()
    sy = ry - ry.mean()
    denom = math.sqrt(float(np.sum(sx**2)) * float(np.sum(sy**2)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(sx * sy) / denom)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - (counts - 1) / 2.0)[inverse]


@dataclass(frozen=True, eq=False)
class ControlSweepResult:
    """Final stability per consensus-control onset, plus its rank correlation."""

    t_gammas: np.ndarray
    stability_final: np.ndarray
    stability_se: np.ndarray
    spearman: float


def consensus_control_sweep(
    P: GossipMatrix,
    task: SyntheticTask,
    model: LossModel,
    config: TrainConfig,
    n: int,
    gamma_sq: float,
    t_gamma_values: list[int],
    replicates: int,
    pairs: int,
    mode: PerturbationMode = PerturbationMode.SYNCHRONIZED,
    max_rounds: int = 200,
    jobs: int = 1,
) -> ControlSweepResult:
    """Final-iteration stability as a function of the control onset t_gamma.

    Both coupled runs apply consensus control (distance kept at or below
    gamma_sq) from step t_gamma on. Replicate seeds are shared across onsets,
    making the sweep a paired comparison.
    """
    if replicates < 5:
        raise InputError(f"the control sweep needs replicates >= 5, got {replicates}")
    if len(t_gamma_values) < 2:
        raise InputError("t_gamma_values needs at least 2 onsets")
    if list(t_gamma_values) != sorted(t_gamma_values):
        raise InputError("t_gamma_values must be sorted ascending")
    finals = []
    ses = []
    for t_gamma in t_gamma_values:
        control = ConsensusControl(
            gamma_sq=gamma_sq, t_gamma=int(t_gamma), max_rounds=max_rounds
        )
        estimate = estimate_stability(
            P, task, model, config, n, replicates, pairs, mode, jobs=jobs, control=control
        )
        finals.append(estimate.final)
        ses.append(estimate.final_se)
    finals_arr = np.array(finals)
    return ControlSweepResult(
        t_gammas=np.array(t_gamma_values, dtype=int),
        stability_final=finals_arr,
        stability_se=np.array(ses),
        spearman=spearman_rank_correlation(
            np.array(t_gamma_values, dtype=float), finals_arr
        ),
    )


@dataclass(frozen=True, eq=False)
class ComparisonRow:
    """One topology's eigenvalue envelope, final stability, and final gap.

    stability_replicates and gengap_replicates hold each replicate's final
    value in replicate order; the *_final and *_se fields are their mean and
    standard error. Rows of one comparison share their replicate data, so
    differences between two rows' replicate arrays are paired.
    """

    kind: TopologyKind
    m: int
    lam: float
    stability_final: float
    stability_se: float
    gengap_final: float
    gengap_se: float
    stability_replicates: np.ndarray
    gengap_replicates: np.ndarray


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    """Per-topology comparison rows plus the underlying stability estimates."""

    rows: list[ComparisonRow]
    estimates: dict[TopologyKind, StabilityEstimate]


def topology_comparison(
    kinds: list[TopologyKind],
    m: int,
    task: SyntheticTask,
    model: LossModel,
    config: TrainConfig,
    n: int,
    replicates: int,
    pairs: int,
    mode: PerturbationMode = PerturbationMode.SYNCHRONIZED,
    jobs: int = 1,
    mc_draws: int = 100_000,
    keep_traces: bool = False,
) -> ComparisonResult:
    """Stability and generalization gap per topology on identical data.

    All topologies share the replicate seeds, hence the same shards,
    perturbations and sampling sequences; the gap is computed from the base
    trajectories of the coupled runs, averaged per replicate. Each row keeps
    its per-replicate final stability and gap, from which paired differences
    between kinds follow. With keep_traces, each estimate retains its coupled
    traces for downstream bound evaluation.
    """
    rows = []
    estimates: dict[TopologyKind, StabilityEstimate] = {}
    for kind in kinds:
        P = build_gossip_matrix(kind, m)
        lam = eigenvalues_symmetric(P).lam
        estimate = estimate_stability(
            P, task, model, config, n, replicates, pairs, mode,
            jobs=jobs, keep_traces=True,
        )
        assert estimate.coupled is not None and estimate.shards is not None
        replicate_gaps = []
        for r in range(replicates):
            chunk = estimate.coupled[r * pairs : (r + 1) * pairs]
            report = generalization_gap(
                [trace.base for trace in chunk],
                task,
                model,
                estimate.shards[r],
                mc_draws=mc_draws,
                seed=config.seed,
            )
            replicate_gaps.append(report.final)
        gaps = np.array(replicate_gaps)
        rows.append(
            ComparisonRow(
                kind=kind,
                m=m,
                lam=lam,
                stability_final=estimate.final,
                stability_se=estimate.final_se,
                gengap_final=float(gaps.mean()),
                gengap_se=float(gaps.std(ddof=1) / math.sqrt(replicates)),
                stability_replicates=estimate.replicate_means[:, -1].copy(),
                gengap_replicates=gaps,
            )
        )
        if not keep_traces:
            estimate = replace(estimate, coupled=None, shards=None)
        estimates[kind] = estimate
    return ComparisonResult(rows=rows, estimates=estimates)
