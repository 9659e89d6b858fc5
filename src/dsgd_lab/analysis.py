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
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .engine import (
    ConsensusControl,
    ConstantRate,
    CoupledTrace,
    PerturbationMode,
    RunTrace,
    Schedule,
    TrainConfig,
    draw_perturbation,
    dsgd_step,
    run_coupled,
    run_dsgd,
)
from .errors import InputError, NumericalError
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
    "mean_and_se",
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


def _group_shards(task: SyntheticTask, n: int, m: int, seeds: list[int]) -> list[Shards]:
    """_make_shards of each seed, as views of one (replicates, m, n, d_x) array.

    The engine steps shards that tile one array without copying them, so a
    group's single runs hold their data once.
    """
    xs, ys = np.empty((len(seeds), m, n, task.d_x)), np.empty((len(seeds), m, n))
    for r, seed in enumerate(seeds):
        drawn = _make_shards(task, n, m, seed)
        xs[r], ys[r] = drawn.xs, drawn.ys
    return [Shards(xs=x, ys=y) for x, y in zip(xs, ys)]


def mean_and_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 0 and its standard error std(ddof=1) / sqrt(count).

    One row has no spread to measure: its SE is 0.

    Raises:
        NumericalError: finite values too large for their spread to be
            squared, so the SE overflows.
    """
    values = np.asarray(values)
    mean = values.mean(axis=0)
    if len(values) < 2:
        return mean, np.zeros_like(mean)
    with np.errstate(over="ignore", invalid="ignore"):
        se = values.std(axis=0, ddof=1) / math.sqrt(len(values))
    if not np.all(np.isfinite(se)):
        raise NumericalError(
            f"standard error over {len(values)} replicates overflows: values reach "
            f"{np.max(np.abs(values)):.4g}"
        )
    return mean, se


def _stability_group(
    group: range,
    *,
    arms: list[tuple[GossipMatrix, ConsensusControl | None]],
    task: SyntheticTask,
    model: LossModel,
    config: TrainConfig,
    n: int,
    pairs: int,
    mode: PerturbationMode,
    gaps: bool,
    holdout: tuple[np.ndarray, np.ndarray] | None,
    keep: bool,
) -> tuple[np.ndarray, np.ndarray | None, list[list[CoupledTrace]] | None, list[Shards] | None]:
    """Replicates `group` under every arm (P, control), on data drawn once per replicate.

    Each replicate draws fresh shards and `pairs` sampled perturbations once;
    every arm x run x side of the group is stepped in one stack. Returns each
    arm's replicate curves (A, len(group), snapshots); with `gaps`, each arm's
    final consensus-model gap per replicate (A, len(group)), scored on
    `holdout`; with `keep`, each arm's coupled traces and the shards. Only
    kept traces record per-worker risks: nothing else reads them.
    """
    m = arms[0][0].m
    shards = _group_shards(
        task, n, m, [derive_seed(config.seed, "stability-data", r) for r in group]
    )
    runs = [(r, j) for r in group for j in range(pairs)]
    coupled = run_coupled(
        arms,
        [shards[r - group.start] for r, _ in runs],
        model,
        config,
        [
            draw_perturbation(task, n, m, mode, derive_seed(config.seed, "stability-pert", r, j))
            for r, j in runs
        ],
        [derive_seed(config.seed, "stability-run", r, j) for r, j in runs],
        risks=keep,
    )
    curves = np.stack([
        np.stack([trace.sq_diffs.mean(axis=1) for trace in traces])
        .reshape(len(group), pairs, -1)
        .mean(axis=1)
        for traces in coupled
    ])
    replicate_gaps = None
    if gaps:
        replicate_gaps = np.array([
            [
                _consensus_gaps(finals, task, model, replicate_shards, holdout).mean()
                for finals, replicate_shards in zip(
                    np.stack([trace.base.consensus[-1] for trace in traces])
                    .reshape(len(group), pairs, -1),
                    shards,
                )
            ]
            for traces in coupled
        ])
    return curves, replicate_gaps, (coupled if keep else None), (shards if keep else None)


def _replicate_groups(replicates: int, jobs: int) -> list[range]:
    """Replicates 0..replicates-1 split into min(jobs, replicates) contiguous groups."""
    groups = max(1, min(jobs, replicates))
    return [
        range(replicates * g // groups, replicates * (g + 1) // groups) for g in range(groups)
    ]


def _parallel_map(fn, items: list, jobs: int) -> list:
    """Order-preserving map, optionally fanned out over worker processes.

    fn is pickled with each item: pass the shared arguments as a partial.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: the process pool's modules take about 25 ms to load,
    # and only a map over more than one job needs them.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _stability_sweep(
    arms: list[tuple[GossipMatrix, ConsensusControl | None]],
    task: SyntheticTask,
    model: LossModel,
    config: TrainConfig,
    n: int,
    replicates: int,
    pairs: int,
    mode: PerturbationMode,
    jobs: int,
    keep_traces: bool = False,
    gaps: bool = False,
    holdout: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[StabilityEstimate], np.ndarray | None]:
    """One stability estimate per arm (P, control), every arm on the same replicate data.

    The replicates are split into `jobs` contiguous groups, mapped once over
    one pool; each group draws its replicates' data once and steps every
    arm x run x side as one stack (_stability_group). With `gaps`, also
    returns each arm's final consensus-model gap per replicate, (A, replicates).
    """
    if replicates < 2:
        raise InputError(f"replicates must be >= 2, got {replicates}")
    if pairs < 1:
        raise InputError(f"pairs must be >= 1, got {pairs}")
    group_fn = partial(
        _stability_group, arms=arms, task=task, model=model, config=config, n=n,
        pairs=pairs, mode=mode, gaps=gaps, holdout=holdout, keep=keep_traces,
    )
    results = _parallel_map(group_fn, _replicate_groups(replicates, jobs), jobs)
    rep_curves = np.concatenate([curves for curves, _, _, _ in results], axis=1)
    estimates = [
        StabilityEstimate(
            config.snapshot_iterations,
            *mean_and_se(curves),
            replicate_means=curves,
            replicates=replicates,
            pairs=pairs,
            mode=mode,
            coupled=(
                [trace for _, _, kept, _ in results for trace in kept[arm]] if keep_traces else None
            ),
            shards=[sh for _, _, _, kept in results for sh in kept] if keep_traces else None,
        )
        for arm, curves in enumerate(rep_curves)
    ]
    replicate_gaps = np.concatenate([g for _, g, _, _ in results], axis=1) if gaps else None
    return estimates, replicate_gaps


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
    means. The replicates are split into `jobs` contiguous groups, one per
    worker process, and each group's 2 x replicates x pairs trajectories are
    stepped as one stack. Replicate and run seeds derive from config.seed with
    fixed labels, so results are independent of `jobs`, and two estimates
    with the same base seed see identical data across topologies. The
    one-arm case of the sweep that topology_comparison and
    consensus_control_sweep run.
    """
    estimates, _ = _stability_sweep(
        [(P, control)], task, model, config, n, replicates, pairs, mode, jobs, keep_traces
    )
    return estimates[0]


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
    replacement for position (k, i) fixed to replacement_shards[k, i]. Each
    position steps all its sequences, both sides, as one (S, 2, m, d) stack
    through dsgd_step. Only feasible for tiny systems; S is guarded by
    EXHAUSTIVE_SEQUENCE_LIMIT.
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
    # sequences[s, 0, t, k]: worker k's sample index at step t of sequence s;
    # axis 1 broadcasts over the two sides.
    sequences = np.array(list(itertools.product(range(n), repeat=m * total)), dtype=int)
    sequences = sequences.reshape(count, 1, total, m)
    side, worker = np.arange(2)[:, None], np.arange(m)
    slots = {int(t): slot for slot, t in enumerate(config.snapshot_iterations)}
    curve = np.zeros(len(slots))
    for workers, index in positions:
        # Side 0 trains on the shards, side 1 on the shards with the position replaced.
        xs = np.stack([shards.xs, shards.xs])
        ys = np.stack([shards.ys, shards.ys])
        xs[1, workers, index] = replacement_shards.xs[workers, index]
        ys[1, workers, index] = replacement_shards.ys[workers, index]
        W = np.zeros((count, 2, m, model.dim(shards.d_x)))
        for t in range(total):
            rows = (side, worker, sequences[:, :, t])  # (S, 2, m)
            W = dsgd_step(W, P, xs[rows], ys[rows], config.rate.at(t, total), model)
            if t + 1 in slots:
                curve[slots[t + 1]] += np.sum((W[:, 0] - W[:, 1]) ** 2, axis=-1).mean(axis=1).sum()
    return curve / (len(positions) * count)


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
    # Differences of a run that blew up but stayed finite overflow the squares.
    with np.errstate(over="ignore", invalid="ignore"):
        worker_means = diffs.mean(axis=0)  # (m, d)
        worker_vars = diffs.var(axis=0, ddof=1).mean(axis=1)  # (m,)
        mu_sq = float(np.max(np.sum(worker_means**2, axis=1)) / d)
        sigma_sq = float(np.max(worker_vars))
    if not (math.isfinite(sigma_sq) and math.isfinite(mu_sq)):
        raise NumericalError(
            f"final weight differences reach {np.max(np.abs(diffs)):.4g}: their moments "
            "overflow, so the coupled runs diverged"
        )
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

    L and alpha describe the gradient regularity (alpha > 0: at alpha = 0,
    c_alpha would need a bound on the gradients at 0), rate the learning-rate
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

    def __post_init__(self) -> None:
        if self.L <= 0:
            raise InputError("L must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise InputError("alpha must lie in (0, 1]")
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
            # stacklevel 3 skips the dataclass-generated __init__ to name the caller.
            warnings.warn(
                f"initial learning rate {self.rate.initial:.4g} exceeds the "
                f"fixed-rate validity limit {limit:.4g} = (1 - 2/m) / (2 L); "
                "the evaluated bound may not apply",
                stacklevel=3,
            )

    @property
    def c_alpha(self) -> float:
        return c_alpha_constant(self.alpha, self.L)

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


def _overflow(name: str, C: float, steps: int) -> NumericalError:
    return NumericalError(
        f"{name} overflows: contraction C = {C:.4g} compounded over {steps} steps"
    )


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
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(t_max):
            eta = inputs.rate.at(t, t_max)
            fresh = _topology_term(inputs, eta) + risk_coeff * eta**2 * risk_curve[t]
            bound[t + 1] = C * bound[t] + fresh
    if not np.all(np.isfinite(bound)):
        raise _overflow("stability bound", C, t_max)
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
    try:
        for tau in range(t):
            eta = inputs.rate.at(tau, t)
            weight = C ** (t - 1 - tau)
            sum_risk += weight * risk_coeff_full * eta**2 * inputs.epsilon_s
            sum_topology += weight * _topology_term(inputs, eta)
    except OverflowError as exc:
        raise _overflow("closed-form generalization bound", C, t) from exc
    N = inputs.n * inputs.m
    half = inputs.alpha / 2.0
    value = (
        inputs.L / N * sum_risk**half
        + inputs.L * inputs.n**half / N * sum_topology**half
    )
    if not math.isfinite(value):
        raise _overflow("closed-form generalization bound", C, t)
    return value


def optimize_bound_p(inputs: BoundInputs, risk_curve: np.ndarray, t_max: int) -> float:
    """Golden-section minimizer of the final stability bound over p in (0, 100]."""

    def value(p: float) -> float:
        return float(stability_bound_curve(replace(inputs, p=p), risk_curve, t_max)[-1])

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1e-6, 100.0
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
    holdout: tuple[np.ndarray, np.ndarray] | None = None,
) -> GenGapReport:
    """Gap curve F(consensus) - F_S(consensus) for traces trained on `shards`.

    Every (trace, snapshot) consensus model is evaluated in one stack by
    _consensus_gaps. Without a closed-form population risk, F is estimated on
    `holdout` (xs, ys), or when none is given on mc_draws samples drawn from
    seed. The standard error is over the given traces.
    """
    if not traces:
        raise InputError("at least one trace is required")
    reference = traces[0].iterations
    for trace in traces[1:]:
        if not np.array_equal(trace.iterations, reference):
            raise InputError("traces must share their snapshot iterations")
    if holdout is None:
        holdout = _draw_holdout(task, mc_draws, seed)
    stack = np.concatenate([trace.consensus for trace in traces])
    gaps = _consensus_gaps(stack, task, model, shards, holdout)
    curves = gaps.reshape(len(traces), len(reference))
    return GenGapReport(reference.copy(), *mean_and_se(curves), traces=len(traces))


def _draw_holdout(
    task: SyntheticTask, mc_draws: int, seed: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The fixed Monte-Carlo holdout of a gap estimate; None where F has a closed form."""
    if task.family is ModelFamily.LINEAR_REGRESSION:
        return None
    rng = np.random.default_rng(derive_seed(seed, "gengap-holdout"))
    return draw_dataset_arrays(task, mc_draws, rng)


def _consensus_gaps(
    W: np.ndarray,
    task: SyntheticTask,
    model: LossModel,
    shards: Shards,
    holdout: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """F(w) - F_S(w) for each row of W (S, d) trained on `shards`.

    The population risk uses the closed form for linear regression and
    otherwise the mean loss on the holdout from _draw_holdout; the empirical
    risk is the mean loss over the full training set.
    """
    if task.family is ModelFamily.LINEAR_REGRESSION:
        population = population_risk(task, W)
    else:
        population = dataset_risk(model, W, *holdout)
    return population - dataset_risk(model, W, *shards.flat())


def _gengap_group(
    group: range,
    *,
    P: GossipMatrix,
    task: SyntheticTask,
    model: LossModel,
    config: TrainConfig,
    n: int,
    holdout: tuple[np.ndarray, np.ndarray] | None,
) -> list[np.ndarray]:
    """Replicates `group`: fresh shards and one run each, stepped as one stack."""
    shards = _group_shards(
        task, n, P.m, [derive_seed(config.seed, "stability-data", r) for r in group]
    )
    seeds = [derive_seed(config.seed, "gengap-run", r) for r in group]
    (traces,) = run_dsgd([(P, None)], shards, model, config, seeds)
    return [
        generalization_gap([trace], task, model, replicate_shards, holdout=holdout).mean
        for trace, replicate_shards in zip(traces, shards)
    ]


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
    see identical shards for a given base seed. As there, the replicates'
    runs are stepped as one stack per contiguous group, one group per job;
    every replicate is scored on one holdout, drawn once per call.
    """
    if replicates < 2:
        raise InputError(f"replicates must be >= 2, got {replicates}")
    group_fn = partial(
        _gengap_group, P=P, task=task, model=model, config=config, n=n,
        holdout=_draw_holdout(task, mc_draws, config.seed),
    )
    groups = _parallel_map(group_fn, _replicate_groups(replicates, jobs), jobs)
    curves = np.stack([curve for group in groups for curve in group])
    return GenGapReport(config.snapshot_iterations, *mean_and_se(curves), traces=replicates)


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
    pool = np.stack([trace.final_diffs for trace in coupled]).reshape(-1)
    if pool.size < 100:
        raise InputError(
            f"pooled coordinate count {pool.size} is below the required 100"
        )
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
    gamma_sq) from step t_gamma on. Every onset is one arm of one stability
    sweep: the onsets share the replicate data, making the sweep a paired
    comparison, and each replicate group steps every onset as one stack.
    """
    if replicates < 5:
        raise InputError(f"the control sweep needs replicates >= 5, got {replicates}")
    if len(t_gamma_values) < 2:
        raise InputError("t_gamma_values needs at least 2 onsets")
    if list(t_gamma_values) != sorted(t_gamma_values):
        raise InputError("t_gamma_values must be sorted ascending")
    arms = [
        (P, ConsensusControl(gamma_sq=gamma_sq, t_gamma=int(t_gamma), max_rounds=max_rounds))
        for t_gamma in t_gamma_values
    ]
    estimates, _ = _stability_sweep(arms, task, model, config, n, replicates, pairs, mode, jobs)
    finals_arr = np.array([estimate.final for estimate in estimates])
    return ControlSweepResult(
        t_gammas=np.array(t_gamma_values, dtype=int),
        stability_final=finals_arr,
        stability_se=np.array([estimate.final_se for estimate in estimates]),
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

    Every kind is one arm of one stability sweep: all topologies share the
    replicate seeds, hence the same shards, perturbations and sampling
    sequences, and each replicate group steps every kind as one stack. The
    gap is that of the final consensus model of each base trajectory,
    averaged per replicate and computed inside the group. Each row keeps its
    per-replicate final stability and gap, from which paired differences
    between kinds follow. With keep_traces, each estimate retains its coupled
    traces for downstream bound evaluation.

    Raises:
        InputError: a kind is listed twice.
    """
    repeated = sorted({kind.value for kind in kinds if kinds.count(kind) > 1})
    if repeated:
        raise InputError(f"kinds must be distinct; repeated: {', '.join(repeated)}")
    matrices = [build_gossip_matrix(kind, m) for kind in kinds]
    estimates, gaps = _stability_sweep(
        [(P, None) for P in matrices], task, model, config, n, replicates, pairs, mode, jobs,
        keep_traces, gaps=True, holdout=_draw_holdout(task, mc_draws, config.seed),
    )
    rows = []
    for kind, P, estimate, kind_gaps in zip(kinds, matrices, estimates, gaps):
        gap_mean, gap_se = mean_and_se(kind_gaps)
        rows.append(ComparisonRow(
            kind=kind,
            m=m,
            lam=eigenvalues_symmetric(P).lam,
            stability_final=estimate.final,
            stability_se=estimate.final_se,
            gengap_final=float(gap_mean),
            gengap_se=float(gap_se),
            stability_replicates=estimate.replicate_means[:, -1].copy(),
            gengap_replicates=kind_gaps,
        ))
    return ComparisonResult(rows=rows, estimates=dict(zip(kinds, estimates)))
