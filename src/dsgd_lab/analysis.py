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
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .engine import (
    ConsensusControl,
    ConstantRate,
    PerturbationMode,
    Schedule,
    TrainConfig,
    Traces,
    draw_perturbation,
    dsgd_step,
    run_coupled,
    run_dsgd,
)
from .errors import InputError, NumericalError
from .models import (
    Holdout,
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
from .topology import _worker_mean

__all__ = [
    "Estimate",
    "BoundInputs",
    "GaussianityReport",
    "ComparisonRow",
    "mean_and_se",
    "replicate_data_seed",
    "estimate_stability",
    "stability_exhaustive",
    "estimate_sigma_mu",
    "estimate_epsilon_s",
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
class Estimate:
    """A measured curve over replicate datasets, per logged iteration.

    replicates[r, j] is replicate r's value at iterations[j]: for stability
    the mean over its pairs of (1/m) sum_k ||w_k - w~_k||^2, for the gap its
    runs' mean consensus-model gap. mean and se are mean_and_se(replicates):
    the mean and standard error over replicates. Estimates run on the same
    replicate data can be compared replicate by replicate. A stability
    estimate can also hold, each if asked for, per run of its replicates x
    pairs (replicate-major): final_diffs (runs, m, d), the final models of
    side 0 minus side 1, and risks (runs, S, m), each base-side worker's
    risk per snapshot; else None. extra_gossip_rounds and control_cap_hits
    total the control rounds and cap hits over every trajectory, both sides
    of every pair.
    """

    iterations: np.ndarray
    replicates: np.ndarray
    final_diffs: np.ndarray | None = None
    risks: np.ndarray | None = None
    extra_gossip_rounds: int = 0
    control_cap_hits: int = 0
    mean: np.ndarray = field(init=False)
    se: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mean, se = mean_and_se(self.replicates)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "se", se)

    @property
    def final(self) -> float:
        return float(self.mean[-1])

    @property
    def final_se(self) -> float:
        return float(self.se[-1])


def replicate_data_seed(seed: int, replicate: int) -> int:
    """The seed of replicate `replicate`'s shards: every estimator of a base
    seed draws replicate r's data from it, so their replicates pair up."""
    return derive_seed(seed, "stability-data", replicate)


def _make_shards(task: SyntheticTask, n: int, m: int, seed: int) -> Shards:
    xs, ys = draw_dataset_arrays(task, n * m, np.random.default_rng(seed))
    return Shards(xs=xs.reshape(m, n, task.d_x), ys=ys.reshape(m, n))


def _group_shards(task: SyntheticTask, n: int, m: int, seeds: list[int]) -> list[Shards]:
    """_make_shards of each seed, as views of one (replicates, m, n, d_x) array.

    The engine steps shards that tile one array without copying them, so a
    group's runs, single or coupled, hold their data once.
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
    holdout: Holdout | None,
    risks: bool,
    final_diffs: bool,
) -> dict[str, np.ndarray]:
    """Replicates `group` under every arm (P, control), on data drawn once per replicate.

    Each replicate draws fresh shards and `pairs` sampled perturbations once;
    every arm x run x side of the group is stepped in one stack. The group's
    Traces never leave it: returns them reduced to named arrays indexed
    [arm, replicate or run, ...], run r * pairs + j being pair j of
    replicate r:
    - stability (A, G, S): each replicate's mean sq_diffs over its pairs;
    - final_diffs (A, G * pairs, m, d), with `final_diffs`: final models,
      side 0 minus side 1;
    - counters (A, G, 2): control rounds and cap hits, both sides summed;
    - gap (A, G), with `gaps`: the mean final consensus-model gap, every
      arm's and replicate's final models scored in one pass over `holdout`;
    - risks (A, G * pairs, S, m), with `risks`: base-side worker risks.
    """
    m = arms[0][0].m
    shards = _group_shards(task, n, m, [replicate_data_seed(config.seed, r) for r in group])
    runs = [(r, j) for r in group for j in range(pairs)]
    traces = run_coupled(
        arms,
        [shards[r - group.start] for r, _ in runs],
        model,
        config,
        [
            draw_perturbation(task, n, m, mode, derive_seed(config.seed, "stability-pert", r, j))
            for r, j in runs
        ],
        [derive_seed(config.seed, "stability-run", r, j) for r, j in runs],
        risks=risks,
    )
    per_replicate = (len(arms), len(group), pairs, -1)
    counts = np.stack([traces.rounds, traces.cap_hits], axis=-1)  # (A, K, 2 sides, 2)
    reduced = {
        "stability": traces.sq_diffs.reshape(per_replicate).mean(axis=2),
        "counters": counts.reshape(*per_replicate, 2).sum(axis=(2, 3)),
    }
    if final_diffs:
        reduced["final_diffs"] = traces.final[:, :, 0] - traces.final[:, :, 1]
    if gaps:
        finals = _worker_mean(traces.final[:, :, 0]).reshape(len(arms) * len(group), pairs, -1)
        gap = _consensus_gaps(finals, task, model, shards * len(arms), holdout)
        reduced["gap"] = gap.mean(axis=-1).reshape(len(arms), len(group))
    if risks:
        reduced["risks"] = traces.risks
    return reduced


def _replicate_groups(replicates: int, jobs: int) -> list[range]:
    """Replicates 0..replicates-1 split into min(jobs, replicates) contiguous groups."""
    groups = max(1, min(jobs, replicates))
    return [
        range(replicates * g // groups, replicates * (g + 1) // groups) for g in range(groups)
    ]


def _parallel_map(fn, items: list, jobs: int) -> list:
    """Order-preserving map, optionally fanned out over worker processes.

    fn is pickled with each item: pass the shared arguments as a partial.
    Every item runs to its end, and a divergence is raised as one stack of
    all the items raises it (_run_stack): the earliest step's, the lowest
    item's on a tie. Other errors propagate in item order.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here: the process pool's modules take about 25 ms to load,
    # and only a map over more than one job needs them.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = [pool.submit(fn, item) for item in items]
    results, diverged = [], []
    for future in futures:
        try:
            results.append(future.result())
        except NumericalError as error:
            diverged.append(error)
    if diverged:
        raise min(diverged, key=lambda error: error.step)
    return results


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
    gaps: bool = False,
    holdout: Holdout | None = None,
    risks: bool = False,
    final_diffs: bool = False,
) -> tuple[list[Estimate], list[Estimate] | None]:
    """One stability estimate per arm (P, control), every arm on the same replicate data.

    The replicates are split into `jobs` contiguous groups, mapped once over
    one pool; each group draws its replicates' data once and steps every
    arm x run x side as one stack (_stability_group), whose named arrays
    are joined here. The estimates hold final_diffs and risks only when
    asked for. With `gaps`, also returns each arm's final consensus-model
    gap: an estimate of the last snapshot alone, replicates (replicates, 1).

    Raises:
        InputError: no arms, fewer than 2 replicates or fewer than 1 pair.
    """
    if not arms:
        raise InputError("a stability sweep needs at least one arm")
    if replicates < 2:
        raise InputError(f"replicates must be >= 2, got {replicates}")
    if pairs < 1:
        raise InputError(f"pairs must be >= 1, got {pairs}")
    group_fn = partial(
        _stability_group, arms=arms, task=task, model=model, config=config, n=n,
        pairs=pairs, mode=mode, gaps=gaps, holdout=holdout, risks=risks,
        final_diffs=final_diffs,
    )
    results = _parallel_map(group_fn, _replicate_groups(replicates, jobs), jobs)
    joined = {
        name: results[0][name] if len(results) == 1
        else np.concatenate([group[name] for group in results], axis=1)
        for name in results[0]
    }
    counters = joined["counters"].sum(axis=1)
    iterations = config.snapshot_iterations
    estimates = [
        Estimate(
            iterations,
            joined["stability"][arm],
            final_diffs=joined["final_diffs"][arm] if final_diffs else None,
            risks=joined["risks"][arm] if risks else None,
            extra_gossip_rounds=int(counters[arm, 0]),
            control_cap_hits=int(counters[arm, 1]),
        )
        for arm in range(len(arms))
    ]
    if not gaps:
        return estimates, None
    return estimates, [Estimate(iterations[-1:], arm_gaps[:, None]) for arm_gaps in joined["gap"]]


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
    risks: bool = False,
    final_diffs: bool = False,
) -> Estimate:
    """Estimate the on-average stability curve of the configured dynamics.

    Each of `replicates` replicates draws fresh shards (n samples per worker),
    samples `pairs` perturbations of the given mode, and averages the coupled
    squared weight differences into its curve; the standard error is taken
    over the replicate curves. The replicates are split into `jobs`
    contiguous groups, one per worker process, and each group's
    2 x replicates x pairs trajectories are stepped as one stack. Replicate
    and run seeds derive from config.seed with fixed labels, so results are
    independent of `jobs`, and two estimates with the same base seed see
    identical data across topologies. The one-arm, uncontrolled case of the
    sweep that topology_comparison and consensus_control_sweep run. With
    risks, the estimate holds each base-side worker's empirical risk per
    snapshot, which estimate_epsilon_s reads; with final_diffs, each run's
    final difference vectors, which estimate_sigma_mu and gaussianity_report
    read.

    Raises:
        InputError: fewer than 2 replicates or 1 pair.
    """
    estimates, _ = _stability_sweep(
        [(P, None)], task, model, config, n, replicates, pairs, mode, jobs,
        risks=risks, final_diffs=final_diffs,
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
    position steps all its sequences, both sides, as one one-arm stack
    (1, S, 2, m, d) through dsgd_step. Only feasible for tiny systems; S is
    guarded by EXHAUSTIVE_SEQUENCE_LIMIT.
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
        W = np.zeros((1, count, 2, m, model.dim(shards.d_x)))
        for t in range(total):
            rows = (side, worker, sequences[:, :, t])  # (S, 2, m)
            W = dsgd_step(W, [P], xs[rows], ys[rows], config.rate.at(t, total), model)
            if t + 1 in slots:
                pair_diffs = W[0, :, 0] - W[0, :, 1]
                curve[slots[t + 1]] += np.sum(pair_diffs**2, axis=-1).mean(axis=1).sum()
    return curve / (len(positions) * count)


def estimate_sigma_mu(final_diffs: np.ndarray) -> tuple[float, float]:
    """Envelope moments of the final per-worker weight differences.

    final_diffs (..., m, d) holds one run's final difference vectors per
    leading index, as Estimate.final_diffs does; they are pooled per worker
    across runs. Returns (sigma_sq, mu_sq) where sigma_sq is the largest
    per-worker mean per-coordinate variance and mu_sq the largest per-worker
    squared mean norm divided by d. Max-over-workers envelopes keep the
    values usable as the bound evaluators' uniform constants.
    """
    diffs = np.reshape(final_diffs, (-1, *np.shape(final_diffs)[-2:]))  # (R, m, d)
    if len(diffs) < 2:
        raise InputError("at least 2 coupled runs are required")
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


def estimate_epsilon_s(risks: np.ndarray | None, alpha: float) -> float:
    """Upper envelope of the exponentiated averaged empirical risk.

    risks (..., S, m) holds per-worker risks at S snapshots per leading
    index, as Estimate.risks does. Returns the max over runs and snapshots of
    (1/m) sum_k F_k^(2 alpha / (1 + alpha)). The convention 0^0 = 1
    applies at alpha = 0, keeping the envelope an upper bound.

    Raises:
        InputError: no risks (only run_coupled with risks set records them).
    """
    if risks is None:
        raise InputError(
            "no recorded risks: only the base side of run_coupled(risks=True) records them"
        )
    exponent = 2.0 * alpha / (1.0 + alpha)
    return float(np.max(np.mean(risks**exponent, axis=-1)))


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

    def with_p(self, p: float) -> BoundInputs:
        """These inputs at splitting parameter p, without repeating their validity warning."""
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "initial learning rate", UserWarning)
            return replace(self, p=p)

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


def _checked_risk_curve(risk_curve: np.ndarray, t_max: int) -> np.ndarray:
    if t_max < 0:
        raise InputError("t_max must be >= 0")
    risk_curve = np.asarray(risk_curve, dtype=float)
    if risk_curve.ndim != 1 or risk_curve.shape[0] < t_max:
        raise InputError(f"risk_curve must cover steps 0..{t_max - 1}")
    if np.any(risk_curve < 0):
        raise InputError("risk_curve entries must be nonnegative")
    return risk_curve


def stability_bound_curve(
    inputs: BoundInputs, risk_curve: np.ndarray, t_max: int
) -> np.ndarray:
    """Finite-horizon stability bound, entry t bounding the iterate after t steps.

    risk_curve[tau] is the exponentiated averaged empirical risk of the
    pre-update iterate at step tau and must cover 0..t_max-1; a constant
    epsilon_s envelope is the conservative choice.
    """
    risk_curve = _checked_risk_curve(risk_curve, t_max)
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
    """The p in [1e-6, 100] that minimizes stability_bound_curve's final entry.

    p enters each step's term as (p/n) K in the topology term (1 + p/n + ...) K
    and as (2/n)(1/p) c^2 eta_t^2 risk_curve[t] in the risk term. Discounted by
    C as the recursion discounts them, these sum to x p and y / p, so the final
    bound a + x p + y / p is least at p = sqrt(y / x), clipped to the interval
    (100 when x = 0).
    """
    risks = _checked_risk_curve(risk_curve, t_max).tolist()
    C = inputs.contraction
    slope = _topology_term(inputs, 0.0) / (inputs.n + inputs.p)  # (1 + p/n) K at eta 0: K / n
    risk_coeff = 2.0 / inputs.n * inputs.c_alpha**2
    x = y = 0.0
    for t in range(t_max):
        x = C * x + slope
        y = C * y + risk_coeff * inputs.rate.at(t, t_max) ** 2 * risks[t]
    if not (math.isfinite(x) and math.isfinite(y)):
        raise _overflow("stability bound", C, t_max)
    return min(max(math.sqrt(y / x), 1e-6), 100.0) if x > 0 else 100.0


# ---------------------------------------------------------------------------
# Generalization gap and distribution diagnostics
# ---------------------------------------------------------------------------


def generalization_gap(
    traces: Traces,
    task: SyntheticTask,
    model: LossModel,
    shards: Shards,
    mc_draws: int = 100_000,
    seed: int = 0,
) -> Estimate:
    """Gap curve F(consensus) - F_S(consensus) of the base side of every arm
    and run of traces, each trained on `shards`.

    Every (run, snapshot) consensus model is evaluated in one stack by
    _consensus_gaps. Without a closed-form population risk, F is estimated
    on the mc_draws-sample holdout of seed (_draw_holdout), streamed in one
    pass: its memory is one chunk at any mc_draws, its time linear in it.
    The estimate's replicates are the runs' gap curves, arm-major.

    Raises:
        InputError: traces without consensus models (run_coupled's, not run_dsgd's).
    """
    if traces.consensus is None:
        raise InputError("generalization_gap needs traces with consensus models, from run_dsgd")
    stack = traces.consensus[:, :, 0].reshape(-1, traces.consensus.shape[-1])
    gaps = _consensus_gaps(stack[None], task, model, [shards], _draw_holdout(task, mc_draws, seed))
    return Estimate(traces.iterations.copy(), gaps.reshape(-1, len(traces.iterations)))


def _draw_holdout(task: SyntheticTask, mc_draws: int, seed: int) -> Holdout | None:
    """The fixed Monte-Carlo holdout of a gap estimate; None where F has a closed form.

    The holdout is draw_dataset_arrays(task, mc_draws,
    default_rng(derive_seed(seed, "gengap-holdout"))), returned as a small
    picklable Holdout handle rather than as arrays: finding its label state
    draws the features once, chunk by chunk, and each scoring pass draws
    them again, one chunk at a time. Its memory is one chunk at any
    mc_draws; its time grows linearly with mc_draws.
    """
    if task.family is ModelFamily.LINEAR_REGRESSION:
        return None
    return Holdout.locate(task, mc_draws, derive_seed(seed, "gengap-holdout"))


def _consensus_gaps(
    W: np.ndarray,
    task: SyntheticTask,
    model: LossModel,
    shards: list[Shards],
    holdout: Holdout | None,
) -> np.ndarray:
    """F(w) - F_S(w) (K, S) for each model of the stacks W (K, S, d), W[k] trained on shards[k].

    The population risk uses the closed form for linear regression and
    otherwise the mean loss on the holdout from _draw_holdout, one pass over
    its chunks for all the stacks; the empirical risk is the mean loss over
    the stack's full training set.
    """
    if task.family is ModelFamily.LINEAR_REGRESSION:
        gaps = population_risk(task, W)
    else:
        empty = np.empty((0, task.d_x)), np.empty(0)
        gaps = dataset_risk(model, W, *empty, holdout.chunks())
    for gap, stack, data in zip(gaps, W, shards):
        gap -= dataset_risk(model, stack, *data.flat())
    return gaps


def _gengap_group(
    group: range,
    *,
    P: GossipMatrix,
    task: SyntheticTask,
    model: LossModel,
    config: TrainConfig,
    n: int,
    holdout: Holdout | None,
) -> np.ndarray:
    """Replicates `group`: fresh shards and one run each, stepped as one stack.

    Returns the replicates' gap curves (G, snapshots); every replicate's
    snapshot stack is scored in one pass over the holdout.
    """
    shards = _group_shards(task, n, P.m, [replicate_data_seed(config.seed, r) for r in group])
    seeds = [derive_seed(config.seed, "gengap-run", r) for r in group]
    traces = run_dsgd([(P, None)], shards, model, config, seeds)
    return _consensus_gaps(traces.consensus[0, :, 0], task, model, shards, holdout)


def replicated_generalization_gap(
    P: GossipMatrix,
    task: SyntheticTask,
    model: LossModel,
    config: TrainConfig,
    n: int,
    replicates: int,
    jobs: int = 1,
    mc_draws: int = 100_000,
) -> Estimate:
    """Gap curve over replicate datasets, each with its own run.

    The estimate's replicates are the replicates' gap curves, (replicates,
    snapshots). Data seeds match estimate_stability's (replicate_data_seed),
    so gap and stability replicates see identical shards for a given base
    seed. As there, the replicates' runs are stepped as one stack per
    contiguous group, one group per job; every replicate is scored on one
    holdout, located once per call and streamed once per group.
    """
    if replicates < 2:
        raise InputError(f"replicates must be >= 2, got {replicates}")
    group_fn = partial(
        _gengap_group, P=P, task=task, model=model, config=config, n=n,
        holdout=_draw_holdout(task, mc_draws, config.seed),
    )
    groups = _parallel_map(group_fn, _replicate_groups(replicates, jobs), jobs)
    return Estimate(config.snapshot_iterations, np.concatenate(groups))


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
    final_diffs: np.ndarray,
    skew_tol: float = 0.5,
    kurt_tol: float = 1.0,
    bins: int = 50,
) -> GaussianityReport:
    """Moment-based normality verdict for final weight differences.

    Pools every coordinate of final_diffs (..., m, d), as Estimate.final_diffs
    holds them: every worker's final difference vector of every run; passes
    when |skewness| <= skew_tol and |excess kurtosis| <= kurt_tol. All-zero
    differences yield a degenerate report instead of a verdict.
    """
    pool = np.reshape(final_diffs, -1)
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
    """1-based ranks, tied values sharing the mean of their positions.

    A stable argsort, not np.unique: np.unique imports numpy.ma, 0.4 MB of
    peak RSS. Each tie group's rank, (first + last) / 2 of its 1-based
    positions, is exact.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


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
) -> list[Estimate]:
    """The stability estimate under each control onset t_gamma, in input order.

    Both coupled runs apply consensus control (distance kept at or below
    gamma_sq) from step t_gamma on. Every onset is one arm of one stability
    sweep: the onsets share the replicate data, making the sweep a paired
    comparison, and each replicate group steps every onset as one stack.
    Each estimate counts its onset's control rounds and cap hits.
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
    return estimates


@dataclass(frozen=True, eq=False)
class ComparisonRow:
    """One topology's eigenvalue envelope, stability estimate and final gap.

    gap is an estimate of the last snapshot alone: each replicate's mean
    final consensus-model gap over its pairs, replicates (replicates, 1).
    Rows of one comparison share their replicate data, so differences
    between two rows' replicates are paired.
    """

    kind: TopologyKind
    lam: float
    stability: Estimate
    gap: Estimate


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
    risks: bool = False,
) -> list[ComparisonRow]:
    """Stability and generalization gap per topology on identical data, one row per kind.

    Every kind is one arm of one stability sweep: all topologies share the
    replicate seeds, hence the same shards, perturbations and sampling
    sequences, and each replicate group steps every kind as one stack. The
    gap is that of the final consensus model of each base trajectory,
    averaged per replicate and computed inside the group. Both estimates of
    a row keep their replicates, from which paired differences between
    kinds follow. With risks, each stability estimate holds what bound
    evaluation reads: its base sides' per-worker risks and its runs' final
    differences. The gaps of every kind and replicate of a group are scored
    in one pass over the holdout, which is located once per call.

    Raises:
        InputError: no kinds, or a kind listed twice.
    """
    repeated = sorted({kind.value for kind in kinds if kinds.count(kind) > 1})
    if repeated:
        raise InputError(f"kinds must be distinct; repeated: {', '.join(repeated)}")
    matrices = [build_gossip_matrix(kind, m) for kind in kinds]
    estimates, gaps = _stability_sweep(
        [(P, None) for P in matrices], task, model, config, n, replicates, pairs, mode, jobs,
        gaps=True, holdout=_draw_holdout(task, mc_draws, config.seed), risks=risks,
        final_diffs=risks,
    )
    return [
        ComparisonRow(kind, eigenvalues_symmetric(P).lam, estimate, gap)
        for kind, P, estimate, gap in zip(kinds, matrices, estimates, gaps)
    ]
