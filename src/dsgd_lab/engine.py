"""Decentralized SGD dynamics: gossip-then-step updates and coupled runs.

One iteration maps the stacked worker models W (m, d) to

    W' = P W - eta_t * G(W)

where row k of G is the gradient of worker k's loss at one uniformly drawn
sample from its own shard, evaluated at the pre-communication model w_k
(adapt-while-communicate: the gradient argument is w_k, not the mixed model).

Iteration indexing: t = 0 is the all-zeros initialization and the trace entry
at iteration t describes the models after t update steps.

A coupled run drives two trajectories, on a shard set S and on a neighboring
set that differs in one sample per affected worker, with the same seed and
hence identical sample-index sequences; per-worker squared weight differences
are the raw material of the stability estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError, NumericalError
from .models import (
    LossModel,
    Shards,
    SyntheticTask,
    draw_dataset_arrays,
    loss_gradients,
    worker_risks,
)
from .topology import GossipMatrix

__all__ = [
    "ConstantRate",
    "StepDecayRate",
    "TrainConfig",
    "RunTrace",
    "PerturbationMode",
    "Perturbation",
    "CoupledTrace",
    "ConsensusControl",
    "draw_perturbation",
    "apply_perturbation",
    "consensus_model",
    "consensus_distance",
    "dsgd_step",
    "run_dsgd",
    "run_coupled",
    "consensus_control_step",
]


@dataclass(frozen=True)
class ConstantRate:
    """Fixed learning rate eta_t = eta."""

    eta: float

    def at(self, t: int, total: int) -> float:
        return self.eta

    @property
    def initial(self) -> float:
        return self.eta


@dataclass(frozen=True)
class StepDecayRate:
    """eta_0 divided by 10 once 2/5, and again once 4/5, of the run is done."""

    eta0: float

    def at(self, t: int, total: int) -> float:
        if t < (2 * total) // 5:
            return self.eta0
        if t < (4 * total) // 5:
            return self.eta0 / 10.0
        return self.eta0 / 100.0

    @property
    def initial(self) -> float:
        return self.eta0


Schedule = ConstantRate | StepDecayRate


@dataclass(frozen=True)
class TrainConfig:
    """Run length, learning-rate schedule, seed, and trace cadence."""

    iterations: int
    rate: Schedule
    seed: int
    snapshot_every: int | None = None

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise InputError(f"iteration count must be >= 0, got {self.iterations}")
        if self.rate.initial < 0:
            raise InputError("learning rate must be nonnegative")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise InputError("snapshot_every must be a positive integer")

    @property
    def cadence(self) -> int:
        # Default cadence bounds trace memory to ~200 snapshots.
        if self.snapshot_every is not None:
            return self.snapshot_every
        return max(1, self.iterations // 200)


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Logged quantities of one trajectory.

    iterations[j] is the number of completed steps at snapshot j; consensus[j]
    is the average model, consensus_dist[j] the mean squared deviation of the
    workers from it, and risks[j, k] worker k's empirical risk on its shard.
    """

    iterations: np.ndarray
    consensus: np.ndarray
    consensus_dist: np.ndarray
    risks: np.ndarray
    mean_risk: np.ndarray
    final_weights: np.ndarray
    extra_gossip_rounds: int = 0


class PerturbationMode(str, Enum):
    # Replace index i on every worker, or only on one worker.
    SYNCHRONIZED = "synchronized"
    SINGLE_WORKER = "single_worker"


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Replacement of the sample at one shard index by fresh draws.

    workers lists the affected workers; replacement_xs/(ys) hold one fresh
    sample per affected worker, aligned with that list.
    """

    mode: PerturbationMode
    index: int
    workers: np.ndarray
    replacement_xs: np.ndarray
    replacement_ys: np.ndarray


@dataclass(frozen=True, eq=False)
class CoupledTrace:
    """Two trajectories on neighboring shard sets under shared randomness.

    sq_diffs[j, k] is ||w_k - w~_k||^2 at snapshot j; final_diffs[k] is the
    per-coordinate difference vector of worker k at the final iteration.
    """

    base: RunTrace
    perturbed: RunTrace
    sq_diffs: np.ndarray
    final_diffs: np.ndarray


@dataclass(frozen=True)
class ConsensusControl:
    """Keep consensus distance below gamma_sq by extra gossip after step t_gamma."""

    gamma_sq: float
    t_gamma: int
    max_rounds: int = 200

    def __post_init__(self) -> None:
        if not self.gamma_sq > 0:
            raise InputError("gamma_sq must be positive")
        if self.t_gamma < 0:
            raise InputError("t_gamma must be >= 0")
        if self.max_rounds < 1:
            raise InputError("max_rounds must be >= 1")


def draw_perturbation(
    task: SyntheticTask,
    n: int,
    m: int,
    mode: PerturbationMode,
    seed: int,
    index: int | None = None,
    worker: int | None = None,
) -> Perturbation:
    """Draw a random perturbation: position (k, i) and fresh replacement samples.

    Synchronized mode replaces index i on every worker, each with its own fresh
    draw; single-worker mode replaces index i on one worker only. Position
    arguments override the random choice when given.
    """
    rng = np.random.default_rng(seed)
    i = int(rng.integers(n)) if index is None else index
    if not 0 <= i < n:
        raise InputError(f"perturbation index {i} outside shard size {n}")
    if mode is PerturbationMode.SYNCHRONIZED:
        workers = np.arange(m)
    else:
        k = int(rng.integers(m)) if worker is None else worker
        if not 0 <= k < m:
            raise InputError(f"perturbation worker {k} outside worker count {m}")
        workers = np.array([k])
    xs, ys = draw_dataset_arrays(task, len(workers), rng)
    return Perturbation(
        mode=mode, index=i, workers=workers, replacement_xs=xs, replacement_ys=ys
    )


def apply_perturbation(shards: Shards, perturbation: Perturbation) -> Shards:
    """Neighboring shard set: shards with the perturbed positions replaced."""
    if not 0 <= perturbation.index < shards.n:
        raise InputError(
            f"perturbation index {perturbation.index} outside shard size {shards.n}"
        )
    xs = shards.xs.copy()
    ys = shards.ys.copy()
    xs[perturbation.workers, perturbation.index] = perturbation.replacement_xs
    ys[perturbation.workers, perturbation.index] = perturbation.replacement_ys
    return Shards(xs=xs, ys=ys)


def consensus_model(W: np.ndarray) -> np.ndarray:
    """Average of the local models: column-wise mean of W."""
    return W.mean(axis=0)


def consensus_distance(W: np.ndarray) -> float:
    """Mean squared deviation of local models from the consensus model."""
    deviation = W - W.mean(axis=0, keepdims=True)
    return float(np.sum(deviation**2) / W.shape[0])


def dsgd_step(
    W: np.ndarray,
    P: GossipMatrix,
    shards: Shards,
    zeta: np.ndarray,
    eta_t: float,
    model: LossModel,
) -> np.ndarray:
    """One update: gossip with P, then per-worker gradient steps.

    zeta[k] selects the sample of shard k used by worker k; the gradient is
    evaluated at the pre-communication model w_k.
    """
    m = shards.m
    if W.shape[0] != m or P.m != m:
        raise InputError("worker counts of W, P and shards disagree")
    zeta = np.asarray(zeta)
    if zeta.shape != (m,) or zeta.min() < 0 or zeta.max() >= shards.n:
        raise InputError("zeta must hold one in-range sample index per worker")
    rows = np.arange(m)
    grads = loss_gradients(model, W, shards.xs[rows, zeta], shards.ys[rows, zeta])
    return P.entries @ W - eta_t * grads


def consensus_control_step(
    W: np.ndarray, P: GossipMatrix, gamma_sq: float, max_rounds: int
) -> tuple[np.ndarray, int]:
    """Extra pure-gossip rounds until consensus distance <= gamma_sq.

    Returns the (possibly unchanged) worker matrix and the rounds used. If the
    target is unreachable (disconnected components with disagreeing means), the
    loop reports max_rounds exhaustion instead of raising.
    """
    if not gamma_sq > 0:
        raise InputError("gamma_sq must be positive")
    rounds = 0
    while consensus_distance(W) > gamma_sq and rounds < max_rounds:
        W = P.entries @ W
        rounds += 1
    return W, rounds


def _snapshot_iterations(iterations: int, cadence: int) -> list[int]:
    logged = list(range(0, iterations + 1, cadence))
    if logged[-1] != iterations:
        logged.append(iterations)
    return logged


def run_dsgd(
    P: GossipMatrix,
    shards: Shards,
    model: LossModel,
    config: TrainConfig,
    index_sequence: np.ndarray | None = None,
    control: ConsensusControl | None = None,
) -> RunTrace:
    """Run a full trajectory from the all-zeros initialization.

    Per-worker sample indices are drawn uniformly from the run's seeded stream,
    or taken from index_sequence (iterations, m) when given (exhaustive
    enumeration support). With control set, every step after t_gamma is
    followed by extra gossip rounds keeping the consensus distance at or below
    gamma_sq. Deterministic in (inputs, seed).

    Raises:
        InputError: control.t_gamma lies past the run length.
        NumericalError: the run diverged (non-finite consensus distance).
    """
    trace, _ = _run_pair(P, shards, model, config, None, index_sequence, control)
    return trace


def run_coupled(
    P: GossipMatrix,
    shards: Shards,
    model: LossModel,
    config: TrainConfig,
    perturbation: Perturbation,
    index_sequence: np.ndarray | None = None,
    control: ConsensusControl | None = None,
) -> CoupledTrace:
    """Run on S and on the perturbed shards with identical sampling randomness.

    Both trajectories share the seed, hence the same zeta sequence on every
    worker; the trace records per-worker squared weight differences at each
    snapshot and the final per-coordinate differences.
    """
    base, coupled = _run_pair(
        P, shards, model, config, perturbation, index_sequence, control
    )
    assert coupled is not None
    perturbed, sq_diffs, final_diffs = coupled
    return CoupledTrace(
        base=base, perturbed=perturbed, sq_diffs=sq_diffs, final_diffs=final_diffs
    )


def _run_pair(
    P: GossipMatrix,
    shards: Shards,
    model: LossModel,
    config: TrainConfig,
    perturbation: Perturbation | None,
    index_sequence: np.ndarray | None,
    control: ConsensusControl | None,
) -> tuple[RunTrace, tuple[RunTrace, np.ndarray, np.ndarray] | None]:
    """Shared trajectory loop; drives one run, or two in lockstep when coupled."""
    m, n = shards.m, shards.n
    d = model.dim(shards.d_x)
    total = config.iterations
    if P.m != m:
        raise InputError(f"gossip matrix size {P.m} does not match {m} shards")
    if control is not None and control.t_gamma > total:
        raise InputError(f"t_gamma must lie in [0, {total}], got {control.t_gamma}")
    if index_sequence is not None:
        index_sequence = np.asarray(index_sequence)
        if index_sequence.shape != (total, m):
            raise InputError("index_sequence must have shape (iterations, m)")
        if total and (index_sequence.min() < 0 or index_sequence.max() >= n):
            raise InputError("index_sequence entries outside shard size")
    rng = np.random.default_rng(config.seed)
    logged = _snapshot_iterations(total, config.cadence)
    log_at = set(logged)

    shards2 = apply_perturbation(shards, perturbation) if perturbation else None
    W = np.zeros((m, d))
    W2 = np.zeros((m, d)) if shards2 is not None else None

    recorder = _TraceRecorder(model, shards, len(logged), m, d, config.seed)
    recorder2 = (
        _TraceRecorder(model, shards2, len(logged), m, d, config.seed)
        if shards2 is not None
        else None
    )
    sq_diffs = np.zeros((len(logged), m)) if shards2 is not None else None

    def log(slot: int, t: int) -> None:
        recorder.record(slot, t, W)
        if recorder2 is not None:
            recorder2.record(slot, t, W2)
            sq_diffs[slot] = np.sum((W - W2) ** 2, axis=1)

    slot = 0
    log(slot, 0)
    slot += 1
    extra_rounds = 0
    extra_rounds2 = 0
    for t in range(total):
        zeta = (
            index_sequence[t]
            if index_sequence is not None
            else rng.integers(0, n, size=m)
        )
        eta_t = config.rate.at(t, total)
        W = dsgd_step(W, P, shards, zeta, eta_t, model)
        if control is not None and t + 1 > control.t_gamma:
            W, used = consensus_control_step(W, P, control.gamma_sq, control.max_rounds)
            extra_rounds += used
        if W2 is not None:
            W2 = dsgd_step(W2, P, shards2, zeta, eta_t, model)
            if control is not None and t + 1 > control.t_gamma:
                W2, used2 = consensus_control_step(
                    W2, P, control.gamma_sq, control.max_rounds
                )
                extra_rounds2 += used2
        if t + 1 in log_at:
            log(slot, t + 1)
            slot += 1

    base = recorder.finish(W, extra_rounds)
    if recorder2 is None:
        return base, None
    perturbed = recorder2.finish(W2, extra_rounds2)
    return base, (perturbed, sq_diffs, (W - W2).copy())


class _TraceRecorder:
    """Accumulates snapshot rows for one trajectory.

    Raises NumericalError at the first snapshot whose consensus distance is
    not finite: a non-finite W stays non-finite under W' = P W - eta G, so a
    divergent run is always caught by the final snapshot at the latest.
    """

    def __init__(
        self, model: LossModel, shards: Shards, slots: int, m: int, d: int, seed: int
    ):
        self.model = model
        self.shards = shards
        self.seed = seed
        self.iterations = np.zeros(slots, dtype=int)
        self.consensus = np.zeros((slots, d))
        self.consensus_dist = np.zeros(slots)
        self.risks = np.zeros((slots, m))
        self.mean_risk = np.zeros(slots)

    def record(self, slot: int, t: int, W: np.ndarray) -> None:
        self.iterations[slot] = t
        self.consensus[slot] = consensus_model(W)
        # A diverging W overflows the sum of squares; that is reported below.
        with np.errstate(over="ignore", invalid="ignore"):
            distance = consensus_distance(W)
        if not np.isfinite(distance):
            raise NumericalError(
                f"run with seed {self.seed} diverged: consensus distance is "
                f"{distance} at step {t}"
            )
        self.consensus_dist[slot] = distance
        risks = worker_risks(self.model, W, self.shards)
        self.risks[slot] = risks
        self.mean_risk[slot] = risks.mean()

    def finish(self, W: np.ndarray, extra_rounds: int) -> RunTrace:
        return RunTrace(
            iterations=self.iterations,
            consensus=self.consensus,
            consensus_dist=self.consensus_dist,
            risks=self.risks,
            mean_risk=self.mean_risk,
            final_weights=W.copy(),
            extra_gossip_rounds=extra_rounds,
        )
