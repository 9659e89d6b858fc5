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

One loop serves single and coupled runs. It draws the sample indices of all
T steps up front as one (T, m) block of the run's stream (the same indices as
T draws of m), and steps a stack W (s, m, d): s = 1 for a single run, s = 2
for a coupled pair, whose sides share one gossip product and gradient call.
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

    @property
    def snapshot_iterations(self) -> np.ndarray:
        """Completed-step counts a run logs: every cadence steps, and the last."""
        logged = np.arange(0, self.iterations + 1, self.cadence)
        if logged[-1] != self.iterations:
            logged = np.append(logged, self.iterations)
        return logged


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
    task: SyntheticTask, n: int, m: int, mode: PerturbationMode, seed: int
) -> Perturbation:
    """Draw a random perturbation: position (k, i) and fresh replacement samples.

    Synchronized mode replaces index i on every worker, each with its own fresh
    draw; single-worker mode replaces index i on one worker only.
    """
    rng = np.random.default_rng(seed)
    i = int(rng.integers(n))
    if mode is PerturbationMode.SYNCHRONIZED:
        workers = np.arange(m)
    else:
        workers = np.array([int(rng.integers(m))])
    xs, ys = draw_dataset_arrays(task, len(workers), rng)
    return Perturbation(
        mode=mode, index=i, workers=workers, replacement_xs=xs, replacement_ys=ys
    )


def apply_perturbation(shards: Shards, perturbation: Perturbation) -> Shards:
    """Neighboring shard set: shards with the perturbed positions replaced."""
    neighbor = Shards(xs=shards.xs.copy(), ys=shards.ys.copy())
    _replace_samples(neighbor.xs, neighbor.ys, perturbation)
    return neighbor


def _replace_samples(xs: np.ndarray, ys: np.ndarray, perturbation: Perturbation) -> None:
    """Write the perturbation's replacement samples into shard arrays in place."""
    if not 0 <= perturbation.index < xs.shape[1]:
        raise InputError(
            f"perturbation index {perturbation.index} outside shard size {xs.shape[1]}"
        )
    xs[perturbation.workers, perturbation.index] = perturbation.replacement_xs
    ys[perturbation.workers, perturbation.index] = perturbation.replacement_ys


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
    X: np.ndarray,
    Y: np.ndarray,
    eta_t: float,
    model: LossModel,
) -> np.ndarray:
    """One update of a stack of runs W (..., m, d): gossip with P, then gradient steps.

    X (..., m, d_x) and Y (..., m) hold the sample each worker of each run
    uses at this step; the gradient is evaluated at the pre-communication
    model w_k.
    """
    if W.shape[-2] != P.m or X.shape[:-1] != W.shape[:-1] or Y.shape != W.shape[:-1]:
        raise InputError("worker counts of W, P and the drawn samples disagree")
    grads = loss_gradients(
        model, W.reshape(-1, W.shape[-1]), X.reshape(-1, X.shape[-1]), Y.reshape(-1)
    )
    return P.entries @ W - eta_t * grads.reshape(W.shape)


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


def run_dsgd(
    P: GossipMatrix,
    shards: Shards,
    model: LossModel,
    config: TrainConfig,
    index_sequence: np.ndarray | None = None,
    control: ConsensusControl | None = None,
) -> RunTrace:
    """Run a full trajectory from the all-zeros initialization.

    Per-worker sample indices come from index_sequence (iterations, m) when
    given (exhaustive enumeration support), else from one such block drawn up
    front from the run's seeded stream (equal to one draw of m per step). With
    control set, every step after t_gamma is followed by extra gossip rounds
    keeping the consensus distance at most gamma_sq. Deterministic in (inputs, seed).

    Raises:
        InputError: control.t_gamma lies past the run length, or
            index_sequence has the wrong shape or an index outside the shards.
        NumericalError: the run diverged (non-finite consensus distance).
    """
    traces, _, _ = _run_pair(P, shards, model, config, None, index_sequence, control)
    return traces[0]


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
    traces, sq_diffs, W = _run_pair(
        P, shards, model, config, perturbation, index_sequence, control
    )
    return CoupledTrace(
        base=traces[0], perturbed=traces[1], sq_diffs=sq_diffs, final_diffs=W[0] - W[1]
    )


def _run_pair(
    P: GossipMatrix,
    shards: Shards,
    model: LossModel,
    config: TrainConfig,
    perturbation: Perturbation | None,
    index_sequence: np.ndarray | None,
    control: ConsensusControl | None,
) -> tuple[list[RunTrace], np.ndarray | None, np.ndarray]:
    """The trajectory loop: steps S, and its neighbour when coupled, as one stack.

    Returns one trace per side, the per-worker squared differences between
    the sides at each snapshot (None for a single run), and the final stack.
    """
    m, n = shards.m, shards.n
    total = config.iterations
    if P.m != m:
        raise InputError(f"gossip matrix size {P.m} does not match {m} shards")
    if control is not None and control.t_gamma > total:
        raise InputError(f"t_gamma must lie in [0, {total}], got {control.t_gamma}")
    if index_sequence is None:
        index_sequence = np.random.default_rng(config.seed).integers(0, n, size=(total, m))
    index_sequence = np.asarray(index_sequence)
    if index_sequence.shape != (total, m):
        raise InputError("index_sequence must have shape (iterations, m)")
    if total and (index_sequence.min() < 0 or index_sequence.max() >= n):
        raise InputError("index_sequence entries outside shard size")

    if perturbation is None:
        xs, ys = shards.xs[None], shards.ys[None]
    else:
        xs, ys = np.stack([shards.xs, shards.xs]), np.stack([shards.ys, shards.ys])
        _replace_samples(xs[1], ys[1], perturbation)
    sides = xs.shape[0]
    logged = config.snapshot_iterations
    recorder = _TraceRecorder(model, xs, ys, logged, config.seed)
    W = np.zeros((sides, m, model.dim(shards.d_x)))
    extra_rounds = [0] * sides
    workers = np.arange(m)
    recorder.record(0, W)
    for slot in range(1, len(logged)):
        for t in range(logged[slot - 1], logged[slot]):
            zeta = index_sequence[t]
            eta_t = config.rate.at(t, total)
            W = dsgd_step(W, P, xs[:, workers, zeta], ys[:, workers, zeta], eta_t, model)
            if control is not None and t + 1 > control.t_gamma:
                # Round counts depend on each side's data, so control acts per side.
                for side in range(sides):
                    W[side], used = consensus_control_step(
                        W[side], P, control.gamma_sq, control.max_rounds
                    )
                    extra_rounds[side] += used
        recorder.record(slot, W)
    return recorder.finish(W, extra_rounds), recorder.sq_diffs, W


class _TraceRecorder:
    """Snapshot rows of every side of a stacked run, at the logged iterations.

    Raises NumericalError at the first snapshot whose consensus distance is
    not finite: a non-finite W stays non-finite under W' = P W - eta G, so a
    divergent run is always caught by the final snapshot at the latest.
    """

    def __init__(
        self, model: LossModel, xs: np.ndarray, ys: np.ndarray, logged: np.ndarray, seed: int
    ):
        sides, m, n, d_x = xs.shape
        self.model, self.logged, self.seed = model, logged, seed
        # Every side's shards as one set of s*m shards, for one worker_risks call.
        self.shards = Shards(xs=xs.reshape(sides * m, n, d_x), ys=ys.reshape(sides * m, n))
        self.consensus = np.zeros((sides, len(logged), model.dim(d_x)))
        self.consensus_dist = np.zeros((sides, len(logged)))
        self.risks = np.zeros((sides, len(logged), m))
        self.sq_diffs = np.zeros((len(logged), m)) if sides == 2 else None

    def record(self, slot: int, W: np.ndarray) -> None:
        for side, w in enumerate(W):
            self.consensus[side, slot] = consensus_model(w)
            # A diverging W overflows the sum of squares; that is reported below.
            with np.errstate(over="ignore", invalid="ignore"):
                distance = consensus_distance(w)
            if not np.isfinite(distance):
                raise NumericalError(
                    f"run with seed {self.seed} diverged: consensus distance is "
                    f"{distance} at step {self.logged[slot]}"
                )
            self.consensus_dist[side, slot] = distance
        risks = worker_risks(self.model, W.reshape(-1, W.shape[-1]), self.shards)
        self.risks[:, slot] = risks.reshape(W.shape[:2])
        if self.sq_diffs is not None:
            self.sq_diffs[slot] = np.sum((W[0] - W[1]) ** 2, axis=1)

    def finish(self, W: np.ndarray, extra_rounds: list[int]) -> list[RunTrace]:
        return [
            RunTrace(
                iterations=np.array(self.logged),
                consensus=self.consensus[side],
                consensus_dist=self.consensus_dist[side],
                risks=self.risks[side],
                mean_risk=self.risks[side].mean(axis=1),
                final_weights=W[side].copy(),
                extra_gossip_rounds=extra_rounds[side],
            )
            for side in range(len(W))
        ]
