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

One loop serves every run. It steps a stack W (A, K, s, m, d): A arms, each
with its own gossip matrix and consensus control, times K runs with s sides
each (s = 1 for single runs, s = 2 for coupled pairs). Every arm trains on
the same (K, s, m, n, d_x) stack of shards, so a step makes one gather of
sampled rows, one broadcast gossip product and one gradient call for the
whole stack; run_dsgd and run_coupled are its two entry points. Every
array a step writes (the next W, the gathered samples, the gradients) is a
buffer allocated once per stack; of the loop's stack-sized arrays only
consensus control's result is new. Only run_coupled with risks set
evaluates per-worker risks, once per arm and snapshot. Each run keeps its
own seed and index stream, shared by its sides and by every arm: its
indices are drawn from its own generator in blocks of at most
INDEX_DRAW_STEPS steps per snapshot interval, which are the same indices as
one draw of m per step.
Consensus control gossips a compacted stack of the runs whose arm's onset
has passed and whose distance is still above the target, so each side takes
the rounds it would take alone.
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
    "consensus_model",
    "consensus_distance",
    "dsgd_step",
    "run_dsgd",
    "run_coupled",
    "consensus_control_step",
]

# Most steps of sample indices drawn from a run's stream at once. A sparse
# snapshot cadence (criterion 9 logs only t = 0 and T) would otherwise draw
# a whole (T, m) block per run before the first step.
INDEX_DRAW_STEPS = 64


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
    workers from it, and risks[j, k] worker k's empirical risk on its shard;
    risks is None unless the run recorded them (run_coupled with risks set).
    """

    iterations: np.ndarray
    consensus: np.ndarray
    consensus_dist: np.ndarray
    risks: np.ndarray | None
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


def _replace_samples(xs: np.ndarray, ys: np.ndarray, perturbation: Perturbation) -> None:
    """Write the perturbation's replacement samples into shard arrays in place."""
    if not 0 <= perturbation.index < xs.shape[1]:
        raise InputError(
            f"perturbation index {perturbation.index} outside shard size {xs.shape[1]}"
        )
    xs[perturbation.workers, perturbation.index] = perturbation.replacement_xs
    ys[perturbation.workers, perturbation.index] = perturbation.replacement_ys


def consensus_model(W: np.ndarray) -> np.ndarray:
    """Average of the local models, per run of W (m, d) or of a stack W (..., m, d)."""
    return W.mean(axis=-2)


def consensus_distance(W: np.ndarray) -> float | np.ndarray:
    """Mean squared deviation of the local models from their average, per run of W (..., m, d)."""
    mean = W.mean(axis=-2, keepdims=True)
    return _distance_from_mean(W, mean, np.empty_like(W, dtype=mean.dtype))


def _distance_from_mean(
    W: np.ndarray, mean: np.ndarray, scratch: np.ndarray
) -> float | np.ndarray:
    """consensus_distance(W) from W's consensus mean (keepdims), squaring in scratch."""
    np.subtract(W, mean, out=scratch)
    np.square(scratch, out=scratch)
    return scratch.sum(axis=(-2, -1)) / W.shape[-2]


def _entries(P: GossipMatrix | np.ndarray) -> np.ndarray:
    return P.entries if isinstance(P, GossipMatrix) else P


def dsgd_step(
    W: np.ndarray,
    P: GossipMatrix | np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    eta_t: float,
    model: LossModel,
    out: np.ndarray | None = None,
    grads: np.ndarray | None = None,
) -> np.ndarray:
    """One update of a stack of runs W (..., m, d): gossip with P, then gradient steps.

    P is one gossip matrix, or a stack of entries (..., m, m) broadcast
    against the runs of W. X (..., m, d_x) and Y (..., m) hold the sample
    each worker of each run uses at this step; the gradient is evaluated at
    the pre-communication model w_k. The updated stack is written into out
    (W's shape, sharing no memory with W) and the (W[..., 0].size, d)
    gradients into grads (sharing no memory with W or out); each is allocated
    when not given, and the values are the same either way.
    """
    entries = _entries(P)
    m = entries.shape[-1]
    if W.shape[-2] != m or X.shape[:-1] != W.shape[:-1] or Y.shape != W.shape[:-1]:
        raise InputError("worker counts of W, P and the drawn samples disagree")
    if out is not None and (out.shape != W.shape or np.may_share_memory(out, W)):
        raise InputError(f"out must be an array of shape {W.shape} apart from W")
    if grads is not None and (
        np.may_share_memory(grads, W) or out is not None and np.may_share_memory(grads, out)
    ):
        raise InputError("grads must share no memory with W or out")
    grads = loss_gradients(
        model, W.reshape(-1, W.shape[-1]), X.reshape(-1, X.shape[-1]), Y.reshape(-1), out=grads
    )
    mixed = np.matmul(entries, W, out=out)
    grads *= eta_t
    mixed -= grads.reshape(W.shape)
    return mixed


def consensus_control_step(
    W: np.ndarray,
    P: GossipMatrix | np.ndarray,
    gamma_sq: float | np.ndarray,
    max_rounds: int,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Extra pure-gossip rounds until consensus distance <= gamma_sq.

    W is one run (m, d) or a stack of runs (..., m, d); P is one gossip
    matrix or a stack of entries (..., m, m), and gamma_sq one target or an
    array of targets, each broadcast against the runs (an infinite target
    leaves its runs untouched). Each run gossips only while its own distance
    exceeds its target, for at most max_rounds rounds, so it takes the rounds
    it would take alone: the rounds gossip a compacted stack of the runs
    still above target, which a run leaves once it reaches it. Returns the
    (possibly unchanged) models and the rounds the loop took, the most that
    any run used; with counts (shape W.shape[:-2]) given, each run's own
    rounds are added to it. If the target is unreachable (disconnected
    components with disagreeing means), a run reports max_rounds exhaustion
    instead of raising.
    """
    targets = np.broadcast_to(np.asarray(gamma_sq, dtype=float), W.shape[:-2]).reshape(-1)
    if not np.all(targets > 0):
        raise InputError("gamma_sq must be positive")
    runs = W.reshape(-1, *W.shape[-2:]).copy()
    used = np.zeros(len(runs), dtype=int)
    live = np.flatnonzero(consensus_distance(runs) > targets)
    block, goal = runs[live], targets[live]
    # One matrix gossips every run as it is; a stack gives each live run its own.
    mixing = _entries(P)
    stacked = mixing.ndim > 2
    if stacked:
        per_run = np.broadcast_to(mixing, (*W.shape[:-2], *mixing.shape[-2:]))
        mixing = per_run[np.unravel_index(live, W.shape[:-2])]
    rounds = 0
    while rounds < max_rounds and len(live):
        block = mixing @ block
        rounds += 1
        above = consensus_distance(block) > goal
        if not above.all():
            done = ~above
            runs[live[done]] = block[done]
            used[live[done]] = rounds
            live, block, goal = live[above], block[above], goal[above]
            if stacked:
                mixing = mixing[above]
    runs[live] = block
    used[live] = rounds
    if counts is not None:
        counts += used.reshape(counts.shape)
    return runs.reshape(W.shape), rounds


def run_dsgd(
    arms: list[tuple[GossipMatrix, ConsensusControl | None]],
    shards: list[Shards],
    model: LossModel,
    config: TrainConfig,
    seeds: list[int],
) -> list[list[RunTrace]]:
    """Runs from the all-zeros initialization, every arm and run stepped as one stack.

    Run k trains on shards[k] from seed seeds[k] under every arm (P, control);
    with control set, every step after t_gamma is followed by extra gossip
    rounds keeping the consensus distance at most gamma_sq. Returns one list
    of traces per arm; each trace equals that of a one-arm, one-run call, bit
    for bit. config's seed is not used. Single runs record no risks.

    Raises:
        InputError: a matrix does not fit the shards, a control onset lies
            past the run length, or the controlled arms differ in max_rounds.
        NumericalError: a run diverged; names the seed and step of the first
            run found.
    """
    return _run_stack(arms, shards, model, config, seeds, None, False)


def run_coupled(
    arms: list[tuple[GossipMatrix, ConsensusControl | None]],
    shards: list[Shards],
    model: LossModel,
    config: TrainConfig,
    perturbations: list[Perturbation],
    seeds: list[int],
    risks: bool = False,
) -> list[list[CoupledTrace]]:
    """Coupled runs of shards[k] against perturbations[k] under every arm, as one stack.

    Both sides of a pair share the seed, hence the same zeta sequence on
    every worker; each coupled trace records per-worker squared weight
    differences at each snapshot and the final per-coordinate differences.
    Returns one list of coupled traces per arm, as run_dsgd does; with risks
    set, both sides also record each worker's empirical risk at every
    snapshot, and a non-finite risk is a divergence.
    """
    return _run_stack(arms, shards, model, config, seeds, perturbations, risks)


def _run_stack(
    arms: list[tuple[GossipMatrix, ConsensusControl | None]],
    shards: list[Shards],
    model: LossModel,
    config: TrainConfig,
    seeds: list[int],
    perturbations: list[Perturbation] | None,
    risks: bool,
) -> list[list[RunTrace]] | list[list[CoupledTrace]]:
    """The trajectory loop: steps A arms of K runs of s sides as one stack W (A, K, s, m, d).

    With perturbations, run k's second side trains on shards[k] with
    perturbations[k] applied, and each run returns one CoupledTrace.
    """
    m, n, d_x = shards[0].xs.shape
    total = config.iterations
    caps = {control.max_rounds for _, control in arms if control is not None}
    for P, control in arms:
        if P.m != m:
            raise InputError(f"gossip matrix size {P.m} does not match {m} shards")
        if control is not None and control.t_gamma > total:
            raise InputError(f"t_gamma must lie in [0, {total}], got {control.t_gamma}")
    if len(caps) > 1:
        raise InputError("the controlled arms of one stack must share max_rounds")

    sides = 1 if perturbations is None else 2
    xs = np.empty((len(shards), sides, m, n, d_x))
    ys = np.empty((len(shards), sides, m, n))
    for k, run_shards in enumerate(shards):
        if run_shards.xs.shape != (m, n, d_x):
            raise InputError("every run of a stack needs shards of one shape")
        xs[k], ys[k] = run_shards.xs, run_shards.ys
        if perturbations is not None:
            _replace_samples(xs[k, 1], ys[k, 1], perturbations[k])
    # Flat row of worker w's sample 0 in run k, side s: zeta is added per step.
    first_rows = np.arange(xs.shape[0] * sides * m).reshape(xs.shape[:3]) * n
    flat_xs, flat_ys = xs.reshape(-1, d_x), ys.reshape(-1)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # The one matrix every arm shares, or (A, 1, 1, m, m): arm a's matrix,
    # broadcast over its runs and sides.
    matrices = [P for P, _ in arms]
    if all(P is matrices[0] for P in matrices):
        mixing = matrices[0].entries
    else:
        mixing = np.stack([P.entries for P in matrices])[:, None, None]
    # Arm a is controlled after step t once t > onsets[a]; an uncontrolled arm never is.
    onsets = np.array([np.inf if c is None else c.t_gamma for _, c in arms])
    targets = np.array([np.inf if c is None else c.gamma_sq for _, c in arms])
    first_onset = onsets.min()
    max_rounds = max(caps, default=0)

    logged = config.snapshot_iterations
    recorder = _TraceRecorder(model, xs, ys, logged, seeds, len(arms), risks)
    W = np.zeros((len(arms), *xs.shape[:3], model.dim(d_x)))
    # Every array a step writes is allocated once here: stack-sized arrays
    # freed each step would go back to the OS and be faulted in again.
    spare = np.empty_like(W)
    X = np.empty((*W.shape[:-1], d_x))
    Y = np.empty(W.shape[:-1])
    grads = np.empty((Y.size, W.shape[-1]))
    extra_rounds = np.zeros(W.shape[:3], dtype=int)
    recorder.record(0, W)
    t = 0
    for slot in range(1, len(logged)):
        while t < logged[slot]:
            steps = min(INDEX_DRAW_STEPS, logged[slot] - t)
            zeta = np.stack([rng.integers(0, n, size=(steps, m)) for rng in rngs], axis=1)
            # (steps, K, s, m): both sides of a run, in every arm, read the run's indices.
            rows = first_rows + zeta[:, :, None, :]
            for step_rows in rows:
                # The rows are in range, so "clip" never clips; unlike "raise",
                # it writes into out without an intermediate buffer.
                np.take(flat_xs, step_rows, axis=0, out=X[0], mode="clip")
                np.take(flat_ys, step_rows, out=Y[0], mode="clip")
                X[1:], Y[1:] = X[0], Y[0]
                rate = config.rate.at(t, total)
                W, spare = dsgd_step(W, mixing, X, Y, rate, model, out=spare, grads=grads), W
                t += 1
                if t > first_onset:
                    now = np.where(onsets < t, targets, np.inf)[:, None, None]
                    W, _ = consensus_control_step(W, mixing, now, max_rounds, extra_rounds)
        recorder.record(slot, W)
    return recorder.finish(W, extra_rounds)


class _TraceRecorder:
    """Snapshot rows of every arm, run and side of a stack, at the logged iterations.

    Raises NumericalError at the first snapshot where some consensus distance,
    or some recorded risk, is not finite, naming the first such run's seed: a
    non-finite W stays non-finite under W' = P W - eta G, so a divergent run
    is always caught by the final snapshot at the latest.
    """

    def __init__(
        self,
        model: LossModel,
        xs: np.ndarray,
        ys: np.ndarray,
        logged: np.ndarray,
        seeds: list[int],
        arms: int,
        risks: bool,
    ):
        runs, sides, m, n, d_x = xs.shape
        self.model, self.logged, self.seeds = model, logged, seeds
        # Every run's and side's shards as one set of K*s*m shards, for one
        # worker_risks call per arm; the arms share them.
        self.shards = Shards(xs=xs.reshape(-1, n, d_x), ys=ys.reshape(-1, n))
        self.consensus = np.zeros((arms, runs, sides, len(logged), model.dim(d_x)))
        self.consensus_dist = np.zeros((arms, runs, sides, len(logged)))
        self.risks = np.zeros((arms, runs, sides, len(logged), m)) if risks else None
        self.sq_diffs = np.zeros((arms, runs, len(logged), m)) if sides == 2 else None
        # Scratch for the deviations from the consensus model and the pair
        # differences, reused at every snapshot.
        d = model.dim(d_x)
        self.deviation = np.empty((arms, runs, sides, m, d))
        self.pair_diff = np.empty((arms, runs, m, d)) if sides == 2 else None

    def record(self, slot: int, W: np.ndarray) -> None:
        # A diverging W overflows the sums of squares; that is reported below.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = W.mean(axis=-2, keepdims=True)
            distances = _distance_from_mean(W, mean, self.deviation)
        self._check(distances, "consensus distance", slot)
        self.consensus[..., slot, :] = mean[..., 0, :]
        self.consensus_dist[..., slot] = distances
        if self.risks is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                risks = np.stack([
                    worker_risks(self.model, arm_W.reshape(-1, W.shape[-1]), self.shards)
                    for arm_W in W
                ]).reshape(W.shape[:-1])
            self._check(risks, "a worker risk", slot)
            self.risks[..., slot, :] = risks
        if self.pair_diff is not None:
            np.subtract(W[:, :, 0], W[:, :, 1], out=self.pair_diff)
            np.square(self.pair_diff, out=self.pair_diff)
            self.sq_diffs[:, :, slot] = self.pair_diff.sum(axis=-1)

    def _check(self, values: np.ndarray, name: str, slot: int) -> None:
        """NumericalError naming the first run with a non-finite value, index (arm, run, ...)."""
        diverged = np.argwhere(~np.isfinite(values))
        if len(diverged):
            index = tuple(diverged[0])
            raise NumericalError(
                f"run with seed {self.seeds[index[1]]} diverged: {name} is "
                f"{values[index]} at step {self.logged[slot]}"
            )

    def finish(
        self, W: np.ndarray, extra_rounds: np.ndarray
    ) -> list[list[RunTrace]] | list[list[CoupledTrace]]:
        """Per arm, each run's trace, or coupled trace, as views into the stacked arrays."""
        risks = self.risks
        traces = np.empty(W.shape[:3], dtype=object)
        for index in np.ndindex(traces.shape):
            traces[index] = RunTrace(
                iterations=np.array(self.logged),
                consensus=self.consensus[index],
                consensus_dist=self.consensus_dist[index],
                risks=None if risks is None else risks[index],
                final_weights=W[index].copy(),
                extra_gossip_rounds=int(extra_rounds[index]),
            )
        if self.sq_diffs is None:
            return [list(arm_traces[:, 0]) for arm_traces in traces]
        return [
            [
                CoupledTrace(
                    base=base,
                    perturbed=perturbed,
                    sq_diffs=self.sq_diffs[arm, run],
                    final_diffs=W[arm, run, 0] - W[arm, run, 1],
                )
                for run, (base, perturbed) in enumerate(arm_traces)
            ]
            for arm, arm_traces in enumerate(traces)
        ]
