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
each (s = 1 for single runs, s = 2 for coupled pairs); run_dsgd and
run_coupled are its two entry points. The two data sets of a pair differ in
one sample per affected worker, and the pairs of one replicate share their
shards, so the stack holds each distinct shard set once: one flat array
holds the rows of every distinct shard set, then each pair's m replacement
rows. Run k's worker w reads the row of its sample zeta on side 0; side 1
reads the same row, except where zeta is the pair's perturbed index on an
affected worker, where it reads the replacement row. One np.where builds
both sides' rows per block of drawn indices, and a step makes one np.take of
sampled rows for every arm, run and side, one gossip per group of arms and
one gradient call for the whole stack. Single runs on shard sets that are
consecutive slices of one array (as the estimators draw a group's
replicates) read that array itself: nothing is copied. The runs are stepped
in sub-stacks of as many runs as keep each stack-sized buffer within
STACK_BYTES, and a run's trace does not depend on the runs stepped with it.
Every stack-sized array a step writes (the next W, the gathered samples, the
gradients, consensus control's result) is a buffer allocated once per
sub-stack; control allocates only two buffers of its live runs per call.
Only run_coupled with risks set evaluates per-worker risks, once per arm,
shard set and snapshot, in scratch the recorder owns: side 1's per-sample
losses are taken on the shared shards with the replaced samples' losses
swapped in before the mean, which are its risks on its own data, bit for
bit. Each run keeps its own seed and index stream, shared by its sides and
by every arm: its indices are drawn from its own generator in blocks of at
most INDEX_DRAW_STEPS steps per snapshot interval, which are the same
indices as one draw of m per step. Consensus control gossips a compacted
block of the runs whose arm's onset has passed and whose distance is still
above the target, so each side takes the rounds it would take alone. Every
worker mean (full-averaging gossip, the recorder, control's distances) is an
einsum sum over the workers that rounds like numpy's mean and takes a third
of its time (_worker_mean).

An arm gossips in one of three forms, chosen once per matrix from its
entries (topology.GossipMatrix.circulant):
- the worker mean, when every entry is equal (fully connected);
- shifted slices, when the matrix is a single-weight circulant over the
  worker cycle (ring, exponential, disconnected) or over the torus (grid):
  each shift's slices are added into the output, which is then scaled once;
- the dense product, for every other matrix and for every matrix of fewer
  than DENSE_GOSSIP_BELOW workers. Below the crossover a step's arms make
  one broadcast product of their entries, stacked once per stack: the four
  compare arms of a (4, 8, 2, 16, 20) stack gossip in 19-20 us, against
  23-26 us for one product per arm.
tools/gossip_crossover.py times one gossip of a (8, 2, m, 20) stack in each
form (microseconds, dense / structured; 2-core box, numpy 2.4.6, one BLAS
thread):

    m      fully connected   exponential     grid           ring
    64     51 / 54           72 / 398        70 / 178       70 / 87
    128    239 / 104         233 / 443       -              240 / 65
    256    1573 / 213        1633 / 560      1573 / 430     1578 / 106
    1024   28644 / 893       29683 / 5292    29242 / 2147   29409 / 856

256 is the first of these sizes at which the structured form wins for every
kind, at (2, 2, m, 20) stacks too.
"""

from __future__ import annotations

import functools
import itertools
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

# Most bytes of one stack-sized buffer (the weights, their spare, the
# gathered samples, the gradients, the recorder's deviations): a stack with
# more runs is stepped in sub-stacks of as many runs as fit, at least one.
# A four-kind compare at m = 1024 with 160 pairs would need 210 MB for each.
STACK_BYTES = 16 * 2**20

# Worker count below which every gossip matrix is a dense product; from it
# on, a circulant matrix gossips as the worker mean or as shifted slices.
# The crossover that tools/gossip_crossover.py measured (module docstring).
DENSE_GOSSIP_BELOW = 256


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


def _worker_mean(W: np.ndarray) -> np.ndarray:
    """W.mean(axis=-2, keepdims=True), bit for bit, for a stack W (..., m, d).

    numpy's mean reduces the worker axis by adding its rows in order, as one
    einsum sum does, but takes about three times as long per call. At d = 1
    the worker axis is the contiguous one, which mean sums pairwise, so there
    it is the mean itself.
    """
    if W.shape[-1] == 1:
        return W.mean(axis=-2, keepdims=True)
    return np.einsum("...kd->...d", W)[..., None, :] / W.shape[-2]


def consensus_model(W: np.ndarray) -> np.ndarray:
    """Average of the local models, per run of W (m, d) or of a stack W (..., m, d)."""
    return _worker_mean(W)[..., 0, :]


def consensus_distance(W: np.ndarray) -> float | np.ndarray:
    """Mean squared deviation of the local models from their average, per run of W (..., m, d)."""
    mean = _worker_mean(W)
    return _distance_from_mean(W, mean, np.empty_like(W, dtype=mean.dtype))


def _distance_from_mean(
    W: np.ndarray, mean: np.ndarray, scratch: np.ndarray
) -> float | np.ndarray:
    """consensus_distance(W) from W's consensus mean (keepdims), squaring in scratch."""
    np.subtract(W, mean, out=scratch)
    np.square(scratch, out=scratch)
    return scratch.sum(axis=(-2, -1)) / W.shape[-2]


Mixing = GossipMatrix | list[GossipMatrix]


def _arm_groups(P: Mixing, W: np.ndarray) -> list[tuple[GossipMatrix, slice]]:
    """(matrix, arms) pairs covering W: one matrix mixes all of W, or each run of
    consecutive arms W[a] with one matrix P[a] is mixed at once."""
    if isinstance(P, GossipMatrix):
        return [(P, slice(None))]
    if W.ndim < 3 or len(P) != len(W):
        raise InputError(f"{len(P)} gossip matrices do not match a stack of shape {W.shape}")
    starts = [a for a in range(len(P)) if a == 0 or P[a] is not P[a - 1]]
    return [(P[a], slice(a, end)) for a, end in zip(starts, starts[1:] + [len(P)])]


def _output(W: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """out, checked to be C-contiguous, of W's shape and apart from W; or a new array."""
    if out is None:
        return np.empty(W.shape)
    if out.shape != W.shape or not out.flags.c_contiguous or np.may_share_memory(out, W):
        raise InputError(f"out must be a C-contiguous array of shape {W.shape} apart from W")
    return out


def _dense_gossip(P: GossipMatrix, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P W as a matrix product per run of W (..., m, d), into out."""
    return np.matmul(P.entries, W, out=out)


def _stacked_gossip(entries: np.ndarray, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Arm a of W (A, ..., m, d) times entries[a] of (A, 1, m, m), as one broadcast product.

    numpy multiplies each matrix of a broadcast product on its own, so every
    arm's values are those of its own product.
    """
    shape = (len(W), -1, *W.shape[-2:])
    np.matmul(entries, W.reshape(shape), out=out.reshape(shape))
    return out


@functools.lru_cache(maxsize=1)
def _stacked_entries(matrices: tuple[GossipMatrix, ...]) -> np.ndarray:
    """The arms' entries as one (A, 1, m, m) array. Cached for the last stack's
    matrices, so that a stack stacks them once, not once per step."""
    return np.stack([P.entries for P in matrices])[:, None]


def _mean_gossip(P: GossipMatrix, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P W for a P whose entries all equal 1/m: every worker takes its run's mean."""
    out[...] = _worker_mean(W)
    return out


def _shifted_gossip(P: GossipMatrix, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P W for a circulant P: its weight times the sum of W's shifted slices, into out.

    out must be C-contiguous, so that it reshapes to the worker grid as a view.
    """
    circulant = P.circulant
    grid_shape = (*W.shape[:-2], *circulant.grid, W.shape[-1])
    source, target = W.reshape(grid_shape), out.reshape(grid_shape)
    for into, read, add in _shift_terms(circulant.grid, circulant.shifts):
        if add:
            np.add(target[into], source[read], out=target[into])
        else:
            target[into] = source[read]
    out *= circulant.weight
    return out


@functools.cache
def _shift_terms(grid: tuple[int, ...], shifts: tuple[tuple[int, ...], ...]) -> tuple:
    """(into, read, add) slice pairs that sum W shifted by each shift over the cyclic grid.

    Each shift's pairs place W at position + shift at every position of the
    grid; the first shift's pairs tile it (add False), and the others add on.
    """
    terms = []
    for term, shift in enumerate(shifts):
        per_axis = [
            [(slice(None), slice(None))] if s == 0
            else [(slice(0, size - s), slice(s, size)), (slice(size - s, size), slice(0, s))]
            for s, size in zip(shift, grid)
        ]
        for pieces in itertools.product(*per_axis):
            into, read = zip(*pieces)
            terms.append(((..., *into, slice(None)), (..., *read, slice(None)), term > 0))
    return tuple(terms)


def _gossip_form(P: GossipMatrix):
    """The function that gossips with P: the dense product below DENSE_GOSSIP_BELOW
    workers and for non-circulant P, else the worker mean when every entry is
    equal and the shifted slices otherwise."""
    if P.m < DENSE_GOSSIP_BELOW or P.circulant is None:
        return _dense_gossip
    return _mean_gossip if len(P.circulant.shifts) == P.m else _shifted_gossip


def _step_gossip(P: Mixing, groups: list[tuple[GossipMatrix, slice]]) -> list[tuple]:
    """(gossip, operand, arms) triples that gossip a stack W with P's arm groups
    (_arm_groups): gossip(operand, W[arms], out[arms]).

    Below DENSE_GOSSIP_BELOW every arm is a dense product, so arms with more
    than one matrix make one broadcast product of their stacked entries: one
    numpy call, where one per arm costs more than the products themselves at
    m = 16. Otherwise each run of consecutive arms with one matrix gossips
    at once, in that matrix's form.
    """
    if len(groups) > 1 and groups[0][0].m < DENSE_GOSSIP_BELOW:
        return [(_stacked_gossip, _stacked_entries(tuple(P)), slice(None))]
    return [(_gossip_form(P_a), P_a, arms) for P_a, arms in groups]


def dsgd_step(
    W: np.ndarray,
    P: Mixing,
    X: np.ndarray,
    Y: np.ndarray,
    eta_t: float,
    model: LossModel,
    out: np.ndarray | None = None,
    grads: np.ndarray | None = None,
) -> np.ndarray:
    """One update of a stack of runs W (..., m, d): gossip with P, then gradient steps.

    P is one gossip matrix for every run, or a list with one matrix per arm:
    W[a]'s runs gossip with P[a], each arm in its matrix's own form. X
    (..., m, d_x) and Y (..., m) hold the sample each worker of each run
    uses at this step; the gradient is evaluated at the pre-communication
    model w_k. The updated stack is written into out (C-contiguous, W's
    shape, sharing no memory with W) and the (W[..., 0].size, d) gradients
    into grads (sharing no memory with W or out); each is allocated when not
    given, and the values are the same either way.
    """
    groups = _arm_groups(P, W)
    if (
        any(P_a.m != W.shape[-2] for P_a, _ in groups)
        or X.shape[:-1] != W.shape[:-1]
        or Y.shape != W.shape[:-1]
    ):
        raise InputError("worker counts of W, P and the drawn samples disagree")
    out = _output(W, out)
    if grads is not None and (np.may_share_memory(grads, W) or np.may_share_memory(grads, out)):
        raise InputError("grads must share no memory with W or out")
    grads = loss_gradients(
        model, W.reshape(-1, W.shape[-1]), X.reshape(-1, X.shape[-1]), Y.reshape(-1), out=grads
    )
    for gossip, operand, arms in _step_gossip(P, groups):
        gossip(operand, W[arms], out[arms])
    grads *= eta_t
    out -= grads.reshape(W.shape)
    return out


def consensus_control_step(
    W: np.ndarray,
    P: Mixing,
    gamma_sq: float | np.ndarray,
    max_rounds: int,
    counts: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Extra pure-gossip rounds until consensus distance <= gamma_sq.

    W is one run (m, d) or a stack of runs (..., m, d); P is one gossip
    matrix or one per arm, as in dsgd_step, and gamma_sq one target or an
    array of targets, each broadcast against the runs (an infinite target
    leaves its runs untouched). Each run gossips only while its own distance
    exceeds its target, for at most max_rounds rounds, so it takes the rounds
    it would take alone: the rounds gossip a compacted block of the runs
    still above target, each arm's runs in its matrix's form, and a run
    leaves the block once it reaches its target. Returns the models, written
    into out (checked as dsgd_step's; a new array when not given), and the
    rounds the loop took, the most that any run used; with counts (shape
    W.shape[:-2]) given, each run's own rounds are added to it. If the
    target is unreachable (disconnected components with disagreeing means),
    a run reports max_rounds exhaustion instead of raising.
    """
    targets = np.broadcast_to(np.asarray(gamma_sq, dtype=float), W.shape[:-2]).reshape(-1)
    if not np.all(targets > 0):
        raise InputError("gamma_sq must be positive")
    arm_count = 1 if isinstance(P, GossipMatrix) else len(P)
    # Each group of arms as (matrix, form, first arm, end arm).
    groups = [
        (P_a, _gossip_form(P_a), *arms.indices(arm_count)[:2])
        for P_a, arms in _arm_groups(P, W)
    ]
    out = _output(W, out)
    # out is the deviations' scratch before it takes the models.
    distances = _distance_from_mean(W, _worker_mean(W), out).reshape(-1)
    np.copyto(out, W)
    runs = out.reshape(-1, *W.shape[-2:])
    per_arm = len(runs) // arm_count
    used = np.zeros(len(runs), dtype=int)
    live = np.flatnonzero(distances > targets)
    goal = targets[live]
    # The rounds alternate two buffers: one holds the live block, in arm
    # order, and the other takes its gossip, then its compaction.
    buffers = np.empty((2, len(live), *runs.shape[1:]))
    current = 0
    np.take(runs, live, axis=0, out=buffers[current], mode="clip")
    rounds, bounds = 0, None
    while rounds < max_rounds and len(live):
        block, other = buffers[current, : len(live)], buffers[1 - current, : len(live)]
        if bounds is None:
            # Arm a's live runs are block[bounds[a]:bounds[a + 1]].
            bounds = np.searchsorted(live // per_arm, np.arange(arm_count + 1)).tolist()
        for P_a, gossip, first, end in groups:
            if bounds[first] < bounds[end]:
                span = slice(bounds[first], bounds[end])
                gossip(P_a, block[span], other[span])
        block, other, current = other, block, 1 - current
        rounds += 1
        above = _distance_from_mean(block, _worker_mean(block), other) > goal
        if not above.all():
            done, keep = ~above, np.flatnonzero(above)
            runs[live[done]] = block[done]
            used[live[done]] = rounds
            np.take(block, keep, axis=0, out=other[: len(keep)], mode="clip")
            live, goal, current, bounds = live[keep], goal[keep], 1 - current, None
    runs[live] = buffers[current, : len(live)]
    used[live] = rounds
    if counts is not None:
        counts += used.reshape(counts.shape)
    return out, rounds


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
    perturbations[k] applied, and each run returns one CoupledTrace. The runs
    are stepped in sub-stacks that keep each stack-sized buffer within
    STACK_BYTES; a run's trace does not depend on the runs stepped with it.
    """
    m, _, d_x = shards[0].xs.shape
    total = config.iterations
    caps = {control.max_rounds for _, control in arms if control is not None}
    for P, control in arms:
        if P.m != m:
            raise InputError(f"gossip matrix size {P.m} does not match {m} shards")
        if control is not None and control.t_gamma > total:
            raise InputError(f"t_gamma must lie in [0, {total}], got {control.t_gamma}")
    if len(caps) > 1:
        raise InputError("the controlled arms of one stack must share max_rounds")

    data = _StackData(shards, perturbations)
    sides, d = data.sides, model.dim(d_x)
    recorder = _TraceRecorder(model, data, config.snapshot_iterations, seeds, len(arms), risks)
    final = np.empty((len(arms), len(shards), sides, m, d))
    extra_rounds = np.zeros(final.shape[:3], dtype=int)
    run_bytes = len(arms) * sides * m * max(d, d_x) * final.itemsize
    size = max(1, STACK_BYTES // run_bytes)
    for start in range(0, len(shards), size):
        runs = slice(start, min(start + size, len(shards)))
        final[:, runs] = _step_runs(
            arms, data, model, config, seeds[runs], runs, recorder, extra_rounds[:, runs]
        )
    return recorder.finish(final, extra_rounds)


def _step_runs(
    arms: list[tuple[GossipMatrix, ConsensusControl | None]],
    data: _StackData,
    model: LossModel,
    config: TrainConfig,
    seeds: list[int],
    runs: slice,
    recorder: _TraceRecorder,
    extra_rounds: np.ndarray,
) -> np.ndarray:
    """Steps the sub-stack of `runs` from zero to the end, recording every snapshot;
    returns its final W and adds each side's control rounds to extra_rounds."""
    m, n, d_x = data.shape
    total = config.iterations
    rngs = [np.random.default_rng(seed) for seed in seeds]
    matrices = [P for P, _ in arms]
    # Arm a is controlled after step t once t > onsets[a]; an uncontrolled arm never is.
    onsets = np.array([np.inf if c is None else c.t_gamma for _, c in arms])
    targets = np.array([np.inf if c is None else c.gamma_sq for _, c in arms])
    first_onset = onsets.min()
    max_rounds = max((c.max_rounds for _, c in arms if c is not None), default=0)

    logged = config.snapshot_iterations
    W = np.zeros((len(arms), len(seeds), data.sides, m, model.dim(d_x)))
    # Every array a step writes is allocated once here: stack-sized arrays
    # freed each step would go back to the OS and be faulted in again.
    spare = np.empty_like(W)
    X = np.empty((*W.shape[:-1], d_x))
    Y = np.empty(W.shape[:-1])
    grads = np.empty((Y.size, W.shape[-1]))
    recorder.start(runs, W)
    recorder.record(0, W)
    t = 0
    for slot in range(1, len(logged)):
        while t < logged[slot]:
            steps = min(INDEX_DRAW_STEPS, logged[slot] - t)
            zeta = np.stack([rng.integers(0, n, size=(steps, m)) for rng in rngs], axis=1)
            for step_rows in data.rows(zeta, runs):
                # The rows are in range, so "clip" never clips; unlike "raise",
                # it writes into out without an intermediate buffer.
                np.take(data.xs, step_rows, axis=0, out=X[0], mode="clip")
                np.take(data.ys, step_rows, out=Y[0], mode="clip")
                X[1:], Y[1:] = X[0], Y[0]
                rate = config.rate.at(t, total)
                W, spare = dsgd_step(W, matrices, X, Y, rate, model, out=spare, grads=grads), W
                t += 1
                if t > first_onset:
                    now = np.where(onsets < t, targets, np.inf)[:, None, None]
                    controlled, _ = consensus_control_step(
                        W, matrices, now, max_rounds, extra_rounds, out=spare
                    )
                    W, spare = controlled, W
        recorder.record(slot, W)
    return W


class _StackData:
    """The samples of a stack's runs as rows of one flat array, each shard set once.

    xs (rows, d_x) and ys (rows,) hold the rows of every distinct shard set
    of the stack once, in order of first use (replicates[r]; run k trains on
    replicates[replicate[k]]), then, for coupled runs, a (K, m) block of
    replacement rows: row (k, w) of the block is run k's replacement sample
    for worker w, where its perturbation affects w. When no replacement rows
    are needed and the shard sets are the consecutive slices of one array,
    xs and ys are views of that array: nothing is copied.
    """

    def __init__(self, shards: list[Shards], perturbations: list[Perturbation] | None):
        m, n, d_x = self.shape = shards[0].xs.shape
        if any(run_shards.xs.shape != self.shape for run_shards in shards):
            raise InputError("every run of a stack needs shards of one shape")
        numbers: dict[int, int] = {}
        self.replicate = np.array([numbers.setdefault(id(s), len(numbers)) for s in shards])
        self.replicates = list({id(s): s for s in shards}.values())
        self.sides = 1 if perturbations is None else 2
        # Row of worker w's sample 0 in run k's shards: a step adds zeta.
        self.first = self.replicate[:, None] * (m * n) + np.arange(m) * n
        self.target = self.replacement = None
        tiled = [_tiling([getattr(s, name) for s in self.replicates]) for name in ("xs", "ys")]
        if perturbations is None and tiled[0] is not None and tiled[1] is not None:
            self.xs, self.ys = tiled[0].reshape(-1, d_x), tiled[1].reshape(-1)
            return
        base = len(self.replicates) * m * n
        block = 0 if perturbations is None else len(shards) * m
        self.xs, self.ys = np.zeros((base + block, d_x)), np.zeros(base + block)
        shard_xs = self.xs[:base].reshape(-1, m, n, d_x)
        shard_ys = self.ys[:base].reshape(-1, m, n)
        for r, replicate_shards in enumerate(self.replicates):
            shard_xs[r], shard_ys[r] = replicate_shards.xs, replicate_shards.ys
        if perturbations is None:
            return
        # target[k, w]: the index run k's perturbation replaces on worker w, -1
        # where it leaves w alone (zeta is never -1).
        self.target = np.full((len(shards), m), -1)
        self.replacement = base + np.arange(block).reshape(len(shards), m)
        self.replacement_xs = self.xs[base:].reshape(len(shards), m, d_x)
        self.replacement_ys = self.ys[base:].reshape(len(shards), m)
        for k, perturbation in enumerate(perturbations):
            if not 0 <= perturbation.index < n:
                raise InputError(
                    f"perturbation index {perturbation.index} outside shard size {n}"
                )
            self.target[k, perturbation.workers] = perturbation.index
            self.replacement_xs[k, perturbation.workers] = perturbation.replacement_xs
            self.replacement_ys[k, perturbation.workers] = perturbation.replacement_ys

    def rows(self, zeta: np.ndarray, runs: slice) -> np.ndarray:
        """(steps, K', s, m) rows of xs that runs[k] reads at sample indices zeta (steps, K', m).

        Side 0 reads its shards' rows. Side 1 reads the same rows, except
        where zeta is the index that the run's perturbation replaces on an
        affected worker: there it reads that worker's replacement row.
        """
        rows = self.first[runs] + zeta
        if self.target is None:
            return rows[:, :, None]
        perturbed = np.where(zeta == self.target[runs], self.replacement[runs], rows)
        return np.stack([rows, perturbed], axis=2)

    def risk_groups(self, runs: slice) -> list[tuple[Shards, np.ndarray, tuple | None]]:
        """Per shard set that runs in `runs` use: those shards, the runs' indices
        within the slice, and worker_risks' `replaced` argument for their
        stack (J, s, m, d), which swaps each perturbation's samples into side 1."""
        groups = []
        for r in np.unique(self.replicate[runs]):
            local = np.flatnonzero(self.replicate[runs] == r)
            replaced = None
            if self.target is not None:
                own = runs.start + local
                j, w = np.nonzero(self.target[own] >= 0)
                k = own[j]
                where = (j, np.ones_like(j), w, self.target[k, w])
                replaced = (where, self.replacement_xs[k, w], self.replacement_ys[k, w])
            groups.append((self.replicates[r], local, replaced))
        return groups


def _tiling(parts: list[np.ndarray]) -> np.ndarray | None:
    """The C-contiguous array whose consecutive leading slices are parts, in order, or None."""
    whole = parts[0].base
    if (
        isinstance(whole, np.ndarray)
        and whole.flags.c_contiguous
        and whole.shape == (len(parts), *parts[0].shape)
        and all(p.base is whole and p.ctypes.data == q.ctypes.data for p, q in zip(parts, whole))
    ):
        return whole
    return None


class _TraceRecorder:
    """Snapshot rows of every arm, run and side of a stack, at the logged iterations.

    Records one sub-stack at a time (start, then record per snapshot) into
    arrays that hold every run. Raises NumericalError at the first snapshot
    where some consensus distance, or some recorded risk, is not finite,
    naming the first such run's seed: a non-finite W stays non-finite under
    W' = P W - eta G, so a divergent run is always caught by the final
    snapshot at the latest.
    """

    def __init__(
        self,
        model: LossModel,
        data: _StackData,
        logged: np.ndarray,
        seeds: list[int],
        arms: int,
        risks: bool,
    ):
        (m, _, d_x), sides, runs = data.shape, data.sides, len(data.replicate)
        self.model, self.data, self.logged, self.seeds = model, data, logged, seeds
        self.consensus = np.zeros((arms, runs, sides, len(logged), model.dim(d_x)))
        self.consensus_dist = np.zeros((arms, runs, sides, len(logged)))
        self.risks = np.zeros((arms, runs, sides, len(logged), m)) if risks else None
        self.sq_diffs = np.zeros((arms, runs, len(logged), m)) if sides == 2 else None

    def start(self, runs: slice, W: np.ndarray) -> None:
        """Take the sub-stack W (A, K', s, m, d) of `runs`, and scratch of its size
        for the deviations, the pair differences and the per-sample losses,
        reused at every snapshot."""
        self.runs = runs
        self.deviation = np.empty_like(W)
        self.pair_diff = np.empty_like(W[:, :, 0]) if W.shape[2] == 2 else None
        if self.risks is not None:
            self.groups = self.data.risk_groups(runs)
            self.losses = np.empty((*W.shape[1:-1], self.data.shape[1]))

    def record(self, slot: int, W: np.ndarray) -> None:
        runs = self.runs
        # A diverging W overflows the sums of squares; that is reported below.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = _worker_mean(W)
            distances = _distance_from_mean(W, mean, self.deviation)
        self._check(distances, "consensus distance", slot)
        self.consensus[:, runs, :, slot] = mean[..., 0, :]
        self.consensus_dist[:, runs, :, slot] = distances
        if self.risks is not None:
            risks = np.empty(W.shape[:-1])
            with np.errstate(over="ignore", invalid="ignore"):
                for arm_W, arm_risks in zip(W, risks):
                    for shards, local, replaced in self.groups:
                        arm_risks[local] = worker_risks(
                            self.model, arm_W[local], shards, self.losses[: len(local)], replaced
                        )
            self._check(risks, "a worker risk", slot)
            self.risks[:, runs, :, slot] = risks
        if self.pair_diff is not None:
            np.subtract(W[:, :, 0], W[:, :, 1], out=self.pair_diff)
            np.square(self.pair_diff, out=self.pair_diff)
            self.sq_diffs[:, runs, slot] = self.pair_diff.sum(axis=-1)

    def _check(self, values: np.ndarray, name: str, slot: int) -> None:
        """NumericalError naming the first run with a non-finite value, index (arm, run, ...)."""
        diverged = np.argwhere(~np.isfinite(values))
        if len(diverged):
            index = tuple(diverged[0])
            raise NumericalError(
                f"run with seed {self.seeds[self.runs.start + index[1]]} diverged: {name} is "
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
                final_weights=W[index],
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
