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
hence identical sample-index sequences; the worker mean of their squared
weight differences at each snapshot is the raw material of the stability
estimators.

One loop serves every run. It steps a stack W (A, K, s, m, d): A arms, each
with its own gossip matrix and consensus control, times K runs with s sides
each (s = 1 for single runs, s = 2 for coupled pairs); run_dsgd and
run_coupled are its two entry points, and each returns one Traces: the
recorder's arrays, indexed [arm, run, side, snapshot]; only single runs keep
their consensus models (a coupled side's final one is the worker mean of its
final models). The two data sets of a pair differ in one sample per affected
worker, and the pairs of one replicate share their shards, so the stack
holds each distinct shard set once: it reads them in place when they are
consecutive slices of one array (as the estimators draw a group's
replicates), else from one copy, and a side table holds each pair's replaced
samples. A step makes one np.take of side 0's rows for every run and side,
which every arm reads (dsgd_step's shared samples), one np.copyto each for X
and Y that gives side 1 its replaced samples (where zeta is the pair's
perturbed index on an affected worker), one gossip per group of arms and one
gradient call for the whole stack. The runs are stepped in sub-stacks of as
many runs as keep each stack-sized buffer within STACK_BYTES, and a run's
traces do not depend on the runs stepped with it. A sub-stack holds W, its
spare (the next W, and consensus control's result), one scratch and one
arm's share of samples, each allocated once: the step writes its gradients
in the scratch, and the recorder takes its deviations and then its pair
differences in it. Control allocates only a few buffers of its live runs per
call. Only run_coupled with risks set evaluates per-worker risks, of the
base side (the run on S) only, once per arm, shard set and snapshot, in
scratch the recorder owns. Each run keeps its own seed and index stream,
shared by its sides and by every arm: its indices are drawn from its own
generator in blocks of INDEX_DRAW_STEPS steps (fewer when a sub-stack's
block would pass INDEX_DRAW_BYTES), across snapshot intervals, which are the
same indices as one draw of m per step. Consensus control takes the runs
whose arm's onset has passed and whose distance is above the target,
predicts each one's stop round from its matrix's eigenvectors, gossips them
on that schedule without computing a distance in between, and then checks
each run's stop in one batched distance call; a run the check cannot vouch
for is replayed by a loop that checks every round, so each side takes the
rounds it would take alone, bit for bit (consensus_control_step). Every
worker mean (full-averaging gossip, the recorder, control's distances) is
topology._worker_mean, an einsum sum over the workers that rounds like
numpy's mean and takes a third of its time.

Each group of consecutive arms with one matrix gossips at once, by the
product function that topology._gossip_form gives for that matrix, chosen
once per group: the engine never reads a matrix's circulant.
"""

from __future__ import annotations

import functools
import math
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
from .topology import GossipMatrix, _gossip_form, _worker_mean

__all__ = [
    "ConstantRate",
    "StepDecayRate",
    "TrainConfig",
    "Traces",
    "PerturbationMode",
    "Perturbation",
    "ConsensusControl",
    "draw_perturbation",
    "dsgd_step",
    "run_dsgd",
    "run_coupled",
    "consensus_control_step",
]

# Most steps of sample indices drawn from a run's stream at once, across
# snapshot intervals (one draw per step costs more than the step at m = 16),
# and most bytes of one such block of a sub-stack's indices, at least one
# step: 64-step blocks of wide sub-stacks raised the peak RSS of the m = 1024
# ring estimate by 69 MB, and of a compare at m = 256 by 0.4 MB.
INDEX_DRAW_STEPS = 64
INDEX_DRAW_BYTES = 2**16

# Most bytes of one stack-sized buffer (the weights, their spare, the scratch
# that holds the gradients, deviations and pair differences; the samples,
# shared by the arms, take an arm's share): a stack with more runs is stepped
# in sub-stacks of as many runs as fit, at least one. A four-kind compare at
# m = 1024 with 160 pairs would need 210 MB for each.
STACK_BYTES = 16 * 2**20


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
        if not 0 <= self.rate.initial < math.inf:
            raise InputError(f"learning rate must lie in [0, inf), got {self.rate.initial}")
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
class Traces:
    """Logged quantities of every arm, run and side of a stack (run_dsgd, run_coupled).

    Indexed [arm, run, side, ...] over A arms, K runs and s sides (1 for
    single runs; 2 for coupled pairs, side 1 the run on the perturbed set),
    at S snapshots, for m workers of d parameters:
    - iterations (S,): the completed steps at each snapshot;
    - consensus (A, K, 1, S, d): the average model, of single runs only, else None;
    - consensus_dist (A, K, s, S): the workers' mean squared deviation from it;
    - final (A, K, s, m, d): the final models;
    - rounds (A, K, s): consensus-control rounds, and cap_hits (A, K, s):
      control calls in which the side used all max_rounds rounds and stayed
      above its target;
    - sq_diffs (A, K, S), coupled stacks only, else None: the worker mean
      (1/m) sum_k ||w_k - w~_k||^2 of the pair at each snapshot;
    - risks (A, K, S, m): each base-side worker's empirical risk on its
      shard; only run_coupled with risks set records them, else None.
    """

    iterations: np.ndarray
    consensus: np.ndarray | None
    consensus_dist: np.ndarray
    final: np.ndarray
    rounds: np.ndarray
    cap_hits: np.ndarray
    sq_diffs: np.ndarray | None = None
    risks: np.ndarray | None = None


class PerturbationMode(str, Enum):
    # Replace index i on every worker, or only on one worker.
    SYNCHRONIZED = "synchronized"
    SINGLE_WORKER = "single_worker"


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Replacement of the sample at one shard index by fresh draws.

    workers lists the affected workers, distinct and in [0, m);
    replacement_xs/(ys) hold one fresh sample per affected worker, aligned
    with that list.
    """

    index: int
    workers: np.ndarray
    replacement_xs: np.ndarray
    replacement_ys: np.ndarray


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
    return Perturbation(index=i, workers=workers, replacement_xs=xs, replacement_ys=ys)


def _distance_from_mean(
    W: np.ndarray, mean: np.ndarray, scratch: np.ndarray
) -> float | np.ndarray:
    """The mean squared deviation of the local models from their average, per
    run of W (..., m, d), from W's worker mean (keepdims), squaring in scratch."""
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
    W[a]'s runs gossip with P[a], each run of consecutive arms with one
    matrix at once, in that matrix's own form (topology._gossip_form). X
    (..., m, d_x) and Y (..., m) hold the sample each worker of each run
    uses at this step, either per run (X's leading shape is W's) or, for a
    stack with an arm axis (W of 3 or more dimensions), shared by every arm
    (X's leading shape is W's without its first axis): one copy of the
    samples that every arm reads, with the values of per-arm copies. The
    gradient is evaluated at the pre-communication model w_k. The updated
    stack is written into out (C-contiguous, W's shape, sharing no memory
    with W) and the gradients into grads (C-contiguous, W's size, sharing no
    memory with W or out); each is allocated when not given, and the values
    are the same either way.
    """
    groups = _arm_groups(P, W)
    shared = W.ndim >= 3 and X.shape[:-1] == W.shape[1:-1]
    if (
        any(P_a.m != W.shape[-2] for P_a, _ in groups)
        or not (shared or X.shape[:-1] == W.shape[:-1])
        or Y.shape != X.shape[:-1]
    ):
        raise InputError("worker counts of W, P and the drawn samples disagree")
    out = _output(W, out)
    # With shared samples, the gradients of W (A, N, d) at X (N, d_x); else of W (N, d).
    rows = W.reshape(len(W), -1, W.shape[-1]) if shared else W.reshape(-1, W.shape[-1])
    if grads is not None:
        if grads.size != W.size or not grads.flags.c_contiguous:
            raise InputError(f"grads must be a C-contiguous array of {W.size} entries")
        if np.may_share_memory(grads, W) or np.may_share_memory(grads, out):
            raise InputError("grads must share no memory with W or out")
        grads = grads.reshape(rows.shape)
    grads = loss_gradients(model, rows, X.reshape(-1, X.shape[-1]), Y.reshape(-1), out=grads)
    for P_a, arms in groups:
        _gossip_form(P_a)(P_a, W[arms], out[arms])
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
    cap_hits: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Extra pure-gossip rounds until consensus distance <= gamma_sq.

    W is one run (m, d) or a stack of runs (..., m, d); P is one gossip
    matrix or one per arm, as in dsgd_step, and gamma_sq one target or an
    array of targets, each broadcast against the runs (an infinite target
    leaves its runs untouched). Each run gossips only while its own distance
    exceeds its target, for at most max_rounds rounds, and takes the rounds
    it would take alone. Returns the models, written into out (checked as
    dsgd_step's; a new array when not given), and the rounds the loop took,
    the most that any run used; with counts (shape W.shape[:-2]) given, each
    run's own rounds are added to it, and with cap_hits (the same shape)
    given, 1 for each run that used all max_rounds rounds and stayed above
    its target. If the target is unreachable (disconnected components with
    disagreeing means), a run reports max_rounds exhaustion instead of
    raising.

    The rounds follow a schedule, and a check decides every stop:
    - Schedule. A run's deviations D from its worker mean have energy
      e_i = ||v_i^T D||^2 in each eigenvector v_i of P (eigenvalue mu_i;
      one np.linalg.eigh per matrix, cached). Exact gossip leaves the
      distance sum_i mu_i^(2j) e_i / m after j rounds, and the first j at
      which that is at most the target is the run's predicted stop s (the
      cap, when no j up to max_rounds is). Within each group of arms the
      runs are ordered by s, latest first, so round j gossips one prefix of
      the group's block: the runs with s >= j. Round j writes buffer j % 2,
      and no later round touches a run past its stop, so the iterates at
      rounds s - 1 and s stay in the two buffers: no round computes a
      distance, compacts or copies.
    - Check. One _worker_mean/_distance_from_mean call over both buffers
      gives every run's computed distance at rounds s - 1 and s, the values
      the per-round loop computes. A run is accepted iff its distance at s
      is at most its target and its distance at R = s - 1 exceeds the
      target by more than delta; a run at the cap needs only the latter, at
      R = max_rounds. Rounds 1 .. R - 1 are not checked, and delta covers
      them (below). With R <= 1 no round goes unchecked and delta is 0.
    - Replay. A run that fails (a mispredicted s, a distance within delta of
      its target), every run of a matrix outside delta's assumptions and
      every run with a non-finite distance go through _checked_control, the
      loop that computes every round's distance, from the call's start. So
      models, counts and rounds are those of the per-round loop, bit for
      bit: the prediction only sets the schedule; it never decides a stop.
    - Selection. The prediction costs about m / 4 checked rounds (its
      projection is an m x m product per run), so a group of arms takes the
      schedule only when lam^(2j) (lam: P's largest |mu_i| but the top one)
      lets one of its runs need more than 4 + m / 4 rounds; the other groups
      go to _checked_control directly (_schedule_pays; the crossover that
      tools/control_rounds.py --crossover times).

    delta is stated for deviation norms: r = sqrt(m c) for a computed
    distance c, a_j the exact deviation norm of the computed iterate W_j.
    It assumes P nonnegative and exactly symmetric, so that ||P||_2 is at
    most its largest row sum, 1 + eta (eta: the computed max |row sum - 1|
    plus its rounding); other matrices replay every run. With u = 2^-53
    and gamma_k = 2 k u (twice the first-order rounding of k operations):
    - a round adds at most kappa ||W_j||_F to a, kappa = 2 eta +
      2 gamma_(m+1): P stretches the deviations by at most 1 + eta, turns
      at most eta ||W_j||_F of the worker mean into deviation, and every form
      (product, shifted slices, worker mean) rounds within gamma_(m+1) P|W|;
      a round multiplies ||W_j||_F by at most (1 + eta)(1 + gamma_(m+1));
    - r misses a by at most 2 gamma_m ||W_j||_F + u a (the rounded mean and
      differences) and a factor 1 + gamma_(md+2) (the squares and the sum).
    With N = ||W_0||_F (1 + gamma_(md+1)) ((1 + eta)(1 + gamma_(m+1))
    (1 + 4 u))^max_rounds bounding every ||W_j||_F, every round j in
    1 .. R - 1 then has c_j > target when
        r_R (1 - 2 gamma_(md+2) - 8 u) > sqrt(m target) (1 + 4 u)
                                         + N (4 gamma_m + (max_rounds - 1) kappa),
    the u terms covering the rounding of the test itself; that is the test
    "exceeds the target by more than delta". delta grows with the runs'
    common offset: a run far from the origin relative to its spread replays.

    tools/control_rounds.py at seed 0, jobs 1, 400 control calls per sweep
    (2-core box, numpy 2.4.6, one BLAS thread; control seconds are the
    median of 5 sweeps, 3 for criterion 12; distances count the sweep's
    _distance_from_mean calls, the recorder's 201 included):

        shape          control          loop rounds  run-rounds  distances  replayed  seconds
        control-sweep  per-round check         7891      268601       8492         -     0.47
        control-sweep  schedule                7891      268601       1001         0     0.24
        criterion-12   per-round check        12937     1829732      13538         -     1.74
        criterion-12   schedule               12937     1829732       1001         0     0.87
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
    start = W.reshape(-1, *W.shape[-2:])
    runs = out.reshape(start.shape)
    # Only a run with a finite target can be above it; out is the deviations'
    # scratch before it takes the models.
    rows = np.flatnonzero(targets < np.inf)
    block = start if len(rows) == len(start) else start[rows]
    distances = _distance_from_mean(block, _worker_mean(block), runs[: len(rows)])
    np.copyto(out, W)
    per_arm = len(runs) // arm_count
    # Per run: its rounds, and 1 if it used every round and stayed above target.
    used = np.zeros((2, len(runs)), dtype=int)
    above = distances > targets[rows]
    live = rows[above]
    # A non-finite distance (a diverging run) sends the whole call to the
    # checked loop.
    if len(live) and np.isfinite(distances[above]).all():
        live = _scheduled_control(
            start, live, distances[above], targets, groups, per_arm, max_rounds, runs, used
        )
    if len(live):
        _checked_control(start, live, targets, groups, per_arm, max_rounds, runs, used)
    if counts is not None:
        counts += used[0].reshape(counts.shape)
    if cap_hits is not None:
        cap_hits += used[1].reshape(cap_hits.shape)
    return out, int(used[0].max(initial=0))


def _arm_bounds(live: np.ndarray, per_arm: int, arm_count: int) -> list[int]:
    """Arm a's runs among the sorted run indices live are live[bounds[a]:bounds[a + 1]]."""
    return np.searchsorted(live // per_arm, np.arange(arm_count + 1)).tolist()


def _checked_control(
    start: np.ndarray,
    live: np.ndarray,
    targets: np.ndarray,
    groups: list[tuple],
    per_arm: int,
    max_rounds: int,
    runs: np.ndarray,
    used: np.ndarray,
) -> None:
    """Control of the runs start[live] (live sorted) with a distance check every round.

    The rounds gossip a compacted block of the runs still above target,
    each group of arms in its matrix's form, and a run leaves the block
    once it reaches its target. Each run's models go to runs[live], its
    rounds to used[0, live], and a 1 to used[1, live] if it is still above
    target after max_rounds rounds.
    """
    arm_count = groups[-1][3]
    goal = targets[live]
    # The rounds alternate two buffers: one holds the live block, in arm
    # order, and the other takes its gossip, then its compaction.
    buffers = np.empty((2, len(live), *start.shape[1:]))
    current = 0
    np.take(start, live, axis=0, out=buffers[current], mode="clip")
    rounds, bounds = 0, None
    while rounds < max_rounds and len(live):
        block, other = buffers[current, : len(live)], buffers[1 - current, : len(live)]
        if bounds is None:
            bounds = _arm_bounds(live, per_arm, arm_count)
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
            used[0, live[done]] = rounds
            np.take(block, keep, axis=0, out=other[: len(keep)], mode="clip")
            live, goal, current, bounds = live[keep], goal[keep], 1 - current, None
    runs[live] = buffers[current, : len(live)]
    used[0, live], used[1, live] = rounds, 1


# Unit roundoff of float64.
_U = 2.0**-53

# Rounds of predicted distances computed at once: every run gets the first
# ones, and a run that stays above its target through them the next ones,
# up to the cap, so that no table grows with max_rounds.
PREDICTED_ROUNDS = 64


def _gamma(k: int) -> float:
    """Twice the first-order bound k u on the relative rounding of k operations."""
    return 2.0 * k * _U


@functools.lru_cache(maxsize=8)
def _control_modes(P: GossipMatrix, max_rounds: int) -> tuple | None:
    """What scheduled control needs of P (consensus_control_step), or None when
    P is outside delta's assumptions: not nonnegative or not exactly
    symmetric. Cached for the last few matrices, so that a stack takes one
    eigh per matrix.

    Returns (project, decay, head, slack, lam). project (m, m) holds P's
    eigenvectors v_i as rows, each minus its mean, so that project @ W gives
    v_i^T D for the deviations D of W; decay[i] = mu_i^2, and head[i, j - 1]
    = mu_i^(2j) for the first PREDICTED_ROUNDS rounds j; slack is delta's
    margin per unit of ||W_0||_F, before the distance's own rounding; lam
    is the largest |mu_i| but the top eigenvalue's.
    """
    entries = P.entries
    if not (np.array_equal(entries, entries.T) and entries.min() >= 0):
        return None
    values, vectors = np.linalg.eigh(entries)
    eta = float(np.abs(entries.sum(axis=1) - 1.0).max()) + _gamma(P.m)
    rounding = _gamma(P.m + 1)
    growth = ((1.0 + eta) * (1.0 + rounding) * (1.0 + 4 * _U)) ** max_rounds
    decay = np.square(values)
    return (
        np.ascontiguousarray((vectors - vectors.mean(axis=0)).T),
        decay,
        decay[:, None] ** np.arange(1, min(PREDICTED_ROUNDS, max_rounds) + 1),
        growth * (4.0 * _gamma(P.m) + (max_rounds - 1) * (2.0 * eta + 2.0 * rounding)),
        float(max(abs(values[0]), abs(values[-2]))) if P.m > 1 else 0.0,
    )


def _schedule_pays(lam: float, ratio: float, m: int) -> bool:
    """Whether a group of arms should take the schedule: true when the bound
    lam^(2j) on the distance's decay lets one of its runs need more than
    4 + m / 4 rounds (ratio: the smallest target over distance among them).
    With fewer rounds the per-round checks cost less than the prediction,
    whose projection costs about m / 4 checked rounds at m = 64 and 256
    (tools/control_rounds.py --crossover)."""
    if lam >= 1.0:
        return True
    if lam == 0.0:
        return False
    return math.log(ratio) / (2.0 * math.log(lam)) > 4 + m / 4


def _predicted_stops(
    block: np.ndarray,
    goal: np.ndarray,
    modes: tuple,
    max_rounds: int,
) -> np.ndarray:
    """Each run's first round j with sum_i mu_i^(2j) e_i <= m goal, or the cap
    plus one; e holds the energies of the run's deviations in the modes of
    P (_control_modes). The predicted distance falls from round to round,
    so the rounds above the target are the first ones."""
    project, decay, head, _, _ = modes
    coefficients = project @ block
    energies = np.einsum("lkd,lkd->lk", coefficients, coefficients)
    limit = len(decay) * goal[:, None]
    stops = 1 + np.count_nonzero(energies @ head > limit, axis=1)
    first = head.shape[1]
    late = np.flatnonzero(stops > first)
    while len(late) and first < max_rounds:
        rounds = np.arange(first + 1, min(first + PREDICTED_ROUNDS, max_rounds) + 1)
        above = energies[late] @ decay[:, None] ** rounds > limit[late]
        count = np.count_nonzero(above, axis=1)
        stops[late] += count
        late, first = late[count == len(rounds)], first + len(rounds)
    return stops


def _scheduled_control(
    start: np.ndarray,
    live: np.ndarray,
    distances: np.ndarray,
    targets: np.ndarray,
    groups: list[tuple],
    per_arm: int,
    max_rounds: int,
    runs: np.ndarray,
    used: np.ndarray,
) -> np.ndarray:
    """Control of the runs start[live] (live sorted, at the given distances) on
    the predicted schedule (consensus_control_step). Writes each accepted
    run's models to runs and its rounds and cap hit to used, as
    _checked_control does; returns the sorted indices of the runs it leaves
    to _checked_control."""
    m, d = start.shape[1:]
    bounds = _arm_bounds(live, per_arm, groups[-1][3])
    gathered, goals = start[live], targets[live]
    # Per group of arms that takes the schedule (its matrix meets delta's
    # assumptions, and its runs may need enough rounds): its matrix, form
    # and run count; per run, in the block's order (each group's runs latest
    # stop first): its position in live, predicted stop and slack.
    plan, positions, predicted, slack, direct = [], [], [], [], []
    for P_a, gossip, first, end in groups:
        span = slice(bounds[first], bounds[end])
        if span.start == span.stop:
            continue
        modes = _control_modes(P_a, max_rounds)
        if modes is None or not _schedule_pays(
            modes[4], float((goals[span] / distances[span]).min()), P_a.m
        ):
            direct.append(live[span])
            continue
        stops = _predicted_stops(gathered[span], goals[span], modes, max_rounds)
        order = np.argsort(-stops, kind="stable")
        plan.append((P_a, gossip, len(order)))
        positions.append(order + span.start)
        predicted.append(stops[order])
        slack.append(np.full(len(order), modes[3]))
    if not plan:
        return live
    order, predicted, slack = (np.concatenate(part) for part in (positions, predicted, slack))
    size = len(order)
    block = np.empty((2, size, m, d))
    np.take(gathered, order, axis=0, out=block[0], mode="clip")
    norms = np.sqrt(np.einsum("lkd,lkd->l", block[0], block[0]))
    stops = np.minimum(predicted, max_rounds)

    # Round j gossips, per group, the prefix of its runs whose stop is at
    # least j (ends[j - 1] ends it), from block[(j - 1) % 2] into block[j % 2].
    schedule, low = [], 0
    for P_a, gossip, count in plan:
        ascending = stops[low : low + count][::-1]
        ends = low + count - np.searchsorted(ascending, np.arange(1, ascending[-1] + 1))
        schedule.append((P_a, gossip, low, ends.tolist()))
        low += count
    views = (block[0], block[1])
    for j in range(1, int(stops.max()) + 1):
        source, into = views[1 - j % 2], views[j % 2]
        for P_a, gossip, low, ends in schedule:
            if j <= len(ends):
                end = ends[j - 1]
                gossip(P_a, source[low:end], into[low:end])

    # Run i's iterate at its stop is kept[i + size * (stop % 2)], and the one
    # a round before it the other. Its models, then every kept iterate's
    # distance, computed in place, and the check.
    index = live[order]
    kept = block.reshape(2 * size, m, d)
    at_stop = np.arange(size) + size * (stops % 2)
    runs[index] = kept[at_stop]
    used[0, index] = stops
    checked = _distance_from_mean(kept, _worker_mean(kept), kept)
    # R, the last round known to be above target (the cap, for a run that
    # stays above it), and its distance.
    capped = predicted > max_rounds
    last_above = stops - 1 + capped
    above = checked[np.where(capped, at_stop, (at_stop + size) % (2 * size))]
    goal = goals[order]
    margin = norms * slack * (1.0 + _gamma(m * d + 1))
    covered = np.sqrt(m * above) * (1.0 - 2.0 * _gamma(m * d + 2) - 8 * _U) > (
        np.sqrt(m * goal) * (1.0 + 4 * _U) + margin
    )
    accepted = (
        (capped | (checked[at_stop] <= goal)) & (above > goal) & ((last_above <= 1) | covered)
    )
    used[1, index] = accepted & capped
    return np.sort(np.concatenate([index[~accepted], *direct]))


def run_dsgd(
    arms: list[tuple[GossipMatrix, ConsensusControl | None]],
    shards: list[Shards],
    model: LossModel,
    config: TrainConfig,
    seeds: list[int],
) -> Traces:
    """Runs from the all-zeros initialization, every arm and run stepped as one stack.

    Run k trains on shards[k] from seed seeds[k] under every arm (P, control);
    with control set, every step after t_gamma is followed by extra gossip
    rounds keeping the consensus distance at most gamma_sq. Returns the
    Traces of every arm and run, with one side; each run's entries equal
    those of a one-arm, one-run call, bit for bit. config's seed is not
    used. Single runs record no risks.

    Raises:
        InputError: no arm or no shard set, a matrix does not fit the shards,
            a control onset lies past the run length, the controlled arms
            differ in max_rounds, or seeds (perturbations) are not one per
            shard set.
        NumericalError: a run diverged; names the seed and snapshot step of
            the earliest divergence found, of the lowest such run on a tie.
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
) -> Traces:
    """Coupled runs of shards[k] against perturbations[k] under every arm, as one stack.

    Both sides of a pair share the seed, hence the same zeta sequence on
    every worker. Returns the Traces of every arm and pair, as run_dsgd
    does, with two sides, no consensus models, and each pair's worker mean of
    the squared weight differences at each snapshot (sq_diffs); with risks set,
    also the base side's per-worker empirical risks at every snapshot, and a
    non-finite risk is a divergence.

    Raises:
        InputError: as run_dsgd's, or a perturbation whose index lies outside
            the shards, whose workers lie outside [0, m) or repeat, or whose
            replacement arrays do not hold one sample per worker; names the run.
        NumericalError: as run_dsgd's.
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
) -> Traces:
    """The trajectory loop: steps A arms of K runs of s sides as one stack W (A, K, s, m, d).

    With perturbations, run k's second side trains on shards[k] with
    perturbations[k] applied. The runs are stepped in sub-stacks that keep
    each stack-sized buffer within STACK_BYTES; a run's traces do not depend
    on the runs stepped with it.
    """
    if not arms or not shards:
        raise InputError(
            f"a stack needs an arm and a shard set, got {len(arms)} and {len(shards)}"
        )
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
    for name, given in (("seeds", seeds), ("perturbations", perturbations)):
        if given is not None and len(given) != len(shards):
            raise InputError(f"{len(given)} {name} for {len(shards)} shard sets")

    data = _StackData(shards, perturbations)
    sides, d = data.sides, model.dim(d_x)
    recorder = _TraceRecorder(model, data, config.snapshot_iterations, seeds, len(arms), risks)
    final = np.empty((len(arms), len(shards), sides, m, d))
    # Per arm, run and side: control rounds, and control calls that hit the cap.
    control = np.zeros((2, *final.shape[:3]), dtype=int)
    run_bytes = len(arms) * sides * m * max(d, d_x) * final.itemsize
    size = max(1, STACK_BYTES // run_bytes)
    # A divergent sub-stack does not stop the others, so that the error
    # raised is the one an unsplit stack raises: the earliest step's, and the
    # lowest run's on a tie.
    diverged: list[NumericalError] = []
    for start in range(0, len(shards), size):
        runs = slice(start, min(start + size, len(shards)))
        try:
            final[:, runs] = _step_runs(
                arms, data, model, config, seeds[runs], runs, recorder, control[:, :, runs]
            )
        except NumericalError as error:
            diverged.append(error)
    if diverged:
        raise min(diverged, key=lambda error: error.step)
    return recorder.finish(final, control)


def _step_runs(
    arms: list[tuple[GossipMatrix, ConsensusControl | None]],
    data: _StackData,
    model: LossModel,
    config: TrainConfig,
    seeds: list[int],
    runs: slice,
    recorder: _TraceRecorder,
    control: np.ndarray,
) -> np.ndarray:
    """Steps the sub-stack of `runs` from zero to the end, recording every snapshot;
    returns its final W; index blocks span snapshot intervals. Adds each side's
    control rounds to control[0] and its control calls that used every round
    and stayed above target to control[1]."""
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
    # freed each step would go back to the OS and be faulted in again. The
    # step's gradients and the recorder's deviations and pair differences
    # take turns in one scratch; every arm reads one copy of the samples.
    spare, scratch = np.empty_like(W), np.empty_like(W)
    X = np.empty((*W.shape[1:-1], d_x))
    Y = np.empty(W.shape[1:-1])
    recorder.start(runs, W, scratch)
    recorder.record(0, W)
    slot = 1
    block = max(1, min(INDEX_DRAW_STEPS, INDEX_DRAW_BYTES // (8 * len(rngs) * m)))
    for first in range(0, total, block):
        steps = min(block, total - first)
        zeta = np.stack([rng.integers(0, n, size=(steps, m)) for rng in rngs], axis=1)
        rows, hits = data.rows(zeta, runs)
        for step, t in enumerate(range(first + 1, first + steps + 1)):
            # The rows are in range, so "clip" never clips; unlike "raise",
            # it writes into out without an intermediate buffer.
            np.take(data.xs, rows[step], axis=0, out=X, mode="clip")
            np.take(data.ys, rows[step], out=Y, mode="clip")
            if hits is not None:
                data.patch(X, Y, hits[step], runs)
            rate = config.rate.at(t - 1, total)
            W, spare = dsgd_step(W, matrices, X, Y, rate, model, out=spare, grads=scratch), W
            if t > first_onset:
                now = np.where(onsets < t, targets, np.inf)[:, None, None]
                controlled, _ = consensus_control_step(
                    W, matrices, now, max_rounds, control[0], out=spare, cap_hits=control[1]
                )
                W, spare = controlled, W
            if t == logged[slot]:
                recorder.record(slot, W)
                slot += 1
    return W


class _StackData:
    """A stack's samples, each distinct shard set once, and its pairs' side table.

    xs (R m n, d_x) and ys (R m n,) are the R distinct shard sets, in order of
    first use (replicates[r]; run k trains on replicates[replicate[k]]), seen
    flat: a view of the caller's array when the shard sets are its
    consecutive slices (_tiling), else one copy. For coupled runs, run k's
    perturbation puts the sample replacement_xs[k, w], replacement_ys[k, w] at
    index target[k, w] of worker w's shard; target is -1 where it leaves w
    alone (zeta is never -1).
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
        self.xs = _tiling([s.xs for s in self.replicates]).reshape(-1, d_x)
        self.ys = _tiling([s.ys for s in self.replicates]).reshape(-1)
        if perturbations is None:
            return
        self.target = np.full((len(shards), m), -1)
        self.replacement_xs = np.zeros((len(shards), m, d_x))
        self.replacement_ys = np.zeros((len(shards), m))
        for k, perturbation in enumerate(perturbations):
            problem = _perturbation_problem(perturbation, m, n, d_x)
            if problem:
                raise InputError(f"perturbation of run {k}: {problem}")
            self.target[k, perturbation.workers] = perturbation.index
            self.replacement_xs[k, perturbation.workers] = perturbation.replacement_xs
            self.replacement_ys[k, perturbation.workers] = perturbation.replacement_ys

    def rows(self, zeta: np.ndarray, runs: slice) -> tuple[np.ndarray, np.ndarray | None]:
        """The rows of xs that runs[k] reads at sample indices zeta (steps, K', m):
        side 0's, as a (steps, K', s, m) view for every side; and for coupled
        runs the hits (steps, K', m) where side 1 reads its replaced sample (patch)."""
        rows = (self.first[runs] + zeta)[:, :, None]
        rows = np.broadcast_to(rows, (*zeta.shape[:2], self.sides, zeta.shape[2]))
        return rows, None if self.sides == 1 else zeta == self.target[runs]

    def patch(self, X: np.ndarray, Y: np.ndarray, hits: np.ndarray, runs: slice) -> None:
        """Side 1's replaced samples into the gathered X (K', 2, m, d_x), Y (K', 2, m) at hits."""
        np.copyto(X[:, 1], self.replacement_xs[runs], where=hits[..., None])
        np.copyto(Y[:, 1], self.replacement_ys[runs], where=hits)

    def risk_groups(self, runs: slice) -> list[tuple[Shards, np.ndarray]]:
        """Per shard set that runs in `runs` use: those shards and the runs'
        indices within the slice."""
        return [
            (self.replicates[r], np.flatnonzero(self.replicate[runs] == r))
            for r in np.unique(self.replicate[runs])
        ]


def _perturbation_problem(perturbation: Perturbation, m: int, n: int, d_x: int) -> str | None:
    """What makes the perturbation unfit for shards of shape (m, n, d_x), or None."""
    workers = np.asarray(perturbation.workers)
    if not 0 <= perturbation.index < n:
        return f"index {perturbation.index} outside shard size {n}"
    if np.any((workers < 0) | (workers >= m)):
        return f"workers {workers.tolist()} outside [0, {m})"
    # A set, not np.unique: np.unique imports numpy.ma, 0.7 MB of peak RSS.
    if len(set(workers.tolist())) != len(workers):
        return f"workers {workers.tolist()} repeat a worker"
    shapes = np.shape(perturbation.replacement_xs), np.shape(perturbation.replacement_ys)
    if shapes != ((len(workers), d_x), (len(workers),)):
        return (
            f"replacement arrays of shapes {shapes[0]} and {shapes[1]} do not hold one "
            f"sample per worker for {len(workers)} workers"
        )
    return None


def _tiling(parts: list[np.ndarray]) -> np.ndarray:
    """The array whose leading slices are parts, in order: the C-contiguous array
    they tile, when they do, else one float copy of them."""
    whole = parts[0].base
    if (
        isinstance(whole, np.ndarray)
        and whole.flags.c_contiguous
        and whole.shape == (len(parts), *parts[0].shape)
        and all(p.base is whole and p.ctypes.data == q.ctypes.data for p, q in zip(parts, whole))
    ):
        return whole
    return np.stack(parts, dtype=float)


class _TraceRecorder:
    """Snapshot rows of every arm, run and side of a stack, at the logged iterations.

    Records one sub-stack at a time (start, then record per snapshot) into
    arrays that hold every run: each side's consensus distance, a single
    run's consensus model, each pair's worker-mean squared difference, and,
    when risks are asked for, the base side's per-worker risks. Raises
    NumericalError at the first snapshot where some consensus distance, or
    some recorded risk, is not finite, naming the lowest such run's seed: a
    non-finite W stays non-finite under W' = P W - eta G, so a divergent run
    is always caught by the final snapshot at the latest.
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
        shape = (arms, runs, sides, len(logged), model.dim(d_x))
        self.consensus = np.zeros(shape) if sides == 1 else None
        self.consensus_dist = np.zeros((arms, runs, sides, len(logged)))
        self.risks = np.zeros((arms, runs, len(logged), m)) if risks else None
        self.sq_diffs = np.zeros((arms, runs, len(logged))) if sides == 2 else None

    def start(self, runs: slice, W: np.ndarray, scratch: np.ndarray) -> None:
        """Take the sub-stack W (A, K', s, m, d) of `runs` and scratch, an array of
        W's shape that holds the deviations and then the pair differences at
        every snapshot (the step loop writes its gradients there in between);
        allocates the base side's per-sample losses, reused at every snapshot."""
        self.runs, self.scratch = runs, scratch
        if self.risks is not None:
            self.groups = self.data.risk_groups(runs)
            self.losses = np.empty((W.shape[1], W.shape[3], self.data.shape[1]))

    def record(self, slot: int, W: np.ndarray) -> None:
        runs = self.runs
        # A diverging W overflows the sums of squares; that is reported below.
        with np.errstate(over="ignore", invalid="ignore"):
            mean = _worker_mean(W)
            distances = _distance_from_mean(W, mean, self.scratch)
        self._check(distances, "consensus distance", slot)
        if self.consensus is not None:
            self.consensus[:, runs, :, slot] = mean[..., 0, :]
        self.consensus_dist[:, runs, :, slot] = distances
        if self.risks is not None:
            base = W[:, :, 0]
            risks = np.empty(base.shape[:-1])
            with np.errstate(over="ignore", invalid="ignore"):
                for arm_W, arm_risks in zip(base, risks):
                    for shards, local in self.groups:
                        arm_risks[local] = worker_risks(
                            self.model, arm_W[local], shards, self.losses[: len(local)]
                        )
            self._check(risks, "a worker risk", slot)
            self.risks[:, runs, slot] = risks
        if self.sq_diffs is not None:
            pair_diff = self.scratch[:, :, 0]
            np.subtract(W[:, :, 0], W[:, :, 1], out=pair_diff)
            np.square(pair_diff, out=pair_diff)
            self.sq_diffs[:, runs, slot] = pair_diff.sum(axis=-1).mean(axis=-1)

    def _check(self, values: np.ndarray, name: str, slot: int) -> None:
        """NumericalError naming the lowest run with a non-finite value, index (arm, run, ...)."""
        diverged = np.argwhere(~np.isfinite(values.swapaxes(0, 1)))
        if len(diverged):
            run, arm, *rest = diverged[0]
            step = int(self.logged[slot])
            raise NumericalError(
                f"run with seed {self.seeds[self.runs.start + run]} diverged: {name} is "
                f"{values[(arm, run, *rest)]} at step {step}",
                step=step,
            )

    def finish(self, W: np.ndarray, control: np.ndarray) -> Traces:
        """The recorded arrays, the final stack W and control's (rounds, cap hits)."""
        return Traces(
            iterations=np.array(self.logged),
            consensus=self.consensus,
            consensus_dist=self.consensus_dist,
            final=W,
            rounds=control[0],
            cap_hits=control[1],
            sq_diffs=self.sq_diffs,
            risks=self.risks,
        )
