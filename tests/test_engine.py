"""Decentralized SGD dynamics: the update map, traces, and coupled runs."""

import functools
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsgd_lab import engine
from dsgd_lab.engine import (
    ConsensusControl,
    ConstantRate,
    Perturbation,
    PerturbationMode,
    StepDecayRate,
    TrainConfig,
    consensus_control_step,
    consensus_distance,
    consensus_model,
    draw_perturbation,
    dsgd_step,
    run_coupled,
    run_dsgd,
)
from dsgd_lab.errors import InputError, NumericalError
from dsgd_lab.models import (
    LossModel,
    ModelFamily,
    Shards,
    SyntheticTask,
    draw_dataset_arrays,
    loss_gradients,
    worker_risks,
)
from dsgd_lab.topology import (
    GossipMatrix,
    TopologyKind,
    build_gossip_matrix,
    eigenvalues_symmetric,
    load_gossip_matrix,
)

LINEAR = LossModel(family=ModelFamily.LINEAR_REGRESSION)


def custom(entries):
    """A custom gossip matrix with the given entries, unchecked."""
    return GossipMatrix(m=len(entries), entries=entries, kind=TopologyKind.CUSTOM)


def make_task(d_x=3, noise_std=0.1):
    return SyntheticTask.isotropic(
        ModelFamily.LINEAR_REGRESSION, d_x,
        np.full(d_x, 1.0 / math.sqrt(d_x)), noise_std,
    )


def make_shards(task, n, m, seed=0):
    """m shards of n samples: one draw of n * m from the seed, split contiguously."""
    xs, ys = draw_dataset_arrays(task, n * m, np.random.default_rng(seed))
    return Shards(xs=xs.reshape(m, n, task.d_x), ys=ys.reshape(m, n))


def linear_gradient(w, x, y):
    """Gradient (x.w - y) x of the squared loss, written out as the oracle."""
    return (x @ w - y) * x


def run_one(P, shards, model, config, control=None):
    """One run alone: a one-arm, one-run run_dsgd call from the config's seed."""
    return run_dsgd([(P, control)], [shards], model, config, [config.seed])[0][0]


def coupled_one(P, shards, model, config, perturbation, control=None, risks=False):
    """One coupled pair alone: a one-arm, one-pair run_coupled call."""
    return run_coupled(
        [(P, control)], [shards], model, config, [perturbation], [config.seed], risks
    )[0][0]


# ---------------------------------------------------------------------------
# Schedules and config
# ---------------------------------------------------------------------------


def test_constant_rate():
    rate = ConstantRate(0.1)
    assert rate.at(0, 100) == rate.at(99, 100) == 0.1


def test_step_decay_boundaries():
    rate = StepDecayRate(1.0)
    total = 10
    assert rate.at(3, total) == 1.0  # floor(2T/5) = 4
    assert rate.at(4, total) == 0.1
    assert rate.at(7, total) == 0.1  # floor(4T/5) = 8
    assert rate.at(8, total) == 0.01


def test_step_decay_is_non_increasing():
    rate = StepDecayRate(0.5)
    values = [rate.at(t, 1000) for t in range(1000)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(iterations=-1, rate=ConstantRate(0.1), seed=0)
    with pytest.raises(InputError):
        TrainConfig(iterations=10, rate=ConstantRate(0.1), seed=0, snapshot_every=0)
    assert TrainConfig(iterations=1000, rate=ConstantRate(0.1), seed=0).cadence == 5
    assert TrainConfig(iterations=10, rate=ConstantRate(0.1), seed=0).cadence == 1


# ---------------------------------------------------------------------------
# Single update
# ---------------------------------------------------------------------------


def drawn(shards, zeta):
    """The samples (X, Y) that the index vector zeta picks, one per worker."""
    rows = np.arange(shards.m)
    return shards.xs[rows, zeta], shards.ys[rows, zeta]


def test_step_hand_example_two_workers():
    # Uniform pair averaging, d = 1: gossip lands both on 1.0, then the
    # gradients (1, -1) at eta = 0.1 split them to (0.9, 1.1).
    P = build_gossip_matrix(TopologyKind.FULLY_CONNECTED, 2)
    shards = Shards(xs=np.ones((2, 1, 1)), ys=np.ones((2, 1)))
    W = np.array([[2.0], [0.0]])
    stepped = dsgd_step(W, P, *drawn(shards, np.array([0, 0])), 0.1, LINEAR)
    assert np.allclose(stepped.ravel(), [0.9, 1.1])


def test_step_zero_rate_is_pure_gossip():
    task = make_task()
    shards = make_shards(task, 4, 3)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    rng = np.random.default_rng(1)
    W = rng.standard_normal((3, 3))
    stepped = dsgd_step(W, P, *drawn(shards, np.array([0, 1, 2])), 0.0, LINEAR)
    assert np.allclose(stepped, P.entries @ W, atol=0)


def test_step_identity_matrix_is_independent_sgd():
    task = make_task()
    shards = make_shards(task, 4, 3)
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 3)
    rng = np.random.default_rng(2)
    W = rng.standard_normal((3, 3))
    zeta = np.array([1, 2, 0])
    stepped = dsgd_step(W, P, *drawn(shards, zeta), 0.05, LINEAR)
    for k in range(3):
        x, y = shards.xs[k, zeta[k]], shards.ys[k, zeta[k]]
        expected = W[k] - 0.05 * linear_gradient(W[k], x, y)
        assert np.allclose(stepped[k], expected, atol=1e-15)


@settings(max_examples=60)
@given(
    family=st.sampled_from(list(ModelFamily)),
    stack=st.lists(st.integers(1, 3), max_size=3),
    m=st.integers(1, 5),
    d_x=st.integers(1, 4),
    eta=st.sampled_from([0.0, 0.05, 0.5]),
    stacked_mixing=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_and_gradients_fill_given_buffers(family, stack, m, d_x, eta, stacked_mixing, seed):
    # The trajectory loop passes buffers it allocated once per stack; what
    # lands in them must be the allocating calls' values, bit for bit, and a
    # buffer that would read W while it is written is refused.
    model = LossModel(family=family, hidden_width=3)
    rng = np.random.default_rng(seed)
    d = model.dim(d_x)
    W = rng.standard_normal((*stack, m, d))
    X = rng.standard_normal((*stack, m, d_x))
    Y = rng.standard_normal((*stack, m))
    if family is ModelFamily.LOGISTIC_REGRESSION:
        Y = (Y > 0).astype(float)
    # One matrix for every run, or with a stack, one per arm W[a].
    P = custom(rng.random((m, m)))
    if stacked_mixing and stack:
        P = [custom(rng.random((m, m))) for _ in range(stack[0])]
    before = W.copy()
    flat = (W.reshape(-1, d), X.reshape(-1, d_x), Y.reshape(-1))
    buffer = np.full((Y.size, d), np.nan)
    assert loss_gradients(model, *flat, out=buffer) is buffer
    assert_same_array(buffer, loss_gradients(model, *flat))
    out, grads = np.full(W.shape, np.nan), np.full((Y.size, d), np.nan)
    assert dsgd_step(W, P, X, Y, eta, model, out=out, grads=grads) is out
    assert_same_array(out, dsgd_step(W, P, X, Y, eta, model))
    assert_same_array(W, before)
    for bad in (W, W[...], W[..., ::-1, :], np.empty((*stack, m, d + 1)), np.empty(m * d)):
        with pytest.raises(InputError, match="out"):
            dsgd_step(W, P, X, Y, eta, model, out=bad)
    for bad in (W.reshape(-1, d), out.reshape(-1, d)):
        with pytest.raises(InputError, match="grads"):
            dsgd_step(W, P, X, Y, eta, model, out=out, grads=bad)
    bad_outs = [np.empty((Y.size, d + 1)), np.empty((Y.size + 1, d))]
    if Y.size * d > 1:
        bad_outs.append(np.empty((Y.size, d, 2))[..., 0])
    for bad in bad_outs:
        with pytest.raises(InputError, match="out"):
            loss_gradients(model, *flat, out=bad)


# ---------------------------------------------------------------------------
# Gossip forms
# ---------------------------------------------------------------------------

BUILT = [
    (kind, m)
    for kind, sizes in [
        (TopologyKind.FULLY_CONNECTED, [2, 3, 16, 256]),
        (TopologyKind.RING, [2, 3, 16, 256, 1024]),
        (TopologyKind.GRID_2D_TORUS, [4, 9, 16, 256, 1024]),
        (TopologyKind.STATIC_EXPONENTIAL, [2, 4, 16, 256, 1024]),
        (TopologyKind.DISCONNECTED, [1, 3, 256]),
    ]
    for m in sizes
]


@functools.cache
def built(kind, m):
    return build_gossip_matrix(kind, m)


def is_single_weight_circulant(entries):
    """Row i is row 0 rolled by i over the worker cycle, or, on a square
    torus, by i's row and column; and row 0's nonzero entries are all equal."""
    m = len(entries)
    first = entries[0]
    nonzero = first[first != 0]
    if not len(nonzero) or np.any(nonzero != nonzero[0]):
        return False
    if all(np.array_equal(entries[i], np.roll(first, i)) for i in range(m)):
        return True
    side = math.isqrt(m)
    return side > 1 and side * side == m and all(
        np.array_equal(entries[i].reshape(side, side),
                       np.roll(first.reshape(side, side), divmod(i, side), axis=(0, 1)))
        for i in range(m)
    )


def symmetric_circulant(m, shifts):
    """The single-weight circulant over the worker cycle with shifts +-s for s in shifts."""
    support = sorted({s % m for s in shifts} | {-s % m for s in shifts})
    first = np.zeros(m)
    first[support] = 1.0 / len(support)
    return np.array([np.roll(first, i) for i in range(m)])


def loaded(entries):
    """entries written to a CSV file with every digit, then loaded as a custom matrix."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "matrix.csv"
        np.savetxt(path, entries, delimiter=",", fmt="%.17g")
        return load_gossip_matrix(path)


@st.composite
def gossip_matrices(draw):
    """A built kind at a size on either side of the crossover, or a loaded custom matrix:
    a random single-weight circulant, the same with its workers relabeled, a
    circulant with two weights, or a sum of permutation matrices."""
    source = draw(st.sampled_from(
        ["built", "circulant", "relabeled", "two weights", "permutations"]
    ))
    if source == "built":
        return built(*draw(st.sampled_from(BUILT)))
    m = draw(st.sampled_from([3, 8, 16, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if source == "permutations":
        perms = [np.eye(m)[rng.permutation(m)] for _ in range(draw(st.integers(1, 3)))]
        return loaded(sum(p + p.T for p in perms) / (2 * len(perms)))
    entries = symmetric_circulant(m, rng.integers(0, m, size=draw(st.integers(1, 4))))
    if source == "two weights":
        # Half on each worker itself, half spread over its neighbors at +-1, +-2.
        entries = (np.eye(m) + symmetric_circulant(m, [1, 2])) / 2
    if source == "relabeled":
        order = rng.permutation(m)
        entries = entries[order][:, order]
    return loaded(entries)


@settings(max_examples=150)
@given(
    P=gossip_matrices(),
    crossover=st.sampled_from([1, engine.DENSE_GOSSIP_BELOW]),
    stack=st.lists(st.integers(1, 3), max_size=2),
    d=st.integers(1, 3),
    scale=st.sampled_from([1e-3, 1.0, 1e5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gossip_form_equals_the_dense_product(P, crossover, stack, d, scale, seed):
    # Below the crossover and for every matrix that is not a single-weight
    # circulant the form is the dense product; otherwise it is the worker
    # mean when every entry is equal, and the shifted slices else. Each
    # equals entries @ W to a few ulps of max|W|, and leaves W alone.
    W = np.random.default_rng(seed).standard_normal((*stack, P.m, d)) * scale
    before = W.copy()
    with mock.patch.object(engine, "DENSE_GOSSIP_BELOW", crossover):
        form = engine._gossip_form(P)
        got = form(P, W, np.full(W.shape, np.nan))
    if P.m < crossover or not is_single_weight_circulant(P.entries):
        assert form is engine._dense_gossip
    elif np.all(P.entries == P.entries[0, 0]):
        assert form is engine._mean_gossip
    else:
        assert form is engine._shifted_gossip
    assert np.max(np.abs(got - P.entries @ W)) <= 4 * np.spacing(np.max(np.abs(W)))
    assert_same_array(W, before)


def test_built_kinds_gossip_in_their_structured_form_from_the_crossover():
    forms = {
        TopologyKind.FULLY_CONNECTED: engine._mean_gossip,
        TopologyKind.RING: engine._shifted_gossip,
        TopologyKind.GRID_2D_TORUS: engine._shifted_gossip,
        TopologyKind.STATIC_EXPONENTIAL: engine._shifted_gossip,
        TopologyKind.DISCONNECTED: engine._shifted_gossip,
    }
    for kind, m in BUILT:
        P = built(kind, m)
        assert engine._gossip_form(P) is (
            forms[kind] if m >= engine.DENSE_GOSSIP_BELOW else engine._dense_gossip
        )
    assert engine._gossip_form(loaded(two_islands(256).entries)) is engine._dense_gossip


@pytest.mark.parametrize("m", [4, 16, 64, engine.DENSE_GOSSIP_BELOW - 1])
def test_gossip_below_the_crossover_is_the_broadcast_product(m):
    # Below the crossover a step gossips its arms as one broadcast product of
    # their entries, stacked once per stack, and each arm's values must be
    # those of its own product, bit for bit.
    kinds = [TopologyKind.RING, TopologyKind.FULLY_CONNECTED, TopologyKind.DISCONNECTED]
    if math.isqrt(m) ** 2 == m:
        kinds.append(TopologyKind.GRID_2D_TORUS)
    if m & (m - 1) == 0:
        kinds.append(TopologyKind.STATIC_EXPONENTIAL)
    matrices = [build_gossip_matrix(kind, m) for kind in kinds]
    rng = np.random.default_rng(m)
    W = rng.standard_normal((len(kinds), 3, 2, m, 11))
    X, Y = rng.standard_normal((*W.shape[:-1], 11)), rng.standard_normal(W.shape[:-1])
    stacked = np.stack([P.entries for P in matrices])[:, None, None]
    grads = loss_gradients(LINEAR, W.reshape(-1, 11), X.reshape(-1, 11), Y.reshape(-1))
    expected = np.matmul(stacked, W) - (0.05 * grads).reshape(W.shape)
    assert_same_array(dsgd_step(W, matrices, X, Y, 0.05, LINEAR), expected)
    ((gossip, entries, arms),) = engine._step_gossip(matrices, engine._arm_groups(matrices, W))
    assert gossip is engine._stacked_gossip and arms == slice(None)
    assert entries is engine._stacked_entries(tuple(matrices))
    for P in matrices:
        assert_same_array(dsgd_step(W, P, X, Y, 0.0, LINEAR), np.matmul(P.entries, W))


# ---------------------------------------------------------------------------
# Consensus quantities
# ---------------------------------------------------------------------------


def test_consensus_model_examples():
    assert np.allclose(consensus_model(np.array([[1.0, 0.0], [-1.0, 0.0]])), [0.0, 0.0])
    assert consensus_model(np.array([[1.0], [2.0], [3.0]]))[0] == pytest.approx(2.0)
    W = np.tile([1.5, -2.0], (4, 1))
    assert np.allclose(consensus_model(W), [1.5, -2.0])


def test_consensus_distance_examples():
    assert consensus_distance(np.tile([3.0, 1.0], (5, 1))) == 0.0
    assert consensus_distance(np.array([[1.0, 0.0], [-1.0, 0.0]])) == pytest.approx(1.0)
    W = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    assert consensus_distance(W) == pytest.approx(1.0)


@settings(max_examples=60)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 70),
                    st.integers(1, 70)),
    log_scale=st.integers(-5, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_reductions_equal_per_run_reductions(shape, log_scale, seed):
    # The engine records every run of a stack with one reduction; each run's
    # entry must be the value the run alone gives, bit for bit.
    W = np.random.default_rng(seed).standard_normal(shape) * 10.0**log_scale
    means, distances = consensus_model(W), consensus_distance(W)
    for k, side in np.ndindex(shape[:2]):
        assert np.array_equal(means[k, side], consensus_model(W[k, side]))
        assert distances[k, side] == consensus_distance(W[k, side])


def test_gossip_preserves_consensus_mean():
    rng = np.random.default_rng(3)
    for kind in (TopologyKind.RING, TopologyKind.FULLY_CONNECTED, TopologyKind.STATIC_EXPONENTIAL):
        P = build_gossip_matrix(kind, 8)
        W = rng.standard_normal((8, 5))
        assert np.allclose(consensus_model(P.entries @ W), consensus_model(W), atol=1e-12)


def test_gossip_contracts_disagreement_at_lambda_squared():
    rng = np.random.default_rng(4)
    for kind in (TopologyKind.RING, TopologyKind.GRID_2D_TORUS, TopologyKind.STATIC_EXPONENTIAL):
        P = build_gossip_matrix(kind, 16)
        lam = eigenvalues_symmetric(P).lam
        for _ in range(5):
            W = rng.standard_normal((16, 4))
            before = consensus_distance(W)
            after = consensus_distance(P.entries @ W)
            assert after <= lam**2 * before + 1e-12


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_zero_iterations_logs_only_initialization():
    task = make_task()
    shards = make_shards(task, 4, 3)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    trace = run_one(P, shards, LINEAR, TrainConfig(iterations=0, rate=ConstantRate(0.1), seed=0))
    assert list(trace.iterations) == [0]
    assert trace.consensus_dist[0] == 0.0
    assert np.array_equal(trace.final_weights, np.zeros((3, 3)))


def test_runs_are_bit_deterministic():
    task = make_task()
    shards = make_shards(task, 5, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=60, rate=ConstantRate(0.05), seed=11, snapshot_every=7)
    a = run_one(P, shards, LINEAR, config)
    b = run_one(P, shards, LINEAR, config)
    assert np.array_equal(a.final_weights, b.final_weights)
    assert np.array_equal(a.consensus, b.consensus)
    assert np.array_equal(a.consensus_dist, b.consensus_dist)
    # Single runs never record per-worker risks.
    assert a.risks is None


def test_identical_shards_and_indices_keep_workers_in_consensus():
    # Symmetry: equal data and equal sample indices make every worker follow
    # the same trajectory under any doubly stochastic mixing.
    task = make_task()
    base_xs, base_ys = draw_dataset_arrays(task, 6, np.random.default_rng(5))
    m = 4
    xs = np.tile(base_xs, (m, 1, 1))
    ys = np.tile(base_ys, (m, 1))
    shards = Shards(xs=xs, ys=ys)
    P = build_gossip_matrix(TopologyKind.FULLY_CONNECTED, m)
    rng = np.random.default_rng(7)
    W = np.zeros((m, task.d_x))
    for index in rng.integers(0, 6, size=40):
        W = dsgd_step(W, P, *drawn(shards, np.full(m, index)), 0.1, LINEAR)
        assert consensus_distance(W) < 1e-28


def test_snapshot_cadence_and_final_log():
    task = make_task()
    shards = make_shards(task, 4, 3)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    trace = run_one(P, shards, LINEAR,
                    TrainConfig(iterations=10, rate=ConstantRate(0.1), seed=0, snapshot_every=4))
    assert list(trace.iterations) == [0, 4, 8, 10]


def test_single_worker_run_reduces_to_plain_sgd():
    task = make_task(d_x=2)
    shards = make_shards(task, 6, 1)
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 1)
    config = TrainConfig(iterations=25, rate=ConstantRate(0.1), seed=13)
    trace = run_one(P, shards, LINEAR, config)
    # Plain SGD oracle with the identical index stream.
    rng = np.random.default_rng(13)
    w = np.zeros(2)
    for _ in range(25):
        idx = int(rng.integers(0, 6, size=1)[0])
        w = w - 0.1 * linear_gradient(w, shards.xs[0, idx], shards.ys[0, idx])
    assert np.array_equal(trace.final_weights[0], w)


@settings(max_examples=40)
@given(
    m=st.sampled_from([1, 2, 3, 5, 7, 16]),
    n=st.integers(1, 12),
    iterations=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_unseeded_run_uses_the_seeds_per_step_index_stream(m, n, iterations, seed):
    # The engine draws a run's indices in (steps, m) blocks; a block must be
    # the stream of draws of m each, which the run then follows exactly: it
    # equals a dsgd_step loop on one draw of m per step.
    rng = np.random.default_rng(seed)
    per_step = [rng.integers(0, n, size=m) for _ in range(iterations)]
    block = np.random.default_rng(seed).integers(0, n, size=(iterations, m))
    assert np.array_equal(block, np.reshape(per_step, (iterations, m)))
    shards = make_shards(make_task(), n, m, seed=seed % 1000)
    P = build_gossip_matrix(
        TopologyKind.DISCONNECTED if m == 1 else TopologyKind.FULLY_CONNECTED, m
    )
    config = TrainConfig(iterations=iterations, rate=ConstantRate(0.1), seed=seed)
    run = run_one(P, shards, LINEAR, config)
    weights, _ = step_loop_snapshots(P, None, [shards], LINEAR, config, seed)
    assert_same_array(run.final_weights, weights[-1, 0])


def step_loop_snapshots(P, control, side_shards, model, config, seed):
    """Weights at the logged iterations, (snapshots, sides, m, d), and each side's extra rounds.

    Every side is stepped alone with allocating dsgd_step calls on the seed's
    per-step index draws, followed by consensus control once the onset has
    passed: the loop the trajectory engine stacks and buffers.
    """
    rng = np.random.default_rng(seed)
    m, n, d_x = side_shards[0].xs.shape
    Ws = [np.zeros((m, model.dim(d_x))) for _ in side_shards]
    rounds = [0 for _ in side_shards]
    snapshots = [[W.copy() for W in Ws]]
    for t in range(config.iterations):
        zeta = rng.integers(0, n, size=m)
        rate = config.rate.at(t, config.iterations)
        for side, shards in enumerate(side_shards):
            Ws[side] = dsgd_step(Ws[side], P, *drawn(shards, zeta), rate, model)
            if control is not None and control.t_gamma < t + 1:
                Ws[side], used = consensus_control_step(
                    Ws[side], P, control.gamma_sq, control.max_rounds
                )
                rounds[side] += used
        if t + 1 in config.snapshot_iterations:
            snapshots.append([W.copy() for W in Ws])
    return np.array(snapshots), rounds


# ---------------------------------------------------------------------------
# Perturbations and coupled runs
# ---------------------------------------------------------------------------


def single_worker_perturbation(task, worker, index, seed):
    """Replace sample `index` of one worker by a fresh draw from the seed."""
    xs, ys = draw_dataset_arrays(task, 1, np.random.default_rng(seed))
    return Perturbation(PerturbationMode.SINGLE_WORKER, index, np.array([worker]), xs, ys)


def test_draw_perturbation_modes_and_bounds():
    task = make_task()
    sync = draw_perturbation(task, n=5, m=3, mode=PerturbationMode.SYNCHRONIZED, seed=1)
    assert list(sync.workers) == [0, 1, 2]
    assert 0 <= sync.index < 5
    single = draw_perturbation(task, n=5, m=3, mode=PerturbationMode.SINGLE_WORKER, seed=1)
    assert len(single.workers) == 1
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=2, rate=ConstantRate(0.1), seed=0)
    with pytest.raises(InputError, match="outside shard size"):
        coupled_one(P, make_shards(task, 5, 3), LINEAR, config,
                    single_worker_perturbation(task, 0, 5, 1))


def neighbor_shards(shards, perturbation):
    """A copy of shards with the perturbation's samples written in: side 1's data set."""
    xs, ys = shards.xs.copy(), shards.ys.copy()
    xs[perturbation.workers, perturbation.index] = perturbation.replacement_xs
    ys[perturbation.workers, perturbation.index] = perturbation.replacement_ys
    return Shards(xs=xs, ys=ys)


@pytest.mark.parametrize("mode", list(PerturbationMode))
@pytest.mark.parametrize("position", ["first", "last"])
def test_side_one_rows_equal_the_per_side_gather(mode, position):
    # A stack holds each shard set once, here two runs' one set, and side 1
    # reads its replaced samples by index. The rows both sides gather must be
    # those a gather from each side's own data set gives, bit for bit, and
    # side 1's differ from side 0's exactly where zeta hits the perturbed
    # index on an affected worker.
    shards, perturbations, _ = stack_inputs(ModelFamily.LINEAR_REGRESSION, mode=mode)
    m, n, _ = shards[0].xs.shape
    index = 0 if position == "first" else n - 1
    shards[1] = shards[0]
    perturbations = [replace(p, index=index) for p in perturbations]
    data = engine._StackData(shards, perturbations)
    assert len(data.xs) == 2 * m * n + len(shards) * m
    zeta = np.random.default_rng(7).integers(0, n, size=(40, len(shards), m))
    zeta[0] = index
    rows = data.rows(zeta, slice(None))
    worker = np.arange(m)
    for k, (run_shards, perturbation) in enumerate(zip(shards, perturbations)):
        neighbor = neighbor_shards(run_shards, perturbation)
        for side, side_shards in enumerate([run_shards, neighbor]):
            assert_same_array(data.xs[rows[:, k, side]], side_shards.xs[worker, zeta[:, k]])
            assert_same_array(data.ys[rows[:, k, side]], side_shards.ys[worker, zeta[:, k]])
        hit = (zeta[:, k] == index) & np.isin(worker, perturbation.workers)
        assert hit[0].any()
        assert np.array_equal(rows[:, k, 0] != rows[:, k, 1], hit)


def test_coupled_identical_replacement_gives_zero_difference():
    task = make_task()
    shards = make_shards(task, 4, 3)
    pert = Perturbation(
        mode=PerturbationMode.SYNCHRONIZED, index=1, workers=np.arange(3),
        replacement_xs=shards.xs[:, 1].copy(), replacement_ys=shards.ys[:, 1].copy(),
    )
    P = build_gossip_matrix(TopologyKind.RING, 3)
    coupled = coupled_one(P, shards, LINEAR, TrainConfig(iterations=30, rate=ConstantRate(0.1), seed=5), pert)
    assert np.max(coupled.sq_diffs) == 0.0
    assert np.max(np.abs(coupled.final_diffs)) == 0.0


def test_coupled_zero_rate_gives_zero_difference():
    task = make_task()
    shards = make_shards(task, 4, 3)
    pert = draw_perturbation(task, 4, 3, PerturbationMode.SYNCHRONIZED, seed=9)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    coupled = coupled_one(P, shards, LINEAR, TrainConfig(iterations=20, rate=ConstantRate(0.0), seed=5), pert)
    assert np.max(coupled.sq_diffs) == 0.0


def test_coupled_disconnected_difference_stays_local():
    task = make_task()
    shards = make_shards(task, 5, 4)
    pert = single_worker_perturbation(task, worker=2, index=3, seed=7)
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 4)
    coupled = coupled_one(P, shards, LINEAR, TrainConfig(iterations=40, rate=ConstantRate(0.1), seed=3), pert)
    others = [k for k in range(4) if k != 2]
    assert np.max(coupled.sq_diffs[:, others]) == 0.0
    assert np.max(coupled.sq_diffs[:, 2]) > 0.0


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def assert_same_trace(a, b):
    for name in ("iterations", "consensus", "consensus_dist", "risks", "final_weights"):
        if getattr(b, name) is None:
            assert getattr(a, name) is None
        else:
            assert_same_array(getattr(a, name), getattr(b, name))
    assert type(a.extra_gossip_rounds) is type(b.extra_gossip_rounds)
    assert a.extra_gossip_rounds == b.extra_gossip_rounds


@pytest.mark.parametrize(
    "family, control",
    [
        (ModelFamily.LINEAR_REGRESSION, None),
        (ModelFamily.LINEAR_REGRESSION, ConsensusControl(gamma_sq=1e-4, t_gamma=10)),
        (ModelFamily.TWO_LAYER_MLP, None),
        (ModelFamily.TWO_LAYER_MLP, ConsensusControl(gamma_sq=1e-4, t_gamma=10)),
    ],
    ids=["linear", "linear-control", "mlp", "mlp-control"],
)
def test_coupled_base_equals_plain_run(family, control):
    # Each side of a coupled run is stepped in one stack with the other; it
    # must equal a plain run on its own shards, bit for bit.
    model = LossModel(family=family, hidden_width=3)
    task = SyntheticTask.isotropic(family, 3, np.full(3, 1.0 / math.sqrt(3)), 0.1)
    shards = make_shards(task, 4, 3)
    pert = draw_perturbation(task, 4, 3, PerturbationMode.SYNCHRONIZED, seed=2)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=35, rate=ConstantRate(0.08), seed=19)
    coupled = coupled_one(P, shards, model, config, pert, control)
    assert_same_trace(coupled.base, run_one(P, shards, model, config, control))
    perturbed = neighbor_shards(shards, pert)
    assert_same_trace(coupled.perturbed, run_one(P, perturbed, model, config, control))
    if control is not None:
        assert coupled.base.extra_gossip_rounds > 0
        assert coupled.perturbed.extra_gossip_rounds > 0


def test_coupled_difference_snapshots_are_consistent():
    task = make_task()
    shards = make_shards(task, 4, 3)
    pert = draw_perturbation(task, 4, 3, PerturbationMode.SYNCHRONIZED, seed=4)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=16, rate=ConstantRate(0.1), seed=6, snapshot_every=16)
    coupled = coupled_one(P, shards, LINEAR, config, pert)
    final_sq = np.sum(coupled.final_diffs**2, axis=1)
    assert np.allclose(coupled.sq_diffs[-1], final_sq, atol=1e-15)
    assert np.allclose(
        coupled.final_diffs,
        coupled.base.final_weights - coupled.perturbed.final_weights,
        atol=0,
    )


# ---------------------------------------------------------------------------
# Stacks of runs
# ---------------------------------------------------------------------------


def stack_inputs(family, runs=3, m=4, n=5, d_x=3, mode=PerturbationMode.SYNCHRONIZED):
    """Per-run shards, perturbations and seeds, each run on its own data."""
    task = SyntheticTask.isotropic(family, d_x, np.full(d_x, 1.0 / math.sqrt(d_x)), 0.1)
    shards = [make_shards(task, n, m, seed=30 + k) for k in range(runs)]
    perturbations = [draw_perturbation(task, n, m, mode, seed=40 + k) for k in range(runs)]
    return shards, perturbations, [50 + k for k in range(runs)]


@pytest.mark.parametrize("family", [ModelFamily.LINEAR_REGRESSION,
                                    ModelFamily.LOGISTIC_REGRESSION,
                                    ModelFamily.TWO_LAYER_MLP])
@pytest.mark.parametrize("control", [None, ConsensusControl(gamma_sq=1e-4, t_gamma=12)],
                         ids=["plain", "control"])
@pytest.mark.parametrize("rate", [ConstantRate(0.08), StepDecayRate(0.08)],
                         ids=["constant", "step-decay"])
def test_stacked_runs_equal_single_runs(family, control, rate):
    # Each run of a stack must equal the same run made alone, bit for bit, in
    # every trace field, risks included. A 100-step snapshot interval makes
    # the index draws span more than one block of INDEX_DRAW_STEPS.
    model = LossModel(family=family, hidden_width=3)
    shards, perturbations, seeds = stack_inputs(family)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=130, rate=rate, seed=0, snapshot_every=100)
    (coupled,) = run_coupled([(P, control)], shards, model, config, perturbations, seeds,
                             risks=True)
    (single,) = run_dsgd([(P, control)], shards, model, config, seeds)
    assert len(coupled) == len(single) == len(seeds)
    for k, seed in enumerate(seeds):
        own = replace(config, seed=seed)
        alone = coupled_one(P, shards[k], model, own, perturbations[k], control, risks=True)
        assert_same_trace(coupled[k].base, alone.base)
        assert_same_trace(coupled[k].perturbed, alone.perturbed)
        assert_same_array(coupled[k].sq_diffs, alone.sq_diffs)
        assert_same_array(coupled[k].final_diffs, alone.final_diffs)
        assert_same_trace(single[k], run_one(P, shards[k], model, own, control))
        if control is not None:
            assert alone.base.extra_gossip_rounds > 0


def assert_same_traces(got, expected):
    """Two run_dsgd or run_coupled results, field by field, bit for bit."""
    assert len(got) == len(expected)
    for got_arm, expected_arm in zip(got, expected):
        assert len(got_arm) == len(expected_arm)
        for a, b in zip(got_arm, expected_arm):
            if isinstance(b, engine.CoupledTrace):
                assert_same_trace(a.base, b.base)
                assert_same_trace(a.perturbed, b.perturbed)
                assert_same_array(a.sq_diffs, b.sq_diffs)
                assert_same_array(a.final_diffs, b.final_diffs)
            else:
                assert_same_trace(a, b)


@pytest.mark.parametrize("family", list(ModelFamily))
@settings(max_examples=12, deadline=None)
@given(
    coupled=st.booleans(),
    runs=st.integers(1, 5),
    per_sub_stack=st.integers(0, 5),
    slack=st.floats(0.0, 0.99),
    shared=st.booleans(),
)
def test_sub_stacks_give_the_traces_of_one_stack(
    family, coupled, runs, per_sub_stack, slack, shared
):
    # STACK_BYTES caps the runs stepped at once; a budget below one run's
    # buffers still steps one run at a time. Every split of a stack into
    # sub-stacks must give its traces bit for bit, risks and control rounds
    # included, with runs that share a shard set or not.
    model = LossModel(family=family, hidden_width=3)
    shards, perturbations, seeds = stack_inputs(family, runs=runs)
    if shared:
        shards = [shards[0]] * runs
    arms = [
        (ARM_MATRICES["ring"], ConsensusControl(1e-4, t_gamma=5, max_rounds=10)),
        (ARM_MATRICES["islands"], None),
    ]
    config = TrainConfig(iterations=12, rate=ConstantRate(0.08), seed=0, snapshot_every=5)

    def stack():
        if coupled:
            return run_coupled(arms, shards, model, config, perturbations, seeds, risks=True)
        return run_dsgd(arms, shards, model, config, seeds)

    whole = stack()
    run_bytes = len(arms) * (1 + coupled) * 4 * max(model.dim(3), 3) * 8
    budget = int((per_sub_stack + slack) * run_bytes)
    with mock.patch.object(engine, "STACK_BYTES", budget):
        assert_same_traces(stack(), whole)


@pytest.mark.parametrize("family", list(ModelFamily))
@pytest.mark.parametrize("mode", list(PerturbationMode))
def test_kept_risks_equal_each_sides_risks_on_its_own_data(family, mode):
    # Side 1's risks are scored on the shards it shares with side 0, with
    # each perturbed sample's loss swapped in. They must be the risks on
    # side 1's own data set, bit for bit, as side 0's must be those on the
    # shards. Two runs share one shard set; the perturbed index is the last.
    model = LossModel(family=family, hidden_width=3)
    shards, perturbations, seeds = stack_inputs(family, mode=mode)
    shards[1] = shards[0]
    perturbations = [replace(p, index=shards[0].n - 1) for p in perturbations]
    arms = [(ARM_MATRICES["ring"], None), (ARM_MATRICES["fully_connected"], None)]
    config = TrainConfig(iterations=9, rate=ConstantRate(0.08), seed=0, snapshot_every=9)
    for traces in run_coupled(arms, shards, model, config, perturbations, seeds, risks=True):
        for trace, run_shards, perturbation in zip(traces, shards, perturbations):
            neighbor = neighbor_shards(run_shards, perturbation)
            for side, side_shards in ((trace.base, run_shards), (trace.perturbed, neighbor)):
                expected = worker_risks(model, side.final_weights, side_shards)
                assert_same_array(side.risks[-1], expected)
            assert not np.array_equal(trace.base.risks[-1], trace.perturbed.risks[-1])


def test_single_runs_step_tiled_shards_in_place():
    # Shards that are the consecutive slices of one array are stepped from
    # that array; any other shard sets, and every coupled stack, are copied
    # once per distinct set.
    task = make_task()
    xs = np.stack([make_shards(task, 5, 4, seed=k).xs for k in range(3)])
    ys = np.stack([make_shards(task, 5, 4, seed=k).ys for k in range(3)])
    tiled = [Shards(xs=x, ys=y) for x, y in zip(xs, ys)]
    data = engine._StackData(tiled, None)
    assert np.shares_memory(data.xs, xs) and np.shares_memory(data.ys, ys)
    drawn_apart = [make_shards(task, 5, 4, seed=k) for k in range(3)]
    for shards in (tiled[::-1], tiled[:1] + tiled[2:], drawn_apart):
        assert not np.shares_memory(engine._StackData(shards, None).xs, xs)
    perturbations = [draw_perturbation(task, 5, 4, PerturbationMode.SYNCHRONIZED, seed=k)
                     for k in range(6)]
    coupled = engine._StackData(tiled + tiled, perturbations)
    assert not np.shares_memory(coupled.xs, xs)
    assert coupled.xs.shape == (3 * 4 * 5 + 6 * 4, 3)
    assert list(coupled.replicate) == [0, 1, 2, 0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(
    leading=st.lists(st.integers(1, 3), max_size=3),
    m=st.integers(1, 1024),
    d=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_worker_mean_is_numpys_mean(leading, m, d, seed):
    # The einsum sum over workers must round like numpy's mean, at every
    # stack depth, worker count and dimension, on entries from 1e-8 to 1e8.
    rng = np.random.default_rng(seed)
    shape = (*leading, m, d)
    W = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    assert_same_array(engine._worker_mean(W), W.mean(axis=-2, keepdims=True))


def test_sparse_snapshots_follow_the_per_step_index_stream():
    # One snapshot interval of 150 steps is drawn in blocks of at most
    # INDEX_DRAW_STEPS; together they must be the seed's per-step stream.
    shards = make_shards(make_task(), 6, 3)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=150, rate=ConstantRate(0.05), seed=8, snapshot_every=150)
    trace = run_one(P, shards, LINEAR, config)
    W = step_loop_snapshots(P, None, [shards], LINEAR, config, config.seed)[0][-1, 0]
    assert list(trace.iterations) == [0, 150]
    assert_same_array(trace.final_weights, W)
    assert_same_array(trace.consensus[-1], consensus_model(W))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stack_with_a_later_divergent_run_names_that_run():
    # Only the last run's data make eta = 0.9 unstable; the stack must stop
    # with the error that run raises alone: its seed, its step, its distance.
    shards, _, seeds = stack_inputs(ModelFamily.LINEAR_REGRESSION)
    shards[-1] = Shards(xs=shards[-1].xs * 10.0, ys=shards[-1].ys)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=200, rate=ConstantRate(0.9), seed=0, snapshot_every=3)
    with pytest.raises(NumericalError) as alone:
        run_one(P, shards[-1], LINEAR, replace(config, seed=seeds[-1]))
    run_one(P, shards[0], LINEAR, replace(config, seed=seeds[0]))
    with pytest.raises(NumericalError) as stacked:
        run_dsgd([(P, None)], shards, LINEAR, config, seeds)
    assert str(stacked.value) == str(alone.value)
    assert f"seed {seeds[-1]} diverged" in str(stacked.value)
    # So must a stack stepped one run at a time.
    with mock.patch.object(engine, "STACK_BYTES", 0), pytest.raises(NumericalError) as split:
        run_dsgd([(P, None)], shards, LINEAR, config, seeds)
    assert str(split.value) == str(alone.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recorded_risks_are_checked_for_divergence():
    # One worker's features x5 make these runs blow up at eta = 0.3. For
    # seeds 1 and 2 the weights are still finite, and so is their consensus
    # distance, when the squared residuals of the worker risks overflow: the
    # run has diverged, and the error names its seed and step.
    task = make_task()
    shards = make_shards(task, 5, 4, seed=2)
    xs = shards.xs.copy()
    xs[0] *= 5.0
    shards = Shards(xs=xs, ys=shards.ys)
    pert = draw_perturbation(task, 5, 4, PerturbationMode.SYNCHRONIZED, seed=2)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=300, rate=ConstantRate(0.3), seed=0, snapshot_every=3)
    for seed in (1, 2):
        with pytest.raises(NumericalError, match=rf"seed {seed} diverged: a worker risk is inf"):
            coupled_one(P, shards, LINEAR, replace(config, seed=seed), pert, risks=True)
    # Without risk recording the same run is caught later, by its distance.
    with pytest.raises(NumericalError, match="seed 1 diverged: consensus distance is inf"):
        coupled_one(P, shards, LINEAR, replace(config, seed=1), pert)


def two_islands(m=4):
    """A custom disconnected matrix: two fully connected halves that never mix."""
    return custom(np.kron(np.eye(2), np.full((m // 2, m // 2), 2.0 / m)))


ARM_MATRICES = {
    "ring": build_gossip_matrix(TopologyKind.RING, 4),
    "fully_connected": build_gossip_matrix(TopologyKind.FULLY_CONNECTED, 4),
    "islands": two_islands(),
}


@pytest.mark.parametrize("family", list(ModelFamily))
@pytest.mark.parametrize("mode", list(PerturbationMode))
@settings(max_examples=6)
@given(arms=st.lists(
    st.tuples(st.sampled_from(sorted(ARM_MATRICES)), st.sampled_from([None, 0, 40, 80]),
              st.sampled_from([1e-4, 1e-2])),
    min_size=1, max_size=4,
))
def test_arms_equal_each_arm_run_alone(family, mode, arms):
    # Every arm of a stack shares the shards and the sampled rows of each
    # step, but must give the traces it gives run alone, bit for bit. The
    # onsets include 0 and T (never controlled); the 70-step first snapshot
    # interval spans two index blocks of INDEX_DRAW_STEPS; the islands
    # matrix makes some control targets unreachable, so those runs hit the cap.
    model = LossModel(family=family, hidden_width=3)
    shards, perturbations, seeds = stack_inputs(family, runs=2, mode=mode)
    config = TrainConfig(iterations=80, rate=ConstantRate(0.08), seed=0, snapshot_every=70)
    arms = [
        (ARM_MATRICES[name], None if onset is None else
         ConsensusControl(gamma_sq=gamma_sq, t_gamma=onset, max_rounds=20))
        for name, onset, gamma_sq in arms
    ]
    stacked = run_coupled(arms, shards, model, config, perturbations, seeds, risks=True)
    # Without risk recording every other field is the same.
    lean = run_coupled(arms, shards, model, config, perturbations, seeds)
    assert len(stacked) == len(lean) == len(arms)
    for (P, control), traces, lean_traces in zip(arms, stacked, lean):
        alone = [
            coupled_one(P, run_shards, model, replace(config, seed=seed), perturbation,
                        control, risks=True)
            for run_shards, perturbation, seed in zip(shards, perturbations, seeds)
        ]
        assert len(traces) == len(lean_traces) == len(seeds)
        for a, b, c in zip(traces, alone, lean_traces):
            for side in ("base", "perturbed"):
                assert_same_trace(getattr(a, side), getattr(b, side))
                unrisked = replace(getattr(b, side), risks=None)
                assert_same_trace(getattr(c, side), unrisked)
            for trace in (a, c):
                assert_same_array(trace.sq_diffs, b.sq_diffs)
                assert_same_array(trace.final_diffs, b.final_diffs)


@pytest.mark.parametrize("family", [ModelFamily.LINEAR_REGRESSION, ModelFamily.TWO_LAYER_MLP])
def test_arms_equal_each_arm_run_alone_from_the_crossover(family):
    # At m = DENSE_GOSSIP_BELOW the arms gossip in different forms: the
    # worker mean, shifted slices over the cycle and over the torus, and the
    # dense product of a relabeled circulant. Each arm, controlled or not,
    # must still give the traces it gives run alone, bit for bit.
    m = engine.DENSE_GOSSIP_BELOW
    model = LossModel(family=family, hidden_width=2)
    shards, perturbations, seeds = stack_inputs(family, runs=2, m=m, n=3, d_x=2)
    order = np.random.default_rng(0).permutation(m)
    relabeled = custom(symmetric_circulant(m, [1, 5])[order][:, order])
    control = ConsensusControl(gamma_sq=1e-6, t_gamma=2, max_rounds=12)
    arms = [
        (built(TopologyKind.FULLY_CONNECTED, m), None),
        (built(TopologyKind.STATIC_EXPONENTIAL, m), control),
        (built(TopologyKind.GRID_2D_TORUS, m), None),
        (built(TopologyKind.RING, m), replace(control, t_gamma=0)),
        (relabeled, control),
    ]
    assert [engine._gossip_form(P) for P, _ in arms] == [
        engine._mean_gossip, *[engine._shifted_gossip] * 3, engine._dense_gossip
    ]
    config = TrainConfig(iterations=6, rate=ConstantRate(0.1), seed=0, snapshot_every=4)
    stacked = run_coupled(arms, shards, model, config, perturbations, seeds, risks=True)
    for (P, arm_control), traces in zip(arms, stacked):
        for trace, run_shards, perturbation, seed in zip(traces, shards, perturbations, seeds):
            alone = coupled_one(P, run_shards, model, replace(config, seed=seed),
                                perturbation, arm_control, risks=True)
            assert_same_trace(trace.base, alone.base)
            assert_same_trace(trace.perturbed, alone.perturbed)
            assert_same_array(trace.sq_diffs, alone.sq_diffs)
    # Control gossiped extra rounds, and the ring's runs hit the cap.
    assert all(trace.base.extra_gossip_rounds > 0 for traces in stacked[3:] for trace in traces)
    assert stacked[3][0].base.extra_gossip_rounds == 12 * (6 - 0)


def test_arms_must_share_the_round_cap():
    shards, perturbations, seeds = stack_inputs(ModelFamily.LINEAR_REGRESSION)
    P = ARM_MATRICES["ring"]
    arms = [(P, ConsensusControl(1e-4, 0, max_rounds=5)), (P, ConsensusControl(1e-4, 0))]
    config = TrainConfig(iterations=4, rate=ConstantRate(0.1), seed=0)
    with pytest.raises(InputError, match="max_rounds"):
        run_coupled(arms, shards, LINEAR, config, perturbations, seeds)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_arms_with_a_divergent_run_in_the_last_arm_name_that_run():
    # One worker's data make the last run unstable at eta = 0.3; it diverges
    # first under fully connected gossip, the last arm. The stack must stop
    # with the error that arm raises alone: that run's seed, step and distance.
    shards, perturbations, seeds = stack_inputs(ModelFamily.LINEAR_REGRESSION)
    xs = shards[-1].xs.copy()
    xs[0] *= 5.0
    shards[-1] = Shards(xs=xs, ys=shards[-1].ys)
    arms = [(build_gossip_matrix(kind, 4), None) for kind in (
        TopologyKind.RING, TopologyKind.DISCONNECTED, TopologyKind.FULLY_CONNECTED)]
    config = TrainConfig(iterations=300, rate=ConstantRate(0.3), seed=0, snapshot_every=3)
    with pytest.raises(NumericalError) as alone:
        coupled_one(arms[-1][0], shards[-1], LINEAR, replace(config, seed=seeds[-1]),
                    perturbations[-1])
    with pytest.raises(NumericalError) as stacked:
        run_coupled(arms, shards, LINEAR, config, perturbations, seeds)
    assert str(stacked.value) == str(alone.value)
    assert f"seed {seeds[-1]} diverged" in str(stacked.value)


def masked_control_reference(W, P, gamma_sq, max_rounds):
    """Consensus control as a masked loop over the whole stack, the form
    that gossiped every round's active runs in place before compaction."""
    runs = W.reshape(-1, *W.shape[-2:]).copy()
    used = np.zeros(len(runs), dtype=int)
    active = consensus_distance(runs) > gamma_sq
    rounds = 0
    while rounds < max_rounds and active.any():
        runs[active] = P.entries @ runs[active]
        used += active
        rounds += 1
        active = consensus_distance(runs) > gamma_sq
    return runs.reshape(W.shape), rounds, used.reshape(W.shape[:-2])


@settings(max_examples=40)
@given(
    names=st.lists(st.sampled_from(sorted(ARM_MATRICES)), min_size=1, max_size=4),
    shared=st.booleans(),
    runs=st.integers(1, 5),
    max_rounds=st.integers(1, 30),
    data=st.data(),
)
def test_compacted_control_equals_the_masked_loop(names, shared, runs, max_rounds, data):
    # Per arm: its own matrix, or one matrix for the whole stack, and its own
    # target, or an infinite target for an arm whose onset has not passed.
    # Runs span scales from already below the target to ones that need more
    # rounds than the cap allows; the islands matrix leaves some targets
    # unreachable.
    if shared:
        names = [names[0]] * len(names)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.integers(-5, 3, size=(len(names), runs, 2))
    W = rng.standard_normal((len(names), runs, 2, 4, 3)) * scales[..., None, None]
    targets = np.array([
        data.draw(st.sampled_from([math.inf, 1e-6, 1e-3])) for _ in names
    ])
    mixing = ARM_MATRICES[names[0]] if shared else [ARM_MATRICES[name] for name in names]
    counts = np.zeros(W.shape[:3], dtype=int)
    out, rounds = consensus_control_step(W, mixing, targets[:, None, None], max_rounds, counts)
    expected_rounds = 0
    for arm, name in enumerate(names):
        ref, ref_rounds, used = masked_control_reference(
            W[arm], ARM_MATRICES[name], targets[arm], max_rounds
        )
        assert_same_array(out[arm], ref)
        assert_same_array(counts[arm], used)
        expected_rounds = max(expected_rounds, ref_rounds)
    assert rounds == expected_rounds


def test_stacked_control_counts_each_runs_rounds():
    # A stack's masked control gives each run the rounds it takes alone, and
    # reports the most that any run used.
    P = build_gossip_matrix(TopologyKind.RING, 4)
    rng = np.random.default_rng(3)
    W = rng.standard_normal((3, 4, 2)) * np.array([1e-4, 1.0, 10.0])[:, None, None]
    counts = np.zeros(3, dtype=int)
    out, rounds = consensus_control_step(W, P, gamma_sq=1e-6, max_rounds=50, counts=counts)
    for k in range(3):
        alone, used = consensus_control_step(W[k], P, gamma_sq=1e-6, max_rounds=50)
        assert counts[k] == used
        assert_same_array(out[k], alone)
    assert counts[0] == 0 and rounds == counts.max() > 0


# ---------------------------------------------------------------------------
# Consensus control
# ---------------------------------------------------------------------------


def test_control_step_no_work_below_target():
    P = build_gossip_matrix(TopologyKind.RING, 4)
    W = np.tile([1.0, 2.0], (4, 1))
    out, rounds = consensus_control_step(W, P, gamma_sq=1e-6, max_rounds=10)
    assert rounds == 0
    assert np.array_equal(out, W)


def test_control_step_fully_connected_one_round():
    P = build_gossip_matrix(TopologyKind.FULLY_CONNECTED, 4)
    rng = np.random.default_rng(8)
    W = rng.standard_normal((4, 3))
    out, rounds = consensus_control_step(W, P, gamma_sq=1e-12, max_rounds=10)
    assert rounds == 1
    assert consensus_distance(out) < 1e-28


def test_control_step_disconnected_exhausts_rounds():
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 3)
    W = np.array([[1.0], [0.0], [-1.0]])
    out, rounds = consensus_control_step(W, P, gamma_sq=1e-6, max_rounds=7)
    assert rounds == 7
    assert np.array_equal(out, W)


def test_controlled_run_with_onset_at_end_matches_plain_run():
    task = make_task()
    shards = make_shards(task, 4, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=30, rate=ConstantRate(0.1), seed=21)
    control = ConsensusControl(gamma_sq=1e-8, t_gamma=30)
    controlled = run_one(P, shards, LINEAR, config, control)
    plain = run_one(P, shards, LINEAR, config)
    assert np.array_equal(controlled.final_weights, plain.final_weights)
    assert controlled.extra_gossip_rounds == 0


def test_controlled_run_with_infinite_target_matches_plain_run():
    task = make_task()
    shards = make_shards(task, 4, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=30, rate=ConstantRate(0.1), seed=23)
    control = ConsensusControl(gamma_sq=math.inf, t_gamma=0)
    controlled = run_one(P, shards, LINEAR, config, control)
    plain = run_one(P, shards, LINEAR, config)
    assert np.array_equal(controlled.final_weights, plain.final_weights)


def test_controlled_run_keeps_logged_distance_below_target():
    task = make_task()
    shards = make_shards(task, 10, 4, seed=2)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=50, rate=ConstantRate(0.1), seed=25, snapshot_every=5)
    gamma_sq = 1e-5
    control = ConsensusControl(gamma_sq=gamma_sq, t_gamma=0, max_rounds=400)
    trace = run_one(P, shards, LINEAR, config, control)
    assert np.all(trace.consensus_dist <= gamma_sq + 1e-15)
    assert trace.extra_gossip_rounds > 0


def test_controlled_run_rejects_bad_onset():
    task = make_task()
    shards = make_shards(task, 4, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=10, rate=ConstantRate(0.1), seed=0)
    control = ConsensusControl(gamma_sq=1e-4, t_gamma=11)
    with pytest.raises(InputError, match="t_gamma"):
        run_one(P, shards, LINEAR, config, control)
    perturbation = draw_perturbation(task, 4, 4, PerturbationMode.SYNCHRONIZED, seed=1)
    with pytest.raises(InputError, match="t_gamma"):
        coupled_one(P, shards, LINEAR, config, perturbation, control)


# ---------------------------------------------------------------------------
# The trajectory loop against an independent step loop
# ---------------------------------------------------------------------------


def assert_trace_follows(trace, weights, rounds):
    """A trace's fields against the weights (snapshots, m, d) of a step loop."""
    assert_same_array(trace.consensus, consensus_model(weights))
    assert_same_array(trace.consensus_dist, consensus_distance(weights))
    assert_same_array(trace.final_weights, weights[-1])
    assert trace.extra_gossip_rounds == rounds


@pytest.mark.parametrize("family", [ModelFamily.LINEAR_REGRESSION, ModelFamily.TWO_LAYER_MLP])
@pytest.mark.parametrize("iterations", [7, 8], ids=["odd-T", "even-T"])
@pytest.mark.parametrize("cadence", [1, 5], ids=["every-step", "sparse"])
def test_loop_equals_an_independent_step_loop(family, iterations, cadence):
    # The loop alternates two weight buffers and refills its sample and
    # gradient buffers every step; a control onset in mid-run swaps in the
    # new array consensus_control_step returns. Every trace of every arm
    # must still be the allocating step loop's, bit for bit, and must not
    # change when another call reuses buffers of the same sizes.
    model = LossModel(family=family, hidden_width=3)
    shards, perturbations, seeds = stack_inputs(family, runs=2)
    arms = [
        (ARM_MATRICES["ring"], ConsensusControl(1e-8, t_gamma=iterations // 2, max_rounds=20)),
        (ARM_MATRICES["fully_connected"], None),
        (ARM_MATRICES["islands"], ConsensusControl(1e-6, t_gamma=2, max_rounds=20)),
    ]
    config = TrainConfig(iterations=iterations, rate=StepDecayRate(0.1), seed=0,
                         snapshot_every=cadence)
    coupled = run_coupled(arms, shards, model, config, perturbations, seeds)
    single = run_dsgd(arms, shards, model, config, seeds)
    # (arm, run) -> the step loop's weights (snapshots, sides, m, d) and rounds per side.
    expected = {
        (arm, k): step_loop_snapshots(
            P, control, [shards[k], neighbor_shards(shards[k], perturbations[k])],
            model, config, seed,
        )
        for arm, (P, control) in enumerate(arms)
        for k, seed in enumerate(seeds)
    }

    def assert_traces_follow_the_step_loop():
        for (arm, k), (weights, rounds) in expected.items():
            pair = coupled[arm][k]
            assert_same_array(pair.base.iterations, config.snapshot_iterations)
            assert_trace_follows(pair.base, weights[:, 0], rounds[0])
            assert_trace_follows(pair.perturbed, weights[:, 1], rounds[1])
            assert_trace_follows(single[arm][k], weights[:, 0], rounds[0])
            assert_same_array(pair.sq_diffs, np.sum((weights[:, 0] - weights[:, 1]) ** 2, axis=-1))
            assert_same_array(pair.final_diffs, weights[-1, 0] - weights[-1, 1])

    assert_traces_follow_the_step_loop()
    # The mid-run onset and the islands arm did gossip extra rounds.
    for arm in (0, 2):
        assert sum(sum(expected[arm, k][1]) for k in range(len(seeds))) > 0
    run_coupled(arms, shards, model, config, perturbations, [seed + 1 for seed in seeds])
    run_dsgd(arms, shards, model, config, [seed + 1 for seed in seeds])
    assert_traces_follow_the_step_loop()
