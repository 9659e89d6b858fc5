"""Decentralized SGD dynamics: the update map, traces, and coupled runs."""

import functools
import itertools
import json
import math
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsgd_lab import engine, topology
from dsgd_lab.cli import main
from dsgd_lab.engine import (
    ConsensusControl,
    ConstantRate,
    Perturbation,
    PerturbationMode,
    StepDecayRate,
    TrainConfig,
    Traces,
    consensus_control_step,
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


def average_model(W):
    """The average model of each run of W (..., m, d), as the recorder takes it."""
    return topology._worker_mean(W)[..., 0, :]


def consensus_dist(W):
    """Each run's mean squared deviation from its average model, as the recorder takes it."""
    return engine._distance_from_mean(W, topology._worker_mean(W), np.empty(W.shape))


def custom(entries):
    """A custom gossip matrix with the given entries, unchecked."""
    return GossipMatrix(m=len(entries), entries=entries, kind=TopologyKind.CUSTOM)


def make_task(d_x=3, noise_std=0.1):
    return SyntheticTask(
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
    return run_dsgd([(P, control)], [shards], model, config, [config.seed])


def coupled_one(P, shards, model, config, perturbation, control=None, risks=False):
    """One coupled pair alone: a one-arm, one-pair run_coupled call."""
    return run_coupled(
        [(P, control)], [shards], model, config, [perturbation], [config.seed], risks
    )


def part(traces, arm, run):
    """Run `run` of arm `arm` of a stack's traces, shaped as a one-arm, one-run call gives them."""
    return replace(traces, **{
        name: value[arm : arm + 1, run : run + 1]
        for name, value in vars(traces).items() if name != "iterations" and value is not None
    })


def side(traces, index):
    """One side of coupled traces, as a single-run stack records it but for the
    consensus models, which a coupled stack does not keep: no pair differences
    and no risks."""
    assert traces.consensus is None
    return replace(traces, sq_diffs=None, risks=None, **{
        name: getattr(traces, name)[:, :, index : index + 1]
        for name in ("consensus_dist", "final", "rounds", "cap_hits")
    })


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
    # A NaN rate was taken, and its run reported as diverged at step 1.
    for rate in (ConstantRate(-0.1), ConstantRate(math.nan), ConstantRate(math.inf),
                 StepDecayRate(math.nan), StepDecayRate(-math.inf)):
        with pytest.raises(InputError, match=r"learning rate must lie in \[0, inf\)"):
            TrainConfig(iterations=10, rate=rate, seed=0)
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


STEP_KINDS = [
    TopologyKind.FULLY_CONNECTED,
    TopologyKind.RING,
    TopologyKind.GRID_2D_TORUS,
    TopologyKind.STATIC_EXPONENTIAL,
    TopologyKind.DISCONNECTED,
]


@settings(max_examples=40)
@given(
    family=st.sampled_from(list(ModelFamily)),
    kinds=st.lists(st.sampled_from(STEP_KINDS), min_size=2, max_size=4),
    runs=st.lists(st.integers(1, 3), max_size=2),
    m=st.sampled_from([4, 16, 256]),
    d_x=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_samples_equal_per_arm_copies(family, kinds, runs, m, d_x, seed):
    # The trajectory loop gathers one copy of a step's samples that every arm
    # reads; the step must give the W of per-arm copies, bit for bit, in
    # every gossip form, into given buffers or new arrays.
    model = LossModel(family=family, hidden_width=3)
    rng = np.random.default_rng(seed)
    matrices = [built(kind, m) for kind in kinds]
    W = rng.standard_normal((len(kinds), *runs, m, model.dim(d_x)))
    X = rng.standard_normal((*runs, m, d_x))
    Y = rng.standard_normal((*runs, m))
    if family is ModelFamily.LOGISTIC_REGRESSION:
        Y = (Y > 0).astype(float)
    copies = [np.broadcast_to(a, (len(kinds), *a.shape)).copy() for a in (X, Y)]
    expected = dsgd_step(W, matrices, *copies, 0.05, model)
    assert_same_array(dsgd_step(W, matrices, X, Y, 0.05, model), expected)
    out, grads = np.full(W.shape, np.nan), np.full(W.shape, np.nan)
    assert dsgd_step(W, matrices, X, Y, 0.05, model, out=out, grads=grads) is out
    assert_same_array(out, expected)


@pytest.mark.parametrize(
    "shape, x_shape, y_shape",
    [
        # A single run: its samples are per worker, never one sample for all.
        ((4, 3), (3,), ()),
        ((4, 3), (1, 3), (1,)),
        # A stack: X's leading shape is W's, or W's without the arm axis.
        ((2, 4, 3), (4, 3), (2, 4)),
        ((2, 5, 4, 3), (2, 5, 4, 3), (5, 4)),
        ((2, 5, 4, 3), (4, 3), (4,)),
        ((2, 5, 4, 3), (5, 3, 3), (5, 3)),
    ],
)
def test_step_rejects_samples_that_do_not_fit_the_stack(shape, x_shape, y_shape):
    W = np.zeros(shape)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    with pytest.raises(InputError, match="worker counts"):
        dsgd_step(W, P, np.zeros(x_shape), np.zeros(y_shape), 0.1, LINEAR)


def test_step_rejects_grads_of_another_size_or_layout():
    W, X, Y = np.zeros((2, 4, 3)), np.zeros((4, 3)), np.zeros(4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    for bad in (np.empty(W.size + 1), np.empty((*W.shape, 2))[..., 0]):
        with pytest.raises(InputError, match="grads"):
            dsgd_step(W, P, X, Y, 0.1, LINEAR, grads=bad)


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
    crossover=st.sampled_from([1, topology.DENSE_GOSSIP_BELOW]),
    stack=st.lists(st.integers(1, 3), max_size=2),
    d=st.integers(1, 3),
    scale=st.sampled_from([1e-3, 1.0, 1e5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gossip_form_equals_the_dense_product(P, crossover, stack, d, scale, seed):
    # Below the crossover and for every loaded matrix, circulant or not, the
    # form is the dense product; otherwise (a built matrix) it is the worker
    # mean when every entry is equal, and the shifted slices else. Each
    # equals entries @ W to a few ulps of max|W|, and leaves W alone.
    W = np.random.default_rng(seed).standard_normal((*stack, P.m, d)) * scale
    before = W.copy()
    with mock.patch.object(topology, "DENSE_GOSSIP_BELOW", crossover):
        form = topology._gossip_form(P)
        got = form(P, W, np.full(W.shape, np.nan))
    if P.m < crossover or P.kind is TopologyKind.CUSTOM:
        assert form is topology._dense_gossip
    elif np.all(P.entries == P.entries[0, 0]):
        assert form is topology._mean_gossip
    else:
        assert form is topology._shifted_gossip
    assert np.max(np.abs(got - P.entries @ W)) <= 4 * np.spacing(np.max(np.abs(W)))
    assert_same_array(W, before)


def test_built_kinds_gossip_in_their_structured_form_from_the_crossover():
    forms = {
        TopologyKind.FULLY_CONNECTED: topology._mean_gossip,
        TopologyKind.RING: topology._shifted_gossip,
        TopologyKind.GRID_2D_TORUS: topology._shifted_gossip,
        TopologyKind.STATIC_EXPONENTIAL: topology._shifted_gossip,
        TopologyKind.DISCONNECTED: topology._shifted_gossip,
    }
    for kind, m in BUILT:
        P = built(kind, m)
        assert topology._gossip_form(P) is (
            forms[kind] if m >= topology.DENSE_GOSSIP_BELOW else topology._dense_gossip
        )
    assert topology._gossip_form(loaded(two_islands(256).entries)) is topology._dense_gossip


def test_built_kinds_step_from_the_crossover_without_their_entries():
    # From the crossover a built matrix gossips as the worker mean or by
    # shifted slices, so a coupled stack of every built kind materializes no
    # m x m array: the expansion never runs, and no entries are kept.
    m = topology.DENSE_GOSSIP_BELOW
    task = make_task()
    kinds = dict.fromkeys(kind for kind, _ in BUILT)
    matrices = [build_gossip_matrix(kind, m) for kind in kinds]
    config = TrainConfig(iterations=4, rate=ConstantRate(0.1), seed=0)
    perturbation = single_worker_perturbation(task, worker=2, index=3, seed=0)
    expansion = vars(GossipMatrix)["entries"]
    with mock.patch.object(expansion, "func", wraps=expansion.func) as expand:
        run_coupled([(P, None) for P in matrices], [make_shards(task, 5, m)], LINEAR, config,
                    [perturbation], [0])
    assert expand.call_count == 0
    assert all("entries" not in vars(P) for P in matrices)


def test_loaded_circulant_gossips_as_the_dense_product_from_the_crossover():
    # A circulant loaded from CSV has no circulant of its own: only the
    # builder knows one. So it gossips as the dense product, and steps
    # within a few ulps of max|W| of the built matrix's shifted slices.
    m = topology.DENSE_GOSSIP_BELOW
    rng = np.random.default_rng(m)
    W = rng.standard_normal((2, 2, m, 3))
    X, Y = rng.standard_normal((2, 2, m, 3)), rng.standard_normal((2, 2, m))
    for kind in [TopologyKind.RING, TopologyKind.GRID_2D_TORUS, TopologyKind.STATIC_EXPONENTIAL]:
        P = build_gossip_matrix(kind, m)
        Q = loaded(P.entries)
        assert Q.circulant is None
        assert topology._gossip_form(Q) is topology._dense_gossip
        gap = dsgd_step(W, Q, X, Y, 0.05, LINEAR) - dsgd_step(W, P, X, Y, 0.05, LINEAR)
        assert np.max(np.abs(gap)) <= 4 * np.spacing(np.max(np.abs(W)))


@pytest.mark.parametrize("m", [4, 16, 64, topology.DENSE_GOSSIP_BELOW - 1])
def test_gossip_below_the_crossover_is_each_arms_own_product(m):
    # Below the crossover a step gossips each arm as the dense product of its
    # own matrix, and each arm's values must be those of that product, bit
    # for bit.
    kinds = [TopologyKind.RING, TopologyKind.FULLY_CONNECTED, TopologyKind.DISCONNECTED]
    if math.isqrt(m) ** 2 == m:
        kinds.append(TopologyKind.GRID_2D_TORUS)
    if m & (m - 1) == 0:
        kinds.append(TopologyKind.STATIC_EXPONENTIAL)
    matrices = [build_gossip_matrix(kind, m) for kind in kinds]
    rng = np.random.default_rng(m)
    W = rng.standard_normal((len(kinds), 3, 2, m, 11))
    X, Y = rng.standard_normal((*W.shape[:-1], 11)), rng.standard_normal(W.shape[:-1])
    products = np.stack([np.matmul(P.entries, W_a) for P, W_a in zip(matrices, W)])
    grads = loss_gradients(LINEAR, W.reshape(-1, 11), X.reshape(-1, 11), Y.reshape(-1))
    expected = products - (0.05 * grads).reshape(W.shape)
    assert_same_array(dsgd_step(W, matrices, X, Y, 0.05, LINEAR), expected)
    for P in matrices:
        assert_same_array(dsgd_step(W, P, X, Y, 0.0, LINEAR), np.matmul(P.entries, W))


# ---------------------------------------------------------------------------
# Consensus quantities
# ---------------------------------------------------------------------------


def test_consensus_model_examples():
    assert np.allclose(average_model(np.array([[1.0, 0.0], [-1.0, 0.0]])), [0.0, 0.0])
    assert average_model(np.array([[1.0], [2.0], [3.0]]))[0] == pytest.approx(2.0)
    W = np.tile([1.5, -2.0], (4, 1))
    assert np.allclose(average_model(W), [1.5, -2.0])


def test_consensus_distance_examples():
    assert consensus_dist(np.tile([3.0, 1.0], (5, 1))) == 0.0
    assert consensus_dist(np.array([[1.0, 0.0], [-1.0, 0.0]])) == pytest.approx(1.0)
    W = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    assert consensus_dist(W) == pytest.approx(1.0)


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
    means, distances = average_model(W), consensus_dist(W)
    for k, side in np.ndindex(shape[:2]):
        assert np.array_equal(means[k, side], average_model(W[k, side]))
        assert distances[k, side] == consensus_dist(W[k, side])


def test_gossip_preserves_consensus_mean():
    rng = np.random.default_rng(3)
    for kind in (TopologyKind.RING, TopologyKind.FULLY_CONNECTED, TopologyKind.STATIC_EXPONENTIAL):
        P = build_gossip_matrix(kind, 8)
        W = rng.standard_normal((8, 5))
        assert np.allclose(average_model(P.entries @ W), average_model(W), atol=1e-12)


def test_gossip_contracts_disagreement_at_lambda_squared():
    rng = np.random.default_rng(4)
    for kind in (TopologyKind.RING, TopologyKind.GRID_2D_TORUS, TopologyKind.STATIC_EXPONENTIAL):
        P = build_gossip_matrix(kind, 16)
        lam = eigenvalues_symmetric(P).lam
        for _ in range(5):
            W = rng.standard_normal((16, 4))
            before = consensus_dist(W)
            after = consensus_dist(P.entries @ W)
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
    assert trace.consensus_dist[0, 0, 0, 0] == 0.0
    assert np.array_equal(trace.final[0, 0, 0], np.zeros((3, 3)))


def test_runs_are_bit_deterministic():
    task = make_task()
    shards = make_shards(task, 5, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=60, rate=ConstantRate(0.05), seed=11, snapshot_every=7)
    a = run_one(P, shards, LINEAR, config)
    assert_same_traces(a, run_one(P, shards, LINEAR, config))
    # Single runs never record per-worker risks or pair differences.
    assert a.risks is a.sq_diffs is None


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
        assert consensus_dist(W) < 1e-28


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
    assert np.array_equal(trace.final[0, 0, 0, 0], w)


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
    assert_same_array(run.final[0, 0, 0], weights[-1, 0])


def step_loop_snapshots(P, control, side_shards, model, config, seed):
    """Weights at the logged iterations, (snapshots, sides, m, d), and each side's
    extra rounds and cap hits, (2, sides).

    Every side is stepped alone with allocating dsgd_step calls on the seed's
    per-step index draws, followed by consensus control once the onset has
    passed: the loop the trajectory engine stacks and buffers. A cap hit is
    a control call that used every round and left the side above target.
    """
    rng = np.random.default_rng(seed)
    m, n, d_x = side_shards[0].xs.shape
    Ws = [np.zeros((m, model.dim(d_x))) for _ in side_shards]
    counts = np.zeros((2, len(side_shards)), dtype=int)
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
                counts[0, side] += used
                counts[1, side] += (
                    used == control.max_rounds and consensus_dist(Ws[side]) > control.gamma_sq
                )
        if t + 1 in config.snapshot_iterations:
            snapshots.append([W.copy() for W in Ws])
    return np.array(snapshots), counts


# ---------------------------------------------------------------------------
# Perturbations and coupled runs
# ---------------------------------------------------------------------------


def single_worker_perturbation(task, worker, index, seed):
    """Replace sample `index` of one worker by a fresh draw from the seed."""
    xs, ys = draw_dataset_arrays(task, 1, np.random.default_rng(seed))
    return Perturbation(index, np.array([worker]), xs, ys)


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


@pytest.mark.parametrize(
    "workers, rows, fragment",
    [
        ([-1], 1, r"workers \[-1\] outside \[0, 4\)"),
        ([4], 1, r"workers \[4\] outside \[0, 4\)"),
        ([1, 1], 2, r"workers \[1, 1\] repeat a worker"),
        ([1, 2], 1, "one sample per worker"),
        ([1], 2, "one sample per worker"),
    ],
    ids=["negative", "past-m", "repeated", "too-few-rows", "too-many-rows"],
)
def test_coupled_rejects_a_malformed_perturbation(workers, rows, fragment):
    # Indexing would wrap a negative worker round, keep only the last of a
    # repeated worker's replacements, broadcast one replacement to every
    # worker and fail on a worker past m. Each is an input error naming the run.
    task = make_task()
    shards = make_shards(task, 5, 4)
    xs, ys = draw_dataset_arrays(task, rows, np.random.default_rng(3))
    bad = Perturbation(2, np.array(workers), xs, ys)
    good = single_worker_perturbation(task, worker=2, index=3, seed=7)
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 4)
    config = TrainConfig(iterations=3, rate=ConstantRate(0.1), seed=0)
    with pytest.raises(InputError, match=f"perturbation of run 1: .*{fragment}"):
        run_coupled([(P, None)], [shards, shards], LINEAR, config, [good, bad], [0, 1])


@pytest.mark.parametrize(
    "shard_sets, perturbations, seeds, fragment",
    [
        (3, 1, 3, "1 perturbations for 3 shard sets"),
        (1, 3, 1, "3 perturbations for 1 shard sets"),
        (3, 3, 1, "1 seeds for 3 shard sets"),
        (3, None, 1, "1 seeds for 3 shard sets"),
    ],
    ids=["few-perturbations", "many-perturbations", "few-seeds", "single-few-seeds"],
)
def test_stack_rejects_a_seed_or_perturbation_count_unlike_its_shard_sets(
    shard_sets, perturbations, seeds, fragment
):
    # Too few perturbations would leave the later pairs unperturbed, with a
    # stability of exactly 0; too many, or too few seeds, would fail deep in
    # numpy. Each is an input error naming both counts. perturbations None
    # is a run_dsgd call.
    task = make_task()
    shards = make_shards(task, 5, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=3, rate=ConstantRate(0.1), seed=0)
    with pytest.raises(InputError, match=fragment):
        if perturbations is None:
            run_dsgd([(P, None)], [shards] * shard_sets, LINEAR, config, list(range(seeds)))
        else:
            drawn = [single_worker_perturbation(task, worker=2, index=3, seed=k)
                     for k in range(perturbations)]
            run_coupled([(P, None)], [shards] * shard_sets, LINEAR, config, drawn,
                        list(range(seeds)))


@pytest.mark.parametrize("coupled", [False, True], ids=["single", "coupled"])
def test_stack_rejects_no_arm_or_no_shard_set(coupled):
    # No shard set raised a raw IndexError, and no arm a ZeroDivisionError.
    task = make_task()
    shards = make_shards(task, 5, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=3, rate=ConstantRate(0.1), seed=0)
    for arms, shard_sets, fragment in (([], [shards], "0 and 1"), ([(P, None)], [], "1 and 0")):
        seeds = list(range(len(shard_sets)))
        with pytest.raises(InputError, match=f"needs an arm and a shard set, got {fragment}"):
            if coupled:
                drawn = [single_worker_perturbation(task, 2, 3, seed) for seed in seeds]
                run_coupled(arms, shard_sets, LINEAR, config, drawn, seeds)
            else:
                run_dsgd(arms, shard_sets, LINEAR, config, seeds)


@pytest.mark.parametrize("m, n", [(0, 5), (4, 0), (0, 0)])
def test_shards_reject_no_worker_or_no_sample(m, n):
    # Shards of n = 0 samples reached the engine's index draw, which raised
    # numpy's "high <= 0".
    with pytest.raises(InputError, match=r"m >= 1 workers of n >= 1 samples"):
        Shards(xs=np.zeros((m, n, 3)), ys=np.zeros((m, n)))


def neighbor_shards(shards, perturbation):
    """A copy of shards with the perturbation's samples written in: side 1's data set."""
    xs, ys = shards.xs.copy(), shards.ys.copy()
    xs[perturbation.workers, perturbation.index] = perturbation.replacement_xs
    ys[perturbation.workers, perturbation.index] = perturbation.replacement_ys
    return Shards(xs=xs, ys=ys)


@pytest.mark.parametrize("mode", list(PerturbationMode))
@pytest.mark.parametrize("position", ["first", "last"])
def test_side_one_rows_equal_the_per_side_gather(mode, position):
    # A stack holds each shard set once, here two runs' one set; both sides
    # gather side 0's rows, and side 1 then takes its replaced samples from
    # the side table. The samples each side holds after the patch must be
    # those a gather from that side's own data set gives, bit for bit, for
    # the whole stack and for a sub-stack, and side 1's differ from side 0's
    # exactly where zeta hits the perturbed index on an affected worker.
    shards, perturbations, _ = stack_inputs(ModelFamily.LINEAR_REGRESSION, mode=mode)
    m, n, d_x = shards[0].xs.shape
    index = 0 if position == "first" else n - 1
    shards[1] = shards[0]
    perturbations = [replace(p, index=index) for p in perturbations]
    data = engine._StackData(shards, perturbations)
    assert len(data.xs) == 2 * m * n
    worker = np.arange(m)
    for runs in (slice(None), slice(1, 3)):
        zeta = np.random.default_rng(7).integers(0, n, size=(40, len(shards[runs]), m))
        zeta[0] = index
        rows, hits = data.rows(zeta, runs)
        X, Y = np.empty((len(shards[runs]), 2, m, d_x)), np.empty((len(shards[runs]), 2, m))
        for step, step_zeta in enumerate(zeta):
            np.take(data.xs, rows[step], axis=0, out=X, mode="clip")
            np.take(data.ys, rows[step], out=Y, mode="clip")
            data.patch(X, Y, hits[step], runs)
            pairs = zip(shards[runs], perturbations[runs])
            for k, (run_shards, perturbation) in enumerate(pairs):
                neighbor = neighbor_shards(run_shards, perturbation)
                for side, side_shards in enumerate([run_shards, neighbor]):
                    assert_same_array(X[k, side], side_shards.xs[worker, step_zeta[k]])
                    assert_same_array(Y[k, side], side_shards.ys[worker, step_zeta[k]])
                hit = (step_zeta[k] == index) & np.isin(worker, perturbation.workers)
                assert hit.any() or step > 0
                assert np.array_equal(Y[k, 0] != Y[k, 1], hit)
                assert np.array_equal((X[k, 0] != X[k, 1]).all(axis=-1), hit)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(list(ModelFamily)),
    kind_m=st.sampled_from([(kind, m) for kind, m in BUILT if m <= 16]),
    mode=st.sampled_from(list(PerturbationMode)),
    control=st.sampled_from([None, ConsensusControl(gamma_sq=1e-8, t_gamma=5, max_rounds=20)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupled_identical_replacement_gives_zero_difference(family, kind_m, mode, control, seed):
    # Replacing samples by themselves is the null perturbation: the two sides
    # must stay the same run, bit for bit, in every family, topology and mode,
    # with or without consensus control.
    P = built(*kind_m)
    model = LossModel(family=family, hidden_width=3)
    task = SyntheticTask(family, 3, np.full(3, 1.0 / math.sqrt(3)), 0.1)
    shards = make_shards(task, 4, P.m, seed=seed)
    rng = np.random.default_rng(seed)
    index = int(rng.integers(4))
    if mode is PerturbationMode.SYNCHRONIZED:
        workers = np.arange(P.m)
    else:
        workers = np.array([int(rng.integers(P.m))])
    pert = Perturbation(index, workers, shards.xs[workers, index], shards.ys[workers, index])
    config = TrainConfig(iterations=20, rate=ConstantRate(0.1), seed=seed, snapshot_every=5)
    coupled = coupled_one(P, shards, model, config, pert, control)
    assert coupled.sq_diffs.shape == (1, 1, len(config.snapshot_iterations))
    assert np.all(coupled.sq_diffs == 0.0)
    final = coupled.final.view(np.uint64)
    assert np.array_equal(final[:, :, 0], final[:, :, 1])
    assert np.array_equal(coupled.rounds[:, :, 0], coupled.rounds[:, :, 1])


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
    diffs = coupled.final[0, 0, 0] - coupled.final[0, 0, 1]
    assert np.max(np.abs(diffs[others])) == 0.0
    assert np.max(np.abs(diffs[2])) > 0.0
    assert coupled.sq_diffs[0, 0, -1] == np.sum(diffs[2] ** 2) / 4


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def assert_same_traces(a, b):
    """Two Traces, every field, bit for bit: None where b's is, else dtype, shape and values."""
    for f in fields(Traces):
        if getattr(b, f.name) is None:
            assert getattr(a, f.name) is None
        else:
            assert_same_array(getattr(a, f.name), getattr(b, f.name))


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
    task = SyntheticTask(family, 3, np.full(3, 1.0 / math.sqrt(3)), 0.1)
    shards = make_shards(task, 4, 3)
    pert = draw_perturbation(task, 4, 3, PerturbationMode.SYNCHRONIZED, seed=2)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=35, rate=ConstantRate(0.08), seed=19)
    coupled = coupled_one(P, shards, model, config, pert, control)
    for index, side_shards in enumerate([shards, neighbor_shards(shards, pert)]):
        alone = run_one(P, side_shards, model, config, control)
        assert_same_traces(side(coupled, index), replace(alone, consensus=None))
        # The side's final consensus model is the worker mean of its final models.
        assert_same_array(average_model(coupled.final[:, :, index]), alone.consensus[:, :, 0, -1])
    if control is not None:
        assert np.all(coupled.rounds > 0)


def test_coupled_difference_snapshots_are_consistent():
    task = make_task()
    shards = make_shards(task, 4, 3)
    pert = draw_perturbation(task, 4, 3, PerturbationMode.SYNCHRONIZED, seed=4)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=16, rate=ConstantRate(0.1), seed=6, snapshot_every=16)
    coupled = coupled_one(P, shards, LINEAR, config, pert)
    assert coupled.sq_diffs.shape == (1, 1, len(config.snapshot_iterations))
    final_sq = np.sum((coupled.final[:, :, 0] - coupled.final[:, :, 1]) ** 2, axis=-1).mean()
    assert np.allclose(coupled.sq_diffs[0, 0, -1], final_sq, atol=1e-15)


# ---------------------------------------------------------------------------
# Stacks of runs
# ---------------------------------------------------------------------------


def stack_inputs(family, runs=3, m=4, n=5, d_x=3, mode=PerturbationMode.SYNCHRONIZED):
    """Per-run shards, perturbations and seeds, each run on its own data."""
    task = SyntheticTask(family, d_x, np.full(d_x, 1.0 / math.sqrt(d_x)), 0.1)
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
    coupled = run_coupled([(P, control)], shards, model, config, perturbations, seeds,
                          risks=True)
    single = run_dsgd([(P, control)], shards, model, config, seeds)
    assert coupled.final.shape[:3] == (1, len(seeds), 2)
    assert single.final.shape[:3] == (1, len(seeds), 1)
    for k, seed in enumerate(seeds):
        own = replace(config, seed=seed)
        alone = coupled_one(P, shards[k], model, own, perturbations[k], control, risks=True)
        assert_same_traces(part(coupled, 0, k), alone)
        assert_same_traces(part(single, 0, k), run_one(P, shards[k], model, own, control))
        if control is not None:
            assert alone.rounds[0, 0, 0] > 0


@pytest.mark.parametrize("family", list(ModelFamily))
@settings(max_examples=12, deadline=None)
@given(
    coupled=st.booleans(),
    runs=st.integers(1, 5),
    per_sub_stack=st.integers(0, 5),
    slack=st.floats(0.0, 0.99),
    shared=st.booleans(),
    index_bytes=st.integers(0, 600),
)
def test_sub_stacks_give_the_traces_of_one_stack(
    family, coupled, runs, per_sub_stack, slack, shared, index_bytes
):
    # STACK_BYTES caps the runs stepped at once; a budget below one run's
    # buffers still steps one run at a time. Every split of a stack into
    # sub-stacks must give its traces bit for bit, risks, control rounds and
    # cap hits included, with runs that share a shard set or not, and so
    # must index blocks cut short by INDEX_DRAW_BYTES (from one step to the
    # whole run). The islands never mix, so their control hits the cap.
    model = LossModel(family=family, hidden_width=3)
    shards, perturbations, seeds = stack_inputs(family, runs=runs)
    if shared:
        shards = [shards[0]] * runs
    arms = [
        (ARM_MATRICES["ring"], ConsensusControl(1e-4, t_gamma=5, max_rounds=10)),
        (ARM_MATRICES["islands"], ConsensusControl(1e-6, t_gamma=2, max_rounds=10)),
    ]
    config = TrainConfig(iterations=12, rate=ConstantRate(0.08), seed=0, snapshot_every=5)

    def stack():
        if coupled:
            return run_coupled(arms, shards, model, config, perturbations, seeds, risks=True)
        return run_dsgd(arms, shards, model, config, seeds)

    whole = stack()
    assert np.all(whole.cap_hits[1] > 0)
    run_bytes = len(arms) * (1 + coupled) * 4 * max(model.dim(3), 3) * 8
    budget = int((per_sub_stack + slack) * run_bytes)
    with (
        mock.patch.object(engine, "STACK_BYTES", budget),
        mock.patch.object(engine, "INDEX_DRAW_BYTES", index_bytes),
    ):
        assert_same_traces(stack(), whole)


@pytest.mark.parametrize("family", list(ModelFamily))
@pytest.mark.parametrize("mode", list(PerturbationMode))
def test_kept_risks_equal_each_sides_risks_on_its_own_data(family, mode):
    # The base side's risks are scored per shard set, for the runs that
    # share it at once; they must be each run's risks on its own shards,
    # bit for bit. The perturbed side records none. Two runs share one
    # shard set; the perturbed index is the last.
    model = LossModel(family=family, hidden_width=3)
    shards, perturbations, seeds = stack_inputs(family, mode=mode)
    shards[1] = shards[0]
    perturbations = [replace(p, index=shards[0].n - 1) for p in perturbations]
    arms = [(ARM_MATRICES["ring"], None), (ARM_MATRICES["fully_connected"], None)]
    config = TrainConfig(iterations=9, rate=ConstantRate(0.08), seed=0, snapshot_every=9)
    traces = run_coupled(arms, shards, model, config, perturbations, seeds, risks=True)
    assert traces.risks.shape == (len(arms), len(shards), 2, 4)  # two snapshots, four workers
    for arm, (k, run_shards) in itertools.product(range(len(arms)), enumerate(shards)):
        expected = worker_risks(model, traces.final[arm, k, 0], run_shards)
        assert_same_array(traces.risks[arm, k, -1], expected)


def test_single_runs_step_tiled_shards_in_place():
    # Shards that are the consecutive slices of one array are stepped from
    # that array, by single and coupled stacks alike; any other shard sets
    # are copied once per distinct set. A coupled stack adds only its side
    # table of replaced samples.
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
    assert np.shares_memory(coupled.xs, xs) and np.shares_memory(coupled.ys, ys)
    assert coupled.xs.shape == (3 * 4 * 5, 3) and coupled.ys.shape == (3 * 4 * 5,)
    assert coupled.replacement_xs.shape == (6, 4, 3) and coupled.replacement_ys.shape == (6, 4)
    assert list(coupled.replicate) == [0, 1, 2, 0, 1, 2]
    apart = engine._StackData(drawn_apart + drawn_apart, perturbations)
    assert apart.xs.shape == (3 * 4 * 5, 3)
    assert_same_array(apart.xs.reshape(3, 4, 5, 3), xs)


def test_coupled_stack_over_tiled_shards_allocates_only_its_side_table():
    # Two replicates of 64 x 100 samples and eight pairs: the side table is
    # 94 KB, and a copy of the shard sets would be 2.2 MB.
    # Building the stack's data must allocate no more than the side table
    # and its row offsets, plus 16 KB for Python's own objects.
    task = make_task(d_x=20)
    xs = np.stack([make_shards(task, 100, 64, seed=k).xs for k in range(2)])
    ys = np.stack([make_shards(task, 100, 64, seed=k).ys for k in range(2)])
    tiled = [Shards(xs=x, ys=y) for x, y in zip(xs, ys)]
    perturbations = [draw_perturbation(task, 100, 64, PerturbationMode.SYNCHRONIZED, seed=k)
                     for k in range(8)]
    tracemalloc.start()
    try:
        engine._StackData(tiled * 4, perturbations)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Per pair and worker: the target index, the replaced sample's 20
    # features and label, and the row offset, 8 bytes each.
    side_table = 8 * 64 * (1 + 20 + 1 + 1) * 8
    assert peak <= side_table + 16_384


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
    assert_same_array(topology._worker_mean(W), W.mean(axis=-2, keepdims=True))


def test_sparse_snapshots_follow_the_per_step_index_stream():
    # The indices are drawn in blocks of at most INDEX_DRAW_STEPS steps,
    # across snapshot intervals: one interval of 150 steps spans three
    # blocks, and one block spans 32 intervals of 2 steps. Together the
    # blocks must be the seed's per-step stream.
    shards = make_shards(make_task(), 6, 3)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    for cadence in (150, 2):
        config = TrainConfig(
            iterations=150, rate=ConstantRate(0.05), seed=8, snapshot_every=cadence
        )
        trace = run_one(P, shards, LINEAR, config)
        snapshots = step_loop_snapshots(P, None, [shards], LINEAR, config, config.seed)[0]
        assert list(trace.iterations) == list(range(0, 151, cadence))
        assert_same_array(trace.final[0, 0, 0], snapshots[-1, 0])
        for consensus, snapshot in zip(trace.consensus[0, 0, 0], snapshots[:, 0], strict=True):
            assert_same_array(consensus, average_model(snapshot))


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


@pytest.mark.parametrize(
    "scales, named", [((3.0, 10.0), 2), ((6.0, 4.0), 0)], ids=["later-run-first", "tie"]
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_stack_raises_the_earliest_divergence(scales, named):
    # Runs 0 and 2 diverge at eta = 0.9, run 1 does not. Scaled features x3
    # and x10 make run 2 diverge first (step 69, run 0 at 165); x6 and x4 make
    # both diverge at step 105, where the lower run is named. Stepped one run
    # at a time, the stack must finish every sub-stack and raise the error an
    # unsplit stack raises: that run's own.
    shards, _, seeds = stack_inputs(ModelFamily.LINEAR_REGRESSION)
    for k, scale in zip((0, 2), scales):
        shards[k] = Shards(xs=shards[k].xs * scale, ys=shards[k].ys)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=200, rate=ConstantRate(0.9), seed=0, snapshot_every=3)
    alone = {}
    for k in (0, 2):
        with pytest.raises(NumericalError) as error:
            run_one(P, shards[k], LINEAR, replace(config, seed=seeds[k]))
        alone[k] = error.value
    assert (alone[0].step == alone[2].step) == (named == 0)
    with pytest.raises(NumericalError) as whole:
        run_dsgd([(P, None)], shards, LINEAR, config, seeds)
    stepped = mock.patch.object(engine, "_step_runs", wraps=engine._step_runs)
    with mock.patch.object(engine, "STACK_BYTES", 0), stepped as calls:
        with pytest.raises(NumericalError) as split:
            run_dsgd([(P, None)], shards, LINEAR, config, seeds)
    assert calls.call_count == 3
    assert str(split.value) == str(whole.value) == str(alone[named])
    assert split.value.step == alone[named].step


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_at_one_step_names_the_lowest_run_whatever_its_arm():
    # Worker 0's features x4 at eta = 0.3: by step 270, the one snapshot
    # after the start, run 1 has diverged under both arms and run 0 under the
    # disconnected arm only. The lowest run is named, from the arm it diverged in.
    shards, _, seeds = stack_inputs(ModelFamily.LINEAR_REGRESSION, runs=2)
    for k in range(2):
        xs = shards[k].xs.copy()
        xs[0] *= 4.0
        shards[k] = Shards(xs=xs, ys=shards[k].ys)
    ring, disconnected = (build_gossip_matrix(kind, 4) for kind in (
        TopologyKind.RING, TopologyKind.DISCONNECTED))
    config = TrainConfig(iterations=270, rate=ConstantRate(0.3), seed=0, snapshot_every=270)
    assert np.isfinite(run_one(ring, shards[0], LINEAR, replace(config, seed=seeds[0])).final).all()
    with pytest.raises(NumericalError) as alone:
        run_one(disconnected, shards[0], LINEAR, replace(config, seed=seeds[0]))
    with pytest.raises(NumericalError, match=f"seed {seeds[1]} diverged"):
        run_one(ring, shards[1], LINEAR, replace(config, seed=seeds[1]))
    with pytest.raises(NumericalError) as stacked:
        run_dsgd([(ring, None), (disconnected, None)], shards, LINEAR, config, seeds)
    assert str(stacked.value) == str(alone.value)


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
    assert stacked.final.shape[:2] == (len(arms), len(seeds))
    for arm, (P, control) in enumerate(arms):
        for k, (run_shards, perturbation, seed) in enumerate(zip(shards, perturbations, seeds)):
            alone = coupled_one(P, run_shards, model, replace(config, seed=seed), perturbation,
                                control, risks=True)
            assert_same_traces(part(stacked, arm, k), alone)
            assert_same_traces(part(lean, arm, k), replace(alone, risks=None))


@pytest.mark.parametrize("family", [ModelFamily.LINEAR_REGRESSION, ModelFamily.TWO_LAYER_MLP])
def test_arms_equal_each_arm_run_alone_from_the_crossover(family):
    # At m = DENSE_GOSSIP_BELOW the arms gossip in different forms: the
    # worker mean, shifted slices over the cycle and over the torus, and the
    # dense product of a relabeled circulant. Each arm, controlled or not,
    # must still give the traces it gives run alone, bit for bit.
    m = topology.DENSE_GOSSIP_BELOW
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
    assert [topology._gossip_form(P) for P, _ in arms] == [
        topology._mean_gossip, *[topology._shifted_gossip] * 3, topology._dense_gossip
    ]
    config = TrainConfig(iterations=6, rate=ConstantRate(0.1), seed=0, snapshot_every=4)
    stacked = run_coupled(arms, shards, model, config, perturbations, seeds, risks=True)
    for arm, (P, arm_control) in enumerate(arms):
        for k, (run_shards, perturbation, seed) in enumerate(zip(shards, perturbations, seeds)):
            alone = coupled_one(P, run_shards, model, replace(config, seed=seed),
                                perturbation, arm_control, risks=True)
            assert_same_traces(part(stacked, arm, k), alone)
    # Control gossiped extra rounds, and the ring's runs hit the cap at every step.
    assert np.all(stacked.rounds[3:, :, 0] > 0)
    assert stacked.rounds[3, 0, 0] == 12 * (6 - 0)
    assert stacked.cap_hits[3, 0, 0] == 6


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


def masked_control_reference(W, P, gamma_sq, max_rounds, gossip=None):
    """Consensus control as a masked loop over the whole stack, the form
    that gossiped every round's active runs in place before compaction;
    each round is the dense product, or the given gossip form."""
    runs = W.reshape(-1, *W.shape[-2:]).copy()
    used = np.zeros(len(runs), dtype=int)
    active = consensus_dist(runs) > gamma_sq
    rounds = 0
    while rounds < max_rounds and active.any():
        if gossip is None:
            runs[active] = P.entries @ runs[active]
        else:
            runs[active] = gossip(P, runs[active], np.empty_like(runs[active]))
        used += active
        rounds += 1
        active = consensus_dist(runs) > gamma_sq
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


@functools.cache
def control_matrix(name, m):
    """A gossip matrix of m workers for the scheduled-control tests: built,
    the islands, or a loaded ring whose entry (0, 1) is one ulp off its
    mirror, so that it is not exactly symmetric."""
    if name == "islands":
        return two_islands(m)
    if name == "asymmetric":
        entries = build_gossip_matrix(TopologyKind.RING, m).entries.copy()
        entries[0, 1] = np.nextafter(entries[0, 1], 1.0)
        return loaded(entries)
    return build_gossip_matrix(TopologyKind(name), m)


def distance_history(W, P, rounds):
    """One run's computed distances at rounds 0 .. rounds of gossip with P in its form."""
    gossip, run, history = topology._gossip_form(P), W[None], [consensus_dist(W)]
    for _ in range(rounds):
        run = gossip(P, run, np.empty_like(run))
        history.append(consensus_dist(run)[0])
    return history


@pytest.mark.parametrize(
    "selection", [{"wraps": engine._schedule_pays}, {"return_value": True}],
    ids=["selected", "always"],
)
@pytest.mark.parametrize("m", [4, 16, 256])
@pytest.mark.parametrize("name", ["ring", "fully_connected", "islands", "asymmetric"])
@settings(max_examples=8)
@given(
    runs=st.integers(1, 4),
    d=st.sampled_from([1, 3]),
    max_rounds=st.sampled_from([1, 2, 3, 5, 12, 40, engine.PREDICTED_ROUNDS + 1, 150]),
    data=st.data(),
)
def test_scheduled_control_equals_the_masked_loop(selection, m, name, runs, d, max_rounds, data):
    # Control predicts each run's stop from P's modes, gossips on that
    # schedule and checks only the rounds where a run can stop; every run
    # the check cannot vouch for is replayed with a check every round. The
    # models, counts and rounds must be the masked loop's, bit for bit, for
    # runs with common offsets up to 1e8 on deviations down to 1e-4, for
    # targets a few ulp from a round's own distance, for unreachable targets
    # (islands) and for a matrix outside the schedule's assumptions. At
    # m = 256 the ring gossips by shifted slices and fully connected as the
    # worker mean. Caps past PREDICTED_ROUNDS predict stops in more than one
    # batch of rounds. Forced replays: a target just below the distance of the
    # round before the stop (run 0 has one whenever the cap allows), and
    # every run of the not exactly symmetric matrix. Each case runs with
    # the groups control selects for the schedule, and with every group on it.
    P = control_matrix(name, m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    offsets = 10.0 ** rng.integers(0, 9, size=(runs, 1, 1)) * rng.integers(0, 2, (runs, 1, 1))
    spreads = 10.0 ** rng.integers(-4, 1, size=(runs, 1, 1))
    W = offsets * rng.standard_normal((runs, 1, d)) + spreads * rng.standard_normal((runs, m, d))
    targets, tight = np.empty(runs), {}
    for k in range(runs):
        history = distance_history(W[k], P, max_rounds)
        if k == 0 and max_rounds >= 3:
            j, kind = data.draw(st.integers(2, max_rounds - 1)), "below"
        else:
            j = data.draw(st.integers(1, max_rounds))
            kind = data.draw(st.sampled_from(["plain", "below", "above"]))
        if kind == "plain" or not history[j] > 0:
            targets[k] = history[0] * 10.0 ** -rng.uniform(0.5, 6.0)
        else:
            targets[k] = history[j] * (1.0 + (-4 if kind == "below" else 4) * np.finfo(float).eps)
            if kind == "below":
                tight[k] = j
    ref, ref_rounds, used = masked_control_reference(
        W, P, targets, max_rounds, topology._gossip_form(P)
    )
    # A run that stops right after round j >= 2, whose distance is within a
    # few ulp above the target: no schedule can vouch for round j.
    forced = {k for k, j in tight.items() if j >= 2 and used[k] == j + 1}
    if name == "asymmetric":
        forced = set(np.flatnonzero(consensus_dist(W) > targets).tolist())
    counts = np.zeros(runs, dtype=int)
    with (
        mock.patch.object(engine, "_checked_control", wraps=engine._checked_control) as replay,
        mock.patch.object(engine, "_schedule_pays", **selection),
    ):
        out, rounds = consensus_control_step(W, P, targets, max_rounds, counts)
    assert_same_array(out, ref)
    assert_same_array(counts, used)
    assert rounds == ref_rounds
    replayed = {int(k) for call in replay.call_args_list for k in call.args[1]}
    assert forced <= replayed


@pytest.mark.parametrize("kind, m, scheduled", [
    (TopologyKind.RING, 16, True),
    (TopologyKind.RING, 64, True),
    (TopologyKind.GRID_2D_TORUS, 256, True),
    (TopologyKind.FULLY_CONNECTED, 16, False),
    (TopologyKind.STATIC_EXPONENTIAL, 256, False),
])
def test_control_schedules_only_runs_that_need_many_rounds(kind, m, scheduled):
    # Predicting the stops costs about m / 4 checked rounds, so a group takes
    # the schedule only when the decay bound lets a run need more than
    # 4 + m / 4 rounds; every result is the masked loop's either way. On
    # these well-conditioned runs the prediction is exact, past
    # PREDICTED_ROUNDS too (the ring of 64 runs to the cap of 200), so
    # nothing is replayed.
    P = build_gossip_matrix(kind, m)
    W = 1.0 + 0.01 * np.random.default_rng(5).standard_normal((3, m, 4))
    with (
        mock.patch.object(engine, "_predicted_stops", wraps=engine._predicted_stops) as predict,
        mock.patch.object(engine, "_checked_control", wraps=engine._checked_control) as checked,
    ):
        out, rounds = consensus_control_step(W, P, 1e-6, 200)
    assert predict.called == scheduled
    assert checked.called != scheduled
    ref, ref_rounds, _ = masked_control_reference(W, P, 1e-6, 200, topology._gossip_form(P))
    assert_same_array(out, ref)
    assert rounds == ref_rounds


def masked_stack_control(W, P, gamma_sq, max_rounds, counts=None, out=None, cap_hits=None):
    """consensus_control_step over a stack (A, ..., m, d) with one matrix per
    arm, as masked_control_reference arm by arm; a run hits the cap when it
    used every round and its distance stayed above its target."""
    targets = np.broadcast_to(gamma_sq, W.shape[:-2])
    out = np.empty_like(W) if out is None else out
    rounds = 0
    for arm, P_a in enumerate(P):
        ref, arm_rounds, used = masked_control_reference(
            W[arm], P_a, targets[arm].reshape(-1), max_rounds
        )
        out[arm] = ref
        if counts is not None:
            counts[arm] += used
        if cap_hits is not None:
            cap_hits[arm] += (used == max_rounds) & (consensus_dist(ref) > targets[arm])
        rounds = max(rounds, arm_rounds)
    return out, rounds


@pytest.mark.parametrize("kind", ["ring", "disconnected"])
def test_control_counters_equal_the_masked_loop(tmp_path, monkeypatch, kind):
    # The manifest counts, per onset, the extra gossip rounds and the control
    # calls that used every round and stayed above target. They must be the
    # same at --jobs 1 and 2, where the replicate groups' counts are summed;
    # and with the masked loop in place of consensus_control_step (at jobs 1,
    # so that the patch is in the process that steps), the counters and the
    # CSV must not change. The ring hits the cap at some steps and not at
    # others; disconnected gossip never moves a model, so every call with a
    # run above target uses all its rounds on that run, and hits the cap.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "consensus-control", "kind": kind, "m": 4, "d_x": 2, "n": 4, "T": 12,
        "R": 5, "pairs": 1, "t_gamma": [0, 6, 12], "gamma_sq": 1e-6, "max_rounds": 3,
    }))

    def counters_and_csv(out, jobs=1):
        assert main([str(config), "--output-dir", str(out), "--jobs", str(jobs)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return manifest["counters"], (out / "consensus_control.csv").read_bytes()

    counters, csv = counters_and_csv(tmp_path / "scheduled")
    assert counters_and_csv(tmp_path / "pooled", jobs=2) == (counters, csv)
    monkeypatch.setattr(engine, "consensus_control_step", masked_stack_control)
    assert counters_and_csv(tmp_path / "masked") == (counters, csv)
    rounds, cap_hits = counters["extra_gossip_rounds"], counters["control_cap_hits"]
    assert set(rounds) == set(cap_hits) == {"0", "6", "12"}
    assert rounds["12"] == cap_hits["12"] == 0
    assert 0 < cap_hits["6"] <= cap_hits["0"]
    if kind == "ring":
        assert rounds["0"] > 3 * cap_hits["0"]
    else:
        assert all(rounds[onset] == 3 * cap_hits[onset] for onset in rounds)


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
    assert consensus_dist(out) < 1e-28


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
    assert_same_traces(controlled, run_one(P, shards, LINEAR, config))
    assert controlled.rounds[0, 0, 0] == 0


def test_controlled_run_with_infinite_target_matches_plain_run():
    task = make_task()
    shards = make_shards(task, 4, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=30, rate=ConstantRate(0.1), seed=23)
    control = ConsensusControl(gamma_sq=math.inf, t_gamma=0)
    controlled = run_one(P, shards, LINEAR, config, control)
    assert_same_traces(controlled, run_one(P, shards, LINEAR, config))


def test_controlled_run_keeps_logged_distance_below_target():
    task = make_task()
    shards = make_shards(task, 10, 4, seed=2)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=50, rate=ConstantRate(0.1), seed=25, snapshot_every=5)
    gamma_sq = 1e-5
    control = ConsensusControl(gamma_sq=gamma_sq, t_gamma=0, max_rounds=400)
    trace = run_one(P, shards, LINEAR, config, control)
    assert np.all(trace.consensus_dist <= gamma_sq + 1e-15)
    assert trace.rounds[0, 0, 0] > 0


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


def assert_traces_follow(traces, arm, run, weights, counts):
    """Each side of a run of traces against the weights (snapshots, sides, m, d)
    and the counts (2, sides) of a step loop; only single-run traces keep
    consensus models."""
    sides = traces.final.shape[2]
    assert (traces.consensus is None) == (sides == 2)
    for s in range(sides):
        if sides == 1:
            assert_same_array(traces.consensus[arm, run, s], average_model(weights[:, s]))
        assert_same_array(traces.consensus_dist[arm, run, s], consensus_dist(weights[:, s]))
        assert_same_array(traces.final[arm, run, s], weights[-1, s])
        assert traces.rounds[arm, run, s] == counts[0, s]
        assert traces.cap_hits[arm, run, s] == counts[1, s]


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
    # (arm, run) -> the step loop's weights (snapshots, sides, m, d) and counts (2, sides).
    expected = {
        (arm, k): step_loop_snapshots(
            P, control, [shards[k], neighbor_shards(shards[k], perturbations[k])],
            model, config, seed,
        )
        for arm, (P, control) in enumerate(arms)
        for k, seed in enumerate(seeds)
    }

    def assert_traces_follow_the_step_loop():
        assert_same_array(coupled.iterations, config.snapshot_iterations)
        assert_same_array(single.iterations, config.snapshot_iterations)
        assert single.sq_diffs is single.risks is coupled.risks is None
        for (arm, k), (weights, counts) in expected.items():
            assert_traces_follow(coupled, arm, k, weights, counts)
            assert_traces_follow(single, arm, k, weights[:, :1], counts[:, :1])
            assert_same_array(
                coupled.sq_diffs[arm, k],
                np.sum((weights[:, 0] - weights[:, 1]) ** 2, axis=-1).mean(axis=-1),
            )
        # The worker mean of the base sides' final models, over the whole
        # coupled stack as the gap takes it, is run_dsgd's final consensus.
        assert_same_array(average_model(coupled.final[:, :, 0]), single.consensus[:, :, 0, -1])

    assert_traces_follow_the_step_loop()
    # The mid-run onset and the islands arm did gossip extra rounds, and the
    # islands, which never mix, hit the cap.
    for arm in (0, 2):
        assert sum(expected[arm, k][1][0].sum() for k in range(len(seeds))) > 0
    assert sum(expected[2, k][1][1].sum() for k in range(len(seeds))) > 0
    run_coupled(arms, shards, model, config, perturbations, [seed + 1 for seed in seeds])
    run_dsgd(arms, shards, model, config, [seed + 1 for seed in seeds])
    assert_traces_follow_the_step_loop()
