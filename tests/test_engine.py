"""Decentralized SGD dynamics: the update map, traces, and coupled runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsgd_lab.engine import (
    ConsensusControl,
    ConstantRate,
    Perturbation,
    PerturbationMode,
    StepDecayRate,
    TrainConfig,
    apply_perturbation,
    consensus_control_step,
    consensus_distance,
    consensus_model,
    draw_perturbation,
    dsgd_step,
    run_coupled,
    run_dsgd,
)
from dsgd_lab.errors import InputError
from dsgd_lab.models import (
    LossModel,
    ModelFamily,
    Shards,
    SyntheticTask,
    loss_gradient,
    Sample,
    sample_dataset,
    shard_iid,
)
from dsgd_lab.topology import TopologyKind, build_gossip_matrix, eigenvalues_symmetric

LINEAR = LossModel(family=ModelFamily.LINEAR_REGRESSION)


def make_task(d_x=3, noise_std=0.1):
    return SyntheticTask.isotropic(
        ModelFamily.LINEAR_REGRESSION, d_x,
        np.full(d_x, 1.0 / math.sqrt(d_x)), noise_std,
    )


def make_shards(task, n, m, seed=0):
    return shard_iid(sample_dataset(task, n * m, seed), m)


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
        z = Sample(shards.xs[k, zeta[k]], float(shards.ys[k, zeta[k]]))
        expected = W[k] - 0.05 * loss_gradient(LINEAR, W[k], z)
        assert np.allclose(stepped[k], expected, atol=1e-15)


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
    trace = run_dsgd(P, shards, LINEAR, TrainConfig(iterations=0, rate=ConstantRate(0.1), seed=0))
    assert list(trace.iterations) == [0]
    assert trace.consensus_dist[0] == 0.0
    assert np.array_equal(trace.final_weights, np.zeros((3, 3)))


def test_runs_are_bit_deterministic():
    task = make_task()
    shards = make_shards(task, 5, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=60, rate=ConstantRate(0.05), seed=11, snapshot_every=7)
    a = run_dsgd(P, shards, LINEAR, config)
    b = run_dsgd(P, shards, LINEAR, config)
    assert np.array_equal(a.final_weights, b.final_weights)
    assert np.array_equal(a.consensus, b.consensus)
    assert np.array_equal(a.risks, b.risks)


def test_identical_shards_and_indices_keep_workers_in_consensus():
    # Symmetry: equal data and equal sample indices make every worker follow
    # the same trajectory under any doubly stochastic mixing.
    task = make_task()
    base = sample_dataset(task, 6, seed=5)
    m = 4
    xs = np.tile(np.stack([z.x for z in base]), (m, 1, 1))
    ys = np.tile(np.array([z.y for z in base]), (m, 1))
    shards = Shards(xs=xs, ys=ys)
    P = build_gossip_matrix(TopologyKind.FULLY_CONNECTED, m)
    rng = np.random.default_rng(7)
    sequence = np.repeat(rng.integers(0, 6, size=(40, 1)), m, axis=1)
    trace = run_dsgd(
        P, shards, LINEAR,
        TrainConfig(iterations=40, rate=ConstantRate(0.1), seed=7),
        index_sequence=sequence,
    )
    assert np.max(trace.consensus_dist) < 1e-28


def test_snapshot_cadence_and_final_log():
    task = make_task()
    shards = make_shards(task, 4, 3)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    trace = run_dsgd(P, shards, LINEAR,
                     TrainConfig(iterations=10, rate=ConstantRate(0.1), seed=0, snapshot_every=4))
    assert list(trace.iterations) == [0, 4, 8, 10]


def test_single_worker_run_reduces_to_plain_sgd():
    task = make_task(d_x=2)
    shards = make_shards(task, 6, 1)
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 1)
    config = TrainConfig(iterations=25, rate=ConstantRate(0.1), seed=13)
    trace = run_dsgd(P, shards, LINEAR, config)
    # Plain SGD oracle with the identical index stream.
    rng = np.random.default_rng(13)
    w = np.zeros(2)
    for _ in range(25):
        idx = int(rng.integers(0, 6, size=1)[0])
        z = Sample(shards.xs[0, idx], float(shards.ys[0, idx]))
        w = w - 0.1 * loss_gradient(LINEAR, w, z)
    assert np.array_equal(trace.final_weights[0], w)


def test_forced_index_sequence_is_honored():
    task = make_task()
    shards = make_shards(task, 3, 2)
    P = build_gossip_matrix(TopologyKind.RING, 2)
    config = TrainConfig(iterations=4, rate=ConstantRate(0.1), seed=0)
    sequence = np.array([[0, 1], [2, 2], [1, 0], [0, 0]])
    a = run_dsgd(P, shards, LINEAR, config, index_sequence=sequence)
    b = run_dsgd(P, shards, LINEAR, config, index_sequence=sequence)
    assert np.array_equal(a.final_weights, b.final_weights)
    with pytest.raises(InputError):
        run_dsgd(P, shards, LINEAR, config, index_sequence=sequence[:2])


def test_index_sequence_rejects_out_of_range_entries():
    task = make_task()
    shards = make_shards(task, 3, 2)
    P = build_gossip_matrix(TopologyKind.RING, 2)
    config = TrainConfig(iterations=4, rate=ConstantRate(0.1), seed=0)
    for bad in (-1, 3):
        sequence = np.array([[0, 1], [2, 2], [1, bad], [0, 0]])
        with pytest.raises(InputError, match="outside shard size"):
            run_dsgd(P, shards, LINEAR, config, index_sequence=sequence)


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([1, 2, 3, 5, 7, 16]),
    n=st.integers(1, 12),
    iterations=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_unseeded_run_uses_the_seeds_per_step_index_stream(m, n, iterations, seed):
    # The engine draws a run's indices as one (T, m) block; that block must be
    # the stream of T draws of m each, which the run then follows exactly.
    rng = np.random.default_rng(seed)
    per_step = [rng.integers(0, n, size=m) for _ in range(iterations)]
    block = np.random.default_rng(seed).integers(0, n, size=(iterations, m))
    assert np.array_equal(block, np.reshape(per_step, (iterations, m)))
    shards = make_shards(make_task(), n, m, seed=seed % 1000)
    P = build_gossip_matrix(
        TopologyKind.DISCONNECTED if m == 1 else TopologyKind.FULLY_CONNECTED, m
    )
    config = TrainConfig(iterations=iterations, rate=ConstantRate(0.1), seed=seed)
    drawn_run = run_dsgd(P, shards, LINEAR, config)
    given_run = run_dsgd(P, shards, LINEAR, config, index_sequence=block)
    assert np.array_equal(drawn_run.final_weights, given_run.final_weights)
    assert np.array_equal(drawn_run.risks, given_run.risks)


# ---------------------------------------------------------------------------
# Perturbations and coupled runs
# ---------------------------------------------------------------------------


def test_draw_perturbation_modes_and_bounds():
    task = make_task()
    sync = draw_perturbation(task, n=5, m=3, mode=PerturbationMode.SYNCHRONIZED, seed=1)
    assert list(sync.workers) == [0, 1, 2]
    assert 0 <= sync.index < 5
    single = draw_perturbation(task, n=5, m=3, mode=PerturbationMode.SINGLE_WORKER, seed=1)
    assert len(single.workers) == 1
    with pytest.raises(InputError):
        draw_perturbation(task, n=5, m=3, mode=PerturbationMode.SYNCHRONIZED, seed=1, index=5)


def test_apply_perturbation_changes_only_target_positions():
    task = make_task()
    shards = make_shards(task, 4, 3)
    pert = draw_perturbation(task, n=4, m=3, mode=PerturbationMode.SINGLE_WORKER, seed=3, worker=1, index=2)
    perturbed = apply_perturbation(shards, pert)
    mask = np.zeros((3, 4), dtype=bool)
    mask[1, 2] = True
    assert np.array_equal(perturbed.ys[~mask], shards.ys[~mask])
    assert np.array_equal(perturbed.xs[~mask], shards.xs[~mask])
    assert not np.array_equal(perturbed.xs[1, 2], shards.xs[1, 2])


def test_coupled_identical_replacement_gives_zero_difference():
    task = make_task()
    shards = make_shards(task, 4, 3)
    pert = Perturbation(
        mode=PerturbationMode.SYNCHRONIZED, index=1, workers=np.arange(3),
        replacement_xs=shards.xs[:, 1].copy(), replacement_ys=shards.ys[:, 1].copy(),
    )
    P = build_gossip_matrix(TopologyKind.RING, 3)
    coupled = run_coupled(P, shards, LINEAR, TrainConfig(iterations=30, rate=ConstantRate(0.1), seed=5), pert)
    assert np.max(coupled.sq_diffs) == 0.0
    assert np.max(np.abs(coupled.final_diffs)) == 0.0


def test_coupled_zero_rate_gives_zero_difference():
    task = make_task()
    shards = make_shards(task, 4, 3)
    pert = draw_perturbation(task, 4, 3, PerturbationMode.SYNCHRONIZED, seed=9)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    coupled = run_coupled(P, shards, LINEAR, TrainConfig(iterations=20, rate=ConstantRate(0.0), seed=5), pert)
    assert np.max(coupled.sq_diffs) == 0.0


def test_coupled_disconnected_difference_stays_local():
    task = make_task()
    shards = make_shards(task, 5, 4)
    pert = draw_perturbation(task, 5, 4, PerturbationMode.SINGLE_WORKER, seed=7, worker=2)
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 4)
    coupled = run_coupled(P, shards, LINEAR, TrainConfig(iterations=40, rate=ConstantRate(0.1), seed=3), pert)
    others = [k for k in range(4) if k != 2]
    assert np.max(coupled.sq_diffs[:, others]) == 0.0
    assert np.max(coupled.sq_diffs[:, 2]) > 0.0


def assert_same_trace(a, b):
    assert np.array_equal(a.iterations, b.iterations)
    assert np.array_equal(a.consensus, b.consensus)
    assert np.array_equal(a.consensus_dist, b.consensus_dist)
    assert np.array_equal(a.risks, b.risks)
    assert np.array_equal(a.mean_risk, b.mean_risk)
    assert np.array_equal(a.final_weights, b.final_weights)
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
    coupled = run_coupled(P, shards, model, config, pert, control=control)
    assert_same_trace(coupled.base, run_dsgd(P, shards, model, config, control=control))
    perturbed = apply_perturbation(shards, pert)
    assert_same_trace(
        coupled.perturbed, run_dsgd(P, perturbed, model, config, control=control)
    )
    if control is not None:
        assert coupled.base.extra_gossip_rounds > 0
        assert coupled.perturbed.extra_gossip_rounds > 0


def test_coupled_difference_snapshots_are_consistent():
    task = make_task()
    shards = make_shards(task, 4, 3)
    pert = draw_perturbation(task, 4, 3, PerturbationMode.SYNCHRONIZED, seed=4)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=16, rate=ConstantRate(0.1), seed=6, snapshot_every=16)
    coupled = run_coupled(P, shards, LINEAR, config, pert)
    final_sq = np.sum(coupled.final_diffs**2, axis=1)
    assert np.allclose(coupled.sq_diffs[-1], final_sq, atol=1e-15)
    assert np.allclose(
        coupled.final_diffs,
        coupled.base.final_weights - coupled.perturbed.final_weights,
        atol=0,
    )


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
    controlled = run_dsgd(P, shards, LINEAR, config, control=control)
    plain = run_dsgd(P, shards, LINEAR, config)
    assert np.array_equal(controlled.final_weights, plain.final_weights)
    assert controlled.extra_gossip_rounds == 0


def test_controlled_run_with_infinite_target_matches_plain_run():
    task = make_task()
    shards = make_shards(task, 4, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=30, rate=ConstantRate(0.1), seed=23)
    control = ConsensusControl(gamma_sq=math.inf, t_gamma=0)
    controlled = run_dsgd(P, shards, LINEAR, config, control=control)
    plain = run_dsgd(P, shards, LINEAR, config)
    assert np.array_equal(controlled.final_weights, plain.final_weights)


def test_controlled_run_keeps_logged_distance_below_target():
    task = make_task()
    shards = make_shards(task, 10, 4, seed=2)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=50, rate=ConstantRate(0.1), seed=25, snapshot_every=5)
    gamma_sq = 1e-5
    control = ConsensusControl(gamma_sq=gamma_sq, t_gamma=0, max_rounds=400)
    trace = run_dsgd(P, shards, LINEAR, config, control=control)
    assert np.all(trace.consensus_dist <= gamma_sq + 1e-15)
    assert trace.extra_gossip_rounds > 0


def test_controlled_run_rejects_bad_onset():
    task = make_task()
    shards = make_shards(task, 4, 4)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=10, rate=ConstantRate(0.1), seed=0)
    control = ConsensusControl(gamma_sq=1e-4, t_gamma=11)
    with pytest.raises(InputError, match="t_gamma"):
        run_dsgd(P, shards, LINEAR, config, control=control)
    perturbation = draw_perturbation(task, 4, 4, PerturbationMode.SYNCHRONIZED, seed=1)
    with pytest.raises(InputError, match="t_gamma"):
        run_coupled(P, shards, LINEAR, config, perturbation, control=control)
