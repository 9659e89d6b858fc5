"""Stability estimators, bound evaluators, and distribution diagnostics."""

import concurrent.futures
import itertools
import math
import pickle
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsgd_lab import analysis, engine, topology
from dsgd_lab.analysis import (
    BoundInputs,
    estimate_epsilon_s,
    estimate_sigma_mu,
    estimate_stability,
    consensus_control_sweep,
    gaussianity_report,
    generalization_bound_closed,
    generalization_bound_from_stability,
    generalization_gap,
    mean_and_se,
    optimize_bound_p,
    replicate_data_seed,
    replicated_generalization_gap,
    spearman_rank_correlation,
    stability_bound_curve,
    stability_bound_limit,
    stability_exhaustive,
    topology_comparison,
    _draw_holdout,
    _gengap_group,
    _make_shards,
    _stability_group,
)
from dsgd_lab.engine import (
    ConsensusControl,
    ConstantRate,
    PerturbationMode,
    StepDecayRate,
    TrainConfig,
)
from dsgd_lab.errors import InputError, NumericalError
from dsgd_lab.models import Holdout, LossModel, ModelFamily, SyntheticTask, draw_dataset_arrays
from dsgd_lab.seeding import derive_seed
from dsgd_lab.topology import TopologyKind, build_gossip_matrix

LINEAR = LossModel(family=ModelFamily.LINEAR_REGRESSION)


def make_task(d_x=2, noise_std=0.5, feature_variance=1.0):
    return SyntheticTask(
        ModelFamily.LINEAR_REGRESSION, d_x,
        np.full(d_x, 1.0 / math.sqrt(d_x)), noise_std, feature_variance,
    )


def initial_traces(shards):
    """The Traces of one run of zero steps on shards: one snapshot, of the zero model."""
    P = build_gossip_matrix(TopologyKind.RING, shards.m)
    config = TrainConfig(iterations=0, rate=ConstantRate(0.1), seed=0)
    return engine.run_dsgd([(P, None)], [shards], LINEAR, config, [0])


# ---------------------------------------------------------------------------
# Stability estimation
# ---------------------------------------------------------------------------


def test_group_shards_are_views_of_one_array_the_engine_reads_in_place():
    # A group's replicates are drawn as _make_shards draws each, into one
    # array; the engine's single runs then read that array, not a copy.
    task = make_task()
    seeds = [3, 5, 8]
    shards = analysis._group_shards(task, 4, 2, seeds)
    for seed, replicate in zip(seeds, shards):
        alone = _make_shards(task, 4, 2, seed)
        assert np.array_equal(replicate.xs, alone.xs) and np.array_equal(replicate.ys, alone.ys)
    assert np.shares_memory(engine._StackData(shards, None).xs, shards[2].xs)


@pytest.mark.parametrize("n, m", [(4, 2), (1, 6)])
def test_make_shards_splits_one_draw_contiguously(n, m):
    # Replicate r of every estimator draws its data this way, which is what
    # makes stability and gap replicates share their shards.
    task = make_task()
    shards = _make_shards(task, n, m, seed=0)
    xs, ys = draw_dataset_arrays(task, n * m, np.random.default_rng(0))
    assert shards.m == m and shards.n == n
    assert np.array_equal(shards.xs[1, 0], xs[n]) and shards.ys[1, 0] == ys[n]
    assert np.array_equal(shards.xs.reshape(-1, task.d_x), xs)
    assert np.array_equal(shards.ys.reshape(-1), ys)


def test_zero_rate_stability_is_identically_zero():
    task = make_task()
    config = TrainConfig(iterations=10, rate=ConstantRate(0.0), seed=1)
    for kind in (TopologyKind.RING, TopologyKind.FULLY_CONNECTED, TopologyKind.DISCONNECTED):
        P = build_gossip_matrix(kind, 3)
        for mode in PerturbationMode:
            estimate = estimate_stability(
                P, task, LINEAR, config, n=4, replicates=2, pairs=2, mode=mode
            )
            assert np.max(estimate.mean) == 0.0


def test_stability_requires_two_replicates():
    task = make_task()
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=5, rate=ConstantRate(0.1), seed=1)
    with pytest.raises(InputError):
        estimate_stability(P, task, LINEAR, config, n=4, replicates=1, pairs=2)


def test_stability_estimate_is_deterministic_and_jobs_invariant():
    task = make_task()
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=20, rate=ConstantRate(0.05), seed=3)
    kwargs = dict(n=5, replicates=3, pairs=2, mode=PerturbationMode.SYNCHRONIZED)
    a = estimate_stability(P, task, LINEAR, config, **kwargs)
    b = estimate_stability(P, task, LINEAR, config, **kwargs)
    c = estimate_stability(P, task, LINEAR, config, jobs=3, **kwargs)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.mean, c.mean)
    assert np.array_equal(a.se, c.se)


def coupled_alone(arm, task, model, config, n, mode, replicate, pair, risks=False):
    """Pair `pair` of replicate `replicate` of a stability sweep, coupled on
    its own: the sweep's shards, perturbation and run seed, one arm."""
    P = arm[0]
    shards = _make_shards(task, n, P.m, replicate_data_seed(config.seed, replicate))
    perturbation = engine.draw_perturbation(
        task, n, P.m, mode, derive_seed(config.seed, "stability-pert", replicate, pair)
    )
    seed = derive_seed(config.seed, "stability-run", replicate, pair)
    return engine.run_coupled([arm], [shards], model, config, [perturbation], [seed], risks=risks)


def base_alone(arm, task, model, config, n, replicate, pair):
    """The base side of that pair run alone by run_dsgd, which keeps its
    consensus models: the sweep's shards and run seed, one arm."""
    shards = _make_shards(task, n, arm[0].m, replicate_data_seed(config.seed, replicate))
    seed = derive_seed(config.seed, "stability-run", replicate, pair)
    return engine.run_dsgd([arm], [shards], model, config, [seed])


@settings(max_examples=20)
@given(replicates=st.integers(2, 5), data=st.data())
def test_estimates_do_not_depend_on_the_replicate_grouping(replicates, data):
    # Each pool worker steps one contiguous group of replicates, every arm in
    # one stack, and reduces it to named arrays. Any split must give, joined
    # along the replicate axis, every array of the one-group (jobs = 1) call,
    # bit for bit, and each arm those of its own one-arm estimate; the group
    # functions are called directly, so no pool starts.
    cuts = sorted(data.draw(st.sets(st.integers(1, replicates - 1))))
    bounds = [0, *cuts, replicates]
    groups = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    config = TrainConfig(iterations=24, rate=ConstantRate(0.1), seed=17)
    ring = build_gossip_matrix(TopologyKind.RING, 4)
    arms = [
        (ring, ConsensusControl(gamma_sq=1e-3, t_gamma=12)),
        (build_gossip_matrix(TopologyKind.FULLY_CONNECTED, 4), None),
    ]
    task, pairs, mode = make_task(), 2, PerturbationMode.SYNCHRONIZED
    group_fn = partial(_stability_group, arms=arms, task=task, model=LINEAR, config=config,
                       n=5, pairs=pairs, mode=mode, gaps=True, holdout=None, risks=True,
                       final_diffs=True)
    whole = group_fn(range(replicates))
    results = [group_fn(group) for group in groups]
    assert sorted(whole) == ["counters", "final_diffs", "gap", "risks", "stability"]
    # The final differences are reduced only when asked for; the rest is the same.
    bare = group_fn(range(replicates), final_diffs=False)
    assert sorted(bare) == ["counters", "gap", "risks", "stability"]
    for name, array in bare.items():
        assert np.array_equal(array, whole[name])
    for name, array in whole.items():
        joined = np.concatenate([group[name] for group in results], axis=1)
        assert joined.dtype == array.dtype and np.array_equal(joined, array)
    shards = [
        _make_shards(task, 5, 4, derive_seed(config.seed, "stability-data", r))
        for r in range(replicates)
    ]
    # Control counts add up over the groups: rounds, and cap hits.
    totals = whole["counters"].sum(axis=1)
    assert np.array_equal(sum(group["counters"].sum(axis=1) for group in results), totals)
    assert totals[0, 0] > 0
    for arm, (P, control) in enumerate(arms):
        (estimate,), _ = analysis._stability_sweep(
            [(P, control)], task, LINEAR, config, n=5, replicates=replicates, pairs=pairs,
            mode=mode, jobs=1, risks=True, final_diffs=True,
        )
        assert np.array_equal(whole["stability"][arm], estimate.replicates)
        assert np.array_equal(whole["final_diffs"][arm], estimate.final_diffs)
        assert np.array_equal(whole["risks"][arm], estimate.risks)
        # Run r * pairs + j is pair j of replicate r coupled on its own: its
        # final difference, its risks, its counts and its final consensus model.
        alone = [
            coupled_alone((P, control), task, LINEAR, config, 5, mode, r, j, risks=True)
            for r in range(replicates) for j in range(pairs)
        ]
        for run, traces in enumerate(alone):
            assert np.array_equal(estimate.final_diffs[run],
                                  traces.final[0, 0, 0] - traces.final[0, 0, 1])
            assert np.array_equal(estimate.risks[run], traces.risks[0, 0])
        # The counters total the lone runs' per-side counts.
        counts = [sum(t.rounds.sum() for t in alone), sum(t.cap_hits.sum() for t in alone)]
        assert np.array_equal(totals[arm], counts)
        assert counts == [estimate.extra_gossip_rounds, estimate.control_cap_hits]
        # A coupled pair keeps no consensus models. The worker mean of its
        # base side's final models is the final consensus model that base
        # side records when run_dsgd runs it alone, and the gap scores it.
        finals = []
        for run, traces in enumerate(alone):
            assert traces.consensus is None
            base = base_alone((P, control), task, LINEAR, config, 5, *divmod(run, pairs))
            finals.append(base.consensus[0, 0, 0, -1])
            assert np.array_equal(topology._worker_mean(traces.final[0, 0, 0])[0], finals[-1])
        finals = np.array(finals).reshape(replicates, pairs, -1)
        gaps = analysis._consensus_gaps(list(finals), task, LINEAR, shards, None)
        assert np.array_equal(whole["gap"][arm], [gap.mean() for gap in gaps])

    mlp_task = SyntheticTask(ModelFamily.TWO_LAYER_MLP, 3, np.full(3, 0.5), 0.3)
    mlp = LossModel(family=ModelFamily.TWO_LAYER_MLP, hidden_width=3)
    report = replicated_generalization_gap(
        ring, mlp_task, mlp, config, n=5, replicates=replicates, mc_draws=300
    )
    holdout = _draw_holdout(mlp_task, 300, config.seed)
    curves = np.stack([
        curve
        for group in groups
        for curve in _gengap_group(group, P=ring, task=mlp_task, model=mlp, config=config,
                                   n=5, holdout=holdout)
    ])
    assert np.array_equal(curves, report.replicates)
    assert np.array_equal(curves.mean(axis=0), report.mean)
    assert np.array_equal(curves.std(axis=0, ddof=1) / math.sqrt(replicates), report.se)


class InProcessPool:
    """Stands in for ProcessPoolExecutor: counts constructions, runs in this process."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(item))
        except Exception as error:
            future.set_exception(error)
        return future


@pytest.mark.parametrize("sweep", ["compare", "control"])
def test_sweep_draws_each_replicate_once_in_one_pool(monkeypatch, sweep):
    # Every arm of a sweep is stepped on its replicates' data drawn once, by
    # one pool, and gives the arrays of its own one-arm estimate.
    drawn = []

    def counting_shards(task, n, m, seed):
        drawn.append(seed)
        return _make_shards(task, n, m, seed)

    monkeypatch.setattr(analysis, "_make_shards", counting_shards)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "made", [])
    task = make_task()
    config = TrainConfig(iterations=12, rate=ConstantRate(0.1), seed=43)
    ring = build_gossip_matrix(TopologyKind.RING, 4)
    kwargs = dict(n=4, replicates=5, pairs=2, jobs=2)
    if sweep == "compare":
        kinds = [TopologyKind.FULLY_CONNECTED, TopologyKind.RING, TopologyKind.DISCONNECTED]
        rows = topology_comparison(kinds, 4, task, LINEAR, config, mc_draws=100, **kwargs)
        estimates = [row.stability for row in rows]
        arms = [(build_gossip_matrix(kind, 4), None) for kind in kinds]
    else:
        onsets = [0, 6, 12]
        estimates = consensus_control_sweep(ring, task, LINEAR, config, gamma_sq=1e-4,
                                            t_gamma_values=onsets, **kwargs)
        arms = [(ring, ConsensusControl(gamma_sq=1e-4, t_gamma=t)) for t in onsets]
    finals = [estimate.final for estimate in estimates]
    # Only the bound and gaussianity experiments ask for the final differences.
    assert all(estimate.final_diffs is None for estimate in estimates)
    assert InProcessPool.made == [2]
    assert sorted(drawn) == sorted(
        analysis.derive_seed(config.seed, "stability-data", r) for r in range(5)
    )
    for (P, control), final in zip(arms, finals):
        (alone,), _ = analysis._stability_sweep(
            [(P, control)], task, LINEAR, config, mode=PerturbationMode.SYNCHRONIZED, **kwargs
        )
        assert final == alone.final


MLP_TASK = SyntheticTask(ModelFamily.TWO_LAYER_MLP, 3, np.full(3, 0.5), 0.3)
MLP = LossModel(family=ModelFamily.TWO_LAYER_MLP, hidden_width=3)


def test_replicated_gap_draws_one_holdout_per_call(monkeypatch):
    # The Monte-Carlo holdout is located (its features skipped) once per call
    # and streamed once per replicate group, never once per replicate or kind;
    # the shards are the only arrays drawn whole.
    drawn, located, passes = [], [], []
    locate, chunks = Holdout.locate, Holdout.chunks

    def counting_draw(task, count, rng):
        drawn.append(count)
        return draw_dataset_arrays(task, count, rng)

    def counting_locate(task, count, seed):
        located.append(count)
        return locate(task, count, seed)

    def counting_chunks(holdout):
        passes.append(holdout.count)
        return chunks(holdout)

    monkeypatch.setattr(analysis, "draw_dataset_arrays", counting_draw)
    monkeypatch.setattr(Holdout, "locate", counting_locate)
    monkeypatch.setattr(Holdout, "chunks", counting_chunks)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=10, rate=ConstantRate(0.1), seed=2)
    for jobs, groups in ((1, 1), (2, 2)):
        drawn.clear(), located.clear(), passes.clear()
        replicated_generalization_gap(P, MLP_TASK, MLP, config, n=5, replicates=3, jobs=jobs,
                                      mc_draws=700)
        assert (drawn, located, passes) == ([20, 20, 20], [700], [700] * groups)
        passes.clear(), located.clear()
        kinds = [TopologyKind.RING, TopologyKind.FULLY_CONNECTED, TopologyKind.DISCONNECTED]
        topology_comparison(kinds, 4, MLP_TASK, MLP, config, n=5, replicates=3, pairs=2,
                            jobs=jobs, mc_draws=900)
        assert (located, passes) == ([900], [900] * groups)


def test_mlp_gap_memory_does_not_grow_with_the_holdout():
    # The holdout is streamed: at d_x = 20, 100k samples would take 16.8 MB
    # as arrays and 400k would take 67 MB, but the estimate holds one chunk.
    task = SyntheticTask(ModelFamily.TWO_LAYER_MLP, 20, np.full(20, 0.2), 0.3)
    model = LossModel(family=ModelFamily.TWO_LAYER_MLP, hidden_width=8)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=10, rate=ConstantRate(0.05), seed=3)
    peaks = {}
    for mc_draws in (1000, 100_000, 400_000):  # the first call warms up
        tracemalloc.start()
        try:
            replicated_generalization_gap(P, task, model, config, n=5, replicates=2,
                                          mc_draws=mc_draws)
            _, peaks[mc_draws] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[100_000] < 16.8e6 / 4
    assert peaks[400_000] < 1.25 * peaks[100_000]


def test_mlp_comparison_memory_holds_no_per_snapshot_models():
    # A coupled stack keeps no consensus models: at 201 snapshots both sides'
    # models of every arm and pair, (A, K, 2, S, d), would take 10.8 MB here.
    task = SyntheticTask(ModelFamily.TWO_LAYER_MLP, 20, np.full(20, 0.2), 0.3)
    model = LossModel(family=ModelFamily.TWO_LAYER_MLP, hidden_width=8)
    config = TrainConfig(iterations=200, rate=ConstantRate(0.05), seed=3)
    kinds, replicates, pairs = [TopologyKind.RING, TopologyKind.FULLY_CONNECTED], 2, 5
    models = len(kinds) * replicates * pairs * 2 * len(config.snapshot_iterations)
    per_snapshot_bytes = models * model.dim(task.d_x) * 8
    assert per_snapshot_bytes >= 10e6
    for _ in range(2):  # the first call warms up
        tracemalloc.start()
        try:
            topology_comparison(kinds, 4, task, model, config, n=5, replicates=replicates,
                                pairs=pairs, mc_draws=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < per_snapshot_bytes


@pytest.mark.parametrize("estimator", ["gengap", "compare"])
def test_pool_groups_receive_a_small_partial(monkeypatch, estimator):
    # What each pool worker unpickles: the holdout goes as a handle, not as
    # its 16.8 MB of arrays.
    class Dispatched(Exception):
        pass

    def pickling_map(fn, items, jobs):
        raise Dispatched(len(pickle.dumps(fn)))

    monkeypatch.setattr(analysis, "_parallel_map", pickling_map)
    task = SyntheticTask(ModelFamily.TWO_LAYER_MLP, 20, np.full(20, 0.2), 0.3)
    model = LossModel(family=ModelFamily.TWO_LAYER_MLP, hidden_width=8)
    config = TrainConfig(iterations=10, rate=ConstantRate(0.05), seed=3)
    with pytest.raises(Dispatched) as dispatched:
        if estimator == "gengap":
            replicated_generalization_gap(build_gossip_matrix(TopologyKind.RING, 16), task, model,
                                          config, n=5, replicates=4, jobs=2, mc_draws=100_000)
        else:
            topology_comparison([TopologyKind.RING, TopologyKind.FULLY_CONNECTED], 16, task,
                                model, config, n=5, replicates=4, pairs=2, jobs=2,
                                mc_draws=100_000)
    assert dispatched.value.args[0] < 64 * 1024


def test_topology_comparison_rejects_no_kinds():
    with pytest.raises(InputError, match="at least one arm"):
        topology_comparison(
            [], 4, make_task(), LINEAR, TrainConfig(iterations=4, rate=ConstantRate(0.1), seed=1),
            n=4, replicates=2, pairs=1, mc_draws=100,
        )


def test_topology_comparison_rejects_repeated_kinds():
    with pytest.raises(InputError, match="ring"):
        topology_comparison(
            [TopologyKind.RING, TopologyKind.RING, TopologyKind.FULLY_CONNECTED], 4,
            make_task(), LINEAR, TrainConfig(iterations=4, rate=ConstantRate(0.1), seed=1),
            n=4, replicates=2, pairs=1, mc_draws=100,
        )


def test_single_worker_mode_is_strictly_below_synchronized():
    task = make_task()
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 4)
    config = TrainConfig(iterations=30, rate=ConstantRate(0.1), seed=5)
    sync = estimate_stability(P, task, LINEAR, config, n=5, replicates=4, pairs=4,
                              mode=PerturbationMode.SYNCHRONIZED)
    single = estimate_stability(P, task, LINEAR, config, n=5, replicates=4, pairs=4,
                                mode=PerturbationMode.SINGLE_WORKER)
    assert single.final < sync.final
    assert single.final > 0.0


def test_stability_estimates_hold_replicate_major_runs():
    task = make_task()
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=8, rate=ConstantRate(0.1), seed=7)
    estimate = estimate_stability(P, task, LINEAR, config, n=4, replicates=2, pairs=3,
                                  risks=True, final_diffs=True)
    assert estimate.final_diffs.shape == (6, 3, 2)
    # The base side's risks, per run, snapshot and worker.
    assert estimate.risks.shape == (6, 9, 3)
    # Without risks (gaussianity reads only final_diffs), nothing records them,
    # and without final_diffs nothing keeps the differences.
    diffs = estimate_stability(P, task, LINEAR, config, n=4, replicates=2, pairs=3,
                               final_diffs=True)
    bare = estimate_stability(P, task, LINEAR, config, n=4, replicates=2, pairs=3)
    assert diffs.risks is None and bare.risks is None and bare.final_diffs is None
    assert np.array_equal(estimate.final_diffs, diffs.final_diffs)
    assert np.array_equal(estimate.replicates, bare.replicates)
    # Replicate-major: run r * pairs + j is pair j of replicate r, and the
    # pairs' curves average to each replicate's curve.
    alone = [
        coupled_alone((P, None), task, LINEAR, config, 4, PerturbationMode.SYNCHRONIZED, r, j)
        for r in range(2) for j in range(3)
    ]
    for run, traces in enumerate(alone):
        assert np.array_equal(estimate.final_diffs[run],
                              traces.final[0, 0, 0] - traces.final[0, 0, 1])
    assert np.array_equal(
        np.array([t.sq_diffs[0, 0] for t in alone]).reshape(2, 3, -1).mean(axis=1),
        estimate.replicates,
    )


def brute_force_curve(P, shards, replacements, rate, iterations, positions):
    """Plain-Python enumeration oracle: averages the per-iteration mean squared
    per-worker weight difference over the given perturbation positions
    (workers, index) and all per-worker index sequences, at rate.at(t, T)."""
    m, n = shards.m, shards.n
    d = shards.d_x
    curves = []
    for workers, i in positions:
        xs2 = shards.xs.copy()
        ys2 = shards.ys.copy()
        xs2[workers, i] = replacements.xs[workers, i]
        ys2[workers, i] = replacements.ys[workers, i]
        for flat in itertools.product(range(n), repeat=m * iterations):
            w = [[0.0] * d for _ in range(m)]
            w2 = [[0.0] * d for _ in range(m)]
            curve = [0.0]
            for t in range(iterations):
                zeta = flat[t * m : (t + 1) * m]
                eta = rate.at(t, iterations)
                w = _bf_step(w, P, shards.xs, shards.ys, zeta, eta)
                w2 = _bf_step(w2, P, xs2, ys2, zeta, eta)
                curve.append(
                    sum(
                        sum((w[k][v] - w2[k][v]) ** 2 for v in range(d))
                        for k in range(m)
                    )
                    / m
                )
            curves.append(curve)
    return np.mean(curves, axis=0)


def _bf_step(w, P, xs, ys, zeta, eta):
    m = len(w)
    d = len(w[0])
    mixed = [
        [sum(P.entries[k][l] * w[l][v] for l in range(m)) for v in range(d)]
        for k in range(m)
    ]
    out = []
    for k in range(m):
        x = xs[k][zeta[k]]
        residual = sum(x[v] * w[k][v] for v in range(d)) - ys[k][zeta[k]]
        out.append([mixed[k][v] - eta * residual * x[v] for v in range(d)])
    return out


def test_exhaustive_stability_matches_brute_force_oracle():
    # Inputs (mode, positions, rate, iterations): every synchronized position
    # at a constant rate, and every single-worker position under step decay.
    task = make_task(d_x=1)
    P = build_gossip_matrix(TopologyKind.RING, 2)
    shards = _make_shards(task, 2, 2, 11)
    replacements = _make_shards(task, 2, 2, 12)
    cases = [
        (PerturbationMode.SYNCHRONIZED, [([0, 1], i) for i in range(2)], ConstantRate(0.1), 2),
        (PerturbationMode.SINGLE_WORKER, [([k], i) for k in range(2) for i in range(2)],
         StepDecayRate(0.5), 3),
    ]
    for mode, positions, rate, iterations in cases:
        config = TrainConfig(iterations=iterations, rate=rate, seed=0, snapshot_every=1)
        ours = stability_exhaustive(P, shards, LINEAR, config, mode, replacements)
        oracle = brute_force_curve(P, shards, replacements, rate, iterations, positions)
        assert np.allclose(ours, oracle, atol=1e-12)


def test_exhaustive_stability_guards_against_explosion():
    task = make_task(d_x=1)
    P = build_gossip_matrix(TopologyKind.RING, 4)
    shards = _make_shards(task, 10, 4, 1)
    replacements = _make_shards(task, 10, 4, 2)
    config = TrainConfig(iterations=10, rate=ConstantRate(0.1), seed=0)
    with pytest.raises(InputError, match="enumeration limit"):
        stability_exhaustive(P, shards, LINEAR, config, PerturbationMode.SYNCHRONIZED, replacements)


# ---------------------------------------------------------------------------
# Moment and risk envelopes
# ---------------------------------------------------------------------------


def test_sigma_mu_zero_differences():
    assert estimate_sigma_mu(np.zeros((4, 3, 2))) == (0.0, 0.0)


def test_sigma_mu_known_distribution():
    rng = np.random.default_rng(13)
    d, reps = 100, 1000
    sigma_sq, mu_sq = estimate_sigma_mu(0.1 + 0.2 * rng.standard_normal((reps, 2, d)))
    assert abs(sigma_sq - 0.04) < 0.004
    assert abs(mu_sq - 0.01) < 0.001


def test_sigma_mu_requires_two_traces():
    # Runs are pooled over every leading axis: one arm of one run is one run.
    with pytest.raises(InputError, match="at least 2 coupled runs"):
        estimate_sigma_mu(np.zeros((1, 1, 2, 2)))
    assert estimate_sigma_mu(np.zeros((1, 2, 2, 2))) == (0.0, 0.0)


def test_epsilon_s_zero_risks():
    assert estimate_epsilon_s(np.zeros((1, 2)), alpha=1.0) == 0.0


def test_epsilon_s_constant_risk_alpha_one():
    assert estimate_epsilon_s(np.full((1, 1), 4.0), alpha=1.0) == pytest.approx(4.0)


def test_epsilon_s_alpha_zero_uses_unit_exponent_convention():
    assert estimate_epsilon_s(np.array([[3.0, 0.0]]), alpha=0.0) == pytest.approx(1.0)


def test_epsilon_s_rejects_traces_without_risks():
    # Single runs record no risks, nor do coupled runs without risks set.
    task = make_task()
    shards = _make_shards(task, 4, 3, 0)
    P = build_gossip_matrix(TopologyKind.RING, 3)
    config = TrainConfig(iterations=4, rate=ConstantRate(0.1), seed=0)
    single = engine.run_dsgd([(P, None)], [shards], LINEAR, config, [0])
    perturbation = engine.draw_perturbation(task, 4, 3, PerturbationMode.SYNCHRONIZED, seed=1)
    pair, bare = (
        engine.run_coupled([(P, None)], [shards], LINEAR, config, [perturbation], [0], risks)
        for risks in (True, False)
    )
    assert estimate_epsilon_s(pair.risks, alpha=1.0) > 0.0
    for traces in (single, bare):
        with pytest.raises(InputError, match="no recorded risks"):
            estimate_epsilon_s(traces.risks, alpha=1.0)


def test_risk_exponent_curve_hand_value():
    # Per snapshot, (1/m) sum_k F_k^(2 alpha / (1 + alpha)); the envelope is their max.
    risks = np.array([[1.0, 4.0], [9.0, 16.0]])
    for alpha, curve in ((1.0, [2.5, 12.5]), (1 / 3, [1.5, 3.5])):  # exponents 1 and 1/2
        per_snapshot = [estimate_epsilon_s(risks[j : j + 1], alpha) for j in range(2)]
        assert np.allclose(per_snapshot, curve)
        assert estimate_epsilon_s(risks, alpha) == pytest.approx(curve[-1])


# ---------------------------------------------------------------------------
# Bound evaluators
# ---------------------------------------------------------------------------


def make_inputs(**overrides):
    values = dict(
        L=1.0, alpha=1.0, rate=ConstantRate(0.1), n=10, m=4, d=2,
        lam=1 / 3, sigma_sq=1.0, mu_sq=0.0, epsilon_s=1.0, p=1.0,
    )
    values.update(overrides)
    return BoundInputs(**values)


def test_stability_bound_single_step_hand_value():
    inputs = make_inputs()
    curve = stability_bound_curve(inputs, np.array([1.0]), t_max=1)
    # scale 1 + 1/10 + (9/10)(1/10) = 1.19; mixing (3/4)(1/9) + 1/4 = 1/3;
    # risk (2/10)(2)(2)(0.01)(1) = 0.008.
    assert curve[0] == 0.0
    assert curve[1] == pytest.approx(1.19 * 2.0 * (1 / 3) + 0.008, abs=1e-12)


def test_stability_bound_zero_lambda_keeps_only_uniform_share():
    full = stability_bound_curve(make_inputs(lam=0.0), np.zeros(1), 1)[1]
    # With risk zero the single term is scale * d * (1/m).
    assert full == pytest.approx(1.19 * 2.0 * 0.25, abs=1e-12)


def test_stability_bound_degenerate_constants_vanish():
    with pytest.warns(UserWarning, match="validity limit"):
        inputs = make_inputs(lam=0.0, m=1, sigma_sq=0.0, mu_sq=0.0)
    curve = stability_bound_curve(inputs, np.zeros(10), 10)
    assert np.max(curve) == 0.0


def test_stability_bound_is_strictly_increasing_in_lambda():
    risk = np.full(50, 0.3)
    values = [
        stability_bound_curve(make_inputs(lam=lam), risk, 50)[-1]
        for lam in np.arange(0.0, 0.95, 0.1)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_stability_bound_is_nondecreasing_in_t_for_constant_risk():
    for risk_level in (0.0, 0.5, 4.0):
        curve = stability_bound_curve(make_inputs(), np.full(80, risk_level), 80)
        assert np.all(np.diff(curve) >= -1e-15)


def test_stability_bound_rejects_short_risk_curve():
    with pytest.raises(InputError):
        stability_bound_curve(make_inputs(), np.zeros(5), 10)


def test_stability_bound_limit_matches_long_horizon():
    inputs = make_inputs()
    limit = stability_bound_limit(inputs)
    curve = stability_bound_curve(inputs, np.full(4000, inputs.epsilon_s), 4000)
    assert curve[-1] == pytest.approx(limit, rel=1e-12)


def test_stability_bound_limit_rejects_divergent_contraction():
    with pytest.warns(UserWarning, match="validity limit"):
        divergent = make_inputs(rate=ConstantRate(10.0))
    with pytest.raises(InputError, match="diverges"):
        stability_bound_limit(divergent)
    with pytest.raises(InputError, match="constant"):
        stability_bound_limit(make_inputs(rate=StepDecayRate(0.1)))


def test_bound_evaluators_name_the_contraction_on_overflow():
    # C = 2 * 10 * 1 * (1 - 1/10) = 18 compounds past the float range within
    # 400 steps: a numerical failure, not an overflow warning or OverflowError.
    with pytest.warns(UserWarning, match="validity limit"):
        divergent = make_inputs(rate=ConstantRate(10.0))
    with pytest.raises(NumericalError, match="contraction C = 18 compounded over 400 steps"):
        stability_bound_curve(divergent, np.ones(400), t_max=400)
    with pytest.raises(NumericalError, match="contraction C = 18 compounded over 400 steps"):
        generalization_bound_closed(divergent, 400)
    assert np.isfinite(stability_bound_curve(divergent, np.ones(200), t_max=200)[-1])


def test_sigma_mu_overflow_is_a_numerical_failure():
    # Each difference squares to a float; their deviations from the mean do not.
    diffs = np.array([1.0, -1.0, 1.0])[:, None, None] * np.full((3, 2, 1), 1.3e154)
    with pytest.raises(NumericalError, match="moments overflow"):
        estimate_sigma_mu(diffs)


def test_mean_and_se_is_the_replicate_standard_error():
    values = np.random.default_rng(3).standard_normal((5, 4))
    mean, se = mean_and_se(values)
    assert np.array_equal(mean, values.mean(axis=0))
    assert np.array_equal(se, values.std(axis=0, ddof=1) / math.sqrt(5))
    assert np.array_equal(mean_and_se(values[:1])[1], np.zeros(4))
    with pytest.raises(NumericalError, match="standard error over 2 replicates overflows"):
        mean_and_se(np.array([1e200, -1e200]))


def test_bound_inputs_validation():
    with pytest.raises(InputError):
        make_inputs(L=0.0)
    with pytest.raises(InputError):
        make_inputs(lam=1.5)
    with pytest.raises(InputError):
        make_inputs(p=0.0)
    with pytest.raises(InputError, match="alpha"):
        make_inputs(alpha=0.0)
    with pytest.warns(UserWarning, match="validity limit"):
        make_inputs(rate=ConstantRate(0.9))


def test_validity_warning_names_the_caller():
    with pytest.warns(UserWarning, match="validity limit") as record:
        make_inputs(rate=ConstantRate(0.9))
    assert record[0].filename == __file__


def test_generalization_bound_from_stability_values():
    assert generalization_bound_from_stability(0.0, 1.0, 1.0, 2, 4) == 0.0
    assert generalization_bound_from_stability(0.25, 1.0, 1.0, 2, 4) == pytest.approx(0.125)
    assert generalization_bound_from_stability(7.0, 2.0, 0.0, 3, 5) == pytest.approx(2.0 / 15.0)


def test_generalization_bound_closed_degenerate_zero():
    with pytest.warns(UserWarning, match="validity limit"):
        inputs = make_inputs(lam=0.0, m=1, sigma_sq=0.0, mu_sq=0.0, epsilon_s=0.0)
    assert generalization_bound_closed(inputs, 20) == 0.0


def test_generalization_bound_closed_increases_with_lambda():
    values = [
        generalization_bound_closed(make_inputs(lam=lam), 30)
        for lam in np.arange(0.0, 0.95, 0.1)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.filterwarnings("ignore:initial learning rate")
def test_closed_bound_sandwiched_by_composed_bound():
    rng = np.random.default_rng(17)
    for _ in range(20):
        inputs = make_inputs(
            L=float(rng.uniform(0.5, 3.0)),
            lam=float(rng.uniform(0.0, 0.95)),
            sigma_sq=float(rng.uniform(0.0, 2.0)),
            mu_sq=float(rng.uniform(0.0, 0.5)),
            epsilon_s=float(rng.uniform(0.1, 3.0)),
            rate=ConstantRate(float(rng.uniform(0.01, 0.12))),
            n=int(rng.integers(5, 40)),
            m=int(rng.integers(2, 30)),
        )
        t = int(rng.integers(1, 60))
        closed = generalization_bound_closed(inputs, t)
        stability = stability_bound_curve(inputs, np.full(t, inputs.epsilon_s), t)[-1]
        composed = generalization_bound_from_stability(
            stability, inputs.L, inputs.alpha, inputs.m, inputs.n
        )
        assert composed / 2 <= closed <= 2 * composed


def test_optimize_bound_p_does_not_increase_value():
    inputs = make_inputs()
    risk = np.full(40, inputs.epsilon_s)
    best = optimize_bound_p(inputs, risk, 40)
    assert 0.0 < best <= 100.0

    tuned = stability_bound_curve(replace(inputs, p=best), risk, 40)[-1]
    default = stability_bound_curve(inputs, risk, 40)[-1]
    assert tuned <= default + 1e-12


_P_GRID = np.geomspace(1e-6, 100.0, 401)


@pytest.mark.filterwarnings("ignore:initial learning rate")
@settings(max_examples=40)
@given(
    step_decay=st.booleans(),
    eta=st.floats(0.001, 0.3),
    t_max=st.integers(1, 40),
    lam=st.floats(0.0, 1.0),
    sigma_sq=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    mu_sq=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimize_bound_p_minimizes_the_final_bound(
    step_decay, eta, t_max, lam, sigma_sq, mu_sq, n, seed
):
    rate = StepDecayRate(eta) if step_decay else ConstantRate(eta)
    inputs = make_inputs(rate=rate, lam=lam, sigma_sq=sigma_sq, mu_sq=mu_sq, n=n)
    # Risk curves with zero stretches, so the risk coefficient y can vanish.
    rng = np.random.default_rng(seed)
    risk = rng.uniform(0.0, 3.0, t_max) * (rng.random(t_max) < rng.random())
    p = optimize_bound_p(inputs, risk, t_max)
    assert 1e-6 <= p <= 100.0

    def final(q):
        return stability_bound_curve(inputs.with_p(q), risk, t_max)[-1]

    best = final(p)
    for q in (p * (1 - 1e-3), p * (1 + 1e-3), 1e-6, 1.0, 100.0):
        if 1e-6 <= q <= 100.0:
            assert best <= final(q) * (1 + 1e-12)
    values = np.array([final(q) for q in _P_GRID])
    if values.max() > values.min():
        spacing = math.log(_P_GRID[1] / _P_GRID[0])
        grid_best = _P_GRID[np.argmin(values)]
        assert abs(math.log(p / grid_best)) <= spacing * (1 + 1e-9)


def test_optimize_bound_p_is_stable_under_last_bit_changes_of_lambda():
    # The final bound is flat at its minimum, so a p found by comparing bound
    # values moves with their rounding (9e-8 relative here); p from the
    # bound's coefficients moves by a few ulps.
    risk = np.ones(40)
    p, p_moved = (optimize_bound_p(make_inputs(lam=lam), risk, 40) for lam in (0.5, 0.5 + 7e-16))
    assert p_moved == pytest.approx(p, rel=1e-12, abs=0)


def test_optimize_bound_p_at_a_constant_rate_is_the_ratio_of_the_two_terms():
    # x and y share the geometric weights, so p = sqrt(2 c^2 eta^2 risk / K) at any T,
    # with K = d (sigma^2 + mu^2) ((1 - 1/m) lam^2 + 1/m) = 2 (1/3).
    inputs = make_inputs()
    expected = math.sqrt(2 * inputs.c_alpha**2 * 0.1**2 * 1.0 / (2.0 / 3.0))
    for t_max in (1, 40, 2000):
        p = optimize_bound_p(inputs, np.ones(t_max), t_max)
        assert p == pytest.approx(expected, rel=1e-13)


def test_optimize_bound_p_keeps_the_curve_checks():
    with pytest.raises(InputError, match="cover"):
        optimize_bound_p(make_inputs(), np.ones(5), 10)
    with pytest.raises(InputError, match="nonnegative"):
        optimize_bound_p(make_inputs(), -np.ones(5), 5)
    with pytest.warns(UserWarning, match="validity limit"):
        divergent = make_inputs(rate=ConstantRate(10.0))
    with pytest.raises(NumericalError, match="contraction C = 18 compounded over 400 steps"):
        optimize_bound_p(divergent, np.ones(400), 400)
    # No topology term to pay for p: the largest p.
    assert optimize_bound_p(make_inputs(sigma_sq=0.0), np.ones(10), 10) == 100.0


# ---------------------------------------------------------------------------
# Generalization gap
# ---------------------------------------------------------------------------


def test_gap_is_zero_at_truth_for_noiseless_task():
    task = make_task(noise_std=0.0)
    shards = _make_shards(task, 4, 2, 19)
    traces = initial_traces(shards)
    traces.consensus[:] = task.w_star
    report = generalization_gap(traces, task, LINEAR, shards)
    assert report.mean[0] == pytest.approx(0.0, abs=1e-25)


def test_gap_rejects_coupled_traces():
    # A coupled stack keeps no consensus models, so it has no gap curve to score.
    task = make_task()
    shards = _make_shards(task, 4, 2, 19)
    perturbation = engine.draw_perturbation(task, 4, 2, PerturbationMode.SYNCHRONIZED, 1)
    P = build_gossip_matrix(TopologyKind.RING, 2)
    config = TrainConfig(iterations=3, rate=ConstantRate(0.1), seed=0)
    traces = engine.run_coupled([(P, None)], [shards], LINEAR, config, [perturbation], [0])
    with pytest.raises(InputError, match="run_dsgd"):
        generalization_gap(traces, task, LINEAR, shards)


def test_gap_at_initialization_matches_direct_computation():
    task = make_task(noise_std=0.4)
    shards = _make_shards(task, 5, 2, 23)
    report = generalization_gap(initial_traces(shards), task, LINEAR, shards)
    xs, ys = shards.flat()
    expected = (0.5 * task.w_star @ task.w_star + 0.5 * 0.4**2) - np.mean(0.5 * ys**2)
    assert report.mean[0] == pytest.approx(expected, abs=1e-12)


def test_gap_concentrates_with_many_samples():
    task = make_task(d_x=5, noise_std=0.5)
    shards = _make_shards(task, 2500, 4, 29)
    P = build_gossip_matrix(TopologyKind.FULLY_CONNECTED, 4)
    config = TrainConfig(iterations=800, rate=ConstantRate(0.1), seed=31, snapshot_every=800)
    traces = engine.run_dsgd([(P, None)], [shards], LINEAR, config, [config.seed])
    report = generalization_gap(traces, task, LINEAR, shards)
    assert abs(report.final) < 0.05


# ---------------------------------------------------------------------------
# Gaussianity diagnostics
# ---------------------------------------------------------------------------


def test_gaussianity_passes_on_normal_draws():
    rng = np.random.default_rng(37)
    report = gaussianity_report(rng.standard_normal((100, 10, 100)))
    assert report.passed is True
    assert abs(report.skewness) < 0.05
    assert report.pooled_count == 100_000


def test_gaussianity_fails_on_exponential_draws():
    rng = np.random.default_rng(41)
    report = gaussianity_report(rng.exponential(1.0, size=(100, 10, 100)))
    assert report.passed is False
    assert abs(report.skewness - 2.0) < 0.2


def test_gaussianity_degenerate_on_zero_differences():
    report = gaussianity_report(np.zeros((3, 10, 20)))
    assert report.degenerate is True
    assert report.passed is None


def test_gaussianity_requires_enough_coordinates():
    with pytest.raises(InputError):
        gaussianity_report(np.zeros((1, 3, 3)))


def test_gaussianity_histogram_covers_all_points():
    rng = np.random.default_rng(43)
    report = gaussianity_report(rng.standard_normal((4, 5, 30)))
    assert report.histogram_counts.sum() == report.pooled_count
    assert len(report.histogram_edges) == len(report.histogram_counts) + 1


# ---------------------------------------------------------------------------
# Rank correlation, sweeps, comparison
# ---------------------------------------------------------------------------


def test_spearman_hand_cases():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman_rank_correlation(x, 2 * x + 1) == pytest.approx(1.0)
    assert spearman_rank_correlation(x, -x) == pytest.approx(-1.0)
    assert spearman_rank_correlation(x, np.ones(4)) == 0.0
    with_ties = spearman_rank_correlation(
        np.array([1.0, 2.0, 2.0, 3.0]), np.array([10.0, 20.0, 20.0, 30.0])
    )
    assert with_ties == pytest.approx(1.0)


@settings(max_examples=100)
@given(values=st.lists(st.integers(-3, 3) | st.floats(-1e3, 1e3), min_size=2, max_size=50))
def test_average_ranks_equal_the_unique_form(values):
    # The ranks of a stable sort's tie groups must be those of the np.unique
    # form, bit for bit: each group gets the mean of its 1-based positions.
    values = np.array(values, dtype=float)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    reference = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    ranks = analysis._average_ranks(values)
    assert ranks.dtype == reference.dtype and np.array_equal(ranks, reference)


def test_control_sweep_uncontrolled_onset_matches_baseline():
    task = make_task()
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=12, rate=ConstantRate(0.1), seed=43)
    baseline = estimate_stability(P, task, LINEAR, config, n=4, replicates=5, pairs=2)
    sweep = consensus_control_sweep(
        P, task, LINEAR, config, n=4, gamma_sq=1e-4,
        t_gamma_values=[12, 12], replicates=5, pairs=2,
    )
    finals = np.array([estimate.final for estimate in sweep])
    assert np.allclose(finals, baseline.final, rtol=1e-12)
    assert spearman_rank_correlation(np.array([12.0, 12.0]), finals) == 0.0


def test_control_sweep_with_infinite_target_is_flat():
    task = make_task()
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=12, rate=ConstantRate(0.1), seed=47)
    sweep = consensus_control_sweep(
        P, task, LINEAR, config, n=4, gamma_sq=math.inf,
        t_gamma_values=[0, 6, 12], replicates=5, pairs=2,
    )
    finals = np.array([estimate.final for estimate in sweep])
    assert np.ptp(finals) == 0.0
    assert spearman_rank_correlation(np.array([0.0, 6.0, 12.0]), finals) == 0.0
    assert [estimate.extra_gossip_rounds for estimate in sweep] == [0, 0, 0]


def test_control_sweep_validates_inputs():
    task = make_task()
    P = build_gossip_matrix(TopologyKind.RING, 4)
    config = TrainConfig(iterations=12, rate=ConstantRate(0.1), seed=1)
    with pytest.raises(InputError):
        consensus_control_sweep(P, task, LINEAR, config, n=4, gamma_sq=1e-4,
                                t_gamma_values=[6, 0], replicates=5, pairs=2)
    with pytest.raises(InputError):
        consensus_control_sweep(P, task, LINEAR, config, n=4, gamma_sq=1e-4,
                                t_gamma_values=[0, 6], replicates=4, pairs=2)
    with pytest.raises(InputError, match="2 onsets"):
        consensus_control_sweep(P, task, LINEAR, config, n=4, gamma_sq=1e-4,
                                t_gamma_values=[6], replicates=5, pairs=2)
    with pytest.raises(InputError, match="t_gamma"):
        consensus_control_sweep(P, task, LINEAR, config, n=4, gamma_sq=1e-4,
                                t_gamma_values=[0, 13], replicates=5, pairs=2)


def test_topology_comparison_single_kind_row():
    task = make_task()
    config = TrainConfig(iterations=10, rate=ConstantRate(0.05), seed=51)
    rows = topology_comparison(
        [TopologyKind.FULLY_CONNECTED], 4, task, LINEAR, config,
        n=4, replicates=2, pairs=1, mc_draws=2000,
    )
    assert len(rows) == 1
    assert rows[0].lam == 0.0


def test_topology_comparison_ring_has_larger_lambda():
    task = make_task()
    config = TrainConfig(iterations=10, rate=ConstantRate(0.05), seed=53)
    rows = topology_comparison(
        [TopologyKind.FULLY_CONNECTED, TopologyKind.RING], 32, task, LINEAR, config,
        n=2, replicates=2, pairs=1, mc_draws=2000,
    )
    by_kind = {row.kind: row for row in rows}
    assert by_kind[TopologyKind.RING].lam > by_kind[TopologyKind.FULLY_CONNECTED].lam


def test_topology_comparison_rows_keep_replicate_finals():
    task = make_task()
    config = TrainConfig(iterations=10, rate=ConstantRate(0.05), seed=57)
    replicates = 5
    rows = topology_comparison(
        [TopologyKind.FULLY_CONNECTED, TopologyKind.RING], 4, task, LINEAR, config,
        n=4, replicates=replicates, pairs=2, mc_draws=2000,
    )
    for row in rows:
        # The gap is an estimate of the last snapshot alone.
        assert row.stability.replicates.shape == (replicates, 11)
        assert row.gap.replicates.shape == (replicates, 1)
        assert row.gap.iterations.tolist() == [10]
        for estimate in (row.stability, row.gap):
            values = estimate.replicates[:, -1]
            assert np.mean(values) == pytest.approx(estimate.final, rel=1e-12, abs=0.0)
            assert np.std(values, ddof=1) / math.sqrt(replicates) == pytest.approx(
                estimate.final_se, rel=1e-12, abs=0.0
            )
        assert np.ptp(row.stability.replicates[:, -1]) > 0.0


def test_mlp_comparison_gaps_match_full_curve_gaps():
    task = SyntheticTask(ModelFamily.TWO_LAYER_MLP, 3, np.full(3, 0.5), 0.3)
    model = LossModel(family=ModelFamily.TWO_LAYER_MLP, hidden_width=4)
    config = TrainConfig(iterations=12, rate=ConstantRate(0.05), seed=61)
    replicates, pairs = 3, 3
    (row,) = topology_comparison(
        [TopologyKind.RING], 4, task, model, config, n=5, replicates=replicates,
        pairs=pairs, mc_draws=1001,
    )
    # The sweep keeps no consensus curves: each pair's base side is run again
    # alone by run_dsgd, whose traces keep them.
    ring = (build_gossip_matrix(TopologyKind.RING, 4), None)
    full_curve = [
        np.mean([
            generalization_gap(
                base_alone(ring, task, model, config, 5, r, j),
                task, model,
                _make_shards(task, 5, 4, derive_seed(config.seed, "stability-data", r)),
                mc_draws=1001,
                seed=config.seed,
            ).final
            for j in range(pairs)
        ])
        for r in range(replicates)
    ]
    assert np.allclose(row.gap.replicates[:, 0], full_curve, rtol=1e-12, atol=0.0)
