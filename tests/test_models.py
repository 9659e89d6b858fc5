"""Loss families, synthetic data, and gradient-regularity constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsgd_lab.errors import InputError
from dsgd_lab.models import (
    LossModel,
    ModelFamily,
    Sample,
    SyntheticTask,
    c_alpha_constant,
    dataset_risk,
    draw_dataset_arrays,
    estimate_holder_constant,
    loss_gradient,
    loss_gradients,
    loss_value,
    loss_values,
    population_risk,
    population_risk_mc,
    sample_dataset,
    _risk_block_rows,
    _softplus,
    self_bounding_check,
    shard_iid,
    worker_risks,
)

FAMILIES = [
    ModelFamily.LINEAR_REGRESSION,
    ModelFamily.LOGISTIC_REGRESSION,
    ModelFamily.TWO_LAYER_MLP,
]


def make_task(family, d_x=3, noise_std=0.1, feature_variance=1.0, w_scale=1.0):
    w_star = np.full(d_x, w_scale / math.sqrt(d_x))
    return SyntheticTask.isotropic(family, d_x, w_star, noise_std, feature_variance)


def make_model(family):
    return LossModel(family=family, hidden_width=4)


# ---------------------------------------------------------------------------
# Sampling and sharding
# ---------------------------------------------------------------------------


def test_noiseless_regression_labels_are_exact():
    task = make_task(ModelFamily.LINEAR_REGRESSION, noise_std=0.0)
    for z in sample_dataset(task, 50, seed=1):
        assert z.y == pytest.approx(float(z.x @ task.w_star), abs=1e-12)


def test_sampling_is_deterministic():
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    a = sample_dataset(task, 100, seed=9)
    b = sample_dataset(task, 100, seed=9)
    assert all(np.array_equal(x.x, y.x) and x.y == y.y for x, y in zip(a, b))


def test_sample_covariance_approaches_identity():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=3)
    data = sample_dataset(task, 100_000, seed=4)
    xs = np.stack([z.x for z in data])
    cov = xs.T @ xs / len(data)
    assert np.max(np.abs(cov - np.eye(3))) < 0.05


def test_logistic_labels_are_binary():
    task = make_task(ModelFamily.LOGISTIC_REGRESSION)
    ys = {z.y for z in sample_dataset(task, 200, seed=2)}
    assert ys <= {0.0, 1.0}


def test_shard_iid_splits_contiguously():
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    data = sample_dataset(task, 8, seed=0)
    shards = shard_iid(data, 2)
    assert shards.m == 2 and shards.n == 4
    assert np.array_equal(shards.xs[1, 0], data[4].x)


def test_shard_iid_rejects_indivisible():
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    with pytest.raises(InputError, match="divisible"):
        shard_iid(sample_dataset(task, 9, seed=0), 2)


def test_shard_iid_singletons():
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    shards = shard_iid(sample_dataset(task, 6, seed=0), 6)
    assert shards.m == 6 and shards.n == 1


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------


def test_linear_loss_perfect_fit_is_zero():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    z = Sample(np.array([2.0, -1.0]), 3.0)
    w = np.array([1.0, -1.0])  # x.w = 3 = y
    assert loss_value(model, w, z) == 0.0
    assert np.array_equal(loss_gradient(model, w, z), np.zeros(2))


def test_linear_loss_hand_value():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    z = Sample(np.array([1.0, 0.0]), 0.0)
    w = np.array([2.0, 5.0])
    assert loss_value(model, w, z) == pytest.approx(2.0)
    assert np.allclose(loss_gradient(model, w, z), [2.0, 0.0])


def test_logistic_loss_at_zero_margin():
    model = make_model(ModelFamily.LOGISTIC_REGRESSION)
    z = Sample(np.array([1.0, 2.0]), 1.0)
    w = np.zeros(2)
    assert loss_value(model, w, z) == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.allclose(loss_gradient(model, w, z), -z.x / 2)


@pytest.mark.parametrize("family", FAMILIES)
def test_losses_are_nonnegative(family):
    model = make_model(family)
    task = make_task(family)
    rng = np.random.default_rng(11)
    d = model.dim(task.d_x)
    for z in sample_dataset(task, 50, seed=5):
        w = rng.standard_normal(d)
        assert loss_value(model, w, z) >= 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_gradients_match_central_differences(family):
    model = make_model(family)
    task = make_task(family)
    rng = np.random.default_rng(13)
    d = model.dim(task.d_x)
    step = 1e-6
    for z in sample_dataset(task, 20, seed=6):
        w = rng.standard_normal(d)
        grad = loss_gradient(model, w, z)
        fd = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = step
            fd[i] = (loss_value(model, w + e, z) - loss_value(model, w - e, z)) / (2 * step)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
        assert rel < 1e-5


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_losses_match_single_sample_calls(family):
    model = make_model(family)
    task = make_task(family)
    rng = np.random.default_rng(17)
    data = sample_dataset(task, 10, seed=8)
    d = model.dim(task.d_x)
    W = rng.standard_normal((10, d))
    X = np.stack([z.x for z in data])
    Y = np.array([z.y for z in data])
    values = loss_values(model, W, X, Y)
    grads = loss_gradients(model, W, X, Y)
    for k, z in enumerate(data):
        assert values[k] == pytest.approx(loss_value(model, W[k], z), abs=1e-14)
        assert np.allclose(grads[k], loss_gradient(model, W[k], z), atol=1e-14)


def test_loss_rejects_dimension_mismatch():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    with pytest.raises(InputError):
        loss_value(model, np.zeros(3), Sample(np.zeros(2), 0.0))


def test_worker_risks_match_dataset_risk():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    shards = shard_iid(sample_dataset(task, 12, seed=21), 3)
    rng = np.random.default_rng(23)
    W = rng.standard_normal((3, 3))
    risks = worker_risks(model, W, shards)
    for k in range(3):
        expected = dataset_risk(model, W[k : k + 1], shards.xs[k], shards.ys[k])
        assert risks[k] == pytest.approx(expected[0], abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    stack=st.integers(1, 30),
    blocks=st.sampled_from([0, 1, 2]),
    offset=st.sampled_from([-1, 0, 1, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_dataset_risk_matches_per_row_losses(family, stack, blocks, offset, seed):
    model = LossModel(family=family, hidden_width=3, softplus_sharpness=2.0)
    # Sample counts just below, at and past a whole number of blocks.
    count = max(1, blocks * _risk_block_rows(model, stack) + offset)
    task = make_task(family, d_x=4)
    rng = np.random.default_rng(seed)
    xs, ys = draw_dataset_arrays(task, count, rng)
    W = rng.standard_normal((stack, model.dim(4)))
    reference = [
        loss_values(model, np.broadcast_to(w, (count, w.shape[0])), xs, ys).mean() for w in W
    ]
    risks = dataset_risk(model, W, xs, ys)
    assert risks.shape == (stack,)
    assert np.allclose(risks, reference, rtol=1e-12, atol=0.0)


def test_dataset_risk_rejects_a_single_weight_vector():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    with pytest.raises(InputError, match="stack"):
        dataset_risk(model, np.zeros(3), np.zeros((4, 3)), np.zeros(4))


# Inputs where the two softplus forms must agree exactly, at every sharpness.
SOFTPLUS_EXTREMES = [np.inf, -np.inf, 0.0, -0.0, 1e-320, -1e-320, 800.0, -800.0]

# np.exp and np.log1p each round to within an ulp of the libm results that
# np.logaddexp uses, so the two compositions drift up to a few ulp apart: the
# worst of 40 million draws over eight scales and five sharpnesses was 2.9 eps
# relative.
SOFTPLUS_RTOL = 4 * np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-1e3, 1e3), sharpness=st.sampled_from([0.5, 1.0, 2.0, 5.0, 20.0]))
def test_softplus_matches_logaddexp(t, sharpness):
    value = _softplus(np.array([sharpness * t]))[0] / sharpness
    expected = np.logaddexp(0.0, sharpness * t) / sharpness
    assert value == pytest.approx(expected, rel=SOFTPLUS_RTOL, abs=0.0)


def test_softplus_extremes_match_logaddexp_exactly():
    t = np.array(SOFTPLUS_EXTREMES + [np.nan])
    for sharpness in (1.0, 5.0):
        with np.errstate(invalid="ignore"):
            expected = np.logaddexp(0.0, sharpness * t) / sharpness
        assert np.array_equal(_softplus(sharpness * t) / sharpness, expected, equal_nan=True)


# ---------------------------------------------------------------------------
# Population risk
# ---------------------------------------------------------------------------


def test_population_risk_at_truth_is_noise_floor():
    task = make_task(ModelFamily.LINEAR_REGRESSION, noise_std=0.1)
    assert population_risk(task, task.w_star) == pytest.approx(0.005)


def test_population_risk_unit_offset():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=2, noise_std=0.0)
    w = task.w_star + np.array([1.0, 0.0])
    assert population_risk(task, w) == pytest.approx(0.5)


def test_monte_carlo_risk_agrees_with_closed_form():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=4, noise_std=0.3)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    rng = np.random.default_rng(29)
    for probe in range(20):
        w = task.w_star + 0.5 * rng.standard_normal(4)
        exact = population_risk(task, w)
        estimate, stderr = population_risk_mc(task, model, w, draws=20_000, seed=probe)
        assert abs(estimate - exact) < 3 * stderr


def test_population_risk_of_a_stack_is_per_row():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=4, noise_std=0.3)
    W = task.w_star + np.random.default_rng(31).standard_normal((5, 4))
    assert np.allclose(population_risk(task, W), [population_risk(task, w) for w in W],
                       rtol=1e-15, atol=0.0)


def test_population_risk_has_no_closed_form_beyond_linear():
    task = make_task(ModelFamily.TWO_LAYER_MLP)
    with pytest.raises(InputError, match="population_risk_mc"):
        population_risk(task, np.zeros(4 * 3 + 4))


def test_monte_carlo_risk_uses_the_model_sharpness_and_width():
    model = LossModel(family=ModelFamily.TWO_LAYER_MLP, hidden_width=3, softplus_sharpness=2.0)
    task = make_task(ModelFamily.TWO_LAYER_MLP, d_x=3)
    w = np.random.default_rng(37).standard_normal(model.dim(3))
    estimate, _ = population_risk_mc(task, model, w, draws=500, seed=41)
    xs, ys = draw_dataset_arrays(task, 500, np.random.default_rng(41))
    assert estimate == pytest.approx(dataset_risk(model, w[None, :], xs, ys)[0], rel=1e-12)


def test_monte_carlo_risk_rejects_tiny_draw_count():
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    with pytest.raises(InputError):
        population_risk_mc(task, model, task.w_star, draws=1, seed=0)


def test_monte_carlo_risk_rejects_a_mismatched_model():
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    with pytest.raises(InputError, match="shape"):
        population_risk_mc(task, model, np.zeros(4), draws=10, seed=0)
    with pytest.raises(InputError, match="family"):
        population_risk_mc(task, make_model(ModelFamily.TWO_LAYER_MLP), task.w_star,
                           draws=10, seed=0)


# ---------------------------------------------------------------------------
# Regularity constants
# ---------------------------------------------------------------------------


def test_c_alpha_smooth_cases():
    assert c_alpha_constant(1.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert c_alpha_constant(1.0, 2.0) == pytest.approx(2.0, abs=1e-15)


def test_c_alpha_lipschitz_case():
    assert c_alpha_constant(0.0, 1.0, grad_at_zero_sup=3.0) == 4.0
    with pytest.raises(InputError):
        c_alpha_constant(0.0, 1.0)


def test_c_alpha_rejects_bad_inputs():
    with pytest.raises(InputError):
        c_alpha_constant(1.5, 1.0)
    with pytest.raises(InputError):
        c_alpha_constant(0.5, 0.0)


def test_holder_ratio_for_fixed_sample_is_bounded_by_feature_norm():
    # For the squared loss the gradient difference is (x x^T)(w - w');
    # with x = (1, 0) every ratio is at most 1 and the supremum is attained
    # along the feature direction.
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    z = Sample(np.array([1.0, 0.0]), 0.0)
    rng = np.random.default_rng(31)
    ratios = []
    for _ in range(2000):
        w_a = rng.standard_normal(2)
        w_b = rng.standard_normal(2)
        gap = np.linalg.norm(loss_gradient(model, w_a, z) - loss_gradient(model, w_b, z))
        ratios.append(gap / np.linalg.norm(w_a - w_b))
    assert max(ratios) <= 1.0 + 1e-12
    assert max(ratios) > 0.999


def test_holder_estimate_scalar_linear_is_max_feature_square():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=1)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    estimate = estimate_holder_constant(model, task, 1.0, pairs=500, radius=5.0, seed=37)
    pool = sample_dataset(task, 500, seed=37)
    assert estimate == pytest.approx(max(float(z.x[0]) ** 2 for z in pool), abs=1e-12)


def test_holder_estimate_logistic_bounded_by_curvature():
    task = make_task(ModelFamily.LOGISTIC_REGRESSION, d_x=3)
    model = make_model(ModelFamily.LOGISTIC_REGRESSION)
    estimate = estimate_holder_constant(model, task, 1.0, pairs=400, radius=5.0, seed=41)
    pool = sample_dataset(task, 400, seed=41)
    assert estimate <= max(float(z.x @ z.x) for z in pool) / 4 + 1e-9


def test_holder_estimate_rejects_bad_inputs():
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    with pytest.raises(InputError):
        estimate_holder_constant(model, task, 1.0, pairs=0, radius=5.0, seed=0)
    with pytest.raises(InputError):
        estimate_holder_constant(model, task, 1.0, pairs=10, radius=-1.0, seed=0)


def test_self_bounding_zero_loss_has_zero_gradient():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    z = Sample(np.array([1.0, 2.0]), 5.0)
    w = np.array([1.0, 2.0])  # x.w = 5 = y, loss exactly 0
    assert loss_value(model, w, z) == 0.0
    assert np.linalg.norm(loss_gradient(model, w, z)) == 0.0


def test_self_bounding_holds_with_shared_probe_pool():
    for family, radius in [
        (ModelFamily.LINEAR_REGRESSION, 5.0),
        (ModelFamily.LOGISTIC_REGRESSION, 0.15),
    ]:
        task = make_task(family, d_x=1, noise_std=0.5)
        model = make_model(family)
        L = estimate_holder_constant(model, task, 1.0, pairs=400, radius=radius, seed=43)
        report = self_bounding_check(model, task, 1.0, L, trials=400, seed=43, radius=radius)
        assert report.violations == 0
        assert report.max_ratio <= 1.0 + 1e-9


def test_self_bounding_flags_an_understated_constant():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=2)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    report = self_bounding_check(model, task, 1.0, L=1e-4, trials=300, seed=47)
    assert report.violations > 0
    assert report.max_ratio > 1.0
