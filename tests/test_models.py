"""Loss families, synthetic data, and gradient-regularity constants."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsgd_lab import models
from dsgd_lab.errors import InputError
from dsgd_lab.models import (
    HOLDOUT_CHUNK_ROWS,
    SOFTPLUS_EXP_LIMIT,
    Holdout,
    LossModel,
    ModelFamily,
    Shards,
    SyntheticTask,
    c_alpha_constant,
    dataset_risk,
    draw_dataset_arrays,
    estimate_holder_constant,
    loss_gradients,
    loss_values,
    population_risk,
    _log1p_exp,
    _risk_block_rows,
    _sigmoid,
    _softplus,
    _softplus_and_sigmoid,
    self_bounding_check,
    worker_risks,
)
from dsgd_lab.seeding import derive_seed

FAMILIES = [
    ModelFamily.LINEAR_REGRESSION,
    ModelFamily.LOGISTIC_REGRESSION,
    ModelFamily.TWO_LAYER_MLP,
]


def make_task(family, d_x=3, noise_std=0.1, feature_variance=1.0, w_scale=1.0):
    w_star = np.full(d_x, w_scale / math.sqrt(d_x))
    return SyntheticTask(family, d_x, w_star, noise_std, feature_variance)


def make_model(family):
    return LossModel(family=family, hidden_width=4)


def draw(task, count, seed):
    """`count` samples of the task as (count, d_x) features and (count,) labels."""
    return draw_dataset_arrays(task, count, np.random.default_rng(seed))


def one_row(w, x, y):
    """A single sample as the 1-row stack (W, X, Y) that loss_values/loss_gradients take."""
    return np.atleast_2d(w), np.atleast_2d(x), np.atleast_1d(y)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_noiseless_regression_labels_are_exact():
    task = make_task(ModelFamily.LINEAR_REGRESSION, noise_std=0.0)
    xs, ys = draw(task, 50, seed=1)
    assert np.allclose(ys, xs @ task.w_star, rtol=0.0, atol=1e-12)


def test_sampling_is_deterministic():
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    (xs_a, ys_a), (xs_b, ys_b) = draw(task, 100, seed=9), draw(task, 100, seed=9)
    assert np.array_equal(xs_a, xs_b) and np.array_equal(ys_a, ys_b)


def test_sample_covariance_approaches_identity():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=3)
    xs, _ = draw(task, 100_000, seed=4)
    cov = xs.T @ xs / len(xs)
    assert np.max(np.abs(cov - np.eye(3))) < 0.05


def test_logistic_labels_are_binary():
    task = make_task(ModelFamily.LOGISTIC_REGRESSION)
    _, ys = draw(task, 200, seed=2)
    assert set(ys) <= {0.0, 1.0}


def test_task_converts_w_star_and_rejects_a_bad_variance():
    task = SyntheticTask(ModelFamily.LINEAR_REGRESSION, 2, [1, 2])
    assert task.w_star.dtype == np.float64 and task.feature_variance == 1.0
    for variance in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="feature_variance"):
            SyntheticTask(ModelFamily.LINEAR_REGRESSION, 2, np.ones(2), 0.0, variance)


def matrix_form_draw(task, count, rng):
    """The draw through a Cholesky factor of the covariance matrix sigma_x^2 I."""
    factor = np.linalg.cholesky(task.feature_variance * np.eye(task.d_x))
    xs = rng.standard_normal((count, task.d_x)) @ factor.T
    margins = xs @ task.w_star
    if task.family is ModelFamily.LOGISTIC_REGRESSION:
        ys = (rng.random(count) < _sigmoid(margins)).astype(float)
    else:
        ys = margins + task.noise_std * rng.standard_normal(count)
    return xs, ys


@settings(max_examples=80)
@given(
    family=st.sampled_from(FAMILIES),
    d_x=st.integers(1, 64),
    variance=st.floats(1e-3, 10.0),
    count=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_scalar_variance_is_bit_equal_to_the_matrix_forms(family, d_x, variance, count, seed):
    rng = np.random.default_rng(seed)
    task = SyntheticTask(family, d_x, rng.standard_normal(d_x), 0.3, variance)
    xs, ys = draw(task, count, seed)
    ref_xs, ref_ys = matrix_form_draw(task, count, np.random.default_rng(seed))
    assert_same_bits(xs, ref_xs)
    assert_same_bits(ys, ref_ys)
    if family is ModelFamily.LINEAR_REGRESSION:
        W = task.w_star + rng.standard_normal((3, d_x))
        delta = W - task.w_star
        cov = variance * np.eye(d_x)
        reference = 0.5 * np.sum((delta @ cov) * delta, axis=-1) + 0.5 * task.noise_std**2
        assert_same_bits(population_risk(task, W), reference)
        assert_same_bits(np.atleast_1d(population_risk(task, W[0])), reference[:1])


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------


def test_linear_loss_perfect_fit_is_zero():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    row = one_row([1.0, -1.0], [2.0, -1.0], 3.0)  # x.w = 3 = y
    assert loss_values(model, *row)[0] == 0.0
    assert np.array_equal(loss_gradients(model, *row)[0], np.zeros(2))


def test_linear_loss_hand_value():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    row = one_row([2.0, 5.0], [1.0, 0.0], 0.0)
    assert loss_values(model, *row)[0] == pytest.approx(2.0)
    assert np.allclose(loss_gradients(model, *row)[0], [2.0, 0.0])


def test_logistic_loss_at_zero_margin():
    model = make_model(ModelFamily.LOGISTIC_REGRESSION)
    x = np.array([1.0, 2.0])
    row = one_row(np.zeros(2), x, 1.0)
    assert loss_values(model, *row)[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.allclose(loss_gradients(model, *row)[0], -x / 2)


@pytest.mark.parametrize("family", FAMILIES)
def test_losses_are_nonnegative(family):
    model = make_model(family)
    task = make_task(family)
    rng = np.random.default_rng(11)
    d = model.dim(task.d_x)
    for x, y in zip(*draw(task, 50, seed=5)):
        w = rng.standard_normal(d)
        assert loss_values(model, *one_row(w, x, y))[0] >= 0.0


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60)
@given(
    d_x=st.integers(1, 6),
    hidden_width=st.integers(1, 6),
    sharpness=st.sampled_from([0.5, 1.0, 2.0, 5.0, 20.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradients_match_central_differences(family, d_x, hidden_width, sharpness, seed):
    model = LossModel(family=family, hidden_width=hidden_width, softplus_sharpness=sharpness)
    task = make_task(family, d_x=d_x)
    rng = np.random.default_rng(seed)
    d = model.dim(d_x)
    step = 1e-6
    # Row i of the stack moves coordinate i by +step, row d + i by -step.
    shifts = np.concatenate([np.eye(d), -np.eye(d)]) * step
    for x, y in zip(*draw(task, 5, seed)):
        w = rng.standard_normal(d)
        grad = loss_gradients(model, *one_row(w, x, y))[0]
        X, Y = np.tile(x, (2 * d, 1)), np.full(2 * d, y)
        values = loss_values(model, w + shifts, X, Y)
        fd = (values[:d] - values[d:]) / (2 * step)
        # Differencing rounds off about eps * loss / step = 2e-10 * loss per
        # coordinate, so a tiny gradient (a saturated unit) gets an absolute floor.
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad) + 1e-7


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_losses_match_single_sample_calls(family):
    model = make_model(family)
    task = make_task(family)
    rng = np.random.default_rng(17)
    X, Y = draw(task, 10, seed=8)
    W = rng.standard_normal((10, model.dim(task.d_x)))
    values = loss_values(model, W, X, Y)
    grads = loss_gradients(model, W, X, Y)
    for k in range(10):
        row = one_row(W[k], X[k], Y[k])
        assert values[k] == pytest.approx(loss_values(model, *row)[0], abs=1e-14)
        assert np.allclose(grads[k], loss_gradients(model, *row)[0], atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60)
@given(
    arms=st.integers(1, 4),
    rows=st.integers(1, 12),
    d_x=st.integers(1, 6),
    hidden_width=st.integers(1, 4),
    scale=st.sampled_from([1e-3, 1.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_sample_gradients_equal_the_flat_call(
    family, arms, rows, d_x, hidden_width, scale, seed
):
    # A stack of arms reads one copy of a step's samples: W (A, N, d) against
    # X (N, d_x) and Y (N,) must give, bit for bit, the flat call on the
    # samples repeated once per arm, into a given buffer or a new array.
    model = LossModel(family=family, hidden_width=hidden_width)
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((arms, rows, model.dim(d_x))) * scale
    X, Y = draw(make_task(family, d_x=d_x), rows, seed)
    flat = loss_gradients(
        model, W.reshape(arms * rows, -1), np.tile(X, (arms, 1)), np.tile(Y, arms)
    )
    shared = loss_gradients(model, W, X, Y)
    assert shared.shape == W.shape
    assert np.array_equal(shared, flat.reshape(W.shape))
    buffer = np.full(W.shape, np.nan)
    assert loss_gradients(model, W, X, Y, out=buffer) is buffer
    assert np.array_equal(buffer, shared)


@pytest.mark.parametrize("family", FAMILIES)
def test_worker_risks_match_dataset_risk(family):
    model = make_model(family)
    task = make_task(family)
    xs, ys = draw(task, 12, seed=21)
    shards = Shards(xs=xs.reshape(3, 4, 3), ys=ys.reshape(3, 4))
    rng = np.random.default_rng(23)
    W = rng.standard_normal((3, model.dim(3)))
    risks = worker_risks(model, W, shards)
    for k in range(3):
        expected = dataset_risk(model, W[k : k + 1], shards.xs[k], shards.ys[k])
        assert risks[k] == pytest.approx(expected[0], abs=1e-14)


@settings(max_examples=60)
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


def six_pass_softplus(s):
    return np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0)


def allocating_dataset_risk(model, W, xs, ys, softplus=six_pass_softplus, limit=None):
    """dataset_risk as a loop that allocates each block's temporaries afresh.

    An MLP block's activations are log1p(exp(s)) when no s passes the limit,
    by default log(float max), else softplus(s); a NaN takes softplus too.
    """
    if limit is None:
        limit = np.log(np.finfo(float).max)
    rows = _risk_block_rows(model, W.shape[0])
    if model.family is ModelFamily.TWO_LAYER_MLP:
        h, d_x = model.hidden_width, xs.shape[1]
        V = model.softplus_sharpness * W[:, : h * d_x].reshape(-1, d_x)
        a = W[:, None, h * d_x :] / model.softplus_sharpness
    total = np.zeros(W.shape[0])
    for start in range(0, xs.shape[0], rows):
        X, Y = xs[start : start + rows], ys[start : start + rows]
        if model.family is ModelFamily.TWO_LAYER_MLP:
            pre = V @ X.T
            hidden = np.log1p(np.exp(pre)) if pre.max() <= limit else softplus(pre)
            out = np.matmul(a, hidden.reshape(W.shape[0], -1, X.shape[0]))[:, 0, :]
        else:
            out = W @ X.T
        if model.family is ModelFamily.LOGISTIC_REGRESSION:
            losses = six_pass_softplus(-((2.0 * Y - 1.0) * out))
        else:
            losses = 0.5 * np.square(out - Y)
        total += losses.sum(axis=1)
    return total / xs.shape[0]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("stack", [1, 7, 201])
@pytest.mark.parametrize("blocks", [0.5, 2.5])
def test_dataset_risk_is_bit_equal_to_allocating_blocks(family, stack, blocks):
    model = LossModel(family=family)
    # Half a block, or two full blocks and a ragged third.
    count = int(blocks * _risk_block_rows(model, stack)) + 1
    task = make_task(family, d_x=5)
    rng = np.random.default_rng(stack)
    xs, ys = draw_dataset_arrays(task, count, rng)
    W = 0.5 * rng.standard_normal((stack, model.dim(5)))
    assert_same_bits(dataset_risk(model, W, xs, ys), allocating_dataset_risk(model, W, xs, ys))


def mlp_risk_inputs(scale):
    """An MLP, 3 weight rows whose hidden weights are scaled by `scale`, and 300 samples."""
    model = LossModel(ModelFamily.TWO_LAYER_MLP, hidden_width=3, softplus_sharpness=5.0)
    task = make_task(ModelFamily.TWO_LAYER_MLP, d_x=4)
    rng = np.random.default_rng(31)
    xs, ys = draw_dataset_arrays(task, 300, rng)
    W = rng.standard_normal((3, model.dim(4)))
    W[:, : 3 * 4] *= scale
    return model, W, xs, ys


def test_overflowing_blocks_fall_back_to_the_six_pass_softplus():
    # Pre-activations past 710 would make exp overflow, which pytest's
    # warnings-as-errors turns into a failure; those blocks must take
    # _softplus and still give finite risks.
    model, W, xs, ys = mlp_risk_inputs(scale=100.0)
    V = model.softplus_sharpness * W[:, : 3 * 4].reshape(-1, 4)
    assert (V @ xs.T).max() > 710.0
    risks = dataset_risk(model, W, xs, ys)
    reference = [
        loss_values(model, np.broadcast_to(w, (len(xs), w.shape[0])), xs, ys).mean() for w in W
    ]
    assert np.all(np.isfinite(risks))
    assert np.allclose(risks, reference, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["hidden", "output"])
def test_non_finite_weights_give_the_six_pass_risks(bad, where):
    # A non-finite hidden weight puts a NaN or +inf among the block's
    # pre-activations, so the whole block takes _softplus; a non-finite
    # output weight leaves them finite and the two-pass form in use. Either
    # way the risks are the reference's bit for bit, the finite rows' too.
    model, W, xs, ys = mlp_risk_inputs(scale=1.0)
    finite = dataset_risk(model, W, xs, ys)
    W[1, 0 if where == "hidden" else -1] = bad
    two_pass = mock.patch.object(models, "_log1p_exp", wraps=models._log1p_exp)
    with np.errstate(invalid="ignore", over="ignore"), two_pass as calls:
        risks = dataset_risk(model, W, xs, ys)
        reference = allocating_dataset_risk(
            model, W, xs, ys, softplus=lambda s: _softplus(s.copy()),
            limit=-np.inf if where == "hidden" else None,
        )
    assert calls.call_count == (where == "output")
    assert_same_bits(risks, reference)
    assert not np.isfinite(risks[1])
    if where == "output":
        assert_same_bits(risks[[0, 2]], finite[[0, 2]])


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    count=st.one_of(
        st.sampled_from([1, HOLDOUT_CHUNK_ROWS - 1, HOLDOUT_CHUNK_ROWS, HOLDOUT_CHUNK_ROWS + 1]),
        st.integers(0, 3 * HOLDOUT_CHUNK_ROWS).map(lambda k: 2 * k + 1),
    ),
    d_x=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_holdout_chunks_join_to_one_draw(family, count, d_x, seed):
    # The streamed holdout is the gap's draw of `count` samples, bit for bit:
    # its chunks start on multiples of 8 rows, where the chunked label
    # products x.w* equal the whole draw's, and none but a one-sample
    # holdout's has one row (count = chunk + 1 checks that).
    task = make_task(family, d_x=d_x, noise_std=0.3)
    holdout = Holdout.locate(task, count, derive_seed(seed, "gengap-holdout"))
    chunks = list(holdout.chunks())
    xs, ys = draw_dataset_arrays(task, count, np.random.default_rng(derive_seed(seed, "gengap-holdout")))
    assert HOLDOUT_CHUNK_ROWS % 8 == 0
    assert [len(x) for x, _ in chunks[:-1]] == [HOLDOUT_CHUNK_ROWS] * (len(chunks) - 1)
    assert len(chunks[-1][0]) <= HOLDOUT_CHUNK_ROWS + 1
    assert_same_bits(np.concatenate([x for x, _ in chunks]), xs)
    assert_same_bits(np.concatenate([y for _, y in chunks]), ys)


def test_holdout_rejects_an_empty_draw():
    with pytest.raises(InputError, match="at least 1 sample"):
        Holdout.locate(make_task(ModelFamily.TWO_LAYER_MLP), 0, seed=1)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    stacks=st.integers(1, 4),
    size=st.sampled_from([1, 3, 40, 300]),
    count=st.integers(1, 2500),
    data=st.data(),
)
def test_streamed_dataset_risk_is_bit_equal_to_each_stack_in_memory(
    family, stacks, size, count, data
):
    # Each stack of W (G, S, d) is scored in blocks counted from the first
    # row, whatever the chunks; blocks of 1 to 21,845 rows here span zero to
    # many chunk boundaries, and the first "chunk" may be empty.
    model = LossModel(family=family, hidden_width=3)
    task = make_task(family, d_x=4)
    rng = np.random.default_rng(count)
    xs, ys = draw_dataset_arrays(task, count, rng)
    W = 0.5 * rng.standard_normal((stacks, size, model.dim(4)))
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=6)))
    bounds = [0, *cuts, count]
    chunks = iter([(xs[a:b].copy(), ys[a:b].copy()) for a, b in zip(bounds, bounds[1:])])
    streamed = dataset_risk(model, W, *next(chunks), chunks)
    assert streamed.shape == (stacks, size)
    for stack, risks in zip(W, streamed):
        assert_same_bits(risks, dataset_risk(model, stack, xs, ys))


def test_dataset_risk_rejects_an_empty_dataset():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    with pytest.raises(InputError, match="no samples"):
        dataset_risk(model, np.zeros((2, 3)), np.zeros((0, 3)), np.zeros(0), [])


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


@settings(max_examples=300)
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


@settings(max_examples=200)
@given(
    draws=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 5.0, 40.0, 700.0, SOFTPLUS_EXP_LIMIT]),
)
def test_two_pass_softplus_matches_the_six_pass_form(draws, scale):
    # Bit for bit where s <= 0, within the logaddexp tolerance up to the limit.
    s = np.array(draws + [0.0, -0.0, 1e-320, -1e-320, -800.0, -np.inf, SOFTPLUS_EXP_LIMIT])
    s[: len(draws)] *= scale
    value = _log1p_exp(s.copy())
    negative = s <= 0
    assert_same_bits(value[negative], _softplus(s[negative]))
    expected = np.logaddexp(0.0, s[~negative])
    assert np.allclose(value[~negative], expected, rtol=SOFTPLUS_RTOL, atol=0.0)


def test_two_pass_limit_is_the_largest_finite_exp():
    assert SOFTPLUS_EXP_LIMIT == np.log(np.finfo(float).max)
    assert np.isfinite(np.exp(SOFTPLUS_EXP_LIMIT))
    with np.errstate(over="ignore"):
        assert np.exp(np.nextafter(SOFTPLUS_EXP_LIMIT, np.inf)) == np.inf


def assert_same_bits(a, b):
    """Equal bit for bit, except that a NaN only has to meet a NaN: which of
    two NaNs an operation keeps, and so its sign, depends on operand order."""
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


@settings(max_examples=200)
@given(
    draws=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 5.0, 40.0, 700.0, 1e300]),
)
def test_fused_softplus_and_sigmoid_are_bit_equal_to_the_separate_forms(draws, scale):
    s = np.array(draws + SOFTPLUS_EXTREMES + [np.nan])
    s[: len(draws)] *= scale
    softplus, sigmoid = _softplus_and_sigmoid(s)
    assert_same_bits(softplus, _softplus(s))
    assert_same_bits(sigmoid, _sigmoid(s))


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
        xs, ys = draw(task, 20_000, seed=probe)
        estimate = dataset_risk(model, w[None, :], xs, ys)[0]
        losses = loss_values(model, np.broadcast_to(w, (20_000, 4)), xs, ys)
        stderr = losses.std(ddof=1) / math.sqrt(20_000)
        assert abs(estimate - exact) < 3 * stderr


def test_population_risk_of_a_stack_is_per_row():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=4, noise_std=0.3)
    W = task.w_star + np.random.default_rng(31).standard_normal((5, 4))
    assert np.allclose(population_risk(task, W), [population_risk(task, w) for w in W],
                       rtol=1e-15, atol=0.0)


def test_population_risk_has_no_closed_form_beyond_linear():
    task = make_task(ModelFamily.TWO_LAYER_MLP)
    with pytest.raises(InputError, match="draw_dataset_arrays holdout"):
        population_risk(task, np.zeros(4 * 3 + 4))


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
    X, Y = np.tile([1.0, 0.0], (2000, 1)), np.zeros(2000)
    # Probe j is the pair (w_a, w_b) = W[j], drawn in turn from one stream.
    W = np.random.default_rng(31).standard_normal((2000, 2, 2))
    gaps = loss_gradients(model, W[:, 0], X, Y) - loss_gradients(model, W[:, 1], X, Y)
    ratios = np.linalg.norm(gaps, axis=1) / np.linalg.norm(W[:, 0] - W[:, 1], axis=1)
    assert max(ratios) <= 1.0 + 1e-12
    assert max(ratios) > 0.999


def test_holder_estimate_scalar_linear_is_max_feature_square():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=1)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    estimate = estimate_holder_constant(model, task, 1.0, pairs=500, radius=5.0, seed=37)
    xs, _ = draw(task, 500, seed=37)
    assert estimate == pytest.approx(float(np.max(xs[:, 0] ** 2)), abs=1e-12)


def test_holder_estimate_logistic_bounded_by_curvature():
    task = make_task(ModelFamily.LOGISTIC_REGRESSION, d_x=3)
    model = make_model(ModelFamily.LOGISTIC_REGRESSION)
    estimate = estimate_holder_constant(model, task, 1.0, pairs=400, radius=5.0, seed=41)
    xs, _ = draw(task, 400, seed=41)
    assert estimate <= float(np.max(np.sum(xs**2, axis=1))) / 4 + 1e-9


def test_holder_estimate_rejects_bad_inputs():
    task = make_task(ModelFamily.LINEAR_REGRESSION)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    with pytest.raises(InputError):
        estimate_holder_constant(model, task, 1.0, pairs=0, radius=5.0, seed=0)
    with pytest.raises(InputError):
        estimate_holder_constant(model, task, 1.0, pairs=10, radius=-1.0, seed=0)


def test_self_bounding_zero_loss_has_zero_gradient():
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    row = one_row([1.0, 2.0], [1.0, 2.0], 5.0)  # x.w = 5 = y, loss exactly 0
    assert loss_values(model, *row)[0] == 0.0
    assert np.linalg.norm(loss_gradients(model, *row)[0]) == 0.0


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


def test_self_bounding_at_alpha_zero_adds_the_gradient_at_zero():
    # For linear regression grad f(w; z) - grad f(0; z) = (x.w) x, so
    # L = 2 radius max ||x||^2 over the probe samples bounds every gradient
    # difference on the ball. The alpha = 0 constant sup ||grad f(0; z)|| + L
    # must then hold on every probe; c = L alone fails on most of them.
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=3)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    trials, seed, radius = 400, 43, 0.05
    xs, _ = draw_dataset_arrays(task, trials, np.random.default_rng(seed))
    L = 2.0 * radius * float(np.max(np.sum(xs**2, axis=1)))
    report = self_bounding_check(model, task, 0.0, L, trials=trials, seed=seed, radius=radius)
    assert report.violations == 0
    assert report.max_ratio <= 1.0


def test_self_bounding_flags_an_understated_constant():
    task = make_task(ModelFamily.LINEAR_REGRESSION, d_x=2)
    model = make_model(ModelFamily.LINEAR_REGRESSION)
    report = self_bounding_check(model, task, 1.0, L=1e-4, trials=300, seed=47)
    assert report.violations > 0
    assert report.max_ratio > 1.0
