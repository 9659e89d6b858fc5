"""Loss families, synthetic tasks, and gradient-regularity constants.

Three loss families with exact analytic gradients:

  linear regression    f(w; x, y) = (x.w - y)^2 / 2
  logistic regression  f(w; x, y) = log(1 + exp(-(2y-1) x.w)),  y in {0, 1}
  two-layer MLP        f(w; x, y) = (a . softplus_b(V x) - y)^2 / 2

The MLP uses a softplus activation (sharpness 5) instead of ReLU so that the
gradient stays Hoelder continuous on bounded domains. Synthetic tasks draw
isotropic features x ~ N(0, sigma_x^2 I); regression labels are x.w* plus
Gaussian noise, classification labels are Bernoulli(sigmoid(x.w*)). Linear
regression additionally has the closed-form population risk
sigma_x^2 ||w - w*||^2 / 2 + noise_std^2 / 2.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError

__all__ = [
    "ModelFamily",
    "SyntheticTask",
    "LossModel",
    "Shards",
    "SelfBoundingReport",
    "HOLDOUT_CHUNK_ROWS",
    "Holdout",
    "draw_dataset_arrays",
    "loss_values",
    "loss_gradients",
    "dataset_risk",
    "worker_risks",
    "population_risk",
    "c_alpha_constant",
    "estimate_holder_constant",
    "self_bounding_check",
]


class ModelFamily(str, Enum):
    LINEAR_REGRESSION = "linear_regression"
    LOGISTIC_REGRESSION = "logistic_regression"
    TWO_LAYER_MLP = "two_layer_mlp"


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """A data distribution with a generator and, when available, closed-form risk.

    Attributes:
        family: loss family the task is meant to be trained with.
        d_x: feature dimension.
        w_star: ground-truth weights used by the label mechanism.
        noise_std: label noise level for regression labels.
        feature_variance: variance sigma_x^2 of each feature; features are
            i.i.d. N(0, sigma_x^2).
    """

    family: ModelFamily
    d_x: int
    w_star: np.ndarray
    noise_std: float = 0.0
    feature_variance: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_star", np.asarray(self.w_star, dtype=float))
        if self.d_x < 1:
            raise InputError(f"feature dimension must be positive, got {self.d_x}")
        if self.w_star.shape != (self.d_x,):
            raise InputError(
                f"w_star must have shape ({self.d_x},), got {self.w_star.shape}"
            )
        if not 0.0 < self.feature_variance < math.inf:
            raise InputError(f"feature_variance must lie in (0, inf), got {self.feature_variance}")
        if self.noise_std < 0:
            raise InputError("noise_std must be nonnegative")


@dataclass(frozen=True)
class LossModel:
    """A loss family with its MLP shape: hidden width and softplus sharpness."""

    family: ModelFamily
    # Every run starts from all-zero weights, where every hidden unit gets the
    # same gradient, so the h units of an MLP stay identical for the whole
    # run: the trained network is one unit repeated h times. Breaking the
    # symmetry with a random start would change every MLP result.
    hidden_width: int = 8
    softplus_sharpness: float = 5.0

    def dim(self, d_x: int) -> int:
        """Model dimension d for feature dimension d_x."""
        if self.family is ModelFamily.TWO_LAYER_MLP:
            return self.hidden_width * d_x + self.hidden_width
        return d_x


@dataclass(frozen=True, eq=False)
class Shards:
    """Per-worker training data: m shards of n samples each, stacked densely.

    xs has shape (m, n, d_x) and ys has shape (m, n); shard k of the total
    N = n*m samples is (xs[k], ys[k]).
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        if self.xs.ndim != 3 or self.ys.shape != self.xs.shape[:2]:
            raise InputError("shard arrays must have shapes (m, n, d_x) and (m, n)")
        if 0 in self.xs.shape[:2]:
            raise InputError(f"shards need m >= 1 workers of n >= 1 samples, got {self.ys.shape}")

    @property
    def m(self) -> int:
        return self.xs.shape[0]

    @property
    def n(self) -> int:
        return self.xs.shape[1]

    @property
    def d_x(self) -> int:
        return self.xs.shape[2]

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """All N samples as (N, d_x) features and (N,) labels."""
        return self.xs.reshape(-1, self.d_x), self.ys.reshape(-1)


# Size, in doubles, of a dataset_risk block buffer: the (S*h, rows) MLP
# pre-activations, which the activations overwrite, or the (S, rows) outputs
# of the linear families. Scoring 201 MLP models of width 8 on a streamed
# 100k-sample holdout, 10 interleaved rounds per size (2-core Xeon, one BLAS
# thread), took a median 1.12 s at 2^15, 0.91 s at 2^16, 0.88 s at 2^17 and
# 0.99 s at 2^18, with quartile spreads of 0.06-0.12 s; the gengap-mlp CLI
# run, 8 rounds, 2.32, 2.06, 2.08 and 2.01 s, spreads 0.08-0.36 s. No size
# beat 2^16 by more than the spread, and another size moves the per-block
# sums in the last bits.
RISK_BLOCK_ELEMENTS = 2**16


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # Stable on both tails.
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softplus(
    s: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """log(1 + exp(s)) as max(s, 0) + log1p(exp(-|s|)).

    This is np.logaddexp(0, s)'s own formula, written with whole-array
    exp/log1p instead of logaddexp's scalar loop, which is several times
    slower. The two agree exactly at +-inf, NaN, 0 and +-800, and elsewhere
    to a few ulp. The sharpness-b activation of the MLP is _softplus(b t) / b.
    With out and scratch given (arrays of s's shape; scratch may be s itself),
    the result goes into out and max(s, 0) into scratch, and nothing is
    allocated; the values are those of the allocating call.

    Training (loss_gradients, through _softplus_and_sigmoid), loss_values,
    worker_risks and the logistic loss use this form. dataset_risk's MLP
    blocks use _log1p_exp, and this form only for a block where that one
    could overflow or meets a NaN.
    """
    out = np.abs(s, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(s, 0.0, out=scratch)
    return out


# Largest s whose exp(s) is finite in float64: _log1p_exp's domain.
SOFTPLUS_EXP_LIMIT = math.log(np.finfo(float).max)


def _log1p_exp(s: np.ndarray) -> np.ndarray:
    """log(1 + exp(s)) in place in s, in two ufunc passes where _softplus makes six.

    Only for s <= SOFTPLUS_EXP_LIMIT. For s <= 0 the two forms apply the same
    operations to the same values and agree bit for bit; for s > 0 they differ
    in the last bits (at most 2 ulp over 14 million draws at scales 1e-8 to 700).
    """
    np.exp(s, out=s)
    return np.log1p(s, out=s)


def _softplus_and_sigmoid(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_softplus(s) and _sigmoid(s), bit for bit, from one exp(-|s|).

    With e = exp(-|s|), the sigmoid is 1/(1 + e) where s >= 0 and e/(1 + e)
    elsewhere: the same operations _sigmoid applies to the same exp, without
    its masked reads and writes.
    """
    e = np.exp(-np.abs(s))
    softplus = np.log1p(e)
    softplus += np.maximum(s, 0.0)
    sigmoid = np.where(s >= 0, 1.0, e)
    sigmoid /= 1.0 + e
    return softplus, sigmoid


def draw_dataset_arrays(
    task: SyntheticTask,
    count: int,
    rng: np.random.Generator,
    label_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` i.i.d. samples from the task distribution as arrays.

    Features are drawn first as one (count, d_x) block of standard normals,
    scaled in place by sigma_x, then labels, so that the first rows of a
    longer draw coincide with a shorter draw from the same generator state.
    The labels come from label_rng when it is given: a Holdout draws its
    chunks this way, the same rows without holding them all.
    """
    xs = rng.standard_normal((count, task.d_x))
    xs *= math.sqrt(task.feature_variance)
    rng = rng if label_rng is None else label_rng
    margins = xs @ task.w_star
    if task.family is ModelFamily.LOGISTIC_REGRESSION:
        ys = (rng.random(count) < _sigmoid(margins)).astype(float)
    else:
        # A noise_std near the float range overflows to inf labels here, which
        # the trace recorder then reports as a numerical failure.
        with np.errstate(over="ignore"):
            ys = margins + task.noise_std * rng.standard_normal(count)
    return xs, ys


# Rows of a Holdout chunk; a module constant, and a multiple of 8. The label
# products xs @ w* of chunks that start on multiples of 4 rows equal those of
# one whole draw bit for bit, while chunks of 1, 2, 3, 5, 7 or 41 rows
# differed in the last bits (up to 1.3e-15 on standard-normal rows; 2-core
# Xeon, OpenBLAS 0.3.31, numpy 2.4.6). A chunk of d_x = 20 features takes
# 0.66 MB; halving it lowered the gengap benchmark's peak RSS by 0.4 MB.
HOLDOUT_CHUNK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class Holdout:
    """draw_dataset_arrays(task, count, default_rng(seed)), drawn one chunk at a time.

    A picklable handle of a few hundred bytes in place of the (count, d_x)
    arrays: chunks() draws the features HOLDOUT_CHUNK_ROWS rows at a time
    from a generator seeded with `seed`, and their labels from a second
    generator set to `label_state`, the state the first reaches after all
    count x d_x features. Build it with Holdout.locate.
    """

    task: SyntheticTask
    count: int
    seed: int
    label_state: dict

    @classmethod
    def locate(cls, task: SyntheticTask, count: int, seed: int) -> Holdout:
        """The holdout of `count` samples from seed; finds the label state by skipping the features."""
        if count < 1:
            raise InputError(f"a holdout needs at least 1 sample, got {count}")
        rng = np.random.default_rng(seed)
        skipped = np.empty((min(count, HOLDOUT_CHUNK_ROWS), task.d_x))
        for start in range(0, count, HOLDOUT_CHUNK_ROWS):
            rng.standard_normal(out=skipped[: count - start])
        return cls(task, count, seed, rng.bit_generator.state)

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The samples as consecutive (xs, ys) chunks of HOLDOUT_CHUNK_ROWS rows.

        The last chunk holds the rest, from 2 to HOLDOUT_CHUNK_ROWS + 1 rows
        (or the one row of a one-sample holdout): numpy computes the label
        product of a one-row chunk as a dot product, which rounds unlike the
        whole draw's matrix-vector product.
        """
        features = np.random.default_rng(self.seed)
        labels = np.random.default_rng(self.seed)
        labels.bit_generator.state = self.label_state
        start = 0
        for stop in [*range(HOLDOUT_CHUNK_ROWS, self.count - 1, HOLDOUT_CHUNK_ROWS), self.count]:
            yield draw_dataset_arrays(self.task, stop - start, features, labels)
            start = stop


def _unpack_mlp(model: LossModel, W: np.ndarray, d_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the hidden weights V (..., h, d_x) and output weights a (..., h) of W (..., d)."""
    h = model.hidden_width
    V = W[..., : h * d_x].reshape(*W.shape[:-1], h, d_x)
    a = W[..., h * d_x :]
    return V, a


def _losses(
    family: ModelFamily, out: np.ndarray, Y: np.ndarray,
    into: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Losses from model outputs: x.w for the linear families, a.softplus(Vx) for the MLP.

    The squared losses are computed in into (which may be out) when given.
    The logistic loss uses into for its negated margins and scratch (an array
    of out's shape) for the losses, allocating whichever is not given.
    """
    if family is ModelFamily.LOGISTIC_REGRESSION:
        margin = np.multiply(2.0 * Y - 1.0, out, out=into)
        np.negative(margin, out=margin)
        return _softplus(margin, out=scratch, scratch=margin)
    residual = np.subtract(out, Y, out=into)
    np.square(residual, out=residual)
    residual *= 0.5
    return residual


def loss_values(model: LossModel, W: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Losses of per-worker weights W (m, d) at per-worker samples (X, Y)."""
    if model.family is not ModelFamily.TWO_LAYER_MLP:
        return _losses(model.family, np.einsum("kd,kd->k", X, W), Y)
    beta = model.softplus_sharpness
    V, a = _unpack_mlp(model, W, X.shape[1])
    hidden = _softplus(beta * np.einsum("khd,kd->kh", V, X)) / beta
    return _losses(model.family, np.einsum("kh,kh->k", a, hidden), Y)


def loss_gradients(
    model: LossModel,
    W: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact gradients matching loss_values: row k of W (..., N, d) at sample (X[k], Y[k]).

    X (N, d_x) and Y (N,) are shared by every leading index of W, so a stack
    of arms reads one copy of a step's samples; each (N, d) slice of the
    result equals the flat call on that slice, bit for bit. With out given
    (a C-contiguous array of W's shape), the gradients are written into it
    and it is returned; the values are those of the allocating call.
    """
    if out is not None and (out.shape != W.shape or not out.flags.c_contiguous):
        raise InputError(f"out must be a C-contiguous array of shape {W.shape}")
    if model.family is ModelFamily.LINEAR_REGRESSION:
        residual = np.einsum("kd,...kd->...k", X, W) - Y
        return np.einsum("...k,kd->...kd", residual, X, out=out)
    if model.family is ModelFamily.LOGISTIC_REGRESSION:
        sign = 2.0 * Y - 1.0
        margin = sign * np.einsum("kd,...kd->...k", X, W)
        return np.einsum("...k,kd->...kd", -sign * _sigmoid(-margin), X, out=out)
    beta = model.softplus_sharpness
    V, a = _unpack_mlp(model, W, X.shape[1])
    pre = beta * np.einsum("...khd,kd->...kh", V, X)
    softplus, sigmoid = _softplus_and_sigmoid(pre)
    hidden = softplus / beta
    residual = np.einsum("...kh,...kh->...k", a, hidden) - Y
    if out is None:
        out = np.empty(W.shape)
    # Views of out's V and a blocks: the writes below fill out.
    grad_V, grad_a = _unpack_mlp(model, out, X.shape[1])
    np.multiply((residual[..., None] * a * sigmoid)[..., None], X[:, None, :], out=grad_V)
    np.multiply(residual[..., None], hidden, out=grad_a)
    return out


def dataset_risk(
    model: LossModel,
    W: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    more: Iterable[tuple[np.ndarray, np.ndarray]] = (),
) -> np.ndarray:
    """Mean loss over a dataset of each model of the stacks W (..., S, d), of shape W.shape[:-1].

    The dataset is the rows of xs (N, d_x) and ys (N,), then those of each
    (xs, ys) chunk that `more` yields; N may be 0. The chunks are read once,
    in order, and each is released before the next is drawn, so a Holdout's
    chunks are scored in one pass that holds one chunk of them at any size
    (its time still grows linearly with the size).

    The samples go _risk_block_rows(model, S) at a time, in blocks counted
    from the dataset's first row; a block that spans chunks is joined from
    them, so the risks do not depend on the chunking, and each (S, d) stack
    of W gets those of the call on that stack alone, bit for bit. Each block
    is one matrix product against each stack: W X_block^T for the linear
    families, and for the MLP the (S*h, d_x) stack of hidden weights,
    pre-scaled by the sharpness b, times X_block^T; the 1/b of the activation
    goes into a. Every block is computed in the same buffers, sized once for
    a whole block; a shorter block uses their leading elements.

    Raises:
        InputError: weights that are not stacks (..., S, d), or no samples.
    """
    if W.ndim < 2:
        raise InputError(f"weights must be stacks of shape (..., S, d), got {W.shape}")
    sums = _BlockSums(model, W, xs.shape[1])
    rows, count = sums.rows, 0
    # The rows after the last whole block, fewer than a block, copied out of their chunks.
    pending = xs[:0], ys[:0]
    for chunk in itertools.chain([(xs, ys)], more):
        count += len(chunk[0])
        head = min(-len(pending[0]) % rows, len(chunk[0]))  # rows that go to the pending block
        if head:
            pending = tuple(np.concatenate([old, new[:head]]) for old, new in zip(pending, chunk))
        if len(pending[0]) in (0, rows):  # no pending rows, or a whole block of them
            if head:
                sums.add(*pending)
            whole = head + (len(chunk[0]) - head) // rows * rows
            for start in range(head, whole, rows):
                sums.add(*(part[start : start + rows] for part in chunk))
            pending = tuple(part[whole:].copy() for part in chunk)
        del chunk  # before `more` draws the next one
    if count == 0:
        raise InputError("the dataset holds no samples")
    if len(pending[0]):
        sums.add(*pending)
    return sums.total / count


class _BlockSums:
    """dataset_risk's loss sums of each stack of W (..., S, d), one block of samples at a time."""

    def __init__(self, model: LossModel, W: np.ndarray, d_x: int):
        self.family = model.family
        S = W.shape[-2]
        self.rows = _risk_block_rows(model, S)
        self.total = np.zeros(W.shape[:-1])
        # The matrix each block's features multiply: a stack of W, or the MLP's
        # (S*h, d_x) hidden weights pre-scaled by b, with a / b applied after the activation.
        weights, a = W, None
        if self.family is ModelFamily.TWO_LAYER_MLP:
            beta = model.softplus_sharpness
            V, a = _unpack_mlp(model, W, d_x)
            weights = (beta * V).reshape(*W.shape[:-2], -1, d_x)
            a = a[..., None, :] / beta
        self.stacks = [
            (weights[i], None if a is None else a[i], self.total[i])
            for i in np.ndindex(W.shape[:-2])
        ]
        # A whole block's (S, rows) outputs, and its (S*h, rows) MLP
        # pre-activations and activations, or the logistic losses' scratch.
        self.S, self.width = S, weights.shape[-2]
        self.outputs = np.empty(S * self.rows)
        self.pre = np.empty(self.width * self.rows)
        self.act = np.empty(self.width * self.rows)

    def add(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Add the losses of block (X, Y) to each stack's sums."""
        S, r, width = self.S, X.shape[0], self.width
        out = self.outputs[: S * r].reshape(S, r)
        pre = self.pre[: width * r].reshape(width, r)
        act = self.act[: width * r].reshape(width, r)
        for weights, a, total in self.stacks:
            if a is not None:
                np.matmul(weights, X.T, out=pre)
                if pre.max() <= SOFTPLUS_EXP_LIMIT:
                    hidden = _log1p_exp(pre)
                else:
                    # Some exp(pre) would overflow, or pre holds a NaN.
                    hidden = _softplus(pre, out=act, scratch=pre)
                np.matmul(a, hidden.reshape(S, -1, r), out=out.reshape(S, 1, r))
                losses = _losses(self.family, out, Y, into=out)
            else:
                np.matmul(weights, X.T, out=out)
                losses = _losses(self.family, out, Y, into=out, scratch=act)
            total += losses.sum(axis=1)


def _risk_block_rows(model: LossModel, stack: int) -> int:
    """Samples per dataset_risk block for a stack of `stack` models."""
    per_sample = stack * (model.hidden_width if model.family is ModelFamily.TWO_LAYER_MLP else 1)
    return max(1, RISK_BLOCK_ELEMENTS // per_sample)


def worker_risks(
    model: LossModel, W: np.ndarray, shards: Shards, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Per-worker empirical risks: the mean loss of each worker's model over its own shard.

    W (..., m, d) holds stacks of m worker models, all scored on the same
    shards; the risks have shape W.shape[:-1]. With scratch given (a
    C-contiguous (..., m, n) array), the per-sample outputs and losses are
    computed in it rather than in new arrays; the risks are the same either way.
    """
    xs = shards.xs
    if model.family is not ModelFamily.TWO_LAYER_MLP:
        outputs = np.einsum("wnd,...wd->...wn", xs, W, out=scratch)
    else:
        beta = model.softplus_sharpness
        V, a = _unpack_mlp(model, W, xs.shape[-1])
        hidden = _softplus(beta * np.einsum("...whd,wnd->...wnh", V, xs)) / beta
        outputs = np.einsum("...wnh,...wh->...wn", hidden, a, out=scratch)
    return _losses(model.family, outputs, shards.ys, into=scratch).mean(axis=-1)


def population_risk(task: SyntheticTask, W: np.ndarray) -> float | np.ndarray:
    """Closed-form linear-regression risk of w (d,), or of each model of W (..., d).

    F(w) = sigma_x^2 ||w - w*||^2 / 2 + noise_std^2 / 2 for features
    x ~ N(0, sigma_x^2 I). Other families have no closed form; estimate
    theirs with dataset_risk on a holdout drawn by draw_dataset_arrays.
    """
    if task.family is not ModelFamily.LINEAR_REGRESSION:
        raise InputError(
            f"closed-form population risk exists only for linear regression, not "
            f"{task.family.value}; use dataset_risk on a draw_dataset_arrays holdout"
        )
    delta = W - task.w_star
    return 0.5 * np.sum((delta * task.feature_variance) * delta, axis=-1) + 0.5 * task.noise_std**2


def c_alpha_constant(alpha: float, L: float, grad_at_zero_sup: float | None = None) -> float:
    """Self-bounding constant relating gradient norms to loss values.

    For a nonnegative loss with (alpha, L)-Hoelder gradient,
    ||grad f(w; z)|| <= c * f(w; z)^(alpha/(1+alpha)) with
    c = (1 + 1/alpha)^(alpha/(1+alpha)) * L^(1/(1+alpha)) for alpha > 0 and
    c = sup_z ||grad f(0; z)|| + L for alpha = 0.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")
    if L <= 0:
        raise InputError(f"Hoelder constant L must be positive, got {L}")
    if alpha == 0.0:
        if grad_at_zero_sup is None or grad_at_zero_sup < 0:
            raise InputError("alpha = 0 requires a nonnegative grad_at_zero_sup")
        return grad_at_zero_sup + L
    return (1.0 + 1.0 / alpha) ** (alpha / (1.0 + alpha)) * L ** (1.0 / (1.0 + alpha))


def _ball_points(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """Uniform draws from the Euclidean ball of the given radius."""
    directions = rng.standard_normal((count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / dim)
    return directions * radii[:, None]


def estimate_holder_constant(
    model: LossModel,
    task: SyntheticTask,
    alpha: float,
    pairs: int,
    radius: float,
    seed: int,
) -> float:
    """Empirical Hoelder constant of the gradient on a ball, via random probes.

    Probes are `pairs` triples (w, w', z) with ||w||, ||w'|| <= radius; the
    estimate is the max of ||grad f(w;z) - grad f(w';z)|| / ||w - w'||^alpha.
    This is a lower bound on the true restricted constant. The probe samples
    are the rows of draw_dataset_arrays(task, pairs, default_rng(seed)); weight
    pairs are drawn afterwards from the same stream.
    """
    if pairs < 1:
        raise InputError(f"pairs must be >= 1, got {pairs}")
    if radius <= 0:
        raise InputError(f"radius must be positive, got {radius}")
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must lie in [0, 1], got {alpha}")
    rng = np.random.default_rng(seed)
    xs, ys = draw_dataset_arrays(task, pairs, rng)
    d = model.dim(task.d_x)
    w_a = _ball_points(rng, pairs, d, radius)
    w_b = _ball_points(rng, pairs, d, radius)
    grad_a = loss_gradients(model, w_a, xs, ys)
    grad_b = loss_gradients(model, w_b, xs, ys)
    gaps = np.linalg.norm(grad_a - grad_b, axis=1)
    dists = np.linalg.norm(w_a - w_b, axis=1)
    keep = dists > 1e-12
    if not np.any(keep):
        return 0.0
    return float(np.max(gaps[keep] / dists[keep] ** alpha))


@dataclass(frozen=True)
class SelfBoundingReport:
    """Outcome of a randomized self-bounding audit."""

    trials: int
    violations: int
    max_ratio: float


def self_bounding_check(
    model: LossModel,
    task: SyntheticTask,
    alpha: float,
    L: float,
    trials: int,
    seed: int,
    radius: float = 5.0,
) -> SelfBoundingReport:
    """Audit ||grad f|| <= c_alpha * f^(alpha/(1+alpha)) on random (w, z) probes.

    Probe samples are the rows of draw_dataset_arrays(task, trials,
    default_rng(seed)) and weights are drawn uniformly from the radius ball,
    mirroring estimate_holder_constant so the two share probe pools when
    called with equal counts and seeds. At alpha = 0 the constant's
    sup ||grad f(0; z)|| is taken over the probe samples. A probe
    violates if the left side exceeds the right by more than 1e-9; max_ratio
    is the largest lhs/rhs over probes with rhs > 0.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    xs, ys = draw_dataset_arrays(task, trials, rng)
    ws = _ball_points(rng, trials, model.dim(task.d_x), radius)
    grad_at_zero_sup = None
    if alpha == 0.0:
        at_zero = loss_gradients(model, np.zeros_like(ws), xs, ys)
        grad_at_zero_sup = float(np.max(np.linalg.norm(at_zero, axis=1)))
    c = c_alpha_constant(alpha, L, grad_at_zero_sup)
    grads = np.linalg.norm(loss_gradients(model, ws, xs, ys), axis=1)
    losses = loss_values(model, ws, xs, ys)
    rhs = c * losses ** (alpha / (1.0 + alpha))
    violations = int(np.sum(grads > rhs + 1e-9))
    positive = rhs > 0
    if np.any(positive):
        max_ratio = float(np.max(grads[positive] / rhs[positive]))
    else:
        max_ratio = 0.0 if np.all(grads <= 1e-12) else float("inf")
    return SelfBoundingReport(trials=trials, violations=violations, max_ratio=max_ratio)
