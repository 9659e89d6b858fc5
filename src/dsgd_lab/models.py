"""Loss families, synthetic tasks, and gradient-regularity constants.

Three loss families with exact analytic gradients:

  linear regression    f(w; x, y) = (x.w - y)^2 / 2
  logistic regression  f(w; x, y) = log(1 + exp(-(2y-1) x.w)),  y in {0, 1}
  two-layer MLP        f(w; x, y) = (a . softplus_b(V x) - y)^2 / 2

The MLP uses a softplus activation (sharpness 5) instead of ReLU so that the
gradient stays Hoelder continuous on bounded domains. Synthetic tasks draw
x ~ N(0, Sigma); regression labels are x.w* plus Gaussian noise, classification
labels are Bernoulli(sigmoid(x.w*)). Linear regression additionally has the
closed-form population risk (w - w*)' Sigma (w - w*) / 2 + noise_std^2 / 2.
"""

from __future__ import annotations

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
        feature_cov: symmetric PSD feature covariance Sigma.
        noise_std: label noise level for regression labels.
    """

    family: ModelFamily
    d_x: int
    w_star: np.ndarray
    feature_cov: np.ndarray
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.d_x < 1:
            raise InputError(f"feature dimension must be positive, got {self.d_x}")
        if self.w_star.shape != (self.d_x,):
            raise InputError(
                f"w_star must have shape ({self.d_x},), got {self.w_star.shape}"
            )
        if self.feature_cov.shape != (self.d_x, self.d_x):
            raise InputError("feature covariance shape does not match d_x")
        if np.max(np.abs(self.feature_cov - self.feature_cov.T)) > 1e-12:
            raise InputError("feature covariance must be symmetric")
        if self.noise_std < 0:
            raise InputError("noise_std must be nonnegative")

    @classmethod
    def isotropic(
        cls,
        family: ModelFamily,
        d_x: int,
        w_star: np.ndarray,
        noise_std: float = 0.0,
        feature_variance: float = 1.0,
    ) -> "SyntheticTask":
        return cls(
            family=family,
            d_x=d_x,
            w_star=np.asarray(w_star, dtype=float),
            feature_cov=np.eye(d_x) * feature_variance,
            noise_std=noise_std,
        )


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


# Size, in doubles, of the largest temporary of a dataset_risk block: the
# (S*h, rows) hidden activations of S stacked MLP models, or the (S, rows)
# outputs of the linear families. A block's few temporaries of 0.5 MB each
# stay in cache through the softplus passes: on a Xeon with 2 MB of L2 per
# core, 201 MLP models of width 8 ran about 1.8x faster in blocks of 32-64
# samples than in blocks of 96 or more.
RISK_BLOCK_ELEMENTS = 2**16


def _feature_factor(task: SyntheticTask) -> np.ndarray:
    """A matrix F with F F^T = Sigma, tolerating merely PSD covariances."""
    try:
        return np.linalg.cholesky(task.feature_cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(task.feature_cov)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # Stable on both tails.
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softplus(s: np.ndarray) -> np.ndarray:
    """log(1 + exp(s)) as max(s, 0) + log1p(exp(-|s|)).

    This is np.logaddexp(0, s)'s own formula, written with whole-array
    exp/log1p instead of logaddexp's scalar loop, which is several times
    slower. The two agree exactly at +-inf, NaN, 0 and +-800, and elsewhere
    to a few ulp. The sharpness-b activation of the MLP is _softplus(b t) / b.
    """
    out = np.abs(s)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(s, 0.0)
    return out


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
    task: SyntheticTask, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` i.i.d. samples from the task distribution as arrays.

    Features are drawn first as one (count, d_x) block, then labels, so that
    the first rows of a longer draw coincide with a shorter draw from the
    same generator state.
    """
    factor = _feature_factor(task)
    xs = rng.standard_normal((count, task.d_x)) @ factor.T
    margins = xs @ task.w_star
    if task.family is ModelFamily.LOGISTIC_REGRESSION:
        ys = (rng.random(count) < _sigmoid(margins)).astype(float)
    else:
        ys = margins + task.noise_std * rng.standard_normal(count)
    return xs, ys


def _unpack_mlp(model: LossModel, W: np.ndarray, d_x: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the hidden weights V (..., h, d_x) and output weights a (..., h) of W (..., d)."""
    h = model.hidden_width
    V = W[..., : h * d_x].reshape(*W.shape[:-1], h, d_x)
    a = W[..., h * d_x :]
    return V, a


def _losses(
    family: ModelFamily, out: np.ndarray, Y: np.ndarray, into: np.ndarray | None = None
) -> np.ndarray:
    """Losses from model outputs: x.w for the linear families, a.softplus(Vx) for the MLP.

    The squared losses are computed in into (which may be out) when given;
    the logistic loss always allocates.
    """
    if family is ModelFamily.LOGISTIC_REGRESSION:
        return _softplus(-((2.0 * Y - 1.0) * out))
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
    """Exact gradients matching loss_values, stacked as an (m, d) matrix.

    With out given (a C-contiguous array of W's shape), the gradients are
    written into it and it is returned; the values are those of the
    allocating call.
    """
    if out is not None and (out.shape != W.shape or not out.flags.c_contiguous):
        raise InputError(f"out must be a C-contiguous array of shape {W.shape}")
    if model.family is ModelFamily.LINEAR_REGRESSION:
        residual = np.einsum("kd,kd->k", X, W) - Y
        return np.multiply(residual[:, None], X, out=out)
    if model.family is ModelFamily.LOGISTIC_REGRESSION:
        sign = 2.0 * Y - 1.0
        margin = sign * np.einsum("kd,kd->k", X, W)
        return np.multiply((-sign * _sigmoid(-margin))[:, None], X, out=out)
    beta = model.softplus_sharpness
    V, a = _unpack_mlp(model, W, X.shape[1])
    pre = beta * np.einsum("khd,kd->kh", V, X)
    softplus, sigmoid = _softplus_and_sigmoid(pre)
    hidden = softplus / beta
    residual = np.einsum("kh,kh->k", a, hidden) - Y
    if out is None:
        out = np.empty(W.shape)
    # Views of out's V and a blocks: the writes below fill out.
    grad_V, grad_a = _unpack_mlp(model, out, X.shape[1])
    np.multiply((residual[:, None] * a * sigmoid)[:, :, None], X[:, None, :], out=grad_V)
    np.multiply(residual[:, None], hidden, out=grad_a)
    return out


def dataset_risk(model: LossModel, W: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mean loss over a dataset (xs: (N, d_x)) of each row of a weight stack W (S, d).

    Samples are taken _risk_block_rows(model, S) at a time, and each block is
    one matrix product against the whole stack: W X_block^T for the linear
    families, and for the MLP the (S*h, d_x) stack of hidden weights,
    pre-scaled by the sharpness b, times X_block^T; the 1/b of the activation
    goes into a.
    """
    if W.ndim != 2:
        raise InputError(f"weights must be a stack of shape (S, d), got {W.shape}")
    count = xs.shape[0]
    rows = _risk_block_rows(model, W.shape[0])
    if model.family is ModelFamily.TWO_LAYER_MLP:
        beta = model.softplus_sharpness
        V, a = _unpack_mlp(model, W, xs.shape[1])
        V = beta * V.reshape(-1, xs.shape[1])
        a = a[:, None, :] / beta
    total = np.zeros(W.shape[0])
    for start in range(0, count, rows):
        X = xs[start : start + rows]
        if model.family is ModelFamily.TWO_LAYER_MLP:
            hidden = _softplus(V @ X.T).reshape(W.shape[0], -1, X.shape[0])
            out = np.matmul(a, hidden)[:, 0, :]
        else:
            out = W @ X.T
        total += _losses(model.family, out, ys[start : start + rows]).sum(axis=1)
    return total / count


def _risk_block_rows(model: LossModel, stack: int) -> int:
    """Samples per dataset_risk block for a stack of `stack` models."""
    per_sample = stack * (model.hidden_width if model.family is ModelFamily.TWO_LAYER_MLP else 1)
    return max(1, RISK_BLOCK_ELEMENTS // per_sample)


def worker_risks(
    model: LossModel,
    W: np.ndarray,
    shards: Shards,
    scratch: np.ndarray | None = None,
    replaced: tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-worker empirical risks: the mean loss of each worker's model over its own shard.

    W (..., m, d) holds stacks of m worker models, all scored on the same
    shards; the risks have shape W.shape[:-1]. With scratch given (a
    C-contiguous (..., m, n) array), the per-sample outputs and squared
    losses are computed in it rather than in new arrays. replaced =
    (where, xs, ys) scores models on other samples: where indexes the
    (..., m, n) per-sample losses, and the model at where[:-1] takes the loss
    at sample (xs[p], ys[p]) in place of its shard's sample where[-1][p]. The
    risks are the same either way, and the same as on shards with those
    samples written in.
    """
    losses = _sample_losses(model, W, shards.xs, shards.ys, scratch)
    if replaced is not None:
        where, xs, ys = replaced
        losses[where] = _sample_losses(model, W[where[:-1]], xs[:, None], ys[:, None])[:, 0]
    return losses.mean(axis=-1)


def _sample_losses(
    model: LossModel, W: np.ndarray, xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Loss of each model of W (..., m, d) at each sample of its worker's shard
    (xs (m, n, d_x), ys (m, n)), as a (..., m, n) array computed in out when given."""
    if model.family is not ModelFamily.TWO_LAYER_MLP:
        outputs = np.einsum("wnd,...wd->...wn", xs, W, out=out)
    else:
        beta = model.softplus_sharpness
        V, a = _unpack_mlp(model, W, xs.shape[-1])
        hidden = _softplus(beta * np.einsum("...whd,wnd->...wnh", V, xs)) / beta
        outputs = np.einsum("...wnh,...wh->...wn", hidden, a, out=out)
    return _losses(model.family, outputs, ys, into=out)


def population_risk(task: SyntheticTask, W: np.ndarray) -> float | np.ndarray:
    """Closed-form linear-regression risk of w (d,), or of each row of W (S, d).

    F(w) = (w - w*)' Sigma (w - w*) / 2 + noise_std^2 / 2. Other families have
    no closed form; estimate theirs with dataset_risk on a holdout drawn by
    draw_dataset_arrays.
    """
    if task.family is not ModelFamily.LINEAR_REGRESSION:
        raise InputError(
            f"closed-form population risk exists only for linear regression, not "
            f"{task.family.value}; use dataset_risk on a draw_dataset_arrays holdout"
        )
    delta = W - task.w_star
    return 0.5 * np.sum((delta @ task.feature_cov) * delta, axis=-1) + 0.5 * task.noise_std**2


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
