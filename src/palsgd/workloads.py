"""Stochastic objectives with per-worker IID shards.

Three families:

* ``QuadraticWorkload`` -- f(x, xi) = 0.5 (x - x* - xi)' A (x - x* - xi) with
  diagonal A, so mu = min(A), L = max(A), and the optimum are known exactly.
  Noise enters through a shifted optimum, keeping every f(., xi) strongly
  convex and smooth, and its covariance is scaled so that the expected
  squared gradient norm at x* equals noise_sigma^2 exactly.
* ``LogisticWorkload`` -- binary L2-regularized logistic regression on an
  in-memory dataset (mu >= l2_reg when l2_reg > 0).
* ``MlpWorkload`` -- small dense network with manual backprop (relu/tanh
  hidden units, softmax cross-entropy output), gradient-checkable.

``stochastic_gradient(x, samples)`` returns the gradient rows at the n
parameter rows x (n, d), one sample per row, in one stacked numpy pass with no
loop over rows; each row rounds exactly as the 1-row call on it alone. The
objectives (``full_objective``, ``batch_objective``, ``evaluate``) run the
forward pass only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import check_fields, option
from .vecmath import (PURPOSE_DATAGEN, PURPOSE_SHUFFLE, DimensionMismatchError,
                      ParamVector, RngStream, _check_dims)

ACTIVATIONS = ("relu", "tanh")
DTYPES = ("float64", "float32")


@dataclass
class Dataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,) integer class ids
    n_classes: int

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class Shard:
    """A worker's slice of the dataset plus its epoch_shuffle cursor."""
    indices: np.ndarray
    stream: RngStream | None = None  # epoch_shuffle's permutations
    _order: np.ndarray | None = None
    _pos: int = 0

    def next_batch(self, batch_size: int) -> np.ndarray:
        """The next batch_size indices of the shard's epoch order; each epoch
        is a fresh permutation, the n-th one drawn at counter n of `stream`."""
        out = np.empty(batch_size, dtype=np.int64)
        filled = 0
        while filled < batch_size:
            if self._order is None or self._pos >= len(self.indices):
                self._order = self.indices[self.stream.permutation(len(self.indices))]
                self._pos = 0
            take = min(batch_size - filled, len(self.indices) - self._pos)
            out[filled:filled + take] = self._order[self._pos:self._pos + take]
            self._pos += take
            filled += take
        return out


@dataclass
class Shards:
    """The K workers' shards, drawn from together: row k of a draw is worker k's.

    with_replacement makes one (K, batch) integer draw per call, row k
    uniform over shard k, and keeps the requested rows. epoch_shuffle
    advances only the requested shards, each through its own permutations,
    and leaves the caller's stream untouched.
    """
    parts: list[Shard]
    draw_policy: str = option(str, "with_replacement", choices=("with_replacement", "epoch_shuffle"))

    def __post_init__(self):
        check_fields(self)
        sizes = [len(s.indices) for s in self.parts]
        self._sizes = np.array(sizes)[:, None]
        self._starts = np.cumsum([0] + sizes[:-1])[:, None]
        self._flat = np.concatenate([s.indices for s in self.parts])  # shard k at _starts[k]

    def __len__(self) -> int:
        return len(self.parts)

    def draw(self, stream: RngStream, batch_size: int, rows) -> np.ndarray:
        """(len(rows), batch_size) sample indices for the workers in `rows`."""
        if self.draw_policy == "with_replacement":
            picks = stream.integers(0, self._sizes, (len(self.parts), batch_size))
            return self._flat[self._starts[rows] + picks[rows]]
        out = np.empty((len(rows), batch_size), dtype=np.int64)
        for i, k in enumerate(rows):
            out[i] = self.parts[k].next_batch(batch_size)
        return out


def generate_synthetic_classification(n_classes: int, dim: int, samples_per_class: int,
                                      seed: int, spread: float = 1.0,
                                      center_scale: float = 3.0, split: int = 0) -> Dataset:
    """Gaussian-cluster classification data, deterministic given (seed, split).

    The class centres depend on the seed alone. Split 0 (training) draws its
    points from the same stream as the centres; any other split draws fresh
    points around the same centres, e.g. a test set for split 1.
    """
    if n_classes < 1 or dim < 1 or samples_per_class < 1:
        raise ValueError("n_classes, dim and samples_per_class must be >= 1")
    stream = RngStream(seed, 0, PURPOSE_DATAGEN)
    centers = stream.gaussian_vector(n_classes * dim, center_scale).reshape(n_classes, dim)
    if split:
        stream = RngStream(seed, split, PURPOSE_DATAGEN)
    feats = np.empty((n_classes * samples_per_class, dim))
    labels = np.empty(n_classes * samples_per_class, dtype=np.int64)
    for c in range(n_classes):
        noise = stream.gaussian_vector(samples_per_class * dim, spread).reshape(samples_per_class, dim)
        feats[c * samples_per_class:(c + 1) * samples_per_class] = centers[c] + noise
        labels[c * samples_per_class:(c + 1) * samples_per_class] = c
    return Dataset(features=feats, labels=labels, n_classes=n_classes)


def shard_dataset(dataset: Dataset, workers: int, seed: int,
                  draw_policy: str = Shards.draw_policy) -> Shards:
    """Partition evenly (sizes differ by at most 1), deterministic given (seed, K).

    Under epoch_shuffle, shard k draws its permutations from the stream
    keyed (seed, k, PURPOSE_SHUFFLE).
    """
    n = len(dataset)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > n:
        raise ValueError(f"cannot shard {n} samples across {workers} workers")
    stream = RngStream(seed, 0, PURPOSE_DATAGEN)
    order = stream.permutation(n)
    base, extra = divmod(n, workers)
    shards, start = [], 0
    for k in range(workers):
        size = base + (1 if k < extra else 0)
        shards.append(Shard(indices=np.sort(order[start:start + size]),
                            stream=(RngStream(seed, k, PURPOSE_SHUFFLE)
                                    if draw_policy == "epoch_shuffle" else None)))
        start += size
    return Shards(shards, draw_policy)


class QuadraticWorkload:
    """Noisy quadratic with exactly known mu, L, sigma^2 and optimum."""

    has_eval = False

    def __init__(self, hessian_diag, x_star, noise_sigma: float, x0=None):
        self.hessian_diag = np.asarray(hessian_diag, dtype=np.float64)
        if self.hessian_diag.ndim != 1 or np.any(self.hessian_diag <= 0):
            raise ValueError("hessian_diag must be 1-D and strictly positive")
        self.dim = self.hessian_diag.shape[0]
        self.x_star = np.asarray(x_star, dtype=np.float64)
        _check_dims("quadratic x_star", self.hessian_diag, self.x_star)
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.noise_sigma = float(noise_sigma)
        self.x0 = self.x_star.copy() if x0 is None else np.asarray(x0, dtype=np.float64)
        _check_dims("quadratic x0", self.hessian_diag, self.x0)
        # E||grad f(x*, xi)||^2 = E||A xi||^2 = c * sum(a_i^2) = sigma^2
        sq = float(np.sum(self.hessian_diag ** 2))
        self._noise_scale = noise_sigma / np.sqrt(sq) if noise_sigma > 0 else 0.0

    @property
    def mu(self) -> float:
        return float(np.min(self.hessian_diag))

    @property
    def smoothness(self) -> float:
        return float(np.max(self.hessian_diag))

    @property
    def noise_floor(self) -> float:
        # E f(x*, xi) = 0.5 * c * trace(A)
        return 0.5 * self._noise_scale ** 2 * float(np.sum(self.hessian_diag))

    def shards(self, workers: int, seed: int):
        return [None] * workers  # noise model is IID, nothing to shard

    def init_params(self, stream: RngStream) -> ParamVector:
        return self.x0.copy()

    def draw_sample(self, stream: RngStream, shards, rows) -> np.ndarray:
        """Noise rows for the workers in `rows`: one (K, d) block of `stream`
        per call, K = len(shards), row k for worker k."""
        k = len(shards)
        return stream.gaussian_vector(k * self.dim, self._noise_scale).reshape(k, self.dim)[rows]

    def stochastic_gradient(self, x: np.ndarray, samples) -> np.ndarray:
        """Gradient rows at the rows of x (n, d), one noise sample per row."""
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError("quadratic gradient", x.shape[-1], self.dim)
        return self.hessian_diag * (x - self.x_star - np.asarray(samples))

    def suboptimality(self, x: ParamVector) -> float:
        d = x - self.x_star
        return 0.5 * float(np.dot(d * self.hessian_diag, d))

    def full_objective(self, x: ParamVector) -> float:
        return self.suboptimality(x) + self.noise_floor


class LogisticWorkload:
    """Binary logistic regression; parameters are the weight vector."""

    has_eval = False

    def __init__(self, train: Dataset, l2_reg: float = 0.0, batch_size: int = 1,
                 draw_policy: str = Shards.draw_policy):
        if train.n_classes != 2:
            raise ValueError("logistic workload requires exactly 2 classes")
        if l2_reg < 0:
            raise ValueError("l2_reg must be >= 0")
        self.train = train
        self.l2_reg = float(l2_reg)
        self.batch_size = int(batch_size)
        self.draw_policy = draw_policy
        self.dim = train.features.shape[1]

    def shards(self, workers: int, seed: int):
        return shard_dataset(self.train, workers, seed, self.draw_policy)

    def init_params(self, stream: RngStream) -> ParamVector:
        return np.zeros(self.dim)

    def draw_sample(self, stream: RngStream, shards: Shards, rows) -> np.ndarray:
        """(len(rows), batch_size) sample indices for the workers in `rows`."""
        return shards.draw(stream, self.batch_size, rows)

    def _loss(self, x: ParamVector, feats: np.ndarray, labels: np.ndarray) -> float:
        """Mean loss plus the L2 term at one parameter vector; no gradient."""
        z = feats @ x
        y = labels.astype(np.float64)
        # log(1 + e^z) - y z, computed stably
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        return loss + 0.5 * self.l2_reg * float(np.dot(x, x))

    def stochastic_gradient(self, x: np.ndarray, samples) -> np.ndarray:
        """Gradient rows at the rows of x (n, d), one index batch per row.

        One stacked pass: two np.matmul calls over the (n, b, d) feature
        gather. Each row rounds as the 1-row call does."""
        samples = np.asarray(samples)
        feats = self.train.features[samples]
        y = self.train.labels[samples].astype(np.float64)
        z = (feats @ x[:, :, None])[:, :, 0]
        with np.errstate(over="ignore"):  # e^-z = inf below z = -709 gives sig = 0, the limit
            sig = 1.0 / (1.0 + np.exp(-z))
        grad = (feats.transpose(0, 2, 1) @ (sig - y)[:, :, None])[:, :, 0] / samples.shape[1]
        return grad + self.l2_reg * x

    def batch_objective(self, x: ParamVector, sample: np.ndarray) -> float:
        return self._loss(x, self.train.features[sample], self.train.labels[sample])

    def full_objective(self, x: ParamVector) -> float:
        return self._loss(x, self.train.features, self.train.labels)


def _activation(name: str):
    if name == "relu":
        return (lambda z: np.maximum(z, 0.0)), (lambda z, a: (z > 0).astype(z.dtype))
    if name == "tanh":
        return np.tanh, (lambda z, a: 1.0 - a * a)
    raise ValueError(f"activation must be one of {ACTIVATIONS}, got {name!r}")


def _log_softmax(logits: np.ndarray):
    """Max-shifted logits and their log-normalizer along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted, np.log(np.sum(np.exp(shifted), axis=-1))


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of (N, classes) logits."""
    shifted, logZ = _log_softmax(logits)
    return float(np.mean(logZ - shifted[np.arange(len(labels)), labels]))


class MlpWorkload:
    """Dense MLP with hand-written backprop over a flat parameter vector."""

    def __init__(self, widths, activation: str, train: Dataset, test: Dataset | None = None,
                 batch_size: int = 8, dtype: str = "float64", init_scale: float | None = None,
                 draw_policy: str = Shards.draw_policy):
        self.widths = [int(w) for w in widths]
        if len(self.widths) < 2:
            raise ValueError("widths needs at least input and output sizes")
        if self.widths[0] != train.features.shape[1]:
            raise ValueError(f"input width {self.widths[0]} != feature dim {train.features.shape[1]}")
        if self.widths[-1] != train.n_classes:
            raise ValueError(f"output width {self.widths[-1]} != class count {train.n_classes}")
        self.activation = activation
        self._act, self._act_grad = _activation(activation)
        self.train = train
        self.test = test
        self.has_eval = test is not None
        self.batch_size = int(batch_size)
        if dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}")
        self.dtype = np.float64 if dtype == "float64" else np.float32
        self.init_scale = init_scale
        self.draw_policy = draw_policy
        self._shapes = [(a, b) for a, b in zip(self.widths[:-1], self.widths[1:])]
        self.dim = sum(a * b + b for a, b in self._shapes)

    def _unflatten(self, x: np.ndarray):
        """Per layer, the (n, a, c) weight and (n, 1, c) bias views of the
        parameter rows x (n, dim), cast to the compute dtype."""
        layers, off = [], 0
        for a, c in self._shapes:
            w = x[:, off:off + a * c].reshape(-1, a, c)
            off += a * c
            bias = x[:, None, off:off + c]
            off += c
            layers.append((w.astype(self.dtype, copy=False), bias.astype(self.dtype, copy=False)))
        return layers

    def init_params(self, stream: RngStream) -> ParamVector:
        parts = []
        for a, b in self._shapes:
            scale = self.init_scale if self.init_scale is not None else np.sqrt(2.0 / a)
            parts.append(stream.gaussian_vector(a * b, scale))
            parts.append(np.zeros(b))
        return np.concatenate(parts).astype(self.dtype, copy=False).astype(np.float64)

    def shards(self, workers: int, seed: int):
        return shard_dataset(self.train, workers, seed, self.draw_policy)

    def draw_sample(self, stream: RngStream, shards: Shards, rows) -> np.ndarray:
        """(len(rows), batch_size) sample indices for the workers in `rows`."""
        return shards.draw(stream, self.batch_size, rows)

    def _forward(self, layers, feats: np.ndarray):
        """Pre-activations and activations of features (n, b, in) under
        stacked layers, one np.matmul per layer."""
        acts = [feats.astype(self.dtype, copy=False)]
        pre = []
        for i, (w, b) in enumerate(layers):
            z = acts[-1] @ w + b
            pre.append(z)
            acts.append(self._act(z) if i < len(layers) - 1 else z)
        return pre, acts

    def _logits(self, x: ParamVector, feats: np.ndarray) -> np.ndarray:
        """(N, classes) outputs of one parameter vector; forward only."""
        return self._forward(self._unflatten(x[None]), feats[None])[1][-1][0]

    def stochastic_gradient(self, x: np.ndarray, samples) -> np.ndarray:
        """Gradient rows at the rows of x (n, d), one index batch per row.

        One stacked pass: forward and backward matmuls over (n, a, c) weight
        views of the parameter rows. Each row rounds as the 1-row call does."""
        samples = np.asarray(samples)
        n, b = samples.shape
        layers = self._unflatten(x)
        pre, acts = self._forward(layers, self.train.features[samples])
        shifted, logZ = _log_softmax(acts[-1])
        delta = np.exp(shifted - logZ[..., None])
        delta[np.arange(n)[:, None], np.arange(b), self.train.labels[samples]] -= 1.0
        delta /= b
        grads = [None] * len(layers)
        for i in reversed(range(len(layers))):
            w, _ = layers[i]
            grads[i] = ((acts[i].transpose(0, 2, 1) @ delta).reshape(n, -1), delta.sum(axis=1))
            if i > 0:
                delta = (delta @ w.transpose(0, 2, 1)) * self._act_grad(pre[i - 1], acts[i])
        flat = np.concatenate([part for pair in grads for part in pair], axis=1)
        return flat.astype(np.float64, copy=False)

    def batch_objective(self, x: ParamVector, sample: np.ndarray) -> float:
        return _cross_entropy(self._logits(x, self.train.features[sample]), self.train.labels[sample])

    def full_objective(self, x: ParamVector) -> float:
        return _cross_entropy(self._logits(x, self.train.features), self.train.labels)

    def evaluate(self, x: ParamVector) -> dict:
        logits = self._logits(x, self.test.features)
        y = self.test.labels
        return {"eval_loss": _cross_entropy(logits, y),
                "eval_acc": float(np.mean(np.argmax(logits, axis=1) == y))}
