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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .fields import check_fields, option
from .vecmath import (PURPOSE_DATAGEN, DimensionMismatchError, ParamVector,
                      RngStream, _check_dims)

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
    """A worker's slice of the dataset plus its sampling cursor."""
    worker: int
    indices: np.ndarray
    draw_policy: str = option(str, "with_replacement", choices=("with_replacement", "epoch_shuffle"))
    _order: np.ndarray | None = None
    _pos: int = 0

    def __post_init__(self):
        check_fields(self)

    def draw(self, stream: RngStream, batch_size: int) -> np.ndarray:
        if self.draw_policy == "with_replacement":
            picks = stream.integers(0, len(self.indices), batch_size)
            return self.indices[picks]
        out = np.empty(batch_size, dtype=np.int64)
        filled = 0
        while filled < batch_size:
            if self._order is None or self._pos >= len(self.indices):
                self._order = self.indices[stream.permutation(len(self.indices))]
                self._pos = 0
            take = min(batch_size - filled, len(self.indices) - self._pos)
            out[filled:filled + take] = self._order[self._pos:self._pos + take]
            self._pos += take
            filled += take
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
                  draw_policy: str = Shard.draw_policy) -> list[Shard]:
    """Partition evenly (sizes differ by at most 1), deterministic given (seed, K)."""
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
        shards.append(Shard(worker=k, indices=np.sort(order[start:start + size]),
                            draw_policy=draw_policy))
        start += size
    return shards


def export_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write rows of feature columns followed by the integer label."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.features.shape[1])] + ["label"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(v) for v in row] + [int(label)])


class QuadraticWorkload:
    """Noisy quadratic with exactly known mu, L, sigma^2 and optimum."""

    kind = "quadratic"
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

    def draw_sample(self, stream: RngStream, shard=None) -> ParamVector:
        return stream.gaussian_vector(self.dim, self._noise_scale)

    def stochastic_gradient(self, x: np.ndarray, samples) -> np.ndarray:
        """Gradient rows at the rows of x (n, d), one noise sample per row."""
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError("quadratic gradient", x.shape[-1], self.dim)
        if not np.all(np.isfinite(x)):
            raise ValueError("quadratic gradient: non-finite parameters")
        return self.hessian_diag * (x - self.x_star - np.asarray(samples))

    def full_gradient(self, x: ParamVector) -> ParamVector:
        return self.hessian_diag * (x - self.x_star)

    def suboptimality(self, x: ParamVector) -> float:
        d = x - self.x_star
        return 0.5 * float(np.dot(d * self.hessian_diag, d))

    def full_objective(self, x: ParamVector) -> float:
        return self.suboptimality(x) + self.noise_floor

    def variance_at_optimum(self, n_samples: int, stream: RngStream) -> float:
        """Monte Carlo estimate of E||grad f(x*, xi)||^2 (validates calibration)."""
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        total = 0.0
        chunk = 4096
        done = 0
        while done < n_samples:
            take = min(chunk, n_samples - done)
            xi = stream.gaussian_vector(take * self.dim, self._noise_scale).reshape(take, self.dim)
            g = xi * self.hessian_diag
            total += float(np.sum(g * g))
            done += take
        return total / n_samples


class LogisticWorkload:
    """Binary logistic regression; parameters are the weight vector."""

    kind = "logistic"
    has_eval = False

    def __init__(self, train: Dataset, l2_reg: float = 0.0, batch_size: int = 1,
                 draw_policy: str = Shard.draw_policy):
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

    def draw_sample(self, stream: RngStream, shard: Shard) -> np.ndarray:
        return shard.draw(stream, self.batch_size)

    def _loss_grad(self, x: ParamVector, idx: np.ndarray) -> tuple[float, ParamVector]:
        feats = self.train.features[idx]
        y = self.train.labels[idx].astype(np.float64)
        z = feats @ x
        # log(1 + e^z) - y z, computed stably
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        sig = 1.0 / (1.0 + np.exp(-z))
        grad = feats.T @ (sig - y) / len(idx)
        loss += 0.5 * self.l2_reg * float(np.dot(x, x))
        grad = grad + self.l2_reg * x
        return loss, grad

    def stochastic_gradient(self, x: np.ndarray, samples) -> np.ndarray:
        """Gradient rows at the rows of x (n, d), one index batch per row."""
        return np.stack([self._loss_grad(row, idx)[1] for row, idx in zip(x, samples)])

    def batch_objective(self, x: ParamVector, sample: np.ndarray) -> float:
        return self._loss_grad(x, sample)[0]

    def full_objective(self, x: ParamVector) -> float:
        return self._loss_grad(x, np.arange(len(self.train)))[0]

    def full_gradient(self, x: ParamVector) -> ParamVector:
        return self._loss_grad(x, np.arange(len(self.train)))[1]


def _activation(name: str):
    if name == "relu":
        return (lambda z: np.maximum(z, 0.0)), (lambda z, a: (z > 0).astype(z.dtype))
    if name == "tanh":
        return np.tanh, (lambda z, a: 1.0 - a * a)
    raise ValueError(f"activation must be one of {ACTIVATIONS}, got {name!r}")


class MlpWorkload:
    """Dense MLP with hand-written backprop over a flat parameter vector."""

    kind = "mlp"
    has_eval = True

    def __init__(self, widths, activation: str, train: Dataset, test: Dataset | None = None,
                 batch_size: int = 8, dtype: str = "float64", init_scale: float | None = None,
                 draw_policy: str = Shard.draw_policy):
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
        self.batch_size = int(batch_size)
        if dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}")
        self.dtype = np.float64 if dtype == "float64" else np.float32
        self.init_scale = init_scale
        self.draw_policy = draw_policy
        self._shapes = [(a, b) for a, b in zip(self.widths[:-1], self.widths[1:])]
        self.dim = sum(a * b + b for a, b in self._shapes)

    def _unflatten(self, x: ParamVector):
        layers, off = [], 0
        for a, b in self._shapes:
            w = x[off:off + a * b].reshape(a, b)
            off += a * b
            bias = x[off:off + b]
            off += b
            layers.append((w, bias))
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

    def draw_sample(self, stream: RngStream, shard: Shard) -> np.ndarray:
        return shard.draw(stream, self.batch_size)

    def _forward(self, layers, feats: np.ndarray):
        acts = [feats.astype(self.dtype, copy=False)]
        pre = []
        for i, (w, b) in enumerate(layers):
            z = acts[-1] @ w.astype(self.dtype, copy=False) + b.astype(self.dtype, copy=False)
            pre.append(z)
            acts.append(self._act(z) if i < len(layers) - 1 else z)
        return pre, acts

    def _loss_grad(self, x: ParamVector, idx: np.ndarray, want_grad: bool = True):
        layers = self._unflatten(x)
        feats = self.train.features[idx]
        y = self.train.labels[idx]
        pre, acts = self._forward(layers, feats)
        logits = acts[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logZ = np.log(np.sum(np.exp(shifted), axis=1))
        loss = float(np.mean(logZ - shifted[np.arange(len(idx)), y]))
        if not want_grad:
            return loss, None
        probs = np.exp(shifted - logZ[:, None])
        delta = probs
        delta[np.arange(len(idx)), y] -= 1.0
        delta /= len(idx)
        grads = [None] * len(layers)
        for i in reversed(range(len(layers))):
            w, _ = layers[i]
            grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ w.T.astype(self.dtype, copy=False)) * self._act_grad(pre[i - 1], acts[i])
        flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
        return loss, flat.astype(np.float64, copy=False)

    def stochastic_gradient(self, x: np.ndarray, samples) -> np.ndarray:
        """Gradient rows at the rows of x (n, d), one index batch per row."""
        return np.stack([self._loss_grad(row, idx)[1] for row, idx in zip(x, samples)])

    def batch_objective(self, x: ParamVector, sample: np.ndarray) -> float:
        return self._loss_grad(x, sample, want_grad=False)[0]

    def full_objective(self, x: ParamVector) -> float:
        return self._loss_grad(x, np.arange(len(self.train)), want_grad=False)[0]

    def full_gradient(self, x: ParamVector) -> ParamVector:
        return self._loss_grad(x, np.arange(len(self.train)))[1]

    def evaluate(self, x: ParamVector) -> dict:
        if self.test is None:
            return {}
        layers = self._unflatten(x)
        _, acts = self._forward(layers, self.test.features)
        logits = acts[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logZ = np.log(np.sum(np.exp(shifted), axis=1))
        y = self.test.labels
        loss = float(np.mean(logZ - shifted[np.arange(len(y)), y]))
        acc = float(np.mean(np.argmax(logits, axis=1) == y))
        return {"eval_loss": loss, "eval_acc": acc}
