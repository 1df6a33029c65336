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

from dataclasses import dataclass, field

import numpy as np

from .fields import check_fields, option, specs
from .vecmath import (PURPOSE_DATA, PURPOSE_DATAGEN, PURPOSE_SHUFFLE,
                      DimensionMismatchError, ParamVector, RngStream, StreamChunks,
                      _check_dims)

# each hidden activation and its derivative, in place over their argument; the derivative
# reads the activation a, not z: relu's a > 0 is z > 0 at every z, nan and -0.0 too
_ACTIVATIONS = {
    "relu": ((lambda z: np.maximum(z, 0.0, out=z)), (lambda a: np.greater(a, 0.0, out=a))),
    "tanh": ((lambda z: np.tanh(z, out=z)),
             (lambda a: np.subtract(1.0, np.multiply(a, a, out=a), out=a))),
}


@dataclass
class Dataset:
    """A labelled sample matrix: (n, d) features and n integer class ids."""
    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,) integer class ids
    n_classes: int

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class Shards:
    """The K workers' shards of S replicas as arrays, and the run's data
    draws from them: shard s*K + k, replica-major, is worker k's of replica s.

    Shard i is `flat[starts[i]:starts[i] + sizes[i]]`, its sorted sample
    indices; `seeds` holds the replicas' seeds. Each draw gives a shard
    `batch_size` indices. with_replacement reads a step's (S*K, batch_size)
    draw of `positions` (`ShardPositions`, the data stream's chunks) as one
    contiguous block of the step-major chunk: row i holds indices into
    `flat`, uniform over shard i's span of it, and a draw is the one gather
    `flat[positions.next()]`. epoch_shuffle draws no data stream: shard k
    of replica s reads its indices in epochs, epoch e permuted by its own
    stream keyed (seed_s, k, PURPOSE_SHUFFLE) at counter e. `order` holds
    each shard's current epoch at its start and `cursor` each shard's next
    position in it, and a draw advances only the shards its mask picks.
    """
    flat: np.ndarray    # (n,) every shard's sorted indices, end to end
    sizes: np.ndarray   # (S*K,) int64
    seeds: tuple
    batch_size: int     # checked by the workload that owns the shards
    draw_policy: str = option(str, "with_replacement", choices=("with_replacement", "epoch_shuffle"))

    def __post_init__(self):
        check_fields(self)
        self.starts = np.cumsum(self.sizes) - self.sizes
        if self.draw_policy == "with_replacement":
            self.positions = ShardPositions(self)
        else:
            self.order = self.flat.copy()
            self.cursor = self.sizes.copy()  # every epoch spent: the first draw starts epoch 0
            self.streams = [RngStream(seed, k, PURPOSE_SHUFFLE)
                            for seed in self.seeds for k in range(self.workers)]

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def workers(self) -> int:
        return len(self) // len(self.seeds)

    def draw(self, mask: np.ndarray) -> np.ndarray:
        """The next step's (S*K, batch_size) sample indices, a row per shard;
        the boolean `mask` picks the shards that step. with_replacement reads
        every row's positions at every call, so draw n belongs to step n.
        epoch_shuffle advances only the masked shards, one at a time, and an
        unmasked row holds its shard's first index, which no step uses."""
        if self.draw_policy == "with_replacement":
            return self.flat[self.positions.next()]
        out = np.repeat(self.flat[self.starts, None], self.batch_size, axis=1)
        for k in np.flatnonzero(mask):
            lo, n = self.starts[k], self.sizes[k]
            epoch = self.order[lo:lo + n]
            filled = 0
            while filled < self.batch_size:
                if self.cursor[k] == n:
                    epoch[:] = self.flat[lo:lo + n][self.streams[k].permutation(n)]
                    self.cursor[k] = 0
                at = self.cursor[k]
                take = min(self.batch_size - filled, n - at)
                out[k, filled:filled + take] = epoch[at:at + take]
                self.cursor[k] += take
                filled += take
        return out


class ShardPositions(StreamChunks):
    """The with_replacement data draws of `shards`, as indices into its `flat`.

    Chunk c of replica s is draw c of the data stream keyed (seed_s, 0,
    PURPOSE_DATA): worker k's positions, uniform in [0, size_k), drawn
    worker-major. A replica whose shards all have one size draws under that
    size as a scalar bound, which gives the values of the per-shard bound
    array, and faster. Each refill then adds every shard's start to its
    rows of the whole chunk, once, so a step's rows index `flat` directly.
    """

    def __init__(self, shards: Shards):
        workers = shards.workers
        sizes = shards.sizes[:workers]  # the same in every replica
        high = int(sizes[0]) if (sizes == sizes[0]).all() else sizes[:, None, None]

        def fill(stream: RngStream, shape) -> np.ndarray:
            return stream.integers(0, high, shape)

        super().__init__(shards.seeds, PURPOSE_DATA, workers, shards.batch_size, fill, np.int64)
        self.starts = shards.starts.reshape(-1, workers, 1)  # (S, K, 1), broadcast over a chunk

    def refill(self, chunk: int) -> None:
        super().refill(chunk)
        self.buf += self.starts


@dataclass(frozen=True)
class GaussianClusters:
    """The data of ``generate_synthetic_classification``: `classes` centres
    in `dim` dimensions, coordinates N(0, center_scale^2), `samples_per_class`
    points N(centre, spread^2) around each, drawn by the streams of `data_seed`."""
    classes: int = option(int, 10, low=2)
    dim: int = option(int, 16, low=1)
    samples_per_class: int = option(int, 100, low=1)
    data_seed: int = option(int, 7)
    spread: float = option(float, 1.0, low=0, low_open=True)
    center_scale: float = option(float, 3.0, low=0)

    def __post_init__(self):
        check_fields(self)


def generate_synthetic_classification(classes: int, dim: int, samples_per_class: int,
                                      data_seed: int, spread: float = GaussianClusters.spread,
                                      center_scale: float = GaussianClusters.center_scale,
                                      split: int = 0) -> Dataset:
    """Gaussian-cluster classification data, deterministic given (data_seed, split).

    The class centres depend on the seed alone. Split 0 (training) draws its
    points from the same stream as the centres; any other split draws fresh
    points around the same centres, e.g. a test set for split 1.
    """
    GaussianClusters(classes, dim, samples_per_class, data_seed, spread, center_scale)  # checks bounds
    stream = RngStream(data_seed, 0, PURPOSE_DATAGEN)
    centers = stream.gaussian_vector(classes * dim, center_scale).reshape(classes, dim)
    if split:
        stream = RngStream(data_seed, split, PURPOSE_DATAGEN)
    feats = np.empty((classes * samples_per_class, dim))
    labels = np.empty(classes * samples_per_class, dtype=np.int64)
    for c in range(classes):
        noise = stream.gaussian_vector(samples_per_class * dim, spread).reshape(samples_per_class, dim)
        feats[c * samples_per_class:(c + 1) * samples_per_class] = centers[c] + noise
        labels[c * samples_per_class:(c + 1) * samples_per_class] = c
    return Dataset(features=feats, labels=labels, n_classes=classes)


def shard_dataset(dataset: Dataset, workers: int, seeds, batch_size: int,
                  draw_policy: str = Shards.draw_policy) -> Shards:
    """The shards of `workers` workers in each replica of `seeds`, drawn
    `batch_size` indices at a time under `draw_policy`. Each replica splits
    the samples evenly (sizes differ by at most 1, the larger first); its
    seed picks which samples go where."""
    n = len(dataset)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > n:
        raise ValueError(f"cannot shard {n} samples across {workers} workers")
    base, extra = divmod(n, workers)
    sizes = np.full(workers, base) + (np.arange(workers) < extra)
    cuts = np.cumsum(sizes)[:-1]
    orders = [RngStream(seed, 0, PURPOSE_DATAGEN).permutation(n) for seed in seeds]
    flat = np.concatenate([np.sort(part) for order in orders for part in np.split(order, cuts)])
    return Shards(flat, np.tile(sizes, len(seeds)), tuple(seeds), batch_size, draw_policy)


@dataclass(eq=False)
class QuadraticWorkload:
    """Noisy quadratic with exactly known mu, L, sigma^2 and optimum."""

    hessian_diag: np.ndarray
    x_star: np.ndarray
    noise_sigma: float = option(float, low=0)
    x0: np.ndarray | None = None
    has_eval = False

    def __post_init__(self):
        check_fields(self)
        self.hessian_diag = np.asarray(self.hessian_diag, dtype=np.float64)
        if self.hessian_diag.ndim != 1 or np.any(self.hessian_diag <= 0):
            raise ValueError("hessian_diag must be 1-D and strictly positive")
        self.dim = self.hessian_diag.shape[0]
        self.x_star = np.asarray(self.x_star, dtype=np.float64)
        _check_dims("quadratic x_star", self.hessian_diag, self.x_star)
        self.x0 = self.x_star.copy() if self.x0 is None else np.asarray(self.x0, dtype=np.float64)
        _check_dims("quadratic x0", self.hessian_diag, self.x0)
        # E||grad f(x*, xi)||^2 = E||A xi||^2 = c * sum(a_i^2) = sigma^2
        sq = float(np.sum(self.hessian_diag ** 2))
        self._noise_scale = self.noise_sigma / np.sqrt(sq) if self.noise_sigma > 0 else 0.0

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

    def init_params(self, stream: RngStream) -> ParamVector:
        return self.x0.copy()

    def sampler(self, workers: int, seeds) -> StreamChunks:
        """The run's data draws: the data stream's chunks of d noise values
        per worker and step; the noise is IID, so there is nothing to shard."""
        return StreamChunks(seeds, PURPOSE_DATA, workers, self.dim, self._fill_noise)

    def _fill_noise(self, stream: RngStream, shape) -> np.ndarray:
        return stream.gaussian_vector(shape, self._noise_scale)

    def draw_sample(self, sampler: StreamChunks, mask: np.ndarray) -> np.ndarray:
        """The next step's (S*K, d) noise draw, whatever `mask` holds: a view
        of the sampler's chunk, valid until its next draw and never written;
        the gradient reads it at once."""
        return sampler.next()

    def stochastic_gradient(self, x: np.ndarray, samples) -> np.ndarray:
        """Gradient rows at the rows of x (n, d), one noise sample per row:
        A (x - x* - xi), taken in place on the one new array x - x*."""
        if x.shape[-1] != self.dim:
            raise DimensionMismatchError("quadratic gradient", x.shape[-1], self.dim)
        g = x - self.x_star
        g -= samples
        g *= self.hessian_diag
        return g

    def suboptimality(self, x: np.ndarray) -> float | list[float]:
        """F(x) - F(x*): a float for one (d,) model, a list of S floats for
        an (S, d) stack. Each is bit-equal to 0.5 * np.dot(H d, d): a
        (1, d) @ (d, 1) matmul runs np.dot's kernel, as `row_norms_sq` does."""
        d = x - self.x_star
        dots = np.matmul((d * self.hessian_diag)[..., None, :], d[..., :, None])[..., 0, 0]
        return (0.5 * dots).tolist()

    def full_objective(self, x: ParamVector) -> float:
        return self.suboptimality(x) + self.noise_floor


@dataclass(eq=False)
class ShardedWorkload:
    """A workload that trains on `train`, sharded per worker and drawn in
    index batches of `batch_size` under `draw_policy`: its sampler is the
    run's `Shards`. Each subclass defines its own `draw_sample`, so a
    wrapper set on one class's method leaves the other's alone."""
    spec = specs(Shards)["draw_policy"]
    draw_policy: str = field(default=spec.default, kw_only=True, metadata={"spec": spec})

    def sampler(self, workers: int, seeds) -> Shards:
        return shard_dataset(self.train, workers, seeds, self.batch_size, self.draw_policy)


@dataclass(eq=False)
class LogisticWorkload(ShardedWorkload):
    """Binary logistic regression; parameters are the weight vector."""

    train: Dataset
    l2_reg: float = option(float, 0.0, low=0)
    batch_size: int = option(int, 1, low=1)
    has_eval = False

    def __post_init__(self):
        check_fields(self)
        if self.train.n_classes != 2:
            raise ValueError("logistic workload requires exactly 2 classes")
        self.dim = self.train.features.shape[1]
        self._y = self.train.labels.astype(np.float64)  # class ids 0/1 convert exactly

    def init_params(self, stream: RngStream) -> ParamVector:
        return np.zeros(self.dim)

    def draw_sample(self, sampler: Shards, mask: np.ndarray) -> np.ndarray:
        """The shards' next (S*K, batch_size) draw; the `mask` rows step."""
        return sampler.draw(mask)

    def _loss(self, x: ParamVector, feats: np.ndarray, y: np.ndarray) -> float:
        """Mean loss plus the L2 term at one parameter vector, float labels y;
        no gradient."""
        z = feats @ x
        # log(1 + e^z) - y z on softplus's own buffer (z is spent, so it
        # takes y z in place), then the pairwise sum that np.mean takes,
        # without its Python wrapper
        t = _softplus(z)
        z *= y
        t -= z
        loss = float(np.add.reduce(t) / len(t))
        return loss + 0.5 * self.l2_reg * float(np.dot(x, x))

    def stochastic_gradient(self, x: np.ndarray, samples) -> np.ndarray:
        """Gradient rows at the rows of x (n, d), one index batch per row.

        One stacked pass: two np.matmul calls over the (n, b, d) feature
        gather. Each row rounds as the 1-row call does."""
        samples = np.asarray(samples)
        feats = np.take(self.train.features, samples, axis=0)  # what [samples] copies, faster
        y = self._y[samples]
        z = (feats @ x[:, :, None])[:, :, 0]
        with np.errstate(over="ignore"):  # e^-z = inf below z = -709 gives sig = 0, the limit
            sig = 1.0 / (1.0 + np.exp(-z))
        grad = (feats.transpose(0, 2, 1) @ (sig - y)[:, :, None])[:, :, 0] / samples.shape[1]
        return grad + self.l2_reg * x

    def batch_objective(self, x: ParamVector, sample: np.ndarray) -> float:
        return self._loss(x, self.train.features[sample], self._y[sample])

    def full_objective(self, x: ParamVector) -> float:
        return self._loss(x, self.train.features, self._y)


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) elementwise, stable at any z: e^-|z| never overflows.

    max(z, 0) + log1p(e^-|z|), by SIMD exp/log1p, as np.logaddexp is a
    scalar libm loop; the terms are taken in place on one new buffer, which
    the caller may write."""
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += np.maximum(z, 0.0)
    return t


def _log_softmax(logits: np.ndarray):
    """Max-shifted logits, on a new buffer, and their log-normalizer along
    the last axis."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    logZ = np.add.reduce(np.exp(shifted), axis=-1)
    return shifted, np.log(logZ, out=logZ)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of (N, classes) logits: the pairwise sum
    and the division that np.mean takes, without its Python wrapper."""
    shifted, logZ = _log_softmax(logits)
    logZ -= shifted[np.arange(len(labels)), labels]
    return float(np.add.reduce(logZ) / len(logZ))


@dataclass(eq=False)
class MlpWorkload(ShardedWorkload):
    """Dense MLP with hand-written backprop over a flat parameter vector."""

    widths: list
    activation: str = option(str, choices=tuple(_ACTIVATIONS))
    train: Dataset
    test: Dataset | None = None
    batch_size: int = option(int, 8, low=1)
    dtype: str = option(str, "float64", choices=("float64", "float32"))
    init_scale: float | None = option(float, None, low=0, low_open=True)

    def __post_init__(self):
        check_fields(self)
        self.widths = [int(w) for w in self.widths]
        if len(self.widths) < 2:
            raise ValueError("widths needs at least input and output sizes")
        if self.widths[0] != self.train.features.shape[1]:
            raise ValueError(f"input width {self.widths[0]} != feature dim {self.train.features.shape[1]}")
        if self.widths[-1] != self.train.n_classes:
            raise ValueError(f"output width {self.widths[-1]} != class count {self.train.n_classes}")
        self._act, self._act_grad = _ACTIVATIONS[self.activation]
        self.has_eval = self.test is not None
        self._dtype = np.dtype(self.dtype)
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
            layers.append((w.astype(self._dtype, copy=False), bias.astype(self._dtype, copy=False)))
        return layers

    def init_params(self, stream: RngStream) -> ParamVector:
        parts = []
        for a, b in self._shapes:
            scale = self.init_scale if self.init_scale is not None else np.sqrt(2.0 / a)
            parts.append(stream.gaussian_vector(a * b, scale))
            parts.append(np.zeros(b))
        return np.concatenate(parts).astype(self._dtype, copy=False).astype(np.float64)

    def draw_sample(self, sampler: Shards, mask: np.ndarray) -> np.ndarray:
        """The shards' next (S*K, batch_size) draw; the `mask` rows step."""
        return sampler.draw(mask)

    def _forward(self, layers, feats: np.ndarray) -> list:
        """Activations of features (n, b, in) under stacked layers: the input,
        then each layer's output. One np.matmul per layer makes the layer's
        buffer, and the bias and activation are taken in place on it; the
        input is never written."""
        acts = [feats.astype(self._dtype, copy=False)]
        for i, (w, b) in enumerate(layers):
            z = acts[-1] @ w
            z += b
            if i < len(layers) - 1:
                self._act(z)
            acts.append(z)
        return acts

    def _logits(self, x: ParamVector, feats: np.ndarray) -> np.ndarray:
        """(N, classes) outputs of one parameter vector; forward only."""
        return self._forward(self._unflatten(x[None]), feats[None])[-1][0]

    def stochastic_gradient(self, x: np.ndarray, samples) -> np.ndarray:
        """Gradient rows at the rows of x (n, d), one index batch per row.

        One stacked pass: forward and backward matmuls over (n, a, c) weight
        views of the parameter rows. The backward writes each layer's
        gradient through the same views of one flat (n, d) array, and takes
        each derivative in place over the activation it reads, which only
        that layer's gradient reads before it. Each row rounds as the 1-row
        call does."""
        samples = np.asarray(samples)
        n, b = samples.shape
        layers = self._unflatten(x)
        acts = self._forward(layers, np.take(self.train.features, samples, axis=0))
        delta, logZ = _log_softmax(acts[-1])
        delta -= logZ[..., None]
        np.exp(delta, out=delta)
        delta[np.arange(n)[:, None], np.arange(b), self.train.labels[samples]] -= 1.0
        delta /= b
        flat = np.empty((n, self.dim), self._dtype)
        grads = self._unflatten(flat)  # views: flat has the compute dtype
        for i in reversed(range(len(layers))):
            gw, gb = grads[i]
            np.matmul(acts[i].transpose(0, 2, 1), delta, out=gw)
            np.add.reduce(delta, axis=1, keepdims=True, out=gb)
            if i > 0:
                delta = delta @ layers[i][0].transpose(0, 2, 1)
                delta *= self._act_grad(acts[i])
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
