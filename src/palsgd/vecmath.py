"""Dense float64 vector arithmetic and counter-based random streams.

Parameter vectors are plain 1-D float64 numpy arrays; the trainer stacks the
K workers' vectors of S replicas as the rows of an (S*K, d) array. Every
reduction in the trainer flows through the handful of operations here so that
it has a single, fixed summation order, and random draws are replayable
bit-exactly.
"""

from __future__ import annotations

import numpy as np

ParamVector = np.ndarray

# Purpose tags for RngStream ids. Streams with different purposes are
# disjoint, so e.g. consuming Bernoulli draws never shifts the data sequence.
PURPOSE_DATA = 0
PURPOSE_BERNOULLI = 1
PURPOSE_INIT = 2
PURPOSE_JITTER = 3
PURPOSE_DATAGEN = 4
PURPOSE_SHUFFLE = 5


class DimensionMismatchError(ValueError):
    def __init__(self, op: str, dim_a: int, dim_b: int):
        super().__init__(f"{op}: dimension mismatch ({dim_a} vs {dim_b})")


def _check_dims(op: str, x: ParamVector, y: ParamVector) -> None:
    if x.shape != y.shape:
        raise DimensionMismatchError(op, x.shape[0] if x.ndim else 0, y.shape[0] if y.ndim else 0)


def mean_of(vectors: np.ndarray) -> ParamVector:
    """Elementwise mean over the worker axis, summed left to right (ascending index).

    `vectors` is a (K, d) array of rows or an (S, K, d) stack of S replicas'
    rows, which gives the (S, d) replica means. ``np.add.accumulate`` adds
    the rows strictly in order, so each replica's mean is bit-equal to the
    mean of its (K, d) rows alone, while ``np.add.reduce(x, axis=0)``
    reduces a contiguous column pairwise at d = 1, which rounds differently.
    """
    if vectors.ndim < 2 or vectors.shape[-2] == 0:
        raise ValueError("mean_of: empty worker axis")
    return np.add.accumulate(vectors, axis=-2)[..., -1, :] / vectors.shape[-2]


def row_norms_sq(x: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row of a (K, d) array.

    Each entry is bit-equal to ``np.dot(row, row)``: a stacked (1, d) @ (d, 1)
    matmul runs the same dot kernel, while ``einsum`` or ``(x * x).sum(1)``
    accumulate in another order and round differently.
    """
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _stream_key(seed: int, worker: int, purpose: int) -> np.ndarray:
    ss = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(worker, purpose))
    return ss.generate_state(2, np.uint64)


class RngStream:
    """Counter-based random stream keyed by (seed, worker, purpose).

    Each draw call occupies its own 2^64-wide Philox counter block, so the
    n-th draw is a pure function of (seed, worker, purpose, n): replaying a
    stream, or reconstructing it at an arbitrary counter, reproduces every
    value bit-exactly, and no stream's consumption can shift another's.

    The trainer keeps one stream per purpose and replica, keyed (seed, 0,
    purpose) by the replica's seed, and makes one draw per step for the
    replica's K workers: a (K, ...) block whose row k belongs to worker k.
    Philox yields its values in order, so the first k rows of a K-row block
    of uniforms or Gaussians equal the k-row block, and a worker's draws do
    not depend on how many workers run beside it.
    """

    __slots__ = ("seed", "worker", "purpose", "counter", "_bitgen", "_gen", "_state")

    def __init__(self, seed: int, worker: int, purpose: int, counter: int = 0):
        self.seed = seed
        self.worker = worker
        self.purpose = purpose
        self.counter = counter
        self._bitgen = np.random.Philox(key=_stream_key(seed, worker, purpose))
        self._gen = np.random.Generator(self._bitgen)
        # The state of a fresh Philox at counter 0 with empty output buffers.
        # Reading `.state` builds a new dict each time and costs more than
        # setting it, so the dict is read once and only its counter word
        # changes per draw; the setter copies it in, leaving it untouched.
        self._state = self._bitgen.state
        self._state["state"]["counter"][:] = 0
        self._state["buffer_pos"] = 4
        self._state["has_uint32"] = 0
        self._state["uinteger"] = 0

    def _position(self) -> np.random.Generator:
        # Reposition the cached generator at this draw's counter block and
        # flush buffered output; bit-identical to a fresh Philox at
        # counter << 64 but much cheaper than reconstructing.
        self._state["state"]["counter"][1] = self.counter
        self._bitgen.state = self._state
        self.counter += 1
        return self._gen

    def uniform(self) -> float:
        """One draw in [0, 1)."""
        return float(self._position().random())

    def uniform_vector(self, n: int) -> np.ndarray:
        """n iid draws in [0, 1); one counter tick for the whole block."""
        return self._position().random(n)

    def gaussian(self, sigma: float) -> float:
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        if sigma == 0.0:
            self.counter += 1
            return 0.0
        return float(self._position().standard_normal() * sigma)

    def gaussian_vector(self, n: int, sigma: float) -> ParamVector:
        """n iid N(0, sigma^2) values; one counter tick for the whole vector."""
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        if sigma == 0.0:
            self.counter += 1
            return np.zeros(n)
        return self._position().standard_normal(n) * sigma

    def integers(self, low, high, n) -> np.ndarray:
        """Uniform integers in [low, high) of shape n; one counter tick.

        `low` and `high` may be arrays that broadcast to that shape, e.g. a
        (K, 1) column of per-row bounds for a (K, b) block.
        """
        return self._position().integers(low, high, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._position().permutation(n)
