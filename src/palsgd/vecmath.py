"""Dense float64 vector arithmetic and counter-based random streams.

Parameter vectors are plain 1-D float64 numpy arrays; the trainer stacks the
K workers' vectors as the rows of a (K, d) array. Every reduction in the
trainer flows through the handful of operations here so that it has a single,
fixed summation order, and random draws are replayable bit-exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

ParamVector = np.ndarray

# Purpose tags for RngStream ids. Streams with different purposes are
# disjoint, so e.g. consuming Bernoulli draws never shifts the data sequence.
PURPOSE_DATA = 0
PURPOSE_BERNOULLI = 1
PURPOSE_INIT = 2
PURPOSE_JITTER = 3
PURPOSE_DATAGEN = 4


class DimensionMismatchError(ValueError):
    def __init__(self, op: str, dim_a: int, dim_b: int):
        super().__init__(f"{op}: dimension mismatch ({dim_a} vs {dim_b})")
        self.dims = (dim_a, dim_b)


def param_vector(values: Iterable[float]) -> ParamVector:
    """Build a validated float64 parameter vector (dim >= 1, all finite)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"param vector must be 1-D and non-empty, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("param vector contains NaN/Inf")
    return v


def _check_dims(op: str, x: ParamVector, y: ParamVector) -> None:
    if x.shape != y.shape:
        raise DimensionMismatchError(op, x.shape[0] if x.ndim else 0, y.shape[0] if y.ndim else 0)


def mix(x: ParamVector, anchor: ParamVector, beta: float) -> ParamVector:
    """(1-beta)*x + beta*anchor: exponential moving average toward the anchor.

    Equivalent (to rounding) to one gradient step of size beta on the
    quadratic penalty 0.5*||x - anchor||^2, i.e. x - beta*(x - anchor). For
    beta in [0, 1] the two float evaluations differ elementwise by at most
    about 3*eps*(|x| + |anchor|): x - anchor can cancel, so the bound scales
    with the inputs, not with the output. beta=1 returns the anchor exactly.
    """
    _check_dims("mix", x, anchor)
    return (1.0 - beta) * x + beta * anchor


def mean_of(vectors: Sequence[ParamVector]) -> ParamVector:
    """Elementwise mean with a fixed left-to-right (ascending index) sum order.

    `vectors` is a list of equal-length vectors or a (K, d) array of rows.
    The row loop is deliberate: ``np.add.reduce(x, axis=0)`` adds rows in
    the same order for d > 1, but at d = 1 it reduces a contiguous column and
    switches to pairwise summation, which rounds differently.
    """
    if len(vectors) == 0:
        raise ValueError("mean_of: empty list")
    first = vectors[0]
    if not isinstance(vectors, np.ndarray):  # an array's rows agree by construction
        for v in vectors:
            _check_dims("mean_of", first, v)
    acc = first.copy()
    for v in vectors[1:]:
        acc += v
    acc /= len(vectors)
    return acc


def row_norms_sq(x: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row of a (K, d) array.

    Each entry is bit-equal to ``np.dot(row, row)``: a stacked (1, d) @ (d, 1)
    matmul runs the same dot kernel, while ``einsum`` or ``(x * x).sum(1)``
    accumulate in another order and round differently.
    """
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _stream_key(seed: int, worker: int, purpose: int) -> np.ndarray:
    ss = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(worker, purpose))
    return ss.generate_state(2, np.uint64)


class RngStream:
    """Counter-based random stream keyed by (seed, worker, purpose).

    Each draw call occupies its own 2^64-wide Philox counter block, so the
    n-th draw is a pure function of (seed, worker, purpose, n): replaying a stream,
    or reconstructing it at an arbitrary counter, reproduces every value
    bit-exactly, and no stream's consumption can shift another's.
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

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """n uniform integers in [low, high); one counter tick."""
        return self._position().integers(low, high, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._position().permutation(n)
