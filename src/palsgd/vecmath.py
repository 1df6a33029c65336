"""Dense float64 vector arithmetic and counter-based random streams.

Parameter vectors are plain 1-D float64 numpy arrays; the trainer stacks the
K workers' vectors of S replicas as the rows of an (S*K, d) array. Every
reduction in the trainer has a single, fixed summation order, the same on
every Python and numpy build: a sum over the worker axis (`mean_of` here, and
the drift in `algorithms.consensus_probe`) adds left to right through
``np.add.accumulate``, and a row's squared norm is one dot kernel
(`row_norms_sq`). Random draws are replayable bit-exactly.
"""

from __future__ import annotations

import functools

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


# Distinct (seed, worker, purpose) keys kept by `_stream_key`; a job of the
# theory suite draws from 40.
KEY_CACHE_SIZE = 256


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _stream_key(seed: int, worker: int, purpose: int) -> np.ndarray:
    """The read-only Philox key of the stream (seed, worker, purpose), for an int seed."""
    ss = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(worker, purpose))
    key = ss.generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


# The one Philox generator that every stream sets to its own key and counter
# before a draw, with the state dict it is set from: built on the first draw,
# so importing this module does not import numpy.random.
_shared: list = []


def _build_shared() -> list:
    bitgen = np.random.Philox(key=0)
    # The state of a Philox with empty output buffers. Reading `.state` builds
    # a new dict each time and costs more than setting it, so the dict is read
    # once and only its key and counter words change per draw; the setter
    # copies them in, leaving the dict untouched.
    state = bitgen.state
    state["state"]["counter"][:] = 0
    state["buffer_pos"] = 4
    state["has_uint32"] = 0
    state["uinteger"] = 0
    _shared[:] = bitgen, np.random.Generator(bitgen), state
    return _shared


class RngStream:
    """Counter-based random stream keyed by (seed, worker, purpose).

    Each draw call occupies its own 2^64-wide Philox counter block, so the
    n-th draw is a pure function of (seed, worker, purpose, n): replaying a
    stream, or reconstructing it at an arbitrary counter, reproduces every
    value bit-exactly, and no stream's consumption can shift another's.

    Philox output depends on its key and counter alone, so no stream owns a
    generator: each draw sets one shared generator to the stream's key and
    counter block, with its output buffers empty, and draws from it. A
    stream looks its key up on its first draw, from a bounded cache of
    read-only keys, so one that is never drawn from costs next to nothing.

    The trainer's per-step draws, its data, clock jitter and PALSGD coins,
    are all chunked by `StreamChunks`: one stream per purpose and replica,
    keyed (seed, 0, purpose) by the replica's seed, whose draw c is chunk c,
    a worker-major (K, C, n) block serving C steps of the replica's K
    workers. Philox yields its values in order, so the first k rows of a
    K-row block of uniforms or Gaussians equal the k-row block, and a
    worker's draws do not depend on how many workers run beside it.
    """

    __slots__ = ("seed", "worker", "purpose", "counter", "_key")

    def __init__(self, seed: int, worker: int, purpose: int, counter: int = 0):
        self.seed = seed
        self.worker = worker
        self.purpose = purpose
        self.counter = counter
        self._key = None  # _position() looks it up on the first draw

    def _position(self) -> np.random.Generator:
        # Set the shared generator to this stream's key at this draw's
        # counter block, output buffers flushed; bit-identical to a fresh
        # Philox(key) at counter << 64 but much cheaper than building one.
        if self._key is None:
            self._key = _stream_key(int(self.seed), self.worker, self.purpose)
        bitgen, gen, state = _shared or _build_shared()
        state["state"]["key"] = self._key
        state["state"]["counter"][1] = self.counter
        bitgen.state = state
        self.counter += 1
        return gen

    def uniform(self) -> float:
        """One draw in [0, 1)."""
        return float(self._position().random())

    def uniform_vector(self, n) -> np.ndarray:
        """iid draws in [0, 1) of shape n; one counter tick for the whole block."""
        return self._position().random(n)

    def gaussian(self, sigma: float) -> float:
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        if sigma == 0.0:
            self.counter += 1
            return 0.0
        return float(self._position().standard_normal() * sigma)

    def gaussian_vector(self, n, sigma: float) -> ParamVector:
        """iid N(0, sigma^2) values of shape n; one counter tick for the whole
        vector. Scaling in place rounds as `standard_normal(n) * sigma` does."""
        if sigma < 0:
            raise ValueError("sigma must be >= 0")
        if sigma == 0.0:
            self.counter += 1
            return np.zeros(n)
        out = self._position().standard_normal(n)
        out *= sigma
        return out

    def integers(self, low, high, n) -> np.ndarray:
        """Uniform integers in [low, high) of shape n; one counter tick.

        `low` and `high` may be arrays that broadcast to that shape, e.g. a
        (K, 1) column of per-row bounds for a (K, b) block.
        """
        return self._position().integers(low, high, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._position().permutation(n)


# Values per worker in one chunk; the chunk length is set by the row width alone.
CHUNK_VALUES = 1024


def fill_uniform(stream: RngStream, shape) -> np.ndarray:
    """A chunk of uniforms in [0, 1), as `StreamChunks` draws it."""
    return stream.uniform_vector(shape)


class StreamChunks:
    """One purpose's per-step draws for S replicas of K workers, each worker
    drawing `width` values per step, served C = max(1, CHUNK_VALUES // width)
    steps per generator call.

    Chunk c of replica s is draw c of its stream, keyed (seed_s, 0, purpose):
    one call of ``fill(stream, (K, C, width))`` at counter block c that
    returns the replica's worker-major block. The i-th draw of a run is slot
    i % C of chunk i // C, so every value is a pure function of
    (seed, purpose, i), and C depends on the width alone, never on K, S or
    the run length. Worker-major blocks keep the first k rows of a K-worker
    chunk of uniforms or Gaussians equal to the k-worker chunk.

    `refill` writes each replica's block transposed into one preallocated
    step-major (C, S, K, width) buffer, so a step reads one contiguous
    (S*K, width) block of it. A subclass that derives more from each chunk
    extends `refill` and reads its step at `advance`'s slot.
    """

    def __init__(self, seeds, purpose: int, workers: int, width: int, fill=fill_uniform,
                 dtype=np.float64):
        self.steps = max(1, CHUNK_VALUES // width)
        self.streams = [RngStream(s, 0, purpose) for s in seeds]
        self.fill = fill
        self.buf = np.empty((self.steps, len(self.streams), workers, width), dtype)
        self.rows = self.buf.reshape(self.steps, -1, width)  # (C, S*K, width), a view
        self.drawn = 0

    def advance(self) -> int:
        """The next step's slot in the chunk buffer, drawing the chunk first
        when the step opens one."""
        slot = self.drawn % self.steps
        if slot == 0:
            self.refill(self.drawn // self.steps)
        self.drawn += 1
        return slot

    def next(self) -> np.ndarray:
        """The next step's (S*K, width) draw, a contiguous view of the buffer:
        row s*K + k is worker k of replica s."""
        return self.rows[self.advance()]

    def refill(self, chunk: int) -> None:
        """Draw chunk `chunk` of every replica into the (C, S, K, width) buffer."""
        shape = (self.buf.shape[2], self.steps, self.buf.shape[3])
        for s, stream in enumerate(self.streams):
            stream.counter = chunk
            self.buf[:, s] = self.fill(stream, shape).transpose(1, 0, 2)
