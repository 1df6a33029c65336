"""The MLP's gradient and objectives against the expressions they replaced,
bit for bit.

`MlpWorkload` runs its forward pass in place on each layer's new buffer,
writes the backward's layer gradients through views of one flat array, and
takes the softmax, the derivatives and the cross-entropy's reductions in
place. This file keeps the stacked code it replaced as the reference: a
forward that keeps every pre-activation on new arrays, the per-layer
gradient list joined by ``np.concatenate``, ``np.exp(shifted - logZ)``, and
the ``max``/``np.sum``/``np.mean`` cross-entropy. Every public entry point
must give the reference's bytes, over widths of 1 to 4 weight layers, relu
and tanh, float32 and float64, and 1 to 9 rows of 1 to 9 samples each.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palsgd.workloads import MlpWorkload, generate_synthetic_classification

SEEDS = st.integers(0, 2 ** 32 - 1)
WIDTHS = st.lists(st.integers(1, 7), min_size=1, max_size=4).flatmap(
    lambda hidden: st.integers(2, 5).map(lambda classes: hidden + [classes]))
ACTIVATIONS = {"relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0).astype(z.dtype)),
               "tanh": (np.tanh, lambda z, a: 1.0 - a * a)}


def reference_unflatten(w, x):
    """Per layer, the (n, a, c) weight and (n, 1, c) bias of the rows x (n, dim)."""
    layers, off = [], 0
    for a, c in zip(w.widths[:-1], w.widths[1:]):
        weights = x[:, off:off + a * c].reshape(-1, a, c)
        off += a * c
        bias = x[:, None, off:off + c]
        off += c
        layers.append((weights.astype(w.dtype, copy=False), bias.astype(w.dtype, copy=False)))
    return layers


def reference_forward(w, layers, feats):
    """Pre-activations and activations, each on a new array."""
    act = ACTIVATIONS[w.activation][0]
    acts, pre = [feats.astype(w.dtype, copy=False)], []
    for i, (weights, bias) in enumerate(layers):
        z = acts[-1] @ weights + bias
        pre.append(z)
        acts.append(act(z) if i < len(layers) - 1 else z)
    return pre, acts


def reference_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted, np.log(np.sum(np.exp(shifted), axis=-1))


def reference_cross_entropy(logits, labels):
    shifted, logZ = reference_log_softmax(logits)
    return float(np.mean(logZ - shifted[np.arange(len(labels)), labels]))


def reference_gradient(w, x, samples):
    """The stacked backward with a per-layer gradient list and a concatenate."""
    n, b = samples.shape
    act_grad = ACTIVATIONS[w.activation][1]
    layers = reference_unflatten(w, x)
    pre, acts = reference_forward(w, layers, w.train.features[samples])
    shifted, logZ = reference_log_softmax(acts[-1])
    delta = np.exp(shifted - logZ[..., None])
    delta[np.arange(n)[:, None], np.arange(b), w.train.labels[samples]] -= 1.0
    delta /= b
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        weights, _ = layers[i]
        grads[i] = ((acts[i].transpose(0, 2, 1) @ delta).reshape(n, -1), delta.sum(axis=1))
        if i > 0:
            delta = (delta @ weights.transpose(0, 2, 1)) * act_grad(pre[i - 1], acts[i])
    flat = np.concatenate([part for pair in grads for part in pair], axis=1)
    return flat.astype(np.float64, copy=False)


def reference_logits(w, x, feats):
    return reference_forward(w, reference_unflatten(w, x[None]), feats[None])[1][-1][0]


def float_bits(value) -> bytes:
    return np.float64(value).tobytes()


def make_case(seed, widths, activation, dtype, rows, batch):
    """A workload with train and test sets, `rows` parameter rows at a scale
    from 0 (every relu unit at its kink) to 1e2, and their index batches."""
    rng = np.random.default_rng(seed)
    train = generate_synthetic_classification(widths[-1], widths[0], int(rng.integers(1, 12)), seed)
    test = generate_synthetic_classification(widths[-1], widths[0], 4, seed, split=1)
    w = MlpWorkload(widths, activation, train, test=test, batch_size=batch, dtype=dtype)
    scale = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3, 2)
    x = rng.normal(size=(rows, w.dim)) * scale
    return w, x, rng.integers(0, len(train), size=(rows, batch))


CASES = (SEEDS, WIDTHS, st.sampled_from(sorted(ACTIVATIONS)), st.sampled_from(["float64", "float32"]),
         st.integers(1, 9), st.integers(1, 9))


class TestMlpBuffers:
    @given(*CASES)
    @settings(max_examples=200, deadline=None)
    @example(5, [16, 32, 10], "tanh", "float64", 8, 8)  # the bench workload's shapes
    @example(1, [3, 1, 1, 2], "relu", "float32", 1, 1)  # width-1 layers, one row, one sample
    def test_gradient_equals_the_reference(self, seed, widths, activation, dtype, rows, batch):
        w, x, samples = make_case(seed, widths, activation, dtype, rows, batch)
        got = w.stochastic_gradient(x, samples)  # before the reference, whose freed arrays np.empty could reuse
        want = reference_gradient(w, x, samples)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(*CASES)
    @settings(max_examples=100, deadline=None)
    @example(5, [16, 32, 10], "tanh", "float64", 1, 8)
    def test_objectives_equal_the_reference(self, seed, widths, activation, dtype, rows, batch):
        w, x, samples = make_case(seed, widths, activation, dtype, rows, batch)
        features, labels = w.train.features, w.train.labels
        before = features.copy()
        for row, sample in zip(x, samples):
            assert float_bits(w.batch_objective(row, sample)) == float_bits(
                reference_cross_entropy(reference_logits(w, row, features[sample]), labels[sample]))
            assert float_bits(w.full_objective(row)) == float_bits(
                reference_cross_entropy(reference_logits(w, row, features), labels))
            logits = reference_logits(w, row, w.test.features)
            got = w.evaluate(row)
            assert float_bits(got["eval_loss"]) == float_bits(
                reference_cross_entropy(logits, w.test.labels))
            assert got["eval_acc"] == float(np.mean(np.argmax(logits, axis=1) == w.test.labels))
        assert features.tobytes() == before.tobytes()  # no forward writes the dataset
