"""Minimal feedforward network, synthetic tasks, and the trainability sweep.

The output layer always uses the pristine sigmoid with clamped cross-entropy,
isolating hidden-layer learnability: with a fully degraded hidden activation
the hidden weights freeze (zero derivative table) while the output layer can
still fit whatever the frozen features allow.

The training cost is the summed binary cross-entropy over the batch, so the
batch gradient is the plain sum of per-example gradients.  Gradient-norm
statistics cover the hidden layers only; the output layer keeps learning at
full loss and would mask the freeze.

A hidden activation is any object with ``evaluate(z)`` and
``evaluate_derivative(z)``: a ``reconstruct(...)`` result, or the
closed-form ``SIGMOID`` or ``STEP``.  ``train(task, activation, seed)``
reads everything else from the task's row of ``TASKS``.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .activations import DimensionError, sigmoid
from .bogoliubov import reconstruct, uniform_channel
from .spectral import read_columns, write_columns


OUTPUT_CLAMP = 1e-7


@dataclass(frozen=True)
class Task:
    """A task's fixed hyperparameters and its threshold rule.

    ``reached(loss, accuracy)`` judges the full data at an epoch end.  Fields
    only: the benchmark's tracer wraps class methods, and refuses two spans
    with one name.
    """

    layer_sizes: tuple
    learning_rate: float
    max_epochs: int
    batch_size: int
    reached: Callable


# Reliable convergence at zero loss, desk scale.
TASKS = {
    "xor": Task((2, 4, 1), 0.5, 2000, 4, lambda loss, acc: loss < 0.05),
    "moons": Task((2, 8, 8, 1), 0.1, 500, 32, lambda loss, acc: acc >= 0.9),
}


@dataclass
class TrainReport:
    final_accuracy: float
    final_loss: float
    epochs_to_threshold: int | None
    mean_grad_norm_first100: float
    seed: int
    iota: float = field(default=float("nan"))
    weights: list = field(default=None, compare=False, repr=False)


def make_dataset(name: str, seed: int = 0):
    """(inputs, labels) of the XOR truth table, or of two noisy interleaved
    half-circles (200 points); inputs are (n, 2), labels (n,)."""
    if name == "xor":
        inputs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        return inputs, labels
    if name == "moons":
        rng = np.random.default_rng(seed)
        t0 = rng.uniform(0.0, np.pi, 100)
        t1 = rng.uniform(0.0, np.pi, 100)
        inputs = np.vstack([
            np.column_stack([np.cos(t0), np.sin(t0)]),
            np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)]),
        ])
        inputs = inputs + rng.normal(0.0, 0.1, inputs.shape)
        labels = np.concatenate([np.zeros(100), np.ones(100)])
        return inputs, labels
    raise ValueError(f"unknown dataset: {name!r}")


def init_weights(layer_sizes, rng):
    """Per-layer (W, b): W uniform on [-0.5, 0.5] drawn row-major from ``rng``,
    biases zero."""
    return [(rng.uniform(-0.5, 0.5, (n_out, n_in)), np.zeros(n_out))
            for n_in, n_out in zip(layer_sizes, layer_sizes[1:])]


def forward(activation, weights, inputs):
    """All layer pre-activations and activations, plus the sigmoid output.

    ``inputs`` is a (batch, d) array; the output column of the last layer is
    squeezed to (batch,).  Each layer's W must have as many columns as the
    width before it, starting from d.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"inputs must be a (batch, d) array, got shape {x.shape}")
    width = x.shape[1]
    for w, _ in weights:
        if w.shape[1] != width:
            raise DimensionError(f"width {width} does not match weight shape {w.shape}")
        width = w.shape[0]

    pre, post = [], [x]
    for w, b in weights[:-1]:
        z = post[-1] @ w.T + b
        pre.append(z)
        post.append(activation.evaluate(z))
    w, b = weights[-1]
    z = post[-1] @ w.T + b
    pre.append(z)
    out = sigmoid(z[:, 0])
    post.append(out)
    return pre, post, out


def bce_loss(outputs, labels) -> float:
    """Summed cross-entropy with outputs clamped to [1e-7, 1-1e-7]."""
    y = np.clip(outputs, OUTPUT_CLAMP, 1.0 - OUTPUT_CLAMP)
    return float(-np.sum(labels * np.log(y) + (1.0 - labels) * np.log(1.0 - y)))


def loss_gradients(activation, weights, inputs, labels):
    """Backprop gradients of the summed clamped cross-entropy.

    Returns a list of (dW, db) matching ``weights``.  Where the output has
    saturated past the clamp the error signal is exactly zero (the clamped
    loss is flat there).
    """
    pre, post, out = forward(activation, weights, inputs)
    labels = np.asarray(labels, dtype=float)

    clipped = (out <= OUTPUT_CLAMP) | (out >= 1.0 - OUTPUT_CLAMP)
    delta = np.where(clipped, 0.0, out - labels)[:, None]
    grads = []
    for layer in range(len(weights) - 1, -1, -1):
        grads.append((delta.T @ post[layer], delta.sum(axis=0)))
        if layer > 0:
            delta = (delta @ weights[layer][0]) * activation.evaluate_derivative(pre[layer - 1])
    return grads[::-1]


def hidden_gradient_norm(grads) -> float:
    """L2 norm over every layer's gradient except the output layer's."""
    total = 0.0
    for dw, db in grads[:-1]:
        total += float(np.sum(dw**2) + np.sum(db**2))
    return float(np.sqrt(total))


def train(task: str, activation, seed: int) -> TrainReport:
    """Plain gradient descent on ``make_dataset(task, seed)`` with the task's
    row of ``TASKS``; deterministic given the seed.  An unknown task raises
    ``make_dataset``'s ``ValueError``.

    Full batch when batch_size >= n, otherwise minibatches reshuffled each
    epoch from the same generator that initialized the weights.  The
    threshold rule is evaluated on the full dataset at each epoch end.  The
    report carries the final weights.
    """
    x, y = make_dataset(task, seed)
    spec = TASKS[task]
    rng = np.random.default_rng(seed)
    weights = init_weights(spec.layer_sizes, rng)

    n = len(x)
    batch = spec.batch_size
    full_batch = batch >= n
    lr = spec.learning_rate

    epochs_to_threshold = None
    grad_norms = []
    final_loss = final_acc = 0.0
    for epoch in range(1, spec.max_epochs + 1):
        order = np.arange(n) if full_batch else rng.permutation(n)
        epoch_norms = []
        for start in range(0, n, batch):
            sel = order[start:start + batch]
            grads = loss_gradients(activation, weights, x[sel], y[sel])
            epoch_norms.append(hidden_gradient_norm(grads))
            for (w, b), (dw, db) in zip(weights, grads):
                w -= lr * dw
                b -= lr * db
        if epoch <= 100:
            grad_norms.append(float(np.mean(epoch_norms)))

        _, _, out = forward(activation, weights, x)
        final_loss = bce_loss(out, y)
        final_acc = float(np.mean((out > 0.5).astype(float) == y))
        if epochs_to_threshold is None and spec.reached(final_loss, final_acc):
            epochs_to_threshold = epoch

    return TrainReport(
        final_accuracy=final_acc,
        final_loss=final_loss,
        epochs_to_threshold=epochs_to_threshold,
        mean_grad_norm_first100=float(np.mean(grad_norms)),
        seed=seed,
        weights=weights,
    )


def sweep(task: str, loss_levels, seeds, grid) -> list[TrainReport]:
    """Train one cell per (loss level, seed); levels must be ascending.

    One degraded activation is reconstructed on ``grid`` per level and shared
    across seeds.  Reports come back in deterministic (level, seed) order.
    """
    levels = [float(v) for v in loss_levels]
    if sorted(levels) != levels:
        raise ValueError("loss levels must be sorted ascending")

    reports = []
    for iota in levels:
        activation = reconstruct(uniform_channel(grid, iota))
        for seed in seeds:
            report = train(task, activation, int(seed))
            report.iota = iota
            reports.append(report)
    return reports


def median_epochs(reports) -> float:
    """Median epochs_to_threshold with never encoded as +inf."""
    vals = [float("inf") if r.epochs_to_threshold is None else float(r.epochs_to_threshold)
            for r in reports]
    return float(np.median(vals))


REPORT_HEADER = ["iota", "seed", "final_accuracy", "final_loss",
                 "epochs_to_threshold", "mean_grad_norm_first100"]


def write_report_csv(path, reports):
    """One row per report; a run that never reached the threshold has epochs -1."""
    write_columns(path, REPORT_HEADER, [
        [float(r.iota) for r in reports], [r.seed for r in reports],
        [float(r.final_accuracy) for r in reports], [float(r.final_loss) for r in reports],
        [-1 if r.epochs_to_threshold is None else r.epochs_to_threshold for r in reports],
        [float(r.mean_grad_norm_first100) for r in reports],
    ])


def read_report_csv(path) -> list[TrainReport]:
    rows = read_columns(path, REPORT_HEADER).T.tolist()
    return [TrainReport(final_accuracy=acc, final_loss=loss,
                        epochs_to_threshold=None if epochs == -1 else int(epochs),
                        mean_grad_norm_first100=grad, seed=int(seed), iota=iota)
            for iota, seed, acc, loss, epochs, grad in rows]
