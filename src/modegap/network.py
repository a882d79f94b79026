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
closed-form ``SIGMOID`` or ``STEP``.  The reconstruction of an (L, N)
channel stack also says how many ``levels`` it holds, and reads level i of
a ``z`` from table i.  ``train(task, activation, seeds)`` reads everything
else from the task's row of ``TASKS``.

The network math takes a (..., batch, d) input whose leading axes
broadcast against the weights' and biases': a (batch, d) batch, or the
(seeds, batch, d) data of the (levels, seeds) stack of cells that ``train``
runs, so the Python cost of a step is paid once per step, not once per
cell.  Each cell's slice sees the same products and sums, in the same
order, as it would alone: stacked ``@`` computes slice by slice like the
2-D ``@``, and every per-cell reduction runs along a contiguous last axis.
A report is therefore bit-identical to the one that cell gives alone.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .activations import DimensionError, sigmoid
from .bogoliubov import reconstruct, uniform_channel
from .spectral import write_columns


OUTPUT_CLAMP = 1e-7


@dataclass(frozen=True)
class Task:
    """A task's fixed hyperparameters and its threshold rule.

    ``reached(loss, accuracy)`` judges the full data at an epoch end, one
    cell per element of its array arguments.  Fields only: the benchmark's
    tracer wraps class methods, and refuses two spans with one name.
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

    ``inputs`` is a (..., batch, d) array whose leading axes broadcast
    against the weights' and biases'; the output column of the last layer
    is squeezed to (..., batch).  Each layer's W must have as many columns
    as the width before it, starting from d.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim < 2:
        raise DimensionError(f"inputs must be a (..., batch, d) array, got shape {x.shape}")
    width = x.shape[-1]
    for w, _ in weights:
        if w.shape[-1] != width:
            raise DimensionError(f"width {width} does not match weight shape {w.shape}")
        width = w.shape[-2]

    pre, post = [], [x]
    for w, b in weights[:-1]:
        z = post[-1] @ np.swapaxes(w, -1, -2) + b[..., None, :]
        pre.append(z)
        post.append(activation.evaluate(z))
    w, b = weights[-1]
    z = post[-1] @ np.swapaxes(w, -1, -2) + b[..., None, :]
    pre.append(z)
    out = sigmoid(z[..., 0])
    post.append(out)
    return pre, post, out


def bce_loss(outputs, labels):
    """Cross-entropy summed over the batch (the last axis), with outputs
    clamped to [1e-7, 1-1e-7]: one loss per cell of a stack."""
    y = np.clip(outputs, OUTPUT_CLAMP, 1.0 - OUTPUT_CLAMP)
    return -np.sum(labels * np.log(y) + (1.0 - labels) * np.log(1.0 - y), axis=-1)


def loss_gradients(activation, weights, passes, labels):
    """Backprop gradients of the summed clamped cross-entropy.

    ``passes`` is ``forward(activation, weights, inputs)``.  Returns a list
    of (dW, db) matching ``weights``, per cell for a stack.  Where the output
    has saturated past the clamp the error signal is exactly zero (the
    clamped loss is flat there).
    """
    pre, post, out = passes
    labels = np.asarray(labels, dtype=float)

    clipped = (out <= OUTPUT_CLAMP) | (out >= 1.0 - OUTPUT_CLAMP)
    delta = np.where(clipped, 0.0, out - labels)[..., None]
    grads = []
    for layer in range(len(weights) - 1, -1, -1):
        grads.append((np.swapaxes(delta, -1, -2) @ post[layer], delta.sum(axis=-2)))
        if layer > 0:
            delta = (delta @ weights[layer][0]) * activation.evaluate_derivative(pre[layer - 1])
    return grads[::-1]


def hidden_gradient_norm(grads):
    """L2 norm over every layer's gradient except the output layer's, per
    cell for a stack."""
    total = 0.0
    for dw, db in grads[:-1]:
        total += np.sum(dw**2, axis=(-2, -1)) + np.sum(db**2, axis=-1)
    return np.sqrt(total)


def _stack(per_cell):
    """One array per position of the per-cell tuples, stacked along a new
    leading axis."""
    return tuple(np.stack(arrays) for arrays in zip(*per_cell))


def train(task: str, activation, seeds) -> list[TrainReport]:
    """Plain gradient descent on ``make_dataset(task, seed)`` for each seed,
    with the task's row of ``TASKS``; one report per (level, seed) cell, in
    that order, where ``activation.levels`` (1 if absent) counts the levels
    of a stacked activation.  An unknown task raises ``make_dataset``'s
    ``ValueError``.

    The cells train side by side as one (levels, seeds) stack, each on its
    own data and weights, so a report does not depend on which cells share
    the call.  Each seed has one generator: it draws the seed's initial
    weights, which every level starts from, and then each epoch's
    minibatch order, which every level shares.  Full batch when batch_size
    >= n; the evaluation pass that ends an epoch is then the next epoch's
    training pass.  The threshold rule is evaluated on the full dataset at
    each epoch end.  Each report carries its own copy of its final weights.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    x, y = _stack([make_dataset(task, seed) for seed in seeds])
    spec = TASKS[task]
    levels = getattr(activation, "levels", 1)
    cells = (levels, len(seeds))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    weights = [tuple(np.repeat(a[None], levels, axis=0) for a in _stack(layer))
               for layer in zip(*[init_weights(spec.layer_sizes, rng) for rng in rngs])]

    n = y.shape[-1]
    batch = spec.batch_size
    full_batch = batch >= n
    lr = spec.learning_rate
    seed_rows = np.arange(len(seeds))[:, None]

    reached_at = np.zeros(cells, dtype=int)              # 0: not reached yet
    early_norms = np.empty(cells + (min(100, spec.max_epochs),))
    passes = forward(activation, weights, x) if full_batch else None  # epoch 1's training pass
    for epoch in range(1, spec.max_epochs + 1):
        if not full_batch:
            order = np.stack([rng.permutation(n) for rng in rngs])
        early = epoch <= 100   # the report reads only the first 100 epochs' norms
        epoch_norms = []
        for start in range(0, n, batch):
            if full_batch:
                batch_passes, labels = passes, y
            else:
                sel = seed_rows, order[:, start:start + batch]
                batch_passes, labels = forward(activation, weights, x[sel]), y[sel]
            grads = loss_gradients(activation, weights, batch_passes, labels)
            if early:
                epoch_norms.append(hidden_gradient_norm(grads))
            for (w, b), (dw, db) in zip(weights, grads):
                w -= lr * dw
                b -= lr * db
        if early:
            early_norms[..., epoch - 1] = np.mean(np.stack(epoch_norms, axis=-1), axis=-1)

        # The gradients are taken: free the last pass before the next one is made.
        passes = batch_passes = None
        passes = forward(activation, weights, x)
        out = passes[2]
        final_loss = bce_loss(out, y)
        final_acc = np.mean((out > 0.5).astype(float) == y, axis=-1)
        reached_at[(reached_at == 0) & spec.reached(final_loss, final_acc)] = epoch

    mean_norms = np.mean(early_norms, axis=-1)
    return [TrainReport(
        final_accuracy=float(final_acc[cell]),
        final_loss=float(final_loss[cell]),
        epochs_to_threshold=None if reached_at[cell] == 0 else int(reached_at[cell]),
        mean_grad_norm_first100=float(mean_norms[cell]),
        seed=seed,
        weights=[(w[cell].copy(), b[cell].copy()) for w, b in weights],
    ) for cell, seed in zip(np.ndindex(cells), seeds * levels)]


def sweep(task: str, loss_levels, seeds, grid) -> list[TrainReport]:
    """Train one cell per (loss level, seed); levels must be ascending.

    One ``reconstruct`` of the (levels, N) uniform channel stack on ``grid``
    and one ``train`` call on the resulting activation stack train every
    cell.  Reports come back in deterministic (level, seed) order.
    """
    levels = [float(v) for v in loss_levels]
    if sorted(levels) != levels:
        raise ValueError("loss levels must be sorted ascending")
    if not levels:
        return []

    seeds = [int(seed) for seed in seeds]
    reports = train(task, reconstruct(uniform_channel(grid, levels)), seeds)
    for report, iota in zip(reports, [iota for iota in levels for _ in seeds]):
        report.iota = iota
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
