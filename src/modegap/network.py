"""Minimal feedforward network, synthetic tasks, and the trainability sweep.

The output layer always uses the pristine sigmoid with clamped cross-entropy,
isolating hidden-layer learnability: with a fully degraded hidden activation
the hidden weights freeze (zero derivative table) while the output layer can
still fit whatever the frozen features allow.

The training cost is the summed binary cross-entropy over the batch, so the
batch gradient is the plain sum of per-example gradients.  Gradient-norm
statistics cover the hidden layers only; the output layer keeps learning at
full loss and would mask the freeze.

A hidden activation is any object with ``evaluate(z)``, the values alone,
and the fused ``evaluate_with_derivative(z)``, values and f'(z) from one
read; a stack adds ``levels``, its number of tables (1 if absent), and
``level(i)``, table i alone (the activation itself if absent).  It is a
``reconstruct(...)`` result, whose iota = 1 table is the step limit, or the
closed-form ``SIGMOID``.  The reconstruction of an (L, N) channel stack reads
row i of a ``z`` from table i.  A pass that feeds a backward step reads each
hidden pre-activation once, with the fused read, and keeps f'(z) for
``loss_gradients``; a pass that only judges the network reads values alone.
``train(task, activation, seeds)`` reads everything else from the task's row
of ``TASKS``.  A full-batch task judges every cell on its stack; a minibatch
task judges the open cells, those that have not reached the threshold yet,
and every cell at the last epoch, whose pass gives the final loss and
accuracy: one pass per level with such a cell, through ``level(i)``.

The network math takes a (..., batch, d) input whose leading axes
broadcast against the weights' and biases': a (batch, d) batch, or the
(seeds, batch, d) data of the (levels, seeds) stack of cells that one share
of ``train`` runs, so the Python cost of a step is paid once per step and
share, not once per cell.  Each cell's slice sees the same products and
sums, in the same order, as it would alone: stacked ``@`` computes slice by
slice like the 2-D ``@``, and every per-cell reduction runs along a
contiguous last axis.  Each cell of a report is therefore bit for bit that
cell trained alone, whatever share it trained in and however many cores
trained the shares.
"""

import io
import pickle
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .activations import DimensionError, sigmoid
from .bogoliubov import reconstruct, uniform_channel
from .spectral import write_columns
from .workers import run, split


OUTPUT_CLAMP = 1e-7


@dataclass(frozen=True)
class Task:
    """A task's fixed hyperparameters and its threshold rule.

    ``reached(loss, accuracy)`` judges the full data at an epoch end, one
    cell per element of its array arguments: every cell of a full-batch
    task, and of a minibatch task the open cells (not reached yet), or every
    cell at the last epoch.  Fields only: the benchmark's tracer wraps class
    methods, and refuses two spans with one name.
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


@dataclass(eq=False)
class TrainReport:
    """The trained (levels, seeds) stack of cells: cell (i, j) is level i
    trained from ``seeds[j]`` (a tuple of ints).  ``final_accuracy``,
    ``final_loss``, ``epochs_to_threshold`` (-1 for never, as the CSV
    writes it) and ``mean_grad_norm_first100`` are (levels, seeds) arrays;
    ``weights`` is the list of trained (W, b) with those two leading axes;
    ``iota`` holds each level's loss, nan until ``sweep`` sets it."""

    seeds: tuple
    final_accuracy: np.ndarray
    final_loss: np.ndarray
    epochs_to_threshold: np.ndarray
    mean_grad_norm_first100: np.ndarray
    weights: list = field(repr=False)
    iota: np.ndarray


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


def forward(activation, weights, inputs, derivatives=False):
    """``(slopes, post, out)``: ``post`` holds each layer's input, ``out``
    the sigmoid output; ``slopes`` holds each hidden layer's f'(z),
    which ``loss_gradients`` reads, when ``derivatives`` is true, else it is
    None.  A hidden layer is read once, by the fused read or by ``evaluate``.

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

    slopes, post = [] if derivatives else None, [x]
    for w, b in weights[:-1]:
        z = post[-1] @ w.swapaxes(-1, -2) + b[..., None, :]
        if derivatives:
            f, f_prime = activation.evaluate_with_derivative(z)
            slopes.append(f_prime)
        else:
            f = activation.evaluate(z)
        post.append(f)
    w, b = weights[-1]
    out = sigmoid((post[-1] @ w.swapaxes(-1, -2) + b[..., None, :])[..., 0])
    return slopes, post, out


def bce_loss(outputs, labels):
    """Cross-entropy summed over the batch (the last axis), with outputs
    clamped to [1e-7, 1-1e-7]: one loss per cell of a stack."""
    y = np.minimum(np.maximum(outputs, OUTPUT_CLAMP), 1.0 - OUTPUT_CLAMP)
    return -np.add.reduce(labels * np.log(y) + (1.0 - labels) * np.log(1.0 - y), axis=-1)


def loss_gradients(weights, passes, labels):
    """Backprop gradients of the summed clamped cross-entropy.

    ``passes`` is ``forward(activation, weights, inputs, derivatives=True)``.
    Returns a list of (dW, db) matching ``weights``, per cell for a stack.
    Where the output has saturated past the clamp the error signal is
    exactly zero (the clamped loss is flat there).
    """
    slopes, post, out = passes
    if slopes is None:
        raise ValueError("loss_gradients needs a pass made with derivatives=True")
    labels = np.asarray(labels, dtype=float)

    clipped = (out <= OUTPUT_CLAMP) | (out >= 1.0 - OUTPUT_CLAMP)
    delta = np.where(clipped, 0.0, out - labels)[..., None]
    grads = []
    for layer in range(len(weights) - 1, -1, -1):
        grads.append((delta.swapaxes(-1, -2) @ post[layer], np.add.reduce(delta, axis=-2)))
        if layer > 0:
            delta = (delta @ weights[layer][0]) * slopes[layer - 1]
    return grads[::-1]


def hidden_gradient_norm(grads):
    """L2 norm over every layer's gradient except the output layer's, per
    cell for a stack."""
    total = 0.0
    for dw, db in grads[:-1]:
        total += np.sum(dw**2, axis=(-2, -1)) + np.sum(db**2, axis=-1)
    return np.sqrt(total)


def _judge(out, labels):
    """Each cell's loss and accuracy over the full data, from its outputs."""
    hits = np.add.reduce((out > 0.5) == labels, axis=-1, dtype=float)
    return bce_loss(out, labels), hits / labels.shape[-1]


def _stack(per_cell):
    """One array per position of the per-cell tuples, stacked along a new
    leading axis."""
    return tuple(np.stack(arrays) for arrays in zip(*per_cell))


# Hidden values a training step computes per share, at least.  Below about
# this many, the step's fixed cost outweighs the part of it that scales with
# the cells, which is all a second core can take: a moons step costs about
# 110 us plus 0.031 us per hidden value, an xor step about 62 us plus 0.064 us,
# and the default xor sweep computes 800 per step (2-core box).
_SHARE_VALUES = 4096


def train(task: str, activation, seeds) -> TrainReport:
    """Plain gradient descent on ``make_dataset(task, seed)`` for each seed,
    with the task's row of ``TASKS``, on a hidden activation as the module
    docstring states it; one report of the (levels, seeds) stack of cells.
    An unknown task or an empty seed list raises ``ValueError``.

    The seeds are trained on every core this process may use
    (``workers.split`` and ``workers.run``), unless the stack is too small
    for a share to pay for itself: at most one share per ``_SHARE_VALUES``
    hidden values that a step of the (levels, seeds) stack computes.  Each
    share's report is pickled into one stream, and the caller joins the
    reports along the seed axis, copying every array.  A failed worker makes
    it raise ``WorkerError`` naming the share's seeds.  A cell's results do
    not depend on which cells share its stack, so the report is bit for bit
    the one-process report.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("train needs at least one seed")
    if task not in TASKS:
        raise ValueError(f"unknown task: {task!r}")
    spec = TASKS[task]
    levels = getattr(activation, "levels", 1)
    per_seed = levels * spec.batch_size * sum(spec.layer_sizes[1:-1])
    shares = split(seeds, per_seed, _SHARE_VALUES)

    def work(share, part):
        pickle.dump(_train(task, activation, share), part, pickle.HIGHEST_PROTOCOL)

    def name(share):
        return f"training seeds {','.join(map(str, share))}"

    with io.BytesIO() as out:
        run(shares, work, out, name)
        out.seek(0)
        reports = [pickle.load(out) for _ in shares]
    joined = {name: np.concatenate([getattr(r, name) for r in reports], axis=1)
              for name in ("final_accuracy", "final_loss", "epochs_to_threshold",
                           "mean_grad_norm_first100")}
    weights = [tuple(np.concatenate(arrays, axis=1) for arrays in zip(*layer))
               for layer in zip(*(r.weights for r in reports))]
    return TrainReport(seeds, weights=weights, iota=reports[0].iota, **joined)


def _train(task, activation, seeds) -> TrainReport:
    """``train`` of one share of the seeds, in this process.

    The cells train side by side as one (levels, seeds) stack, each on its
    own data and weights, so a cell's results do not depend on which cells
    share the call.  Each seed has one generator: it draws the seed's
    initial weights, which every level starts from, and then each epoch's
    minibatch order, which every level shares.  Full batch when batch_size
    >= n; the evaluation pass that ends an epoch is then the next epoch's
    training pass.  Which cells that pass judges is the module docstring's
    rule; a report is the same either way.  The threshold rule is evaluated
    on the full dataset.
    """
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

    reached_at = np.full(cells, -1)                      # -1: not reached (yet)
    level = getattr(activation, "level", lambda i: activation)
    early_norms = np.empty(cells + (min(100, spec.max_epochs),))
    # Epoch 1's training pass.
    passes = forward(activation, weights, x, derivatives=True) if full_batch else None
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
                batch_passes = forward(activation, weights, x[sel], derivatives=True)
                labels = y[sel]
            grads = loss_gradients(weights, batch_passes, labels)
            if early:
                epoch_norms.append(hidden_gradient_norm(grads))
            for (w, b), (dw, db) in zip(weights, grads):
                w -= lr * dw
                b -= lr * db
        if early:
            early_norms[..., epoch - 1] = np.mean(np.stack(epoch_norms, axis=-1), axis=-1)

        # The gradients are taken: free the last pass before the next one is made.
        passes = batch_passes = None
        if full_batch:
            # Every cell is judged, on the stack: this pass trains the next epoch.
            passes = forward(activation, weights, x, derivatives=True)
            loss, acc = _judge(passes[2], y)
            reached_at[(reached_at < 0) & spec.reached(loss, acc)] = epoch
        else:
            # Minibatches: a report reads the epoch a cell first reaches the
            # threshold and the last epoch's loss and accuracy, so the open
            # cells are judged, and every cell at the last epoch: each level's
            # through its own table, joined in (level, seed) order.
            judged = (reached_at < 0) | (epoch == spec.max_epochs)
            outs = [forward(level(i), [(w[i, s], b[i, s]) for w, b in weights], x[s])[2]
                    for i, s in enumerate(map(np.flatnonzero, judged)) if s.size]
            if outs:
                level_of, seed_of = np.nonzero(judged)
                loss, acc = _judge(np.concatenate(outs), y[seed_of])
                hit = spec.reached(loss, acc) & (reached_at[level_of, seed_of] < 0)
                reached_at[level_of[hit], seed_of[hit]] = epoch

    return TrainReport(seeds, acc.reshape(cells), loss.reshape(cells), reached_at,
                       np.mean(early_norms, axis=-1), weights, np.full(levels, np.nan))


def sweep(task: str, loss_levels, seeds, grid) -> TrainReport:
    """Train one cell per (loss level, seed); levels must be non-empty and
    strictly ascending, so no cell is trained twice, and the report's
    ``iota`` holds them.

    One ``reconstruct`` of the (levels, N) uniform channel stack on ``grid``
    and one ``train`` call on the resulting activation stack train every
    cell, so row i of the report is level i.
    """
    levels = [float(v) for v in loss_levels]
    if not levels or levels != sorted(set(levels)):
        raise ValueError(f"loss levels must be non-empty and strictly ascending, got {levels}")

    report = train(task, reconstruct(uniform_channel(grid, levels)), [int(s) for s in seeds])
    report.iota = np.array(levels)
    return report


def median_epochs(epochs) -> float:
    """Median of ``epochs_to_threshold`` values with never (-1) read as +inf."""
    return float(np.median(np.where(np.asarray(epochs) < 0, np.inf, epochs)))


REPORT_HEADER = ["iota", "seed", "final_accuracy", "final_loss",
                 "epochs_to_threshold", "mean_grad_norm_first100"]


def write_report_csv(path, report):
    """One row per cell, in (level, seed) order; a cell that never reached
    the threshold has epochs -1.  The seed column is uint64, so that every
    seed in [0, 2**64) is written as an integer."""
    levels, n_seeds = report.final_loss.shape
    write_columns(path, REPORT_HEADER, [
        np.repeat(report.iota, n_seeds), np.tile(np.array(report.seeds, np.uint64), levels),
        report.final_accuracy.ravel(), report.final_loss.ravel(),
        report.epochs_to_threshold.ravel(), report.mean_grad_norm_first100.ravel(),
    ])
