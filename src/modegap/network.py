"""Minimal feedforward network, synthetic tasks, and the trainability sweep.

The output layer always uses the pristine sigmoid with clamped cross-entropy,
isolating hidden-layer learnability: with a fully degraded hidden activation
the hidden weights freeze (zero derivative table) while the output layer can
still fit whatever the frozen features allow.

The training cost is the summed binary cross-entropy over the batch, so the
batch gradient is the plain sum of per-example gradients.  Gradient-norm
statistics cover the hidden layers only; the output layer keeps learning at
full loss and would mask the freeze.

A hidden activation is any object with ``evaluate(z)``,
``evaluate_derivative(z)`` and ``loss_fraction``: a ``reconstruct(...)``
result, or the closed-form ``SIGMOID`` or ``STEP``.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .activations import DimensionError, sigmoid
from .bogoliubov import reconstruct, uniform_channel
from .spectral import Grid


OUTPUT_CLAMP = 1e-7

# Fixed task hyperparameters: reliable convergence at zero loss, desk scale.
XOR_HIDDEN = (2, 4, 1)
XOR_LR = 0.5
XOR_EPOCHS = 2000
XOR_LOSS_THRESHOLD = 0.05
MOONS_HIDDEN = (2, 8, 8, 1)
MOONS_LR = 0.1
MOONS_EPOCHS = 500
MOONS_BATCH = 32
MOONS_ACC_THRESHOLD = 0.9


@dataclass
class MlpConfig:
    layer_sizes: tuple
    hidden_activation: object
    learning_rate: float
    max_epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ValueError("need at least one hidden layer")
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if self.learning_rate <= 0 or self.max_epochs <= 0 or self.batch_size <= 0:
            raise ValueError("learning_rate, max_epochs and batch_size must be positive")


@dataclass
class Dataset:
    name: str
    inputs: np.ndarray
    labels: np.ndarray


@dataclass
class TrainReport:
    final_accuracy: float
    final_loss: float
    epochs_to_threshold: int | None
    mean_grad_norm_first100: float
    loss_fraction: float
    seed: int
    iota: float = field(default=float("nan"))
    weights: list = field(default=None, compare=False, repr=False)


def make_dataset(name: str, seed: int = 0) -> Dataset:
    """XOR truth table, or two noisy interleaved half-circles (200 points)."""
    name = name.lower()
    if name == "xor":
        inputs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        return Dataset("xor", inputs, labels)
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
        return Dataset("moons", inputs, labels)
    raise ValueError(f"unknown dataset: {name!r}")


def init_weights(config: MlpConfig, rng=None):
    """Per-layer (W, b): W uniform on [-0.5, 0.5] row-major, biases zero.

    Drawn from ``rng``, by default ``default_rng(config.seed)`` as in ``train``.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    sizes = config.layer_sizes
    weights = []
    for i in range(len(sizes) - 1):
        w = rng.uniform(-0.5, 0.5, (sizes[i + 1], sizes[i]))
        weights.append((w, np.zeros(sizes[i + 1])))
    return weights


def forward(config: MlpConfig, weights, inputs):
    """All layer pre-activations and activations, plus the sigmoid output.

    ``inputs`` is (batch, d) or a single (d,) vector; the output column of the
    last layer is squeezed to (batch,).
    """
    x = np.asarray(inputs, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != config.layer_sizes[0]:
        raise DimensionError(
            f"input dim {x.shape[1]} does not match layer size {config.layer_sizes[0]}"
        )
    for (w, _), n_in in zip(weights, config.layer_sizes):
        if w.shape[1] != n_in:
            raise DimensionError("weight shapes inconsistent with layer sizes")

    act = config.hidden_activation
    pre, post = [], [x]
    for w, b in weights[:-1]:
        z = post[-1] @ w.T + b
        pre.append(z)
        post.append(act.evaluate(z))
    w, b = weights[-1]
    z = post[-1] @ w.T + b
    pre.append(z)
    out = sigmoid(z[:, 0])
    post.append(out)
    if single:
        out = float(out[0])
    return pre, post, out


def bce_loss(outputs, labels) -> float:
    """Summed cross-entropy with outputs clamped to [1e-7, 1-1e-7]."""
    y = np.clip(outputs, OUTPUT_CLAMP, 1.0 - OUTPUT_CLAMP)
    return float(-np.sum(labels * np.log(y) + (1.0 - labels) * np.log(1.0 - y)))


def loss_gradients(config: MlpConfig, weights, inputs, labels):
    """Backprop gradients of the summed clamped cross-entropy.

    Returns a list of (dW, db) matching ``weights``.  Where the output has
    saturated past the clamp the error signal is exactly zero (the clamped
    loss is flat there).
    """
    pre, post, out = forward(config, weights, np.atleast_2d(inputs))
    labels = np.asarray(labels, dtype=float)
    act = config.hidden_activation

    clipped = (out <= OUTPUT_CLAMP) | (out >= 1.0 - OUTPUT_CLAMP)
    delta = np.where(clipped, 0.0, out - labels)[:, None]
    grads = []
    for layer in range(len(weights) - 1, -1, -1):
        grads.append((delta.T @ post[layer], delta.sum(axis=0)))
        if layer > 0:
            delta = (delta @ weights[layer][0]) * act.evaluate_derivative(pre[layer - 1])
    return grads[::-1]


def hidden_gradient_norm(grads) -> float:
    """L2 norm over every layer's gradient except the output layer's."""
    total = 0.0
    for dw, db in grads[:-1]:
        total += float(np.sum(dw**2) + np.sum(db**2))
    return float(np.sqrt(total))


def accuracy(outputs, labels) -> float:
    return float(np.mean((np.asarray(outputs) > 0.5).astype(float) == labels))


def train(config: MlpConfig, dataset: Dataset) -> TrainReport:
    """Plain gradient descent to max_epochs; deterministic given the seed.

    Full batch when batch_size >= n, otherwise minibatches reshuffled each
    epoch from the same generator that initialized the weights.  The
    threshold metric is evaluated on the full dataset at each epoch end:
    loss < 0.05 for XOR, accuracy >= 0.9 for moons.  The report carries the
    final weights.
    """
    rng = np.random.default_rng(config.seed)
    weights = init_weights(config, rng)

    x, y = dataset.inputs, dataset.labels
    n = len(x)
    full_batch = config.batch_size >= n
    lr = config.learning_rate
    use_loss_threshold = dataset.name == "xor"

    epochs_to_threshold = None
    grad_norms = []
    final_loss = final_acc = 0.0
    for epoch in range(1, config.max_epochs + 1):
        order = np.arange(n) if full_batch else rng.permutation(n)
        epoch_norms = []
        for start in range(0, n, config.batch_size):
            sel = order[start:start + config.batch_size]
            grads = loss_gradients(config, weights, x[sel], y[sel])
            epoch_norms.append(hidden_gradient_norm(grads))
            for (w, b), (dw, db) in zip(weights, grads):
                w -= lr * dw
                b -= lr * db
        if epoch <= 100:
            grad_norms.append(float(np.mean(epoch_norms)))

        _, _, out = forward(config, weights, x)
        final_loss = bce_loss(out, y)
        final_acc = accuracy(out, y)
        if epochs_to_threshold is None:
            hit = (final_loss < XOR_LOSS_THRESHOLD) if use_loss_threshold \
                else (final_acc >= MOONS_ACC_THRESHOLD)
            if hit:
                epochs_to_threshold = epoch

    return TrainReport(
        final_accuracy=final_acc,
        final_loss=final_loss,
        epochs_to_threshold=epochs_to_threshold,
        mean_grad_norm_first100=float(np.mean(grad_norms)),
        loss_fraction=float(config.hidden_activation.loss_fraction),
        seed=config.seed,
        weights=weights,
    )


def task_config(task: str, activation, seed: int) -> MlpConfig:
    """The fixed per-task hyperparameters with the given hidden activation."""
    task = task.lower()
    if task == "xor":
        return MlpConfig(XOR_HIDDEN, activation, XOR_LR, XOR_EPOCHS,
                         batch_size=4, seed=seed)
    if task == "moons":
        return MlpConfig(MOONS_HIDDEN, activation, MOONS_LR, MOONS_EPOCHS,
                         batch_size=MOONS_BATCH, seed=seed)
    raise ValueError(f"unknown task: {task!r}")


def sweep(task: str, loss_levels, seeds, grid=None) -> list[TrainReport]:
    """Train one cell per (loss level, seed); levels must be ascending.

    One degraded activation is reconstructed per level and shared across
    seeds.  Reports come back in deterministic (level, seed) order.
    """
    levels = [float(v) for v in loss_levels]
    if sorted(levels) != levels:
        raise ValueError("loss levels must be sorted ascending")
    if grid is None:
        grid = Grid(40.0, 4096)

    reports = []
    for iota in levels:
        activation = reconstruct(uniform_channel(grid, iota))
        for seed in seeds:
            dataset = make_dataset(task, seed)
            report = train(task_config(task, activation, int(seed)), dataset)
            report.iota = iota
            reports.append(report)
    return reports


def median_epochs(reports) -> float:
    """Median epochs_to_threshold with never encoded as +inf."""
    vals = [float("inf") if r.epochs_to_threshold is None else float(r.epochs_to_threshold)
            for r in reports]
    return float(np.median(vals))


def write_report_csv(path, reports):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iota", "seed", "final_accuracy", "final_loss",
                    "epochs_to_threshold", "mean_grad_norm_first100"])
        for r in reports:
            w.writerow([
                repr(float(r.iota)), r.seed, repr(float(r.final_accuracy)),
                repr(float(r.final_loss)),
                -1 if r.epochs_to_threshold is None else r.epochs_to_threshold,
                repr(float(r.mean_grad_norm_first100)),
            ])


def read_report_csv(path) -> list[TrainReport]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["iota", "seed", "final_accuracy", "final_loss",
              "epochs_to_threshold", "mean_grad_norm_first100"]
    if rows[0] != header:
        raise ValueError(f"unexpected report CSV header: {rows[0]}")
    out = []
    for r in rows[1:]:
        epochs = int(r[4])
        out.append(TrainReport(
            final_accuracy=float(r[2]), final_loss=float(r[3]),
            epochs_to_threshold=None if epochs == -1 else epochs,
            mean_grad_norm_first100=float(r[5]),
            loss_fraction=float("nan"), seed=int(r[1]), iota=float(r[0]),
        ))
    return out
