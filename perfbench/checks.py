"""Output checks computed apart from the program.

Nothing here imports ``modegap``.  The reference trainer is written from the
documented training contract, the activation tables from their closed forms,
and the spectra from this file's own FFT code.  Each check returns a list of
problems; an empty list means the output is correct.
"""

import csv
import re
from pathlib import Path

import numpy as np

REPORT_HEADER = ["iota", "seed", "final_accuracy", "final_loss",
                 "epochs_to_threshold", "mean_grad_norm_first100"]
SWEEP_GRID = (40.0, 4096)
OUTPUT_CLAMP = 1e-7
# task -> layer sizes, learning rate, epochs, batch size
TASKS = {"xor": ((2, 4, 1), 0.5, 2000, 4), "moons": ((2, 8, 8, 1), 0.1, 500, 32)}
XOR_LOSS_THRESHOLD = 0.05
MOONS_ACC_THRESHOLD = 0.9
REL_TOL = 1e-9
# The closed-form tables differ from the program's FFT round trip by ~1e-16.
# Over 2000 epochs that reaches the final XOR loss as up to 4.5e-6 relative
# (iota = 0.75, seed 5; all 70 documented cells measured); thresholds,
# accuracies and early gradient norms still agree to 1e-9 or exactly.
LOSS_REL_TOL = 1e-4


# ---------------------------------------------------------------- closed forms

def lattice(half_width, n_points):
    z = -half_width + (2.0 * half_width / n_points) * np.arange(n_points)
    k = np.pi * np.arange(-(n_points // 2), n_points // 2) / half_width
    return z, k


def step(z):
    return np.where(z > 0, 1.0, np.where(z < 0, 0.0, 0.5))


def gap(z):
    return -np.sign(z) / (1.0 + np.exp(np.abs(z)))


def sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def sigmoid_prime(z):
    e = np.exp(-np.abs(z))
    return e / (1.0 + e) ** 2


def uniform_tables(z, iota):
    """Value and derivative tables of the uniform-loss activation."""
    a = np.sqrt(1.0 - iota)
    return step(z) + a * gap(z), a * sigmoid_prime(z)


def lattice_transform(samples, half_width):
    """dz * sum_j f(z_j) exp(-i k_n z_j) on the lattice z_j = -L + j dz."""
    n = len(samples)
    dz = 2.0 * half_width / n
    phase = np.where(np.arange(-(n // 2), n // 2) % 2 == 0, 1.0, -1.0)
    return dz * phase * np.fft.fftshift(np.fft.fft(samples))


def thermal_squeeze(k, temperature):
    return np.arctanh(np.exp(-np.abs(k) / (2.0 * temperature)))


# ------------------------------------------------------------ reference trainer

def moons(seed):
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(0.0, np.pi, 100)
    t1 = rng.uniform(0.0, np.pi, 100)
    x = np.vstack([np.column_stack([np.cos(t0), np.sin(t0)]),
                   np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])])
    x = x + rng.normal(0.0, 0.1, x.shape)
    return x, np.concatenate([np.zeros(100), np.ones(100)])


def dataset(task, seed):
    if task == "moons":
        return moons(seed)
    return np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), \
        np.array([0.0, 1.0, 1.0, 0.0])


def train_cell(task, iota, seed):
    """(final_accuracy, final_loss, epochs_to_threshold or -1, mean_grad_norm_first100).

    Weights uniform on [-0.5, 0.5] from default_rng(seed), layer by layer,
    zero biases; summed clamped cross-entropy with a sigmoid output; the
    hidden layers read the uniform-loss tables by linear interpolation; moons
    minibatches are permuted each epoch by the same generator.
    """
    sizes, lr, epochs, batch = TASKS[task]
    zt = lattice(*SWEEP_GRID)[0]
    f_table, fp_table = uniform_tables(zt, iota)
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-0.5, 0.5, (sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)]
    biases = [np.zeros(s) for s in sizes[1:]]
    x, y = dataset(task, seed)
    n = len(x)

    def run(inputs):
        pre, post = [], [inputs]
        for w, b in zip(weights[:-1], biases[:-1]):
            pre.append(post[-1] @ w.T + b)
            post.append(np.interp(pre[-1], zt, f_table, left=0.0, right=1.0))
        return pre, post, sigmoid((post[-1] @ weights[-1].T + biases[-1])[:, 0])

    first100 = []
    reached, loss, acc = -1, 0.0, 0.0
    for epoch in range(1, epochs + 1):
        order = np.arange(n) if batch >= n else rng.permutation(n)
        norms = []
        for start in range(0, n, batch):
            sel = order[start:start + batch]
            pre, post, out = run(x[sel])
            saturated = (out <= OUTPUT_CLAMP) | (out >= 1.0 - OUTPUT_CLAMP)
            delta = np.where(saturated, 0.0, out - y[sel])[:, None]
            grads = []
            for layer in range(len(weights) - 1, -1, -1):
                grads.append((delta.T @ post[layer], delta.sum(axis=0)))
                if layer:
                    delta = (delta @ weights[layer]) * np.interp(
                        pre[layer - 1], zt, fp_table, left=0.0, right=0.0)
            grads.reverse()
            norms.append(np.sqrt(sum(np.sum(dw**2) + np.sum(db**2) for dw, db in grads[:-1])))
            for layer, (dw, db) in enumerate(grads):
                weights[layer] -= lr * dw
                biases[layer] -= lr * db
        if epoch <= 100:
            first100.append(np.mean(norms))
        out = run(x)[2]
        clipped = np.clip(out, OUTPUT_CLAMP, 1.0 - OUTPUT_CLAMP)
        loss = float(-np.sum(y * np.log(clipped) + (1.0 - y) * np.log(1.0 - clipped)))
        acc = float(np.mean((out > 0.5) == y))
        hit = loss < XOR_LOSS_THRESHOLD if task == "xor" else acc >= MOONS_ACC_THRESHOLD
        if reached < 0 and hit:
            reached = epoch
    return acc, loss, reached, float(np.mean(first100))


def close(a, b, rel=REL_TOL):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


# ------------------------------------------------------------------- file readers

def read_table(path, header):
    """Float columns of a CSV after checking its header."""
    with open(path, newline="") as fh:
        found = next(csv.reader(fh))
    if found != header:
        raise ValueError(f"{path.name}: header {found} is not {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return [data[:, i] for i in range(len(header))]


def polylines(path):
    return len(re.findall(r"<polyline ", Path(path).read_text()))


def max_abs(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


# --------------------------------------------------------------------- the checks

def check_sweep(out, task, levels, seeds, reference_cells):
    """train_reports.csv of one sweep: order, endpoints, reference re-training."""
    problems = []
    iota, seed, acc, loss, epochs, gnorm = read_table(out / "train_reports.csv", REPORT_HEADER)
    want_iota = np.repeat(levels, len(seeds))
    want_seed = np.tile(seeds, len(levels))
    if len(iota) != len(want_iota) or np.any(iota != want_iota) or np.any(seed != want_seed):
        return ["rows are not in (level, seed) order over the requested cells"]
    frozen = gnorm[iota == 1.0]
    if np.any(frozen != 0.0):
        problems.append(f"iota=1: {np.count_nonzero(frozen)} cells have a nonzero "
                        "mean_grad_norm_first100")
    reached = int(np.count_nonzero(epochs[iota == 0.0] != -1))
    if 0.0 in levels and reached < 8:
        problems.append(f"iota=0: only {reached}/{len(seeds)} cells reach the threshold")
    for level, cell_seed in reference_cells:
        row = int(np.flatnonzero((iota == level) & (seed == cell_seed))[0])
        ref_acc, ref_loss, ref_epochs, ref_gnorm = train_cell(task, level, cell_seed)
        got = (acc[row], loss[row], int(epochs[row]), gnorm[row])
        if got[0] != ref_acc or got[2] != ref_epochs \
                or not close(got[1], ref_loss, LOSS_REL_TOL) or not close(got[3], ref_gnorm):
            problems.append(f"cell iota={level:g} seed={cell_seed}: program {got} vs "
                            f"reference {(ref_acc, ref_loss, ref_epochs, ref_gnorm)}")
    if polylines(out / "train_sweep.svg") != 2:
        problems.append("train_sweep.svg does not hold two curves")
    return problems


def check_spectrum(out, half_width, n_points, band=(0.1, 10.0)):
    problems = []
    z_ref, k_ref = lattice(half_width, n_points)
    z, g = read_table(out / "gap_samples.csv", ["z", "g"])
    if max_abs(z - z_ref) > 1e-12:
        problems.append("gap_samples.csv: z is not the lattice")
    err = max_abs(g - gap(z_ref))
    if err > 1e-15:
        problems.append(f"gap samples differ from -sign(z)/(1+e^|z|) by {err:.3e}")
    k, re_, im = read_table(out / "gap_spectrum.csv", ["k", "re", "im"])
    if max_abs(k - k_ref) > 1e-9:
        problems.append("gap_spectrum.csv: k is not the wavenumber lattice")
    in_band = (k >= band[0]) & (k <= band[1])
    kb = k[in_band]
    analytic = 1j * (1.0 / kb - np.pi / np.sinh(np.pi * kb))
    rel = np.abs(re_[in_band] + 1j * im[in_band] - analytic) / np.abs(analytic)
    if not np.any(in_band) or max_abs(rel) > 1e-3:
        problems.append(f"gap spectrum on k in {band}: max rel err {max_abs(rel):.3e} > 1e-3")
    if polylines(out / "gap_spectrum.svg") != 2:
        problems.append("gap_spectrum.svg does not hold two curves")
    return problems


def check_channel(out, half_width, n_points, temperature, compose, iota=0.0):
    problems = []
    _, k_ref = lattice(half_width, n_points)
    k, alpha, beta, eta, occ = read_table(
        out / "channel_modes.csv", ["k", "alpha", "beta", "eta", "occupation"])
    if max_abs(k - k_ref) > 1e-9:
        return ["channel_modes.csv: k is not the wavenumber lattice"]
    if max_abs(eta - (1.0 - iota)) > 1e-12:
        problems.append(f"eta differs from 1 - iota = {1.0 - iota} by {max_abs(eta - 1.0 + iota):.3e}")
    nz = k != 0.0
    r = compose * thermal_squeeze(k[nz], temperature)
    for name, got, want in (("alpha", alpha[nz], np.sqrt(1.0 - iota) * np.cosh(r)),
                            ("beta", beta[nz], np.sqrt(1.0 - iota) * np.sinh(r)),
                            ("occupation", occ[nz], (1.0 - iota) * np.sinh(r) ** 2)):
        if not np.allclose(got, want, rtol=REL_TOL, atol=0.0):
            problems.append(f"{name} differs from the composed thermal closed form")
    return problems


def check_degrade_uniform(out, half_width, n_points, iota, curves):
    z_ref, _ = lattice(half_width, n_points)
    z, f, fp = read_table(out / "degraded_activation.csv", ["z", "f", "fprime"])
    if max_abs(z - z_ref) > 1e-12:
        return ["degraded_activation.csv: z is not the lattice"]
    problems = []
    f_want, fp_want = uniform_tables(z_ref, iota)
    for name, got, want in (("f", f, f_want), ("fprime", fp, fp_want)):
        if max_abs(got - want) > 1e-9:
            problems.append(f"uniform {name} table off its closed form by {max_abs(got - want):.3e}")
    if polylines(out / "degraded_activation.svg") != curves:
        problems.append(f"degraded_activation.svg does not hold {curves} curves")
    return problems


def check_degrade_spectral(out, half_width, n_points, factor, label):
    """Re-transform the surviving gap and derivative; compare mode by mode.

    ``factor(k)`` is the channel's amplitude factor at every nonzero k.  At
    k = 0 the gap content is checked to vanish; the derivative has no
    closed-form factor there (the thermal squeeze diverges) and is skipped.
    """
    z_ref, k = lattice(half_width, n_points)
    z, f, fp = read_table(out / "degraded_activation.csv", ["z", "f", "fprime"])
    if max_abs(z - z_ref) > 1e-12:
        return ["degraded_activation.csv: z is not the lattice"]
    problems = []
    nz = k != 0.0
    scale = factor(k[nz])
    for name, kept, full in (("gap", f - step(z_ref), gap(z_ref)),
                             ("sigmoid'", fp, sigmoid_prime(z_ref))):
        got = lattice_transform(kept, half_width)
        want = lattice_transform(full, half_width)
        tol = 1e-9 * max_abs(want)
        err = max_abs(got[nz] - scale * want[nz])
        if err > tol:
            problems.append(f"{label}: {name} content off the scaled closed form by {err:.3e}")
    gap_zero = abs(lattice_transform(f - step(z_ref), half_width)[~nz][0])
    if gap_zero > 1e-9:
        problems.append(f"{label}: gap content {gap_zero:.3e} at k = 0")
    if polylines(out / "degraded_activation.svg") != 1:
        problems.append("degraded_activation.svg does not hold one curve")
    return problems


def lowpass_factor(k_cut):
    return lambda k: np.where(np.abs(k) < k_cut, 1.0, 0.0)


def thermal_factor(temperature):
    return lambda k: np.exp(-thermal_squeeze(k, temperature))
