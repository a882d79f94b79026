"""Acceptance checks runnable as a suite: one named criterion per function.

Each check returns (passed, measured) where ``measured`` is a short printable
summary.  ``run_criteria`` evaluates them in order and shares the expensive
trainability sweep between the checks that need it.  The ``spectrum`` and
``train-sweep`` commands print the same checks on their own data.

The grid-oracle bound is checked on the spectrum the system reports,
``continuum_gap_spectrum``: the exact lattice transform of the gap plus the
closed-form Euler-Maclaurin term of its jump at z = 0, with the jump read off
the samples.  Without that term the rectangle rule carries the bias
-i*dz^2*k/12 (3.2e-3 max relative on Grid(40, 4096) over k in [0.1, 10]);
with it the deviation is 5.9e-9.  The lattice pair itself stays exact, so the
round-trip and reconstruction identities are untouched.

One check is known to fail on the default configuration and is reported
honestly rather than loosened: the monotone early-gradient claim.  Its median
early hidden-gradient norms measure 5.0e-3, 1.7e-2, 3.1e-2, 5.6e-2 and 0 over
levels 0..1, while at a fixed weight point the hidden gradient scales as
sqrt(1-iota) (gradient-scaling-fixed-point passes).  The cause of the rise is
left open; ROADMAP item 3 holds what has been measured of it.
"""

import contextlib
import filecmp
import io
import math
import tempfile
from pathlib import Path

import numpy as np

from .activations import SIGMOID, PerceptronConfig, perceptron_decide, sigmoid, step
from .spectral import Grid, analytic_gap_spectrum, continuum_gap_spectrum, gap_samples
from .bogoliubov import (
    commutator_residual,
    make_channel,
    mode_occupation,
    planck_occupation,
    reconstruct,
    self_compose,
    thermal_channel,
    uniform_channel,
)
from .network import (
    TASKS,
    hidden_gradient_norm,
    loss_gradients,
    make_dataset,
    median_epochs,
    sweep,
)
from . import network

DEFAULT_GRID = Grid(40.0, 4096)
ORACLE_BAND = (0.1, 10.0)
ORACLE_TOL = 1e-3
SWEEP_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)
SWEEP_SEEDS = tuple(range(10))


def adaptive_quadrature(f, a, b, tol=1e-12, max_depth=48):
    """Adaptive Simpson integration with interval-wise error control."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        fl = f(0.5 * (lo + mid))
        fr = f(0.5 * (mid + hi))
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, fl, fmid, left, eps / 2.0, depth - 1)
                + recurse(mid, hi, fmid, fr, fhi, right, eps / 2.0, depth - 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, max_depth)


def gap_transform_quadrature(k: float) -> float:
    """Imaginary part of the gap transform by quadrature: 2*int sin(kz)/(e^z+1)."""
    return adaptive_quadrature(lambda z: 2.0 * math.sin(k * z) / (math.exp(z) + 1.0),
                               0.0, 60.0)


def check_sigmoid_tanh_identity():
    z = np.linspace(-30.0, 30.0, 10_000)
    dev = float(np.max(np.abs(sigmoid(z) - 0.5 * (np.tanh(z / 2.0) + 1.0))))
    return dev < 1e-12, f"max_abs_dev={dev:.3e}"


def check_perceptron_example():
    cfg = PerceptronConfig(np.array([2.0, 2.0]), -3.0)
    table = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    got = {inp: perceptron_decide(cfg, np.array(inp, dtype=float)) for inp in table}
    return got == table, f"truth_table={got}"


def check_analytic_spectrum_vs_quadrature():
    worst = 0.0
    for k in (0.5, 1.0, 2.0, 5.0):
        quad = gap_transform_quadrature(k)
        closed = analytic_gap_spectrum(k).imag
        worst = max(worst, abs(quad - closed))
    return worst < 1e-10, f"max_abs_dev={worst:.3e}"


def oracle_comparison(spectrum):
    """Positive-k columns (k, numeric, analytic, rel_err) of a gap spectrum and
    its grid-oracle-agreement (passed, measured) over ORACLE_BAND.  Raises
    ValueError when no wavenumber is in the band."""
    positive = spectrum.grid.k > 0
    ks = spectrum.grid.k[positive]
    band = (ks >= ORACLE_BAND[0]) & (ks <= ORACLE_BAND[1])
    if not band.any():
        raise ValueError(f"no wavenumber in the oracle band {ORACLE_BAND}")
    numeric = spectrum.amplitudes[positive]
    analytic = analytic_gap_spectrum(ks)
    rel_err = np.abs(numeric - analytic) / np.abs(analytic)
    err = float(np.max(rel_err[band]))
    return ((ks, numeric, analytic, rel_err),
            (err < ORACLE_TOL, f"max_rel_err={err:.3e} (target {ORACLE_TOL:.0e})"))


def check_grid_oracle_agreement():
    return oracle_comparison(continuum_gap_spectrum(DEFAULT_GRID))[1]


def check_commutator_dichotomy():
    grid = Grid(20.0, 256)
    canonical = make_channel(grid, lambda k: 0.0, lambda k: 0.5 + abs(k) / 10.0)
    res_canonical = commutator_residual(canonical)
    res_lossy = commutator_residual(uniform_channel(grid, 0.3))
    worst = 0.0
    for n in range(1, 21):
        eff = float(self_compose(uniform_channel(grid, 0.3), n).iota[0])
        worst = max(worst, abs(eff - (1.0 - 0.7**n)))
    ok = res_canonical == 0.0 and res_lossy == 0.3 and worst < 1e-12
    return ok, (f"canonical={res_canonical} lossy={res_lossy} "
                f"compose_dev={worst:.3e}")


def check_reconstruction_endpoints():
    grid = DEFAULT_GRID
    sig = sigmoid(grid.z)
    stp = step(grid.z)
    g = gap_samples(grid)
    recs = {iota: reconstruct(uniform_channel(grid, iota)) for iota in SWEEP_LEVELS}
    dev_sig = float(np.max(np.abs(recs[0.0].samples - sig)))
    step_exact = bool(np.array_equal(recs[1.0].samples, stp))
    dev_closed = 0.0
    for iota, rec in recs.items():
        closed = stp + math.sqrt(1.0 - iota) * g
        dev_closed = max(dev_closed, float(np.max(np.abs(rec.samples - closed))))
    ok = dev_sig < 1e-9 and step_exact and dev_closed < 1e-9
    return ok, (f"sigmoid_dev={dev_sig:.3e} step_exact={step_exact} "
                f"closed_form_dev={dev_closed:.3e}")


def check_planck_occupation():
    grid = DEFAULT_GRID
    channel = thermal_channel(grid, 1.0)
    ks = grid.k[grid.n_points // 2 + 7: grid.n_points // 2 + 147: 7][:20]
    worst = 0.0
    for k in ks:
        occ = mode_occupation(channel, k)
        worst = max(worst, abs(occ - planck_occupation(k, 1.0)))
    return worst < 1e-10, f"max_abs_dev={worst:.3e} over {len(ks)} modes"


def check_gradient_correctness():
    inputs, labels = make_dataset("xor")
    rng = np.random.default_rng(2025)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        weights = [(rng.uniform(-1.0, 1.0, (4, 2)), rng.uniform(-1.0, 1.0, 4)),
                   (rng.uniform(-1.0, 1.0, (1, 4)), rng.uniform(-1.0, 1.0, 1))]
        grads = loss_gradients(SIGMOID, weights, network.forward(SIGMOID, weights, inputs),
                               labels)
        analytic = np.concatenate([np.concatenate([dw.ravel(), db.ravel()])
                                   for dw, db in grads])
        numeric = []
        for array in [a for layer in weights for a in layer]:
            for idx in np.ndindex(array.shape):
                saved, losses = array[idx], []
                for value in (saved + h, saved - h):
                    array[idx] = value
                    _, _, y = network.forward(SIGMOID, weights, inputs)
                    losses.append(network.bce_loss(y, labels))
                array[idx] = saved
                numeric.append((losses[0] - losses[1]) / (2.0 * h))
        numeric = np.array(numeric)
        rel = float(np.linalg.norm(analytic - numeric)
                    / max(np.linalg.norm(analytic), np.linalg.norm(numeric)))
        worst = max(worst, rel)
    return worst < 1e-4, f"max_rel_err={worst:.3e} over 100 configs"


def run_xor_sweep():
    return sweep("xor", SWEEP_LEVELS, SWEEP_SEEDS, DEFAULT_GRID)


def check_xor_endpoints(reports):
    at0 = [r for r in reports if r.iota == 0.0]
    at1 = [r for r in reports if r.iota == 1.0]
    converged0 = sum(1 for r in at0 if r.epochs_to_threshold is not None)
    med0 = median_epochs(at0)
    med1 = median_epochs(at1)
    zero_grads = all(r.mean_grad_norm_first100 == 0.0 for r in at1)
    ok = (converged0 >= 0.8 * len(at0) and math.isfinite(med0) and math.isinf(med1)
          and zero_grads)
    return ok, (f"conv@0={converged0}/{len(at0)} median@0={med0:.0f} "
                f"median@1={'never' if math.isinf(med1) else med1} "
                f"zero_hidden_grads@1={zero_grads}")


def grad_norm_medians(reports, levels=SWEEP_LEVELS):
    """Median early hidden-gradient norm of the cells at each loss level."""
    return [float(np.median([r.mean_grad_norm_first100 for r in reports if r.iota == iota]))
            for iota in levels]


def check_grad_norm_monotone(reports, levels=SWEEP_LEVELS):
    medians = grad_norm_medians(reports, levels)
    monotone = all(a >= b for a, b in zip(medians, medians[1:]))
    return monotone, "medians=" + ",".join(f"{m:.3e}" for m in medians)


def check_gradient_scaling():
    """Hidden-gradient norms at a weight point where the scaling is isolated.

    First-layer weights and all biases zero: every pre-activation is 0, so
    the hidden values (0.5) and hence the output error are identical across
    loss levels and only the derivative table differentiates the gradients.
    """
    inputs, labels = make_dataset("xor")
    rng = np.random.default_rng(42)
    weights = [(np.zeros((4, 2)), np.zeros(4)),
               (rng.uniform(-0.5, 0.5, (1, 4)), np.zeros(1))]
    norms = {}
    for iota in SWEEP_LEVELS:
        act = reconstruct(uniform_channel(DEFAULT_GRID, iota))
        grads = loss_gradients(act, weights, network.forward(act, weights, inputs), labels)
        norms[iota] = hidden_gradient_norm(grads)
    base = norms[0.0]
    worst = 0.0
    for iota in (0.25, 0.5, 0.75):
        ratio = norms[iota] / base
        worst = max(worst, abs(ratio - math.sqrt(1.0 - iota)) / math.sqrt(1.0 - iota))
    ok = worst < 1e-3 and norms[1.0] == 0.0
    return ok, f"max_rel_dev={worst:.3e} norm@1={norms[1.0]}"


def check_perceptron_limit_freeze(reports):
    """The XOR sweep's level-1, seed-3 cell keeps its initial hidden weights."""
    report, = [r for r in reports if r.iota == 1.0 and r.seed == 3]
    initial = network.init_weights(TASKS["xor"].layer_sizes, np.random.default_rng(3))
    final = report.weights
    frozen = all(np.array_equal(initial[i][0], final[i][0])
                 and np.array_equal(initial[i][1], final[i][1])
                 for i in range(len(initial) - 1))
    ok = frozen and report.mean_grad_norm_first100 == 0.0
    return ok, f"hidden_frozen={frozen} mean_grad_norm={report.mean_grad_norm_first100}"


def check_determinism():
    from . import cli

    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for cmd, extra in (
            ("spectrum", []),
            ("channel", ["--set", "channel.profile=thermal"]),
            ("degrade", ["--set", "channel.iota=0.5"]),
            ("train-sweep", ["--set", "sweep.levels=0,1", "--set", "sweep.seeds=0,1"]),
        ):
            out_a = Path(tmp) / f"{cmd}-a"
            out_b = Path(tmp) / f"{cmd}-b"
            for out in (out_a, out_b):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([cmd, "--out", str(out)] + extra)
                if code != 0:
                    return False, f"{cmd} exited {code}"
            # config.resolved names its own out.dir; a file only one run wrote
            # is an error of cmpfiles.
            names = {f.name for out in (out_a, out_b) for f in out.iterdir()}
            names.discard("config.resolved")
            _, differ, errors = filecmp.cmpfiles(out_a, out_b, sorted(names), shallow=False)
            mismatches += [f"{cmd}/{name}" for name in differ + errors]
    return not mismatches, ("bit-identical outputs" if not mismatches
                            else "mismatched: " + ",".join(mismatches))


def check_moons_band(reports):
    """Fixed from measurement: a fully degraded hidden stack still leaves the
    output layer an informative linear read-out on moons, so the realized
    band sits well above chance but below the learnable regime."""
    at0 = [r for r in reports if r.iota == 0.0]
    conv0 = sum(1 for r in at0 if r.epochs_to_threshold is not None)
    accs1 = [r.final_accuracy for r in reports if r.iota == 1.0]
    in_band = all(0.65 <= a <= 0.92 for a in accs1)
    ok = conv0 >= 0.8 * len(at0) and in_band
    return ok, (f"conv@0={conv0}/{len(at0)} acc@1=[{min(accs1):.3f},{max(accs1):.3f}] "
                f"band=[0.65,0.92]")


def sweep_checks(task, reports, levels=SWEEP_LEVELS):
    """The checks a sweep over ``levels`` settles: the task's endpoint check
    when both 0 and 1 were swept, then grad-norm-monotone."""
    results = []
    if 0.0 in levels and 1.0 in levels:
        if task == "xor":
            results.append(("xor-trainability-endpoints", *check_xor_endpoints(reports)))
        else:
            results.append(("moons-band", *check_moons_band(reports)))
    results.append(("grad-norm-monotone", *check_grad_norm_monotone(reports, levels)))
    return results


def run_criteria(full: bool = False):
    """Evaluate every criterion; yields (name, passed, measured)."""
    results = [
        ("sigmoid-tanh-identity", *check_sigmoid_tanh_identity()),
        ("perceptron-worked-example", *check_perceptron_example()),
        ("analytic-spectrum-vs-quadrature", *check_analytic_spectrum_vs_quadrature()),
        ("grid-oracle-agreement", *check_grid_oracle_agreement()),
        ("commutator-dichotomy", *check_commutator_dichotomy()),
        ("reconstruction-endpoints", *check_reconstruction_endpoints()),
        ("planck-occupation", *check_planck_occupation()),
        ("gradient-correctness", *check_gradient_correctness()),
    ]
    xor = run_xor_sweep()
    results += sweep_checks("xor", xor)
    results.append(("gradient-scaling-fixed-point", *check_gradient_scaling()))
    results.append(("perceptron-limit-freeze", *check_perceptron_limit_freeze(xor)))
    results.append(("determinism", *check_determinism()))
    if full:
        moons = sweep("moons", (0.0, 1.0), SWEEP_SEEDS, DEFAULT_GRID)
        results.append(("moons-band", *check_moons_band(moons)))
    return results
