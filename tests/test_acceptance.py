"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines; the same checks back the ``modegap verify`` command.

grid-oracle-agreement is measured on the reported gap spectrum, the exact
lattice transform plus the closed-form Euler-Maclaurin term of the jump at
z = 0 with the jump estimated from the samples.  The raw lattice transform
carries the bias -i*dz^2*k/12 (3.2e-3 max relative on Grid(40, 4096) over
k in [0.1, 10]); the reported spectrum agrees to 5.9e-9, while the lattice
pair stays exact, so the round-trip and reconstruction identities still hold.

One check fails on the default configuration and is asserted at its stated
target anyway:

* grad-norm-monotone: the median early hidden-gradient norms measure
  5.0e-3, 1.7e-2, 3.1e-2, 5.6e-2 and 0 over levels 0..1, while at a fixed
  weight point the hidden gradient scales as sqrt(1-iota)
  (gradient-scaling-fixed-point passes).  The cause of the rise is left
  open; the ROADMAP item "Gradient anatomy traces" holds what has been
  measured of it.
"""

import math
from pathlib import Path

import pytest

from modegap import cli, verify


@pytest.fixture(scope="module")
def xor_report():
    return verify.run_xor_sweep()


def report(name, passed, measured):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {measured}")
    return passed, measured


def test_c1_sigmoid_tanh_identity():
    passed, measured = report("c1 sigmoid-tanh-identity",
                              *verify.check_sigmoid_tanh_identity())
    assert passed, measured


def test_c2_perceptron_worked_example():
    passed, measured = report("c2 perceptron-worked-example",
                              *verify.check_perceptron_example())
    assert passed, measured


def test_c3_analytic_spectrum_validated_by_quadrature():
    passed, measured = report("c3a analytic-spectrum-vs-quadrature",
                              *verify.check_analytic_spectrum_vs_quadrature())
    assert passed, measured


def test_c3_grid_oracle_agreement():
    passed, measured = report("c3b grid-oracle-agreement",
                              *verify.check_grid_oracle_agreement())
    assert passed, measured


def test_c4_commutator_dichotomy():
    passed, measured = report("c4 commutator-dichotomy",
                              *verify.check_commutator_dichotomy())
    assert passed, measured


def test_c5_reconstruction_endpoints():
    passed, measured = report("c5 reconstruction-endpoints",
                              *verify.check_reconstruction_endpoints())
    assert passed, measured


def test_c6_planck_occupation():
    passed, measured = report("c6 planck-occupation",
                              *verify.check_planck_occupation())
    assert passed, measured


def test_c7_gradient_correctness():
    passed, measured = report("c7 gradient-correctness",
                              *verify.check_gradient_correctness())
    assert passed, measured


def test_c8_xor_trainability_endpoints(xor_report):
    passed, measured = report("c8a xor-trainability-endpoints",
                              *verify.check_xor_endpoints(xor_report))
    assert passed, measured


def test_c8_grad_norm_monotone(xor_report):
    passed, measured = report("c8b grad-norm-monotone",
                              *verify.check_grad_norm_monotone(xor_report))
    assert passed, measured


def test_c8_gradient_scaling_fixed_point():
    passed, measured = report("c8c gradient-scaling-fixed-point",
                              *verify.check_gradient_scaling())
    assert passed, measured


def test_c8_perceptron_limit_freeze(xor_report):
    passed, measured = report("c8d perceptron-limit-freeze",
                              *verify.check_perceptron_limit_freeze(xor_report))
    assert passed, measured


def test_c9_determinism():
    passed, measured = report("c9 determinism", *verify.check_determinism())
    assert passed, measured


def test_acceptance_runtime_budgets():
    """The per-criterion budgets: identity < 1 s, spectrum < 5 s, gradients
    < 10 s, each timed with time.perf_counter, which no clock change moves."""
    import time

    t0 = time.perf_counter()
    verify.check_sigmoid_tanh_identity()
    t1 = time.perf_counter()
    assert t1 - t0 < 1.0
    verify.check_analytic_spectrum_vs_quadrature()
    verify.check_grid_oracle_agreement()
    t2 = time.perf_counter()
    assert t2 - t1 < 5.0
    verify.check_gradient_correctness()
    assert time.perf_counter() - t2 < 10.0


GRID_RECORD = "grid.L = 40\ngrid.N = 4096\n"
# The default-grid commands of the benchmark's fine-grid workload, the default
# XOR sweep and a small moons sweep: (arguments, config.resolved, the check of
# perfbench/checks.py).
ORACLE_RUNS = {
    "spectrum": (["spectrum"], GRID_RECORD, lambda checks, out: checks.check_spectrum(
        out, 40.0, 4096)),
    "channel": (["channel", "--set", "channel.profile=thermal", "--compose", "4"],
                "channel.T = 1\nchannel.profile = thermal\n" + GRID_RECORD,
                lambda checks, out: checks.check_channel(out, 40.0, 4096, 1.0, 4)),
    "uniform": (["degrade"], "channel.iota = 0.5\nchannel.profile = uniform\n" + GRID_RECORD
                + "sweep.levels = 0,0.25,0.5,0.75,1\n",
                lambda checks, out: checks.check_degrade_uniform(out, 40.0, 4096, 0.5, 5)),
    "lowpass": (["degrade", "--set", "channel.profile=lowpass"],
                "channel.kc = 2\nchannel.profile = lowpass\n" + GRID_RECORD,
                lambda checks, out: checks.check_degrade_spectral(
                    out, 40.0, 4096, checks.lowpass_factor(2.0), "lowpass")),
    "thermal": (["degrade", "--set", "channel.profile=thermal"],
                "channel.T = 1\nchannel.profile = thermal\n" + GRID_RECORD,
                lambda checks, out: checks.check_degrade_spectral(
                    out, 40.0, 4096, checks.thermal_factor(1.0), "thermal")),
    "xor-sweep": (["train-sweep"], GRID_RECORD + "sweep.levels = 0,0.25,0.5,0.75,1\n"
                  "sweep.seeds = 0,1,2,3,4,5,6,7,8,9\ntask.name = xor\n",
                  lambda checks, out: checks.check_sweep(
                      out, "xor", list(verify.SWEEP_LEVELS), list(verify.SWEEP_SEEDS),
                      [(0.5, 3), (0.75, 5)])),
    "moons-sweep": (["train-sweep", "--set", "task.name=moons", "--set", "sweep.levels=0.5,1",
                     "--set", "sweep.seeds=0,1"],
                    GRID_RECORD + "sweep.levels = 0.5,1\nsweep.seeds = 0,1\ntask.name = moons\n",
                    lambda checks, out: checks.check_sweep(
                        out, "moons", [0.5, 1.0], [0, 1], [(0.5, 1), (1.0, 0)])),
}


def test_outputs_pass_the_benchmarks_independent_checks(xor_report, tmp_path, monkeypatch):
    """perfbench/checks.py, imported as it is, recomputes each output without
    modegap: the gap samples and spectrum, the composed thermal occupation,
    the closed-form uniform tables, its own transform of the lowpass and
    thermal tables, and a reference trainer for cells (iota 0.5, seed 3) and
    (iota 0.75, seed 5) of the default XOR sweep, which is verify's own
    (``xor_report``, shared with the c8 checks), and for cells (iota 0.5,
    seed 1) and (iota 1, seed 0) of a moons sweep whose iota = 0.5 cells
    reach the threshold while iota = 1 stays open, so that the epoch-end
    judging skips a level.  Every check returns no
    problem, and each directory holds exactly the files that the writer
    moved into it from its staging directory, config.resolved as recorded."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import checks

    real_sweep = cli.sweep

    def default_sweep(task, levels, seeds, grid):
        if task == "moons":
            return real_sweep(task, levels, seeds, grid)
        assert (task, levels, seeds, grid) == (
            "xor", list(verify.SWEEP_LEVELS), list(verify.SWEEP_SEEDS), verify.DEFAULT_GRID)
        return xor_report
    moved, real_replace = [], Path.replace

    def moving(source, target):
        moved.append((source, target))
        return real_replace(source, target)
    monkeypatch.setattr(cli, "sweep", default_sweep)
    monkeypatch.setattr(Path, "replace", moving)
    for name, (argv, record, check) in ORACLE_RUNS.items():
        out = tmp_path / name
        del moved[:]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert sorted(out.iterdir()) == sorted(target for _, target in moved)
        assert all(source.parent.parent == out and source.parent.name.startswith(
            cli.STAGE_PREFIX) and not source.parent.exists() for source, _ in moved)
        assert (out / "config.resolved").read_text() == record
        assert check(checks, out) == [], name
