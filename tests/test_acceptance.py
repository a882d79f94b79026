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
  open; ROADMAP item 3 holds what has been measured of it.
"""

import math

import pytest

from modegap import verify


@pytest.fixture(scope="module")
def xor_reports():
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


def test_c8_xor_trainability_endpoints(xor_reports):
    passed, measured = report("c8a xor-trainability-endpoints",
                              *verify.check_xor_endpoints(xor_reports))
    assert passed, measured


def test_c8_grad_norm_monotone(xor_reports):
    passed, measured = report("c8b grad-norm-monotone",
                              *verify.check_grad_norm_monotone(xor_reports))
    assert passed, measured


def test_c8_gradient_scaling_fixed_point():
    passed, measured = report("c8c gradient-scaling-fixed-point",
                              *verify.check_gradient_scaling())
    assert passed, measured


def test_c8_perceptron_limit_freeze(xor_reports):
    passed, measured = report("c8d perceptron-limit-freeze",
                              *verify.check_perceptron_limit_freeze(xor_reports))
    assert passed, measured


def test_c9_determinism():
    passed, measured = report("c9 determinism", *verify.check_determinism())
    assert passed, measured


def test_acceptance_runtime_budgets():
    """The per-criterion budgets: identity < 1 s, spectrum < 5 s, gradients
    < 10 s.  Wall-clock measured here for the three budgeted checks."""
    import time

    t0 = time.time()
    verify.check_sigmoid_tanh_identity()
    t1 = time.time()
    assert t1 - t0 < 1.0
    verify.check_analytic_spectrum_vs_quadrature()
    verify.check_grid_oracle_agreement()
    t2 = time.time()
    assert t2 - t1 < 5.0
    verify.check_gradient_correctness()
    assert time.time() - t2 < 10.0
