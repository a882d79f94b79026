"""Closed-form activations and the perceptron decision rule.

Two step conventions coexist on purpose: as a field sample the step takes the
value 1/2 at z=0 (which makes the sigmoid-minus-step gap an odd function, the
property the spectral pipeline relies on), while the perceptron decision rule
maps the tie Sum(w*x)+b = 0 to class 0.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NonDifferentiableError(ValueError):
    """Raised when a derivative is requested from the hard step."""


class DimensionError(ValueError):
    """Raised on mismatched vector lengths."""


def sigmoid(z):
    """Logistic function 1/(1+exp(-z)), stable for every float z.

    Written like ``spectral.gap``: e = exp(-|z|) never overflows, and
    sigma(z) is 1/(1+e) for z >= 0 and e/(1+e) below; accepts scalars or
    arrays and returns the matching shape.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def sigmoid_prime(z):
    """Derivative of the logistic function, s*(1-s)."""
    s = sigmoid(z)
    return s * (1.0 - s)


def step(z):
    """Heaviside step with the field convention: 0 below, 1 above, 1/2 at 0."""
    z = np.asarray(z, dtype=float)
    out = np.where(z > 0, 1.0, np.where(z < 0, 0.0, 0.5))
    return out if out.ndim else float(out)


@dataclass
class PerceptronConfig:
    """Weights and bias of a single decision unit."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.size == 0:
            raise ValueError("weights must be non-empty")
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.bias):
            raise ValueError("weights and bias must be finite")


def perceptron_decide(cfg: PerceptronConfig, inputs) -> int:
    """Binary decision: 1 iff the weighted sum plus bias is strictly positive.

    The tie (weighted sum exactly at threshold) maps to 0.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != cfg.weights.shape:
        raise DimensionError(
            f"{inputs.shape[0] if inputs.ndim else 0} inputs for "
            f"{cfg.weights.shape[0]} weights"
        )
    return 1 if float(cfg.weights @ inputs) + cfg.bias > 0 else 0


def _no_derivative(z):
    raise NonDifferentiableError("step activation has no derivative; finite input "
                                 "changes can produce drastic output changes")


@dataclass(frozen=True)
class ClosedFormActivation:
    """A closed-form hidden activation: the ``evaluate`` and
    ``evaluate_derivative`` a network reads.

    The callables are fields, not methods: one class serves both constants
    without dispatch, and the benchmark's tracer, which names spans
    ``module.method``, requires that no module define a public method twice.
    """

    evaluate: Callable
    evaluate_derivative: Callable


SIGMOID = ClosedFormActivation(sigmoid, sigmoid_prime)
STEP = ClosedFormActivation(step, _no_derivative)

