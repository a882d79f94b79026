"""Closed-form activations, the perceptron decision rule, and first-order sensitivity.

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
    """Logistic function 1/(1+exp(-z)), stable for |z| up to ~700.

    Computed branch-wise so no large positive argument is ever exponentiated;
    accepts scalars or arrays and returns the matching shape.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
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
    """A closed-form hidden activation with the members a network reads.

    The callables are fields, not methods: one class serves both constants
    without dispatch, and the benchmark's tracer, which names spans
    ``module.method``, requires that no module define a public method twice.
    """

    evaluate: Callable
    evaluate_derivative: Callable
    loss_fraction: float


SIGMOID = ClosedFormActivation(sigmoid, sigmoid_prime, 0.0)
STEP = ClosedFormActivation(step, _no_derivative, 1.0)


def sensitivity_predict(activation, cfg: PerceptronConfig,
                        inputs, deltas_w, delta_b: float) -> float:
    """First-order output change under weight/bias perturbations.

    With m = f(sum_j w_j x_j + b) the chain rule gives
    dm = f'(z) * (sum_j x_j dw_j + db); the derivative is analytic for the
    sigmoid and table-interpolated for degraded activations.
    """
    inputs = np.asarray(inputs, dtype=float)
    deltas_w = np.asarray(deltas_w, dtype=float)
    if inputs.shape != cfg.weights.shape or deltas_w.shape != cfg.weights.shape:
        raise DimensionError("inputs, perturbations and weights must have equal length")
    z = float(cfg.weights @ inputs) + cfg.bias
    return float(activation.evaluate_derivative(z)) * (float(inputs @ deltas_w) + delta_b)
