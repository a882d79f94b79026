"""Closed-form activations and the perceptron decision rule.

Two step conventions coexist on purpose: as a field sample the step takes the
value 1/2 at z=0 (which makes the sigmoid-minus-step gap an odd function, the
property the spectral pipeline relies on), while the perceptron decision rule
maps the tie Sum(w*x)+b = 0 to class 0.
"""

from dataclasses import dataclass

import numpy as np


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


class _Sigmoid:
    """The closed-form sigmoid as a hidden activation: ``evaluate`` and the
    fused ``evaluate_with_derivative`` (value and derivative in one call, for a
    training pass), both read through ``sigmoid``."""

    def evaluate(self, z):
        return sigmoid(z)

    def evaluate_with_derivative(self, z):
        s = sigmoid(z)
        return s, s * (1.0 - s)


SIGMOID = _Sigmoid()
