"""Activation functions as mode spectra of a 1-D field, lossy Bogoliubov
channels acting on those spectra, and the resulting loss of trainability in
small networks."""

from .activations import (
    SIGMOID,
    STEP,
    DimensionError,
    NonDifferentiableError,
    PerceptronConfig,
    perceptron_decide,
    sensitivity_predict,
    sigmoid,
    sigmoid_prime,
    step,
)
from .spectral import (
    Grid,
    GridError,
    ModeSpectrum,
    SpectrumSymmetryError,
    analytic_gap_spectrum,
    continuum_gap_spectrum,
    continuum_spectrum,
    gap,
    gap_samples,
    inverse_transform,
    parseval_check,
    sigmoid_samples,
    step_samples,
    transform_gap,
    transform_samples,
)
from .bogoliubov import (
    BogoliubovChannel,
    DegradedActivation,
    ProfileError,
    apply_channel,
    commutator_residual,
    compose_channels,
    lowpass_channel,
    make_channel,
    mode_occupation,
    planck_occupation,
    reconstruct,
    self_compose,
    thermal_channel,
    uniform_channel,
)
from .network import (
    Dataset,
    MlpConfig,
    TrainReport,
    forward,
    loss_gradients,
    make_dataset,
    sweep,
    task_config,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
