"""Per-mode Bogoliubov channels and reconstruction of degraded activations.

A channel is parametrized by a squeeze r_k >= 0 and a loss iota_k in [0, 1]
per mode, with coefficients

    alpha_k = sqrt(1 - iota_k) * cosh(r_k)
    beta_k  = sqrt(1 - iota_k) * sinh(r_k)

so the commutator transmissivity eta_k = alpha_k^2 - beta_k^2 = 1 - iota_k
exactly.  iota = 0 is the canonical (unitary) regime: the algebra is
preserved for any squeeze.  Channels act mode-diagonally; the classical mean
amplitude of a real field picks up the factor alpha_k - beta_k =
sqrt(1 - iota_k) * exp(-r_k).

A degraded activation is the step carrier plus the surviving gap modes.  Its
derivative table attenuates the transform of the smooth gap derivative
(the sigmoid derivative) by the same per-mode factors: the step carrier
contributes nothing almost everywhere, so the distributional delta at the
jump is deliberately excluded.  This makes the derivative table scale exactly
like sqrt(1 - iota) for uniform channels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    Grid,
    ModeSpectrum,
    inverse_transform,
    read_columns,
    transform_gap,
    transform_samples,
    write_columns,
)
from .activations import sigmoid_prime, step


class ProfileError(ValueError):
    """Raised when a profile produces out-of-range values."""


# arctanh argument cap: keeps the squeeze (and cosh/sinh of it) finite at the
# k = 0 lattice point of the thermal profile, where the exact value diverges.
_MAX_TANH = np.nextafter(1.0, 0.0)


@dataclass
class BogoliubovChannel:
    """Mode-diagonal channel with per-mode squeeze and loss."""

    grid: Grid
    iota: np.ndarray
    squeeze: np.ndarray
    profile: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.iota = np.asarray(self.iota, dtype=float)
        self.squeeze = np.asarray(self.squeeze, dtype=float)
        n = self.grid.n_points
        if self.iota.shape != (n,) or self.squeeze.shape != (n,):
            raise ProfileError("profiles must cover the full wavenumber lattice")
        if not np.all((self.iota >= 0.0) & (self.iota <= 1.0)):
            raise ProfileError("loss profile must lie in [0, 1]")
        if np.any(self.squeeze < 0.0) or not np.all(np.isfinite(self.squeeze)):
            raise ProfileError("squeeze profile must be finite and >= 0")

    @property
    def alpha(self) -> np.ndarray:
        return np.sqrt(1.0 - self.iota) * np.cosh(self.squeeze)

    @property
    def beta(self) -> np.ndarray:
        return np.sqrt(1.0 - self.iota) * np.sinh(self.squeeze)

    @property
    def eta(self) -> np.ndarray:
        """Transmissivity alpha^2 - beta^2, computed exactly as 1 - iota."""
        return 1.0 - self.iota

    @property
    def amplitude_factor(self) -> np.ndarray:
        """Per-mode mean-amplitude attenuation alpha - beta."""
        return np.sqrt(1.0 - self.iota) * np.exp(-self.squeeze)


def make_channel(grid: Grid, loss_profile, squeeze_profile) -> BogoliubovChannel:
    """Build a channel from callables k -> iota(k) and k -> r(k)."""
    iota = np.array([float(loss_profile(k)) for k in grid.k])
    squeeze = np.array([float(squeeze_profile(k)) for k in grid.k])
    return BogoliubovChannel(grid, iota, squeeze)


def uniform_channel(grid: Grid, iota: float) -> BogoliubovChannel:
    """Constant loss, no squeeze."""
    return BogoliubovChannel(grid, np.full(grid.n_points, float(iota)),
                             np.zeros(grid.n_points), "uniform", {"iota": float(iota)})


def lowpass_channel(grid: Grid, k_cut: float) -> BogoliubovChannel:
    """Lossless below |k| = k_cut, total loss at and above it."""
    if not (math.isfinite(k_cut) and k_cut > 0):
        raise ProfileError(f"k_cut must be finite and positive, got {k_cut}")
    iota = np.where(np.abs(grid.k) < k_cut, 0.0, 1.0)
    return BogoliubovChannel(grid, iota, np.zeros(grid.n_points),
                             "lowpass", {"kc": float(k_cut)})


def thermal_channel(grid: Grid, temperature: float) -> BogoliubovChannel:
    """Canonical channel with r_k = arctanh(exp(-|k|/2T)); no loss.

    Yields the Planck occupation |beta_k|^2 = 1/(exp(|k|/T) - 1).  At k = 0
    the exact squeeze diverges; the arctanh argument is capped just below 1,
    which leaves every nonzero lattice mode untouched.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise ProfileError(f"temperature must be finite and positive, got {temperature}")
    x = np.minimum(np.exp(-np.abs(grid.k) / (2.0 * temperature)), _MAX_TANH)
    return BogoliubovChannel(grid, np.zeros(grid.n_points), np.arctanh(x),
                             "thermal", {"T": float(temperature)})


def commutator_residual(channel: BogoliubovChannel) -> float:
    """Worst-mode deviation of the commutator from the canonical value 1.

    max_k |eta_k - 1| = max_k iota_k: exactly zero iff the channel is
    canonical, regardless of squeeze.
    """
    return float(np.max(channel.iota))


def compose_channels(first: BogoliubovChannel, second: BogoliubovChannel) -> BogoliubovChannel:
    """Sequential application: transmissivities multiply, squeezes add."""
    first.grid.require_same(second.grid)
    iota = 1.0 - (1.0 - first.iota) * (1.0 - second.iota)
    return BogoliubovChannel(first.grid, iota, first.squeeze + second.squeeze,
                             f"compose({first.profile},{second.profile})",
                             {"first": first.params, "second": second.params})


def self_compose(channel: BogoliubovChannel, n: int) -> BogoliubovChannel:
    """n copies of the channel in sequence (n >= 1).

    For n >= 2 the result is described flat, as the channel's profile and
    params plus ``compose = n``, not as n - 1 nested compositions.
    """
    if n < 1:
        raise ProfileError(f"composition count must be >= 1, got {n}")
    out = channel
    for _ in range(n - 1):
        out = compose_channels(out, channel)
    if n > 1:
        out.profile, out.params = channel.profile, {**channel.params, "compose": n}
    return out


def mode_occupation(channel: BogoliubovChannel, k: float) -> float:
    """Expected quanta |beta_k|^2 of the output mode in the input vacuum."""
    idx = np.flatnonzero(np.abs(channel.grid.k - k) <= 1e-9 * max(1.0, abs(k)))
    if idx.size == 0:
        raise LookupError(f"k = {k} is not on the wavenumber lattice")
    return float(channel.beta[idx[0]] ** 2)


def apply_channel(channel: BogoliubovChannel, spectrum: ModeSpectrum) -> ModeSpectrum:
    """Attenuate mean amplitudes mode by mode."""
    channel.grid.require_same(spectrum.grid)
    return ModeSpectrum(spectrum.grid, channel.amplitude_factor * spectrum.amplitudes)


@dataclass
class DegradedActivation:
    """Step carrier plus attenuated gap, tabulated for interpolation."""

    grid: Grid
    samples: np.ndarray
    derivative_samples: np.ndarray
    loss_fraction: float

    def evaluate(self, z):
        """Linear interpolation of the value table; 0/1 outside the grid."""
        z = np.asarray(z, dtype=float)
        out = np.interp(z, self.grid.z, self.samples, left=0.0, right=1.0)
        return out if out.ndim else float(out)

    def evaluate_derivative(self, z):
        """Linear interpolation of the derivative table; 0 outside the grid."""
        z = np.asarray(z, dtype=float)
        out = np.interp(z, self.grid.z, self.derivative_samples, left=0.0, right=0.0)
        return out if out.ndim else float(out)


def reconstruct(channel: BogoliubovChannel) -> DegradedActivation:
    """Degraded activation of a channel: theta(z) + surviving gap modes.

    The loss fraction weights the per-mode loss by the gap's spectral power:
    sum(iota_k |g_k|^2) / sum(|g_k|^2), which reduces to iota itself for
    uniform channels.  The amplitudes are scaled by the largest before they
    are squared: on a coarse lattice they are small enough (about 1e-160 at
    dz = 375) that their squares would fall into the subnormals.
    """
    grid = channel.grid
    gap_spec = transform_gap(grid)
    samples = step(grid.z) + inverse_transform(apply_channel(channel, gap_spec))

    deriv_spec = transform_samples(grid, sigmoid_prime(grid.z))
    deriv = inverse_transform(apply_channel(channel, deriv_spec))

    magnitudes = np.abs(gap_spec.amplitudes)
    weights = (magnitudes / np.max(magnitudes)) ** 2
    loss_fraction = float(np.sum(channel.iota * weights) / np.sum(weights))
    return DegradedActivation(grid, samples, deriv, loss_fraction)


def write_activation_csv(path, activation: DegradedActivation):
    write_columns(path, ["z", "f", "fprime"],
                  [activation.grid.z, activation.samples, activation.derivative_samples])


def read_activation_csv(path):
    """Returns (z, f, fprime) arrays; the inverse of write_activation_csv."""
    return tuple(read_columns(path, ["z", "f", "fprime"]))


def channel_descriptor(channel: BogoliubovChannel) -> str:
    """Flat key-value text block describing a channel and its grid."""
    lines = [f"profile = {channel.profile}"]
    for key, val in sorted(channel.params.items()):
        lines.append(f"{key} = {val}")
    lines.append(f"grid.L = {channel.grid.half_width}")
    lines.append(f"grid.N = {channel.grid.n_points}")
    lines.append(f"max_iota = {float(np.max(channel.iota))}")
    lines.append(f"max_squeeze = {float(np.max(channel.squeeze))}")
    return "\n".join(lines) + "\n"


def gap_power_split(channel: BogoliubovChannel):
    """(kept, lost, total) spectral power of the gap under the channel."""
    spec = transform_gap(channel.grid)
    power = np.abs(spec.amplitudes) ** 2
    kept = float(np.sum(channel.amplitude_factor**2 * power))
    total = float(np.sum(power))
    return kept, total - kept, total


def planck_occupation(k: float, temperature: float) -> float:
    """Reference Planck factor 1/(exp(|k|/T) - 1)."""
    return 1.0 / math.expm1(abs(k) / temperature)
