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
from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid,
    ModeSpectrum,
    inverse_transform,
    transform_gap,
    transform_samples,
    write_columns,
)
from .activations import DimensionError, sigmoid_prime, step


class ProfileError(ValueError):
    """Raised when a profile produces out-of-range values."""


# arctanh argument cap: keeps the squeeze (and cosh/sinh of it) finite at the
# k = 0 lattice point of the thermal profile, where the exact value diverges.
_MAX_TANH = np.nextafter(1.0, 0.0)

# Largest squeeze whose cosh, sinh and sinh^2 are all finite: arcsinh(sqrt(DBL_MAX)).
MAX_SQUEEZE = float(np.arcsinh(np.sqrt(np.finfo(float).max)))


@dataclass
class BogoliubovChannel:
    """Mode-diagonal channel with per-mode squeeze and loss."""

    grid: Grid
    iota: np.ndarray
    squeeze: np.ndarray

    def __post_init__(self):
        self.iota = np.asarray(self.iota, dtype=float)
        self.squeeze = np.asarray(self.squeeze, dtype=float)
        n = self.grid.n_points
        if self.iota.shape != (n,) or self.squeeze.shape != (n,):
            raise ProfileError("profiles must cover the full wavenumber lattice")
        if not np.all((self.iota >= 0.0) & (self.iota <= 1.0)):
            raise ProfileError("loss profile must lie in [0, 1]")
        if not np.all((self.squeeze >= 0.0) & (self.squeeze <= MAX_SQUEEZE)):
            raise ProfileError(f"squeeze profile must lie in [0, {MAX_SQUEEZE!r}], "
                               "where alpha, beta and beta^2 are finite")

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
    return BogoliubovChannel(grid, np.full(grid.n_points, float(iota)), np.zeros(grid.n_points))


def lowpass_channel(grid: Grid, k_cut: float) -> BogoliubovChannel:
    """Lossless below |k| = k_cut, total loss at and above it."""
    if not (math.isfinite(k_cut) and k_cut > 0):
        raise ProfileError(f"k_cut must be finite and positive, got {k_cut}")
    iota = np.where(np.abs(grid.k) < k_cut, 0.0, 1.0)
    return BogoliubovChannel(grid, iota, np.zeros(grid.n_points))


def thermal_channel(grid: Grid, temperature: float) -> BogoliubovChannel:
    """Canonical channel with r_k = arctanh(exp(-|k|/2T)); no loss.

    Yields the Planck occupation |beta_k|^2 = 1/(exp(|k|/T) - 1).  At k = 0
    the exact squeeze diverges; the arctanh argument is capped just below 1,
    which leaves every nonzero lattice mode untouched.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise ProfileError(f"temperature must be finite and positive, got {temperature}")
    # For a tiny T, |k|/2T overflows to inf; exp(-inf) = 0 is the exact limit.
    with np.errstate(over="ignore"):
        x = np.minimum(np.exp(-np.abs(grid.k) / (2.0 * temperature)), _MAX_TANH)
    return BogoliubovChannel(grid, np.zeros(grid.n_points), np.arctanh(x))


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
    return BogoliubovChannel(first.grid, iota, first.squeeze + second.squeeze)


def self_compose(channel: BogoliubovChannel, n: int) -> BogoliubovChannel:
    """n copies of the channel in sequence (n >= 1)."""
    if n < 1:
        raise ProfileError(f"composition count must be >= 1, got {n}")
    out = channel
    for _ in range(n - 1):
        out = compose_channels(out, channel)
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
    """Step carrier plus attenuated gap, tabulated on the grid's lattice.

    The tables are (N,) for one activation, or an (L, N) stack of L
    activations on one grid, with ``loss_fraction`` then one per level.  A
    stack reads a ``z`` whose leading axis has length L: level i of ``z`` is
    looked up in table i.  ``levels`` is 1 for a single table.
    """

    grid: Grid
    samples: np.ndarray
    derivative_samples: np.ndarray
    loss_fraction: float | np.ndarray

    @property
    def levels(self) -> int:
        return len(self.samples) if self.samples.ndim == 2 else 1

    def evaluate(self, z):
        """Linear interpolation of the value table; 0/1 outside the grid."""
        return self._lookup(self.samples, z, 0.0, 1.0)

    def evaluate_derivative(self, z):
        """Linear interpolation of the derivative table; 0 outside the grid."""
        return self._lookup(self.derivative_samples, z, 0.0, 0.0)

    def _lookup(self, table, z, left, right):
        """``np.interp(z, grid.z, table, left, right)`` bit for bit, per level.

        On a uniform lattice the nearest point to z is ``round((z - z_0)/dz)``,
        which is off by less than a half, so the cell j with x_j <= z <
        x_{j+1} is that point or the one below it: one comparison with
        ``grid.z`` decides.  The value is numpy's own formula on the gathered
        cell ends, ``slope*(z - x_j) + y_j`` with ``slope = (y_{j+1} -
        y_j)/(x_{j+1} - x_j)``, and ``y_j`` itself where ``z == x_j``.
        Points outside [z_0, z_{N-1}), +-inf and NaN are left to
        ``np.interp``.  Bit equality holds for finite tables, which every
        ``reconstruct`` gives.
        """
        z = np.asarray(z, dtype=float)
        x, n = self.grid.z, self.grid.n_points
        levels = self.levels
        if table.ndim == 2 and z.shape[:1] != (levels,):
            raise DimensionError(f"a stack of {levels} tables reads z with a leading axis "
                                 f"of {levels}, got shape {z.shape}")
        rows = z.reshape(levels, -1)

        # Clamped to the lattice, so the arithmetic below stays finite; the
        # points that were moved are overwritten at the end.
        zc = np.fmax(rows, x[0])
        np.fmin(zc, x[-1], out=zc)
        nearest = zc - x[0]
        nearest /= self.grid.dz
        nearest += 0.5
        j = nearest.astype(np.intp)
        del nearest
        j -= x[j] > zc
        np.minimum(j, n - 2, out=j)

        x_j, dx = x[j], x[1:][j]
        dx -= x_j
        past_x_j = np.subtract(zc, x_j, out=zc)
        del x_j
        j += np.arange(0, levels * n, n)[:, None]  # level i starts at i*N
        flat = table.reshape(-1)
        y_j, out = flat[j], flat[1:][j]
        del j
        out -= y_j
        out /= dx  # the slope
        out *= past_x_j
        out += y_j
        np.copyto(out, y_j, where=past_x_j == 0.0)

        if not (rows.min(initial=np.inf) >= x[0] and rows.max(initial=-np.inf) < x[-1]):
            off = ~((rows >= x[0]) & (rows < x[-1]))
            for out_row, off_row, z_row, table_row in zip(out, off, rows, table.reshape(levels, n)):
                out_row[off_row] = np.interp(z_row[off_row], x, table_row, left, right)
        out = out.reshape(z.shape)
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
