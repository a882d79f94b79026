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
derivative table attenuates the transform of sigma', the gap's derivative
without the delta at the jump, by the same per-mode factors: the delta and
the channel's image of it are deliberately excluded.  For a uniform channel
that image is sqrt(1 - iota) times the delta, so off the jump the table is
df/dz and scales exactly like sqrt(1 - iota).  A channel that acts on each
mode differently spreads the image over the line: off the jump a lowpass
table is df/dz + D(z), with D(z) = (1/2L) sum_{|k_n| < kc} cos(k_n z).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (
    Grid,
    ModeSpectrum,
    inverse_transform,
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
    """Mode-diagonal channel with per-mode squeeze and loss: (N,) profiles or an (L, N) stack."""

    grid: Grid
    iota: np.ndarray
    squeeze: np.ndarray

    def __post_init__(self):
        self.iota = np.asarray(self.iota, dtype=float)
        self.squeeze = np.asarray(self.squeeze, dtype=float)
        shape = self.iota.shape
        if self.squeeze.shape != shape or shape[-1:] != (self.grid.n_points,) or len(shape) > 2:
            raise ProfileError("profiles must share one (N,) or (L, N) shape on the lattice")
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


def uniform_channel(grid: Grid, iota) -> BogoliubovChannel:
    """Constant loss, no squeeze; a sequence of L losses gives an (L, N) stack."""
    iota = np.full(np.shape(iota) + (grid.n_points,), np.asarray(iota, dtype=float)[..., None])
    return BogoliubovChannel(grid, iota, np.zeros_like(iota))


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
    """n copies of the channel in sequence (n >= 1), in closed form: loss
    1 - (1 - iota)^n, squeeze n*r.  An n past the float range raises ProfileError."""
    if n < 1:
        raise ProfileError(f"composition count must be >= 1, got {n}")
    if n == 1:
        return channel  # 1 - (1 - iota)^1 is not iota's bits for every iota
    try:
        with np.errstate(over="ignore"):  # an infinite squeeze fails the channel's own check
            iota, squeeze = 1.0 - (1.0 - channel.iota) ** n, n * channel.squeeze
    except OverflowError as exc:
        raise ProfileError(f"a composition count of {len(str(n))} digits "
                           "exceeds the float range") from exc
    return BogoliubovChannel(channel.grid, iota, squeeze)


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

    ``reconstruct`` builds it: (N,) tables for one channel, or an (L, N) stack
    for a stack of L channels on one grid.  It holds what a network reads: the
    grid and the two tables.  One table reads a ``z`` of any shape; a stack
    of ``levels`` tables reads a ``z`` of ``levels`` rows, row i from table
    i.  ``level(i)`` is table i alone, sharing the stack's memory.

    A hidden activation of ``network`` (its module docstring states the
    protocol): the fused ``evaluate_with_derivative`` reads both tables from
    one cell search, and ``evaluate_derivative`` the derivative table alone.
    Every read is ``np.interp``'s bits by ``_lookup``'s one rule (0 below
    z_0, 1 or 0 above z_{N-1}, a NaN as itself).  Each table's read state is
    built once, on the first read, and shared by ``level(i)``: write no table.
    """

    grid: Grid
    samples: np.ndarray
    derivative_samples: np.ndarray

    @property
    def levels(self) -> int:
        return len(self.samples) if self.samples.ndim == 2 else 1

    def level(self, i):
        """Table ``i`` of a stack as one table, sharing the stack's memory and
        read state; one table is its own ``level(0)``.  Any other ``i`` (negative,
        past the last table, a bool or not an integer) raises ``DimensionError``."""
        if isinstance(i, bool) or not (isinstance(i, (int, np.integer)) and 0 <= i < self.levels):
            raise DimensionError(f"a stack of {self.levels} tables has no level {i!r}")
        if self.samples.ndim == 1:
            return self
        level = DegradedActivation(self.grid, self.samples[i], self.derivative_samples[i])
        offsets, tables = self._read_state
        level._read_state = offsets[:1], [(t[i], slopes[i], right) for t, slopes, right in tables]
        return level

    def evaluate(self, z):
        """Linear interpolation of the value table; 0/1 outside the grid."""
        return self._lookup(z, 0)[0]

    def evaluate_derivative(self, z):
        """Linear interpolation of the derivative table; 0 outside the grid."""
        return self._lookup(z, 1)[0]

    def evaluate_with_derivative(self, z):
        """``(evaluate(z), evaluate_derivative(z))`` bit for bit, from one
        cell search: the read of a pass that feeds a backward step."""
        return self._lookup(z, 0, 1)

    @cached_property
    def _read_state(self):
        """Each row's offset into the flat tables, and per table (0 the values,
        1 the derivative) the table, numpy's slopes ``(y_{j+1} - y_j)/(x_{j+1}
        - x_j)`` with a 0 closing each row, and its read right of the lattice."""
        slopes = np.zeros((2,) + self.samples.shape)
        for table, out in zip((self.samples, self.derivative_samples), slopes[..., :-1]):
            np.divide(np.diff(table), np.diff(self.grid.z), out=out)
        return ((np.arange(self.levels) * self.grid.n_points)[:, None],
                [(self.samples, slopes[0], 1.0), (self.derivative_samples, slopes[1], 0.0)])

    def _lookup(self, z, *tables):
        """``np.interp(z, grid.z, table, 0.0, right)`` bit for bit, per row
        of a stack, for each table named (0 the values, 1 the derivative).

        One search finds z's cells for every table.  Each point is clamped onto
        [z_0, z_{N-1}], a NaN onto z_0.  The node nearest to it, ``round((z -
        z_0)/dz)`` on a uniform lattice, is off by less than a half, so its cell
        j (x_j <= z < x_{j+1}, or j = N-1 at z_{N-1}) is that node or the one
        below: one comparison with ``grid.z`` decides.  The value is numpy's
        ``slope*(z - x_j) + y_j``, or ``y_j`` where ``z == x_j``.  Only the
        points off the lattice are then overwritten: 0 below z_0, ``right``
        above z_{N-1}, a NaN by itself.  Bit equality holds for finite tables,
        which every ``reconstruct`` gives.  The caller's ``z`` is never written.
        """
        z = np.asarray(z, dtype=float)
        x, levels = self.grid.z, self.levels
        if self.samples.ndim == 2 and z.shape[:1] != (levels,):
            raise DimensionError(f"{levels} tables read a z of {levels} rows, got {z.shape}")
        rows = z.reshape(levels, -1)
        offsets, state = self._read_state
        on = np.fmax(rows, x[0])
        np.fmin(on, x[-1], out=on)
        off, = (on != rows).ravel().nonzero()   # below z_0, above z_{N-1} or NaN
        z_off = rows.flat[off]
        above, zero_or_nan = off[z_off > x[-1]], np.maximum(z_off, 0.0)   # NaN stays itself

        j = ((on - x[0]) / self.grid.dz + 0.5).astype(np.intp)
        j -= x[j] > on
        past_x_j = np.subtract(on, x[j], out=on)
        at_node = past_x_j == 0.0
        j += offsets
        reads = []
        for table, slopes, right in (state[k] for k in tables):
            y_j, out = table.reshape(-1)[j], slopes.reshape(-1)[j]
            out *= past_x_j
            out += y_j
            np.copyto(out, y_j, where=at_node)
            out.flat[off] = zero_or_nan
            out.flat[above] = right
            reads.append(out.reshape(z.shape))
        return tuple(out if out.ndim else float(out) for out in reads)


def reconstruct(channel: BogoliubovChannel) -> DegradedActivation:
    """Degraded activation of a channel: theta(z) + surviving gap modes.

    One table row per channel row, bit for bit that row's own reconstruction.
    The gap's modes are the grid's ``gap_spectrum``; sigma' is transformed
    once per call.
    """
    grid = channel.grid
    samples = degraded_values(channel)
    deriv_spec = transform_samples(grid, sigmoid_prime(grid.z))
    deriv = inverse_transform(apply_channel(channel, deriv_spec))
    return DegradedActivation(grid, samples, deriv)


def degraded_values(channel: BogoliubovChannel) -> np.ndarray:
    """``reconstruct(channel).samples`` bit for bit, and nothing else: the
    channel applied to the grid's ``gap_spectrum``, inverted, plus the step.
    No derivative table is made."""
    samples = inverse_transform(apply_channel(channel, channel.grid.gap_spectrum))
    samples += step(channel.grid.z)
    return samples


def loss_fraction(channel: BogoliubovChannel):
    """The share of the gap's spectral power that the channel's loss takes:
    sum(iota_k |g_k|^2) / sum(|g_k|^2), g_k the grid's ``gap_spectrum``.  A
    float for one channel, one per row for a stack; it is iota itself for a
    uniform channel.  The amplitudes are scaled by the largest before they
    are squared: on a coarse lattice they are small enough (about 1e-160 at
    dz = 375) that their squares would fall into the subnormals."""
    magnitudes = np.abs(channel.grid.gap_spectrum.amplitudes)
    weights = (magnitudes / np.max(magnitudes)) ** 2
    fraction = np.sum(channel.iota * weights, axis=-1) / np.sum(weights)
    return fraction if fraction.ndim else float(fraction)


def write_activation_csv(path, activation: DegradedActivation):
    write_columns(path, ["z", "f", "fprime"],
                  [activation.grid.z, activation.samples, activation.derivative_samples])


def planck_occupation(k: float, temperature: float) -> float:
    """Reference Planck factor 1/(exp(|k|/T) - 1)."""
    return 1.0 / math.expm1(abs(k) / temperature)
