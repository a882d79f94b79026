"""Grid, the sigmoid-minus-step gap, and its continuous-transform approximation.

Conventions: forward transform integral(g(z) exp(-ikz) dz) with no 1/(2pi);
the inverse carries 1/(2L) per bin, i.e. (1/2pi) * dk with dk = pi/L.  On the
lattice z_j = -L + j*dz this pair reduces to an FFT with a (-1)^n phase and is
exactly invertible, so round trips hold to machine precision.

That exact lattice pair is the rectangle rule, and for a field with a jump at
z = 0 it misses the continuum transform by a closed-form Euler-Maclaurin term
(Trefethen & Weideman, SIAM Rev. 56(3), 2014).  ``continuum_spectrum`` adds
that term back, with the jump read off the samples; it is the spectrum
reported against the continuum, while channels and reconstruction keep the
exact pair.

Only the gap is ever transformed.  The bare step is not integrable on the
line; the gap decays like exp(-|z|) so truncation at |z| = L contributes at
most exp(-L).
"""

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .floattext import format_rows
from .workers import run, split


class SpectrumSymmetryError(ValueError):
    """Raised when a spectrum claimed to describe a real field is asymmetric."""


class GridError(ValueError):
    """Raised on invalid grid parameters or mismatched grids."""


@dataclass
class Grid:
    """Uniform lattice of the activation argument and its wavenumbers.

    z_j = -L + j*dz for j in [0, N) with dz = 2L/N; k_n = pi*n/L for
    n in [-N/2, N/2); ``phase`` is the (-1)^n of the transform pair.  N is a
    power of two and at least 8 (the jump estimate of ``continuum_spectrum``
    reads three samples on each side of z = 0); dz and the largest |k| are
    finite, with dz > 0; and the gap samples next to z = 0, its largest, do
    not underflow, or every sample is 0 and no loss fraction exists.

    ``gap_spectrum`` is the gap's mode content on this lattice, transformed
    on first use and kept read-only: every channel on the grid acts on it.
    """

    half_width: float
    n_points: int

    def __post_init__(self):
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise GridError("half_width must be finite and positive")
        n = self.n_points
        if n <= 0 or (n & (n - 1)) != 0:
            raise GridError("n_points must be a positive power of two")
        self.dz = 2.0 * self.half_width / n
        k_max = np.pi * (n // 2) / self.half_width
        if not (0.0 < self.dz < np.inf and np.isfinite(k_max)):
            raise GridError(f"half_width {self.half_width} gives a non-finite lattice: "
                            f"dz = {self.dz}, max |k| = {k_max}")
        if n < 8:
            raise GridError(f"n_points must be >= 8 for the jump estimate at z = 0, got {n}")
        self.z = -self.half_width + self.dz * np.arange(n)
        if not np.any(gap(self.z[[n // 2 - 1, n // 2 + 1]])):
            raise GridError(f"every gap sample underflows to 0 (dz = {self.dz:g})")
        index = np.arange(-(n // 2), n // 2)
        self.k = np.pi * index / self.half_width
        self.phase = np.where(index % 2 == 0, 1.0, -1.0)

    @cached_property
    def gap_spectrum(self) -> "ModeSpectrum":
        spectrum = transform_samples(self, gap_samples(self))
        spectrum.amplitudes.flags.writeable = False
        return spectrum

    def require_same(self, other: "Grid"):
        if self.half_width != other.half_width or self.n_points != other.n_points:
            raise GridError(
                f"grid mismatch: ({self.half_width}, {self.n_points}) vs "
                f"({other.half_width}, {other.n_points})"
            )


@dataclass
class ModeSpectrum:
    """Complex mode amplitudes on a grid's wavenumber lattice: an (N,) row or an (L, N) stack."""

    grid: Grid
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        shape = self.amplitudes.shape
        if shape[-1:] != (self.grid.n_points,) or len(shape) > 2:
            raise GridError(f"expected {self.grid.n_points} amplitudes per row, got {shape}")

    def conjugate_symmetry_defect(self) -> float:
        """Max deviation from amplitude(-k) = conj(amplitude(k)), over every row.

        The n = -N/2 Nyquist entry has no partner and must be real, as must
        the k = 0 entry.
        """
        a = self.amplitudes
        half = self.grid.n_points // 2
        paired = a[..., half + 1:]                 # n = 1 .. N/2-1
        partners = a[..., half - 1:0:-1]           # n = -1 .. -(N/2-1)
        defect = np.max(np.abs(paired - np.conj(partners)), initial=0.0)
        return float(max(defect, np.max(np.abs(a[..., [half, 0]].imag), initial=0.0)))


def gap(z):
    """Sigmoid minus step: g(z) = -sign(z)/(1+exp(|z|)), 0 at z = 0.

    Odd, bounded by 1/2, decays like exp(-|z|); carries a unit jump at the
    origin.  Computed via exp(-|z|) so large arguments underflow gracefully.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = -np.sign(z) * e / (1.0 + e)
    return out if out.ndim else float(out)


def gap_samples(grid: Grid) -> np.ndarray:
    return gap(grid.z)


def transform_samples(grid: Grid, samples) -> ModeSpectrum:
    """Rectangle-rule approximation of the continuous transform of samples.

    dz * sum_j f(z_j) exp(-i k_n z_j); the -L lattice offset folds into a
    (-1)^n phase on the plain FFT.  The bits of ``dz * phase *
    fftshift(fft(samples))``, computed in the one complex array returned.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n_points,):
        raise GridError("sample count does not match the grid")
    half = grid.n_points // 2
    amplitudes = samples.astype(complex)
    np.fft.fft(amplitudes, out=amplitudes)
    # fftshift swaps the halves; each mode is scaled as it moves.
    scale, low = grid.dz * grid.phase, amplitudes[:half].copy()
    np.multiply(scale[:half], amplitudes[half:], out=amplitudes[:half])
    np.multiply(scale[half:], low, out=amplitudes[half:])
    return ModeSpectrum(grid, amplitudes)


def continuum_spectrum(grid: Grid, samples) -> ModeSpectrum:
    """Estimate of the continuous transform of samples that jump at z = 0.

    The lattice transform of a jump J = f(0+) - f(0-), sampled at its
    midpoint, differs from the continuum by -i*J*((dz/2)*cot(k*dz/2) - 1/k),
    whose leading term is i*J*dz^2*k/12; this adds the difference back.  J is
    extrapolated quadratically from three samples on each side of the origin,
    (3f_1 - 3f_2 + f_3) - (3f_-1 - 3f_-2 + f_-3).  The term is 0 at k = 0 and
    at the real Nyquist entry, so conjugate symmetry is kept.
    """
    n = grid.n_points
    spectrum = transform_samples(grid, samples)
    f = np.asarray(samples, dtype=float)
    o = n // 2                                 # z_o = 0
    jump = (3.0 * f[o + 1] - 3.0 * f[o + 2] + f[o + 3]) \
        - (3.0 * f[o - 1] - 3.0 * f[o - 2] + f[o - 3])
    inner = grid.k != 0.0
    inner[0] = False                           # real Nyquist entry
    k = grid.k[inner]
    term = np.zeros(n)
    term[inner] = 0.5 * grid.dz / np.tan(0.5 * grid.dz * k) - 1.0 / k
    amplitudes = spectrum.amplitudes + 1j * jump * term
    return ModeSpectrum(grid, amplitudes)


def continuum_gap_spectrum(grid: Grid) -> ModeSpectrum:
    """Continuum-transform estimate of the gap from its lattice samples."""
    return continuum_spectrum(grid, gap_samples(grid))


SYMMETRY_TOL = 1e-6


def inverse_transform(spectrum: ModeSpectrum) -> np.ndarray:
    """Real samples whose forward transform reproduces each row of the spectrum exactly.

    Refuses spectra with a row that is not conjugate-symmetric to within
    SYMMETRY_TOL (the field would not be real); the discarded imaginary
    residue is checked against 1e-9, and the real part is copied out.  The
    bits of ``ifft(ifftshift(amplitudes * phase) / dz).real``, each step
    computed in one complex array; the spectrum is never written.
    """
    defect = spectrum.conjugate_symmetry_defect()
    if defect > SYMMETRY_TOL:
        raise SpectrumSymmetryError(
            f"conjugate symmetry violated by {defect:.3e} (tolerance {SYMMETRY_TOL:.1e})"
        )
    grid, amplitudes = spectrum.grid, spectrum.amplitudes
    half = grid.n_points // 2
    rec = np.empty(amplitudes.shape, complex)
    # ifftshift swaps the halves; each mode is phased as it moves.
    np.multiply(amplitudes[..., half:], grid.phase[half:], out=rec[..., :half])
    np.multiply(amplitudes[..., :half], grid.phase[:half], out=rec[..., half:])
    rec /= grid.dz
    np.fft.ifft(rec, out=rec)
    residue = float(np.max(np.abs(rec.imag, out=rec.imag)))
    if residue > 1e-9:
        raise SpectrumSymmetryError(f"imaginary reconstruction residue {residue:.3e}")
    return rec.real.copy()


def analytic_gap_spectrum(k):
    """Closed-form continuous transform of the gap: i*(1/k - pi/sinh(pi*k)).

    Equals 2i * integral_0^inf sin(kz)/(exp(z)+1) dz.  Near k = 0 the two
    terms cancel catastrophically, so |k| < 1e-4 switches to the Taylor
    branch i*(pi^2 k/6 - 7 pi^4 k^3/360); for pi|k| > 700 the sinh term has
    underflowed past double precision and is dropped.
    """
    k = np.asarray(k, dtype=float)
    out = np.zeros(k.shape, dtype=complex)
    small = np.abs(k) < 1e-4
    ks = k[small]
    out[small] = 1j * (np.pi**2 * ks / 6.0 - 7.0 * np.pi**4 * ks**3 / 360.0)
    big = ~small
    kb = k[big]
    sinh_term = np.zeros_like(kb)
    safe = np.abs(kb) * np.pi < 700.0
    sinh_term[safe] = np.pi / np.sinh(np.pi * kb[safe])
    out[big] = 1j * (1.0 / kb - sinh_term)
    return out if out.ndim else complex(out)


# Rows per write in write_columns: bounds the row strings held at once.
_CHUNK_ROWS = 8192


def _write_rows(fh, columns, firsts):
    """The _CHUNK_ROWS-row chunks starting at ``firsts`` as CSV bytes."""
    for first in firsts:
        fh.write(format_rows([c[first:first + _CHUNK_ROWS] for c in columns]))


def write_columns(path, header, columns):
    """Write equal-length columns as a CSV table: a header row, then one row
    per index, each value as its shortest round-trip repr, rows ending in
    CRLF: the bytes the csv module writes for the same rows.  Each chunk's
    bytes are ``floattext.format_rows``', which finds every float's digits
    with array arithmetic on the whole chunk, not one ``repr`` call per
    value; a chunk with a column neither float nor integer raises
    ValueError.

    The rows, in chunks of _CHUNK_ROWS, are written on every core this
    process may use (``workers.split`` and ``workers.run``), at most one
    share per chunk, so a one-chunk table is written by the caller alone;
    a worker's unnamed file lies beside the table.  A failed worker makes
    it raise ``WorkerError`` naming its rows and the table."""
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns) or len({len(c) for c in columns}) > 1:
        raise ValueError("write_columns needs one equal-length column per header name")
    n_rows = len(columns[0])

    def write(share, fh):
        _write_rows(fh, columns, share)

    def name(share):
        return f"formatting rows {share.start}-{min(share.stop, n_rows) - 1} of {path}"

    shares = split(range(0, n_rows, _CHUNK_ROWS), 1, 1)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        run(shares, write, fh, name, Path(path).parent)


def write_spectrum_csv(path, spectrum: ModeSpectrum):
    a = spectrum.amplitudes
    write_columns(path, ["k", "re", "im"], [spectrum.grid.k, a.real, a.imag])
