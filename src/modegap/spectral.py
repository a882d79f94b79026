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

import numpy as np


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

    def require_same(self, other: "Grid"):
        if self.half_width != other.half_width or self.n_points != other.n_points:
            raise GridError(
                f"grid mismatch: ({self.half_width}, {self.n_points}) vs "
                f"({other.half_width}, {other.n_points})"
            )


@dataclass
class ModeSpectrum:
    """Complex mode amplitudes on a grid's wavenumber lattice."""

    grid: Grid
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.grid.n_points,):
            raise GridError(
                f"expected {self.grid.n_points} amplitudes, got {self.amplitudes.shape}"
            )

    def conjugate_symmetry_defect(self) -> float:
        """Max deviation from amplitude(-k) = conj(amplitude(k)).

        The n = -N/2 Nyquist entry has no partner and must be real, as must
        the k = 0 entry.
        """
        a = self.amplitudes
        half = self.grid.n_points // 2
        paired = a[half + 1:]                      # n = 1 .. N/2-1
        partners = a[1:half][::-1]                 # n = -1 .. -(N/2-1)
        defect = float(np.max(np.abs(paired - np.conj(partners)))) if paired.size else 0.0
        return max(defect, abs(a[half].imag), abs(a[0].imag))


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
    (-1)^n phase on the plain FFT.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n_points,):
        raise GridError("sample count does not match the grid")
    amplitudes = grid.dz * grid.phase * np.fft.fftshift(np.fft.fft(samples))
    return ModeSpectrum(grid, amplitudes)


def transform_gap(grid: Grid) -> ModeSpectrum:
    """Mode content of the gap on the grid's wavenumber lattice."""
    return transform_samples(grid, gap_samples(grid))


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
    """Real samples whose forward transform reproduces the spectrum exactly.

    Refuses spectra that are not conjugate-symmetric to within SYMMETRY_TOL
    (the field would not be real); the discarded imaginary residue is
    checked against 1e-9.
    """
    defect = spectrum.conjugate_symmetry_defect()
    if defect > SYMMETRY_TOL:
        raise SpectrumSymmetryError(
            f"conjugate symmetry violated by {defect:.3e} (tolerance {SYMMETRY_TOL:.1e})"
        )
    grid = spectrum.grid
    rec = np.fft.ifft(np.fft.ifftshift(spectrum.amplitudes * grid.phase / grid.dz))
    residue = float(np.max(np.abs(rec.imag)))
    if residue > 1e-9:
        raise SpectrumSymmetryError(f"imaginary reconstruction residue {residue:.3e}")
    return rec.real


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


def parseval_check(spectrum: ModeSpectrum, samples) -> float:
    """Normalized defect between sample energy and spectral energy.

    |dz*sum|f|^2 - (1/2L)*sum|F|^2| / (dz*sum|f|^2); 0 by convention for the
    zero function.
    """
    samples = np.asarray(samples, dtype=float)
    grid = spectrum.grid
    if samples.shape != (grid.n_points,):
        raise GridError("sample count does not match the grid")
    sample_energy = grid.dz * float(np.sum(samples**2))
    if sample_energy == 0.0:
        return 0.0
    spectral_energy = float(np.sum(np.abs(spectrum.amplitudes) ** 2)) / (2.0 * grid.half_width)
    return abs(sample_energy - spectral_energy) / sample_energy


# Rows per write in write_columns: bounds the row strings held at once.
_CHUNK_ROWS = 8192


def write_columns(path, header, columns):
    """Write equal-length columns as a CSV table: a header row, then one row
    per index, each value as its shortest round-trip repr, rows ending in
    CRLF: the bytes the csv module writes for the same rows."""
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns) or len({len(c) for c in columns}) > 1:
        raise ValueError("write_columns needs one equal-length column per header name")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            rows = zip(*(c[start:start + _CHUNK_ROWS].tolist() for c in columns))
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in rows))


def write_spectrum_csv(path, spectrum: ModeSpectrum):
    a = spectrum.amplitudes
    write_columns(path, ["k", "re", "im"], [spectrum.grid.k, a.real, a.imag])
