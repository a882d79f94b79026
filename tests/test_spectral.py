import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from modegap import (
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
    transform_samples,
)
from modegap import spectral
from modegap.floattext import format_rows
from modegap.spectral import _CHUNK_ROWS, write_columns, write_spectrum_csv

GRID = Grid(40.0, 4096)

# Total gap energy: closed form of 2*int_0^inf dz/(1+e^z)^2.
GAP_ENERGY = 2.0 * (math.log(2.0) - 0.5)


def quad_gap_transform(k):
    """Independent oracle: 2*int_0^inf sin(kz)/(e^z+1) dz.

    Uses QUADPACK's oscillatory-weight rule, whose error estimate stays
    meaningful for sin-weighted integrands.
    """
    val, err = quad(lambda z: 2.0 / (math.exp(z) + 1.0),
                    0.0, 60.0, weight="sin", wvar=k, limit=400)
    assert err < 1e-9
    return val


class TestGrid:
    def test_lattice(self):
        g = Grid(40.0, 8)
        assert g.dz * g.n_points == pytest.approx(80.0, abs=0)
        np.testing.assert_allclose(g.z, -40.0 + 10.0 * np.arange(8))
        np.testing.assert_allclose(g.k, np.pi * np.arange(-4, 4) / 40.0)

    def test_wavenumber_symmetry(self):
        # symmetric about zero except the single Nyquist entry
        k = GRID.k
        np.testing.assert_allclose(k[1:], -k[1:][::-1])

    def test_invalid(self):
        for half_width, n_points in [
            (40.0, 100),     # not a power of two
            (-1.0, 64),
            (40.0, 0),
            (1e-310, 4096),  # dz > 0, but the largest |k| overflows
            (40.0, 1),       # N < 8: no three samples on each side of z = 0
            (40.0, 2),
            (40.0, 4),
            (1e300, 4096),   # the gap samples next to z = 0 underflow to 0
        ]:
            with pytest.raises(GridError):
                Grid(half_width, n_points)


class TestGap:
    def test_zero_at_origin(self):
        assert gap(0.0) == 0.0

    def test_direct_value(self):
        assert gap(2.0) == pytest.approx(-1.0 / (1.0 + math.exp(2.0)), abs=1e-15)

    def test_odd(self):
        z = np.linspace(-35, 35, 5001)
        np.testing.assert_allclose(gap(-z), -gap(z), atol=0)

    def test_equals_sigmoid_minus_step(self):
        from modegap import sigmoid, step
        z = np.linspace(-30, 30, 999)
        np.testing.assert_allclose(gap(z), sigmoid(z) - step(z), atol=1e-15)

    def test_huge_argument_underflows_gracefully(self):
        assert gap(1000.0) == 0.0
        assert gap(-1000.0) == 0.0


class TestAnalyticSpectrum:
    def test_zero_at_origin(self):
        assert analytic_gap_spectrum(0.0) == 0.0

    def test_k_equal_one(self):
        expected = 1.0 - math.pi / math.sinh(math.pi)
        assert analytic_gap_spectrum(1.0) == pytest.approx(1j * expected, abs=1e-15)
        assert expected == pytest.approx(0.72797, abs=5e-6)

    def test_taylor_branch(self):
        val = analytic_gap_spectrum(0.001)
        k = 0.001
        two_terms = np.pi**2 * k / 6.0 - 7.0 * np.pi**4 * k**3 / 360.0
        assert val.imag == pytest.approx(two_terms, rel=1e-12)
        assert val.imag == pytest.approx(1.6449e-3, rel=1e-4)
        assert val.real == 0.0

    def test_branches_agree_at_switch_point(self):
        # evaluate both formulas at the same k just above the 1e-4 cutover
        k = 1.01e-4
        direct = analytic_gap_spectrum(k).imag
        taylor = np.pi**2 * k / 6.0 - 7.0 * np.pi**4 * k**3 / 360.0
        assert abs(direct - taylor) < 1e-11

    def test_quadrature_oracle(self):
        """The closed form must match adaptive quadrature before being trusted."""
        for k in (0.5, 1.0, 2.0, 5.0):
            assert analytic_gap_spectrum(k).imag == pytest.approx(
                quad_gap_transform(k), abs=1e-10)

    def test_odd_in_k(self):
        for k in (0.3, 1.7, 12.0):
            assert analytic_gap_spectrum(-k) == -analytic_gap_spectrum(k)

    def test_large_k_no_overflow(self):
        val = analytic_gap_spectrum(1000.0)
        assert np.isfinite(val.imag)
        assert val.imag == pytest.approx(1e-3, rel=1e-10)


class TestTransformGap:
    def test_conjugate_symmetry(self):
        assert GRID.gap_spectrum.conjugate_symmetry_defect() < 1e-10

    def test_purely_imaginary(self):
        spec = GRID.gap_spectrum
        assert np.abs(spec.amplitudes.real).max() < 1e-8

    def test_near_k_one_matches_oracle(self):
        spec = GRID.gap_spectrum
        i = np.argmin(np.abs(GRID.k - 1.0))
        ana = analytic_gap_spectrum(GRID.k[i])
        assert abs(spec.amplitudes[i] - ana) / abs(ana) < 1e-3

    def test_known_jump_bias(self):
        """The lattice transform deviates from the continuum by -i*dz^2*k/12.

        The gap's unit jump at z = 0 (sampled at its midpoint value) makes
        the rectangle rule second-order with exactly this leading error;
        after removing it the agreement is two orders better.
        """
        spec = GRID.gap_spectrum
        band = (GRID.k >= 0.1) & (GRID.k <= 10.0)
        ana = analytic_gap_spectrum(GRID.k[band])
        raw = np.abs(spec.amplitudes[band] - ana) / np.abs(ana)
        assert raw.max() < 4e-3
        corrected = spec.amplitudes[band] + 1j * GRID.dz**2 * GRID.k[band] / 12.0
        resid = np.abs(corrected - ana) / np.abs(ana)
        assert resid.max() < 1e-4

    def test_doubling_n_halves_or_better(self):
        def band_err(n):
            g = Grid(40.0, n)
            spec = g.gap_spectrum
            band = (g.k >= 0.1) & (g.k <= 10.0)
            ana = analytic_gap_spectrum(g.k[band])
            return np.max(np.abs(spec.amplitudes[band] - ana) / np.abs(ana))

        e4096, e8192 = band_err(4096), band_err(8192)
        assert e8192 <= e4096 / 2.0

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f = np.exp(-GRID.z**2 / 8.0)
        g = gap_samples(GRID)
        a, b = 2.5, -0.75
        combined = transform_samples(GRID, a * f + b * g).amplitudes
        split = (a * transform_samples(GRID, f).amplitudes
                 + b * transform_samples(GRID, g).amplitudes)
        np.testing.assert_allclose(combined, split, atol=1e-12)
        smooth = rng.normal(size=GRID.n_points)
        np.testing.assert_allclose(
            transform_samples(GRID, 3.0 * smooth).amplitudes,
            3.0 * transform_samples(GRID, smooth).amplitudes, atol=1e-10)


class TestContinuumSpectrum:
    def test_whole_positive_lattice_matches_closed_form(self):
        """The jump term leaves only the estimate of J: 1.9e-6 up to Nyquist."""
        spec = continuum_gap_spectrum(GRID)
        pos = GRID.k > 0
        ana = analytic_gap_spectrum(GRID.k[pos])
        assert np.max(np.abs(spec.amplitudes[pos] - ana) / np.abs(ana)) < 1e-5

    def test_conjugate_symmetric_with_zero_origin_and_nyquist_terms(self):
        spec = continuum_gap_spectrum(GRID)
        raw = GRID.gap_spectrum
        assert spec.conjugate_symmetry_defect() < 1e-10
        half = GRID.n_points // 2
        assert spec.amplitudes[half] == raw.amplitudes[half]
        assert spec.amplitudes[0] == raw.amplitudes[0]

    def test_jump_read_from_samples(self):
        """A sign flip flips J with it; jump-free samples get no term."""
        g = gap_samples(GRID)
        np.testing.assert_array_equal(continuum_spectrum(GRID, -g).amplitudes,
                                      -continuum_gap_spectrum(GRID).amplitudes)
        even = np.exp(-GRID.z**2 / 8.0)
        np.testing.assert_array_equal(continuum_spectrum(GRID, even).amplitudes,
                                      transform_samples(GRID, even).amplitudes)

    def test_small_grid_rejected(self):
        # the N >= 8 rule is the lattice's: the grid is refused before
        # continuum_spectrum can read its samples
        with pytest.raises(GridError):
            continuum_spectrum(Grid(40.0, 4), np.zeros(4))


class TestInverseTransform:
    def test_round_trip(self):
        rec = inverse_transform(GRID.gap_spectrum)
        assert np.abs(rec - gap_samples(GRID)).max() < 1e-9

    def test_transform_of_inverse(self):
        spec = GRID.gap_spectrum
        again = transform_samples(GRID, inverse_transform(spec))
        assert np.abs(again.amplitudes - spec.amplitudes).max() < 1e-9

    def test_zero_spectrum(self):
        rec = inverse_transform(ModeSpectrum(GRID, np.zeros(GRID.n_points, complex)))
        assert np.all(rec == 0.0)

    def test_halved_spectrum_halves_samples(self):
        spec = GRID.gap_spectrum
        rec = inverse_transform(ModeSpectrum(GRID, spec.amplitudes / 2.0))
        assert np.abs(rec - gap_samples(GRID) / 2.0).max() < 1e-9

    def test_asymmetric_spectrum_rejected(self):
        amps = np.zeros(GRID.n_points, complex)
        amps[GRID.n_points // 2 + 5] = 1.0  # no conjugate partner
        with pytest.raises(SpectrumSymmetryError):
            inverse_transform(ModeSpectrum(GRID, amps))

    def test_one_asymmetric_row_rejects_the_stack(self):
        amps = np.stack([GRID.gap_spectrum.amplitudes] * 3)
        assert inverse_transform(ModeSpectrum(GRID, amps)).shape == (3, GRID.n_points)
        amps[1, GRID.n_points // 2 + 5] += 1.0  # no conjugate partner in row 1
        with pytest.raises(SpectrumSymmetryError):
            inverse_transform(ModeSpectrum(GRID, amps))

    def test_stack_shapes(self):
        n = GRID.n_points
        for bad in (np.zeros((2, n // 2)), np.zeros((2, 2, n)), np.zeros(())):
            with pytest.raises(GridError):
                ModeSpectrum(GRID, bad)


def reference_transform(grid, samples):
    """``transform_samples``' expression before it reused its array."""
    return grid.dz * grid.phase * np.fft.fftshift(np.fft.fft(np.asarray(samples, dtype=float)))


def reference_inverse(spectrum):
    """``inverse_transform``'s steps before each reused one array: the real
    part, and the message of the residue refusal whatever the residue."""
    grid = spectrum.grid
    shifted = np.fft.ifftshift(spectrum.amplitudes * grid.phase, axes=-1)
    shifted /= grid.dz
    rec = np.fft.ifft(shifted)
    residue = float(np.max(np.abs(rec.imag)))
    return rec.real.copy(), f"imaginary reconstruction residue {residue:.3e}"


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


class TestLeanTransforms:
    """``transform_samples`` and ``inverse_transform`` compute in place, and
    must give the bits of the expressions they replace, read-only inputs
    untouched, for rows, stacks and signed zeros."""

    GRIDS = [Grid(40.0, 4096), Grid(7.3, 64), Grid(1e-3, 8), Grid(40.0, 262144)]

    @staticmethod
    def samples(grid, rng, decades):
        """Gap samples, random samples over ``decades`` of scale with signed
        zeros among them, signed zeros alone, and subnormals."""
        n = grid.n_points
        zeros = rng.choice([0.0, -0.0], n)
        mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-decades, decades, n)
        mixed[rng.random(n) < 0.3] = -0.0
        return [gap_samples(grid), mixed, zeros, np.where(zeros == 0.0, 1e-320, zeros)]

    @staticmethod
    def read_only(x):
        x = np.array(x)
        x.flags.writeable = False
        return x

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: str(g.n_points))
    def test_forward_bits(self, grid):
        for x in self.samples(grid, np.random.default_rng(grid.n_points), 300):
            x = self.read_only(x)
            kept = x.copy()
            assert same_bits(transform_samples(grid, x).amplitudes, reference_transform(grid, x))
            assert same_bits(x, kept)

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: str(g.n_points))
    def test_inverse_bits(self, grid):
        """Rows, and an (L, N) stack of them: the spectra of samples within
        the symmetry tolerance, and one of signed zeros alone."""
        rng = np.random.default_rng(grid.n_points + 1)
        rows = [reference_transform(grid, x) for x in self.samples(grid, rng, 2)]
        zeros = rng.choice([0.0, -0.0], (2, grid.n_points))
        rows.append(zeros[0] + 1j * zeros[1])
        for amplitudes in rows + [np.stack(rows)]:
            amplitudes = self.read_only(amplitudes)
            kept = amplitudes.copy()
            spectrum = ModeSpectrum(grid, amplitudes)
            assert same_bits(inverse_transform(spectrum), reference_inverse(spectrum)[0])
            assert same_bits(amplitudes, kept)

    def test_refusals_keep_their_messages(self):
        """A defect past SYMMETRY_TOL, and one under it whose residue passes 1e-9."""
        grid = Grid(1.0, 8)
        amplitudes = np.zeros(grid.n_points, complex)
        amplitudes[grid.n_points // 2 + 1] = 1e-3
        with pytest.raises(SpectrumSymmetryError) as refused:
            inverse_transform(ModeSpectrum(grid, amplitudes))
        assert str(refused.value) == "conjugate symmetry violated by 1.000e-03 (tolerance 1.0e-06)"
        amplitudes[grid.n_points // 2 + 1] = 1e-7
        spectrum = ModeSpectrum(grid, self.read_only(amplitudes))
        with pytest.raises(SpectrumSymmetryError) as refused:
            inverse_transform(spectrum)
        assert str(refused.value) == reference_inverse(spectrum)[1]
        assert spectrum.amplitudes[grid.n_points // 2 + 1] == 1e-7


def _parseval_check(spectrum, samples):
    """Normalized defect between sample energy and spectral energy:
    |dz*sum|f|^2 - (1/2L)*sum|F|^2| / (dz*sum|f|^2), 0 for the zero function."""
    grid = spectrum.grid
    sample_energy = grid.dz * float(np.sum(np.asarray(samples) ** 2))
    if sample_energy == 0.0:
        return 0.0
    spectral_energy = float(np.sum(np.abs(spectrum.amplitudes) ** 2)) / (2.0 * grid.half_width)
    return abs(sample_energy - spectral_energy) / sample_energy


class TestParseval:
    def test_gap_defect(self):
        g = gap_samples(GRID)
        assert _parseval_check(GRID.gap_spectrum, g) < 1e-9

    def test_zero_function(self):
        zero = np.zeros(GRID.n_points)
        assert _parseval_check(transform_samples(GRID, zero), zero) == 0.0

    def test_pure_harmonic(self):
        harmonic = np.cos(GRID.k[GRID.n_points // 2 + 17] * GRID.z)
        assert _parseval_check(transform_samples(GRID, harmonic), harmonic) < 1e-12


class TestGapEnergy:
    def test_quadrature_vs_closed_form(self):
        val, _ = quad(lambda z: 2.0 / (1.0 + math.exp(z))**2, 0.0, 80.0)
        assert val == pytest.approx(GAP_ENERGY, abs=1e-12)

    def test_grid_sum_converges_first_order(self):
        def energy_deficit(n):
            g = Grid(40.0, n)
            return abs(g.dz * np.sum(gap_samples(g)**2) - GAP_ENERGY)

        d4096 = energy_deficit(4096)
        assert d4096 < 0.3 * Grid(40.0, 4096).dz
        assert energy_deficit(8192) < 0.6 * d4096


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        spec = GRID.gap_spectrum
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,re,im"
        assert len(lines) == 1 + GRID.n_points
        a = spec.amplitudes
        assert lines[1:] == [f"{k!r},{re!r},{im!r}" for k, re, im
                             in zip(GRID.k.tolist(), a.real.tolist(), a.imag.tolist())]


class TestColumns:
    """write_columns: the one CSV format of every table."""

    @staticmethod
    def table():
        n = 2 * _CHUNK_ROWS + 1                    # three chunks, the last of one row
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, -1.5]
        x = np.linspace(-40.0, 40.0, n)
        # Straddles the chunk boundary at row 8192, which is a share boundary
        # for 2 and 3 shares; the last row is a chunk and a share of its own.
        x[_CHUNK_ROWS - 4:_CHUNK_ROWS + 4] = special
        y = np.resize(np.array(special), n)
        m = np.arange(n) - 1                       # integer column, -1 included
        return x, y, m

    @staticmethod
    def csv_module_bytes(path, x, y, m):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y", "m"])
            for a, b, c in zip(x, y, m):
                w.writerow([repr(float(a)), repr(float(b)), int(c)])
        return path.read_bytes()

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_bytes_match_csv_module(self, tmp_path, harness, cores):
        """One share per core, at most one per chunk: 3 chunks on 2 cores
        split 1 + 2, on 3 cores 1 + 1 + 1, and the bytes do not change."""
        harness.cores(cores)
        x, y, m = self.table()
        write_columns(tmp_path / "new.csv", ["x", "y", "m"], [x, y, m])
        assert (tmp_path / "new.csv").read_bytes() == \
            self.csv_module_bytes(tmp_path / "ref.csv", x, y, m)

    @pytest.mark.parametrize("rows, forks", [(_CHUNK_ROWS, 0), (_CHUNK_ROWS + 1, 1)])
    def test_one_chunk_table_forks_nothing(self, tmp_path, harness, rows, forks):
        harness.cores(3)
        write_columns(tmp_path / "t.csv", ["i"], [np.arange(rows)])
        assert len(harness.forks) == forks
        assert (tmp_path / "t.csv").read_bytes() == \
            b"i\r\n" + b"".join(b"%d\r\n" % i for i in range(rows))

    def test_header_only_table(self, tmp_path):
        write_columns(tmp_path / "t.csv", ["a", "b"], [[], []])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            write_columns(tmp_path / "t.csv", ["a", "b"], [[1.0]])


def csv_rows(*columns):
    """The reference bytes: each row through the csv module, a float as its repr."""
    text = io.StringIO()
    csv.writer(text).writerows(zip(*(np.asarray(c).tolist() for c in columns)))
    return text.getvalue().encode()


def ulp_neighbours(x):
    """Each double of ``x`` and the two one ulp either side of it."""
    bits = np.asarray(x, np.float64).view(np.uint64)
    return np.concatenate([bits - 1, bits, bits + 1]).view(np.float64)


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1073, 1024))
POWERS_OF_TEN = np.array([float(f"1e{e}") for e in range(-323, 309)])
# The shortest and the positional/exponent switches of repr: 1e16 has 17
# digits left of the point, 1e-4 three zeros right of it.
SWITCHES = np.array([1e16, 1e15, 9999999999999998.0, 1.2345678901234567e16, 1e-4, 1e-5,
                     1.2345e-4, 9.87654321e-5, 0.001, 123.0, 0.5, 0.1, 1.7976931348623157e308,
                     2.2250738585072014e-308])
SPECIALS = np.array([0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                     0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF], np.uint64).view(np.float64)
FAMILIES = {
    "powers-of-two": ulp_neighbours(POWERS_OF_TWO),
    "powers-of-ten": ulp_neighbours(POWERS_OF_TEN),
    "subnormals": np.arange(1, 200_000, dtype=np.uint64).view(np.float64),
    "near-2**53": 2.0**53 + np.arange(-1000.0, 1000.0),
    "layout-switches": ulp_neighbours(SWITCHES),
    "zeros-infinities-nans": SPECIALS,
}


class TestFormatRows:
    """format_rows: the bytes of each value's repr, compared with the csv module."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern_writes_its_repr(self, patterns):
        x = np.array(patterns, np.uint64).view(np.float64)
        assert format_rows([x]) == csv_rows(x)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_edge_family_writes_its_repr(self, family):
        x = FAMILIES[family]
        assert format_rows([x, -x]) == csv_rows(x, -x)

    def test_integer_columns(self):
        """int64 from -2**63 to 19-digit values, uint64 to 20 digits: every
        digit count's bounds, and the powers of two either side; each other
        integer width at its bounds, 0 and +-1."""
        edges = sorted({v for n in range(21) for v in (10**n - 1, 10**n, 10**n + 1)}
                       | {2**n + d for n in range(65) for d in (-1, 0, 1)})
        columns = [
            np.array([-1, 0, 1, 9, 10, -10, 10**18 - 1, 10**18, -(10**18), 1234567890123456789,
                      2**63 - 1, -(2**63)], np.int64),
            np.array([v for v in edges if v < 2**63] + [-v for v in edges if v <= 2**63],
                     np.int64),
            np.array([v for v in edges if v < 2**64], np.uint64),
            np.array([-128, -1, 0, 7, 127], np.int8),
        ]
        for dtype in (np.int16, np.int32, np.uint8, np.uint16, np.uint32):
            info = np.iinfo(dtype)
            columns.append(np.array(sorted({info.min, max(info.min, -1), 0, 1, info.max}), dtype))
        for column in columns:
            assert format_rows([column]) == csv_rows(column)

    def test_mixed_tables(self):
        """Float64, float32 and integer columns in any order and number."""
        rng = np.random.default_rng(7)
        makers = [lambda n: rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
                  lambda n: rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n),
                  lambda n: rng.standard_normal(n).astype(np.float32),
                  lambda n: rng.integers(-(2**63), 2**63, n, dtype=np.int64),
                  lambda n: rng.integers(-3, 3, n)]
        for _ in range(100):
            n = int(rng.integers(1, 40))
            columns = [makers[i](n) for i in rng.integers(0, len(makers), rng.integers(1, 7))]
            assert format_rows(columns) == csv_rows(*columns)

    @pytest.mark.parametrize("chunk", [1, 7, 8192])
    def test_chunk_rows_do_not_change_the_bytes(self, tmp_path, harness, monkeypatch, chunk):
        """Row chunks of 1, 7 and 8,192, in three shares where there are chunks to split."""
        harness.cores(3)
        monkeypatch.setattr(spectral, "_CHUNK_ROWS", chunk)
        x = np.resize(np.concatenate([SPECIALS, SWITCHES, -SWITCHES]), 100)
        m = np.arange(100) - 50
        write_columns(tmp_path / "t.csv", ["x", "m", "y"], [x, m, x[::-1]])
        assert (tmp_path / "t.csv").read_bytes() == b"x,m,y\r\n" + csv_rows(x, m, x[::-1])
        harness.assert_nothing_left()

    @pytest.mark.parametrize("column", [np.array([1 + 2j]), np.array([1.0], object),
                                        np.array([True]), np.array(["1.0"])],
                             ids=["complex", "object", "bool", "str"])
    def test_other_dtypes_rejected(self, tmp_path, column):
        with pytest.raises(ValueError):
            format_rows([np.array([1.0]), column])
        with pytest.raises(ValueError):
            write_columns(tmp_path / "t.csv", ["a"], [column])
