import csv
import math

import numpy as np
import pytest
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
    parseval_check,
    transform_gap,
    transform_samples,
)
from modegap.spectral import write_columns, write_spectrum_csv

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
        assert transform_gap(GRID).conjugate_symmetry_defect() < 1e-10

    def test_purely_imaginary(self):
        spec = transform_gap(GRID)
        assert np.abs(spec.amplitudes.real).max() < 1e-8

    def test_near_k_one_matches_oracle(self):
        spec = transform_gap(GRID)
        i = np.argmin(np.abs(GRID.k - 1.0))
        ana = analytic_gap_spectrum(GRID.k[i])
        assert abs(spec.amplitudes[i] - ana) / abs(ana) < 1e-3

    def test_known_jump_bias(self):
        """The lattice transform deviates from the continuum by -i*dz^2*k/12.

        The gap's unit jump at z = 0 (sampled at its midpoint value) makes
        the rectangle rule second-order with exactly this leading error;
        after removing it the agreement is two orders better.
        """
        spec = transform_gap(GRID)
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
            spec = transform_gap(g)
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
        raw = transform_gap(GRID)
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
        rec = inverse_transform(transform_gap(GRID))
        assert np.abs(rec - gap_samples(GRID)).max() < 1e-9

    def test_transform_of_inverse(self):
        spec = transform_gap(GRID)
        again = transform_samples(GRID, inverse_transform(spec))
        assert np.abs(again.amplitudes - spec.amplitudes).max() < 1e-9

    def test_zero_spectrum(self):
        rec = inverse_transform(ModeSpectrum(GRID, np.zeros(GRID.n_points, complex)))
        assert np.all(rec == 0.0)

    def test_halved_spectrum_halves_samples(self):
        spec = transform_gap(GRID)
        rec = inverse_transform(ModeSpectrum(GRID, spec.amplitudes / 2.0))
        assert np.abs(rec - gap_samples(GRID) / 2.0).max() < 1e-9

    def test_asymmetric_spectrum_rejected(self):
        amps = np.zeros(GRID.n_points, complex)
        amps[GRID.n_points // 2 + 5] = 1.0  # no conjugate partner
        with pytest.raises(SpectrumSymmetryError):
            inverse_transform(ModeSpectrum(GRID, amps))


class TestParseval:
    def test_gap_defect(self):
        g = gap_samples(GRID)
        assert parseval_check(transform_gap(GRID), g) < 1e-9

    def test_zero_function(self):
        zero = np.zeros(GRID.n_points)
        assert parseval_check(transform_samples(GRID, zero), zero) == 0.0

    def test_pure_harmonic(self):
        harmonic = np.cos(GRID.k[GRID.n_points // 2 + 17] * GRID.z)
        assert parseval_check(transform_samples(GRID, harmonic), harmonic) < 1e-12


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
        spec = transform_gap(GRID)
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
        n = 8193                                   # one row past a whole chunk
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, -1.5]
        x = np.linspace(-40.0, 40.0, n)
        x[-len(special):] = special                # straddles the chunk boundary
        y = np.resize(np.array(special), n)
        m = np.arange(n) - 1                       # integer column, -1 included
        return x, y, m

    def test_bytes_match_csv_module(self, tmp_path):
        x, y, m = self.table()
        write_columns(tmp_path / "new.csv", ["x", "y", "m"], [x, y, m])
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y", "m"])
            for a, b, c in zip(x, y, m):
                w.writerow([repr(float(a)), repr(float(b)), int(c)])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_header_only_table(self, tmp_path):
        write_columns(tmp_path / "t.csv", ["a", "b"], [[], []])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            write_columns(tmp_path / "t.csv", ["a", "b"], [[1.0]])
