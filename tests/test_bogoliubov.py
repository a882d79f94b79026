import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modegap import (
    DegradedActivation,
    DimensionError,
    Grid,
    GridError,
    ProfileError,
    apply_channel,
    commutator_residual,
    compose_channels,
    gap_samples,
    lowpass_channel,
    make_channel,
    mode_occupation,
    planck_occupation,
    reconstruct,
    self_compose,
    sigmoid,
    step,
    thermal_channel,
    transform_gap,
    uniform_channel,
)
from modegap.bogoliubov import (
    MAX_SQUEEZE,
    gap_power_split,
    write_activation_csv,
)

GRID = Grid(40.0, 4096)
SMALL = Grid(20.0, 256)


class TestChannelCoefficients:
    def test_identity_channel(self):
        ch = uniform_channel(SMALL, 0.0)
        np.testing.assert_array_equal(ch.alpha, 1.0)
        np.testing.assert_array_equal(ch.beta, 0.0)

    def test_total_loss(self):
        ch = uniform_channel(SMALL, 1.0)
        np.testing.assert_array_equal(ch.eta, 0.0)
        np.testing.assert_array_equal(ch.beta, 0.0)

    def test_transmissivity_identity(self):
        """alpha^2 - beta^2 = 1 - iota, checked numerically at moderate squeeze."""
        ch = make_channel(SMALL, lambda k: 0.4, lambda k: 0.1 + abs(k) / 10.0)
        np.testing.assert_allclose(ch.alpha**2 - ch.beta**2, 0.6, atol=1e-12)

    def test_profile_validation(self):
        with pytest.raises(ProfileError):
            uniform_channel(SMALL, 1.5)
        with pytest.raises(ProfileError):
            make_channel(SMALL, lambda k: -0.1, lambda k: 0.0)
        with pytest.raises(ProfileError):
            make_channel(SMALL, lambda k: 0.0, lambda k: -1.0)
        with pytest.raises(ProfileError):
            make_channel(SMALL, lambda k: math.nan, lambda k: 0.0)
        with pytest.raises(ProfileError):
            make_channel(SMALL, lambda k: 0.0, lambda k: np.nextafter(MAX_SQUEEZE, math.inf))
        # At the bound arcsinh(sqrt(DBL_MAX)), alpha, beta and beta^2 are finite.
        assert MAX_SQUEEZE == pytest.approx(355.58450362725193, rel=1e-15)
        ch = make_channel(SMALL, lambda k: 0.0, lambda k: MAX_SQUEEZE)
        assert np.all(np.isfinite(ch.alpha))
        assert np.all(np.isfinite(ch.beta**2))

    def test_thermal_finite_at_k_zero(self):
        ch = thermal_channel(SMALL, 1.0)
        assert np.all(np.isfinite(ch.alpha))
        assert np.all(np.isfinite(ch.beta))


class TestCommutatorResidual:
    def test_canonical_any_squeeze(self):
        ch = make_channel(SMALL, lambda k: 0.0, lambda k: 2.0)
        assert commutator_residual(ch) == 0.0
        assert commutator_residual(thermal_channel(SMALL, 0.5)) == 0.0

    def test_uniform_loss(self):
        assert commutator_residual(uniform_channel(SMALL, 0.3)) == 0.3

    def test_composed(self):
        ch = compose_channels(uniform_channel(SMALL, 0.5), uniform_channel(SMALL, 0.5))
        assert commutator_residual(ch) == 0.75


class TestCompose:
    def test_identity_element(self):
        identity = uniform_channel(SMALL, 0.0)
        ch = make_channel(SMALL, lambda k: 0.2, lambda k: 0.7)
        out = compose_channels(identity, ch)
        np.testing.assert_allclose(out.iota, ch.iota, atol=1e-15)
        np.testing.assert_array_equal(out.squeeze, ch.squeeze)

    def test_n_fold(self):
        for n in range(1, 21):
            eff = self_compose(uniform_channel(SMALL, 0.3), n)
            assert eff.iota[0] == pytest.approx(1.0 - 0.7**n, abs=1e-12)

    def test_squeeze_adds(self):
        ch = make_channel(SMALL, lambda k: 0.0, lambda k: 0.4)
        assert self_compose(ch, 3).squeeze[0] == pytest.approx(1.2, abs=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(GridError):
            compose_channels(uniform_channel(SMALL, 0.1), uniform_channel(GRID, 0.1))

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 3), st.floats(0, 3), st.floats(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_associative_commutative(self, i1, i2, i3, r1, r2, r3):
        grid = Grid(10.0, 16)
        a = make_channel(grid, lambda k: i1, lambda k: r1)
        b = make_channel(grid, lambda k: i2, lambda k: r2)
        c = make_channel(grid, lambda k: i3, lambda k: r3)
        left = compose_channels(compose_channels(a, b), c)
        right = compose_channels(a, compose_channels(b, c))
        np.testing.assert_allclose(left.eta, right.eta, atol=1e-12)
        np.testing.assert_allclose(left.squeeze, right.squeeze, atol=1e-12)
        ab, ba = compose_channels(a, b), compose_channels(b, a)
        np.testing.assert_allclose(ab.eta, ba.eta, atol=1e-12)
        np.testing.assert_allclose(ab.squeeze, ba.squeeze, atol=1e-12)


class TestModeOccupation:
    def test_no_squeeze_no_quanta(self):
        ch = uniform_channel(SMALL, 0.4)
        assert mode_occupation(ch, float(SMALL.k[10])) == 0.0

    def test_total_loss_kills_beta(self):
        ch = make_channel(SMALL, lambda k: 1.0, lambda k: 2.0)
        assert mode_occupation(ch, float(SMALL.k[10])) == 0.0

    def test_planck_factor_at_unit_k(self):
        # L = 10*pi puts k = 1 exactly on the lattice
        grid = Grid(10.0 * np.pi, 1024)
        ch = thermal_channel(grid, 1.0)
        occ = mode_occupation(ch, 1.0)
        assert occ == pytest.approx(1.0 / (math.e - 1.0), abs=1e-10)
        assert occ == pytest.approx(0.58198, abs=5e-6)

    def test_planck_identity_across_lattice(self):
        """sinh^2(arctanh(e^{-k/2T})) equals the Planck factor."""
        ch = thermal_channel(GRID, 2.5)
        for idx in range(GRID.n_points // 2 + 5, GRID.n_points // 2 + 405, 20):
            k = float(GRID.k[idx])
            assert ch.beta[idx] ** 2 == pytest.approx(
                planck_occupation(k, 2.5), abs=1e-10)

    def test_off_lattice_lookup(self):
        with pytest.raises(LookupError):
            mode_occupation(uniform_channel(SMALL, 0.0), 0.1234)


class TestApplyChannel:
    def test_identity(self):
        spec = transform_gap(GRID)
        out = apply_channel(uniform_channel(GRID, 0.0), spec)
        assert np.abs(out.amplitudes - spec.amplitudes).max() < 1e-15

    def test_uniform_three_quarters_halves(self):
        spec = transform_gap(GRID)
        out = apply_channel(uniform_channel(GRID, 0.75), spec)
        np.testing.assert_allclose(out.amplitudes, 0.5 * spec.amplitudes, atol=1e-15)

    def test_lowpass(self):
        spec = transform_gap(GRID)
        out = apply_channel(lowpass_channel(GRID, 2.0), spec)
        below = np.abs(GRID.k) < 2.0
        np.testing.assert_array_equal(out.amplitudes[below], spec.amplitudes[below])
        np.testing.assert_array_equal(out.amplitudes[~below], 0.0)

    def test_grid_mismatch(self):
        with pytest.raises(GridError):
            apply_channel(uniform_channel(SMALL, 0.0), transform_gap(GRID))


class TestReconstruct:
    def test_identity_reproduces_sigmoid(self):
        act = reconstruct(uniform_channel(GRID, 0.0))
        assert np.abs(act.samples - sigmoid(GRID.z)).max() < 1e-9
        assert act.loss_fraction == pytest.approx(0.0, abs=1e-15)

    def test_total_loss_is_exact_step(self):
        act = reconstruct(uniform_channel(GRID, 1.0))
        np.testing.assert_array_equal(act.samples, step(GRID.z))
        assert act.loss_fraction == 1.0
        np.testing.assert_array_equal(act.derivative_samples, 0.0)

    @pytest.mark.parametrize("iota", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_closed_form(self, iota):
        act = reconstruct(uniform_channel(GRID, iota))
        closed = step(GRID.z) + math.sqrt(1.0 - iota) * gap_samples(GRID)
        assert np.abs(act.samples - closed).max() < 1e-9

    def test_uniform_loss_fraction_equals_iota(self):
        # dz = 375: the gap amplitudes (about 1e-160) square to subnormals
        for grid in (GRID, Grid(1500.0, 8)):
            act = reconstruct(uniform_channel(grid, 0.5))
            assert act.loss_fraction == pytest.approx(0.5, abs=1e-12)

    def test_monotone_between_levels(self):
        z = np.linspace(-8.0, 8.0, 400)
        acts = [reconstruct(uniform_channel(GRID, i)).evaluate(z)
                for i in (0.0, 0.25, 0.5, 0.75, 1.0)]
        pos, neg = z > 0, z < 0
        for lo, hi in zip(acts, acts[1:]):
            assert np.all(lo[pos] <= hi[pos] + 1e-12)
            assert np.all(lo[neg] >= hi[neg] - 1e-12)

    def test_sample_bounds(self):
        # mild overshoot allowance near the reconstructed discontinuity
        for ch in (uniform_channel(GRID, 0.5), thermal_channel(GRID, 1.0),
                   lowpass_channel(GRID, 5.0)):
            samples = reconstruct(ch).samples
            assert samples.min() >= -0.02
            assert samples.max() <= 1.02

    def test_energy_bookkeeping(self):
        ch = make_channel(GRID, lambda k: 0.3 if abs(k) < 3 else 0.8,
                          lambda k: 0.2)
        kept, lost, total = gap_power_split(ch)
        assert kept + lost == pytest.approx(total, rel=1e-9)
        spec = transform_gap(GRID)
        power = np.abs(spec.amplitudes) ** 2
        expected_lost = np.sum((1.0 - (1.0 - ch.iota) * np.exp(-2.0 * ch.squeeze))
                               * power)
        assert lost == pytest.approx(float(expected_lost), rel=1e-9)

    def test_derivative_scales_with_attenuation(self):
        base = reconstruct(uniform_channel(GRID, 0.0)).derivative_samples
        for iota in (0.25, 0.5, 0.75):
            deriv = reconstruct(uniform_channel(GRID, iota)).derivative_samples
            np.testing.assert_allclose(deriv, math.sqrt(1.0 - iota) * base,
                                       atol=1e-12)


class TestEvaluate:
    def test_center_value(self):
        act = reconstruct(uniform_channel(GRID, 0.0))
        assert act.evaluate(0.0) == pytest.approx(0.5, abs=1e-6)

    def test_clamp_regions(self):
        act = reconstruct(uniform_channel(GRID, 0.3))
        assert act.evaluate(1000.0) == 1.0
        assert act.evaluate(-1000.0) == 0.0
        assert act.evaluate_derivative(1000.0) == 0.0

    def test_identity_derivative_at_center(self):
        act = reconstruct(uniform_channel(GRID, 0.0))
        assert act.evaluate_derivative(0.0) == pytest.approx(0.25, abs=1e-3)

    def test_interpolation_against_closed_form(self):
        act = reconstruct(uniform_channel(GRID, 0.36))
        z = np.linspace(-6, 6, 500)
        from modegap import gap, step
        closed = step(z) + math.sqrt(0.64) * gap(z)
        # linear interpolation error ~ dz^2/8 * curvature, plus the ramp cell
        off_jump = np.abs(z) > 2 * GRID.dz
        assert np.abs(act.evaluate(z)[off_jump] - closed[off_jump]).max() < 1e-5


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestLatticeLookup:
    """``evaluate`` and ``evaluate_derivative`` index the lattice by
    arithmetic; they must return ``np.interp``'s bits, which this compares
    against directly, so a numpy change that moves either side shows."""

    @pytest.mark.parametrize("half_width, n_points", [
        (40.0, 4096), (40.0, 512), (7.3, 64), (40.0, 262144), (1e-3, 8)])
    def test_bits_match_np_interp(self, half_width, n_points):
        grid = Grid(half_width, n_points)
        x = grid.z
        rng = np.random.default_rng(n_points)
        points = np.concatenate([
            rng.normal(0.0, 3.0, 64), rng.uniform(-2 * half_width, 2 * half_width, 64),
            x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
            [np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, np.nan]])
        triples = points[:len(points) // 12 * 12].reshape(3, -1, 4)   # (seeds, batch, w)
        acts = [reconstruct(ch) for ch in (
            uniform_channel(grid, 0.3), uniform_channel(grid, 1.0),
            thermal_channel(grid, 1.0), lowpass_channel(grid, 2.0))]
        # A signed-zero table: numpy gives y_j itself, -0.0, where z == x_j.
        acts.append(DegradedActivation(grid, -np.zeros(n_points), -np.zeros(n_points), 0.0))
        stack = DegradedActivation(grid, np.stack([a.samples for a in acts]),
                                   np.stack([a.derivative_samples for a in acts]),
                                   np.array([a.loss_fraction for a in acts]))
        for table, right, lookup, stacked in [
                ("samples", 1.0, "evaluate", stack.evaluate),
                ("derivative_samples", 0.0, "evaluate_derivative",
                 stack.evaluate_derivative)]:
            levels = stacked(np.stack([points] * len(acts)))
            for level, act in enumerate(acts):
                fp = getattr(act, table)
                ref = np.interp(points, x, fp, left=0.0, right=right)
                assert same_bits(getattr(act, lookup)(points), ref)
                assert same_bits(getattr(act, lookup)(triples),
                                 np.interp(triples, x, fp, left=0.0, right=right))
                assert same_bits(levels[level], ref)
                assert same_bits(getattr(act, lookup)(x), fp)
                for z in points[[0, 64, 128, 129, 127 + n_points, -8, -7, -6, -3, -1]]:
                    value = getattr(act, lookup)(z)
                    assert type(value) is float
                    assert same_bits(value, np.interp(z, x, fp, left=0.0, right=right))

    def test_stack_rejects_a_mismatched_level_axis(self):
        acts = [reconstruct(uniform_channel(SMALL, iota)) for iota in (0.0, 1.0)]
        stack = DegradedActivation(SMALL, np.stack([a.samples for a in acts]),
                                   np.stack([a.derivative_samples for a in acts]),
                                   np.array([0.0, 1.0]))
        assert stack.levels == 2 and acts[0].levels == 1
        z = np.linspace(-3.0, 3.0, 10)
        for bad in (np.stack([z] * 3), z, np.float64(0.5), z.reshape(1, 10)):
            with pytest.raises(DimensionError):
                stack.evaluate(bad)
            with pytest.raises(DimensionError):
                stack.evaluate_derivative(bad)
        assert same_bits(stack.evaluate(np.stack([z, z])),
                         np.stack([a.evaluate(z) for a in acts]))


class TestSerialization:
    def test_activation_csv_round_trip(self, tmp_path):
        act = reconstruct(uniform_channel(GRID, 0.5))
        path = tmp_path / "act.csv"
        write_activation_csv(path, act)
        lines = path.read_text().splitlines()
        assert lines[0] == "z,f,fprime"
        assert len(lines) == 1 + GRID.n_points
        assert lines[1:] == [f"{z!r},{f!r},{fp!r}" for z, f, fp in zip(
            GRID.z.tolist(), act.samples.tolist(), act.derivative_samples.tolist())]
