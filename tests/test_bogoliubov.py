import dataclasses
import math
import sys

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
    mode_occupation,
    planck_occupation,
    reconstruct,
    self_compose,
    sigmoid,
    sigmoid_prime,
    step,
    thermal_channel,
    uniform_channel,
)
from modegap import bogoliubov, spectral
from modegap.bogoliubov import (MAX_SQUEEZE, BogoliubovChannel, loss_fraction,
                                write_activation_csv)
from modegap.verify import DEFAULT_GRID, SWEEP_LEVELS

GRID = Grid(40.0, 4096)
SMALL = Grid(20.0, 256)


def constant_channel(grid, iota, squeeze):
    """The same loss and squeeze on every mode."""
    return BogoliubovChannel(grid, np.full(grid.n_points, iota), np.full(grid.n_points, squeeze))


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
        ch = BogoliubovChannel(SMALL, np.full(SMALL.n_points, 0.4), 0.1 + np.abs(SMALL.k) / 10.0)
        np.testing.assert_allclose(ch.alpha**2 - ch.beta**2, 0.6, atol=1e-12)

    def test_profile_validation(self):
        with pytest.raises(ProfileError):
            uniform_channel(SMALL, 1.5)
        with pytest.raises(ProfileError):
            constant_channel(SMALL, -0.1, 0.0)
        with pytest.raises(ProfileError):
            constant_channel(SMALL, 0.0, -1.0)
        with pytest.raises(ProfileError):
            constant_channel(SMALL, math.nan, 0.0)
        with pytest.raises(ProfileError):
            constant_channel(SMALL, 0.0, np.nextafter(MAX_SQUEEZE, math.inf))
        # At the bound arcsinh(sqrt(DBL_MAX)), alpha, beta and beta^2 are finite.
        assert MAX_SQUEEZE == pytest.approx(355.58450362725193, rel=1e-15)
        ch = constant_channel(SMALL, 0.0, MAX_SQUEEZE)
        assert np.all(np.isfinite(ch.alpha))
        assert np.all(np.isfinite(ch.beta**2))

    def test_stack_validation(self):
        n = SMALL.n_points
        stack = uniform_channel(SMALL, [0.0, 0.25, 1.0])
        assert stack.iota.shape == stack.squeeze.shape == (3, n)
        np.testing.assert_array_equal(stack.iota[1], uniform_channel(SMALL, 0.25).iota)
        for iota, squeeze in [(np.zeros((2, n // 2)), np.zeros((2, n // 2))),
                              (np.zeros((2, n)), np.zeros(n)),
                              (np.zeros((2, n)), np.zeros((3, n))),
                              (np.zeros((1, 2, n)), np.zeros((1, 2, n)))]:
            with pytest.raises(ProfileError):
                BogoliubovChannel(SMALL, iota, squeeze)
        with pytest.raises(ProfileError):
            uniform_channel(SMALL, [[0.0], [1.0]])
        with pytest.raises(ProfileError):
            uniform_channel(SMALL, [0.0, 1.5])

    def test_thermal_finite_at_k_zero(self):
        ch = thermal_channel(SMALL, 1.0)
        assert np.all(np.isfinite(ch.alpha))
        assert np.all(np.isfinite(ch.beta))


class TestCommutatorResidual:
    def test_canonical_any_squeeze(self):
        ch = constant_channel(SMALL, 0.0, 2.0)
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
        ch = constant_channel(SMALL, 0.2, 0.7)
        out = compose_channels(identity, ch)
        np.testing.assert_allclose(out.iota, ch.iota, atol=1e-15)
        np.testing.assert_array_equal(out.squeeze, ch.squeeze)

    def test_n_fold(self):
        for n in range(1, 21):
            eff = self_compose(uniform_channel(SMALL, 0.3), n)
            assert eff.iota[0] == pytest.approx(1.0 - 0.7**n, abs=1e-12)

    def test_squeeze_adds(self):
        ch = constant_channel(SMALL, 0.0, 0.4)
        assert self_compose(ch, 3).squeeze[0] == pytest.approx(1.2, abs=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(GridError):
            compose_channels(uniform_channel(SMALL, 0.1), uniform_channel(GRID, 0.1))

    @pytest.fixture
    def no_chaining(self, monkeypatch):
        """Fail the first ``compose_channels`` call, so that a per-copy loop
        fails at once instead of running for every copy it is asked for."""
        def refuse(*args):
            raise AssertionError("self_compose chained compose_channels")

        monkeypatch.setattr(bogoliubov, "compose_channels", refuse)

    def test_deep_composition_is_one_closed_form(self, no_chaining):
        ch = self_compose(uniform_channel(SMALL, 0.5), 10**11)
        np.testing.assert_array_equal(ch.iota, 1.0)
        np.testing.assert_array_equal(ch.squeeze, 0.0)

    def test_single_copy_is_the_channel(self):
        for ch in (uniform_channel(SMALL, 0.3), thermal_channel(SMALL, 1.0),
                   uniform_channel(SMALL, [0.1, 0.7])):
            once = self_compose(ch, 1)
            assert same_bits(once.iota, ch.iota) and same_bits(once.squeeze, ch.squeeze)

    def test_count_bounds(self, no_chaining):
        for n in (0, -1):
            with pytest.raises(ProfileError):
                self_compose(uniform_channel(SMALL, 0.3), n)
        for ch in (uniform_channel(SMALL, 0.3), thermal_channel(SMALL, 1.0)):
            with pytest.raises(ProfileError):
                self_compose(ch, 10**400)   # past the float range
        with pytest.raises(ProfileError):
            self_compose(thermal_channel(SMALL, 1.0), 10**11)  # squeeze past MAX_SQUEEZE
        with pytest.raises(ProfileError):
            self_compose(thermal_channel(SMALL, 1.0), 10**307)  # squeeze overflows to inf

    @given(st.floats(0, 1), st.floats(0, 3), st.integers(2, 30))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_chained_composition(self, iota, squeeze, n):
        grid = Grid(10.0, 16)
        ch = constant_channel(grid, iota, squeeze)
        chained = ch
        for _ in range(n - 1):
            chained = compose_channels(chained, ch)
        closed = self_compose(ch, n)
        np.testing.assert_allclose(closed.iota, chained.iota, rtol=0, atol=1e-12)
        np.testing.assert_allclose(closed.squeeze, chained.squeeze, rtol=0, atol=1e-12)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 3), st.floats(0, 3), st.floats(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_associative_commutative(self, i1, i2, i3, r1, r2, r3):
        grid = Grid(10.0, 16)
        a, b, c = (constant_channel(grid, i, r) for i, r in ((i1, r1), (i2, r2), (i3, r3)))
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
        ch = constant_channel(SMALL, 1.0, 2.0)
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
        spec = GRID.gap_spectrum
        out = apply_channel(uniform_channel(GRID, 0.0), spec)
        assert np.abs(out.amplitudes - spec.amplitudes).max() < 1e-15

    def test_uniform_three_quarters_halves(self):
        spec = GRID.gap_spectrum
        out = apply_channel(uniform_channel(GRID, 0.75), spec)
        np.testing.assert_allclose(out.amplitudes, 0.5 * spec.amplitudes, atol=1e-15)

    def test_lowpass(self):
        spec = GRID.gap_spectrum
        out = apply_channel(lowpass_channel(GRID, 2.0), spec)
        below = np.abs(GRID.k) < 2.0
        np.testing.assert_array_equal(out.amplitudes[below], spec.amplitudes[below])
        np.testing.assert_array_equal(out.amplitudes[~below], 0.0)

    def test_grid_mismatch(self):
        with pytest.raises(GridError):
            apply_channel(uniform_channel(SMALL, 0.0), GRID.gap_spectrum)


class TestReconstruct:
    def test_identity_reproduces_sigmoid(self):
        channel = uniform_channel(GRID, 0.0)
        act = reconstruct(channel)
        assert np.abs(act.samples - sigmoid(GRID.z)).max() < 1e-9
        assert loss_fraction(channel) == pytest.approx(0.0, abs=1e-15)

    def test_total_loss_is_exact_step(self):
        channel = uniform_channel(GRID, 1.0)
        act = reconstruct(channel)
        np.testing.assert_array_equal(act.samples, step(GRID.z))
        assert loss_fraction(channel) == 1.0
        np.testing.assert_array_equal(act.derivative_samples, 0.0)

    @pytest.mark.parametrize("iota", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_closed_form(self, iota):
        act = reconstruct(uniform_channel(GRID, iota))
        closed = step(GRID.z) + math.sqrt(1.0 - iota) * gap_samples(GRID)
        assert np.abs(act.samples - closed).max() < 1e-9

    def test_uniform_loss_fraction_equals_iota(self):
        # dz = 375: the gap amplitudes (about 1e-160) square to subnormals
        for grid in (GRID, Grid(1500.0, 8)):
            fraction = loss_fraction(uniform_channel(grid, 0.5))
            assert fraction == pytest.approx(0.5, abs=1e-12)

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
        ch = BogoliubovChannel(GRID, np.where(np.abs(GRID.k) < 3, 0.3, 0.8),
                               np.full(GRID.n_points, 0.2))
        spec = GRID.gap_spectrum
        power = np.abs(spec.amplitudes) ** 2
        out_power = np.abs(apply_channel(ch, spec).amplitudes) ** 2
        kept, lost, total = (float(np.sum(p)) for p in (out_power, power - out_power, power))
        assert kept + lost == pytest.approx(total, rel=1e-9)
        expected_lost = np.sum((1.0 - (1.0 - ch.iota) * np.exp(-2.0 * ch.squeeze))
                               * power)
        assert lost == pytest.approx(float(expected_lost), rel=1e-9)

    def test_derivative_scales_with_attenuation(self):
        base = reconstruct(uniform_channel(GRID, 0.0)).derivative_samples
        for iota in (0.25, 0.5, 0.75):
            deriv = reconstruct(uniform_channel(GRID, iota)).derivative_samples
            np.testing.assert_allclose(deriv, math.sqrt(1.0 - iota) * base,
                                       atol=1e-12)

    @pytest.mark.parametrize("half_width, n_points", [
        (40.0, 4096), (40.0, 512), (7.3, 64), (40.0, 262144), (1e-3, 8)])
    def test_stack_rows_match_each_channel_alone(self, half_width, n_points):
        grid = Grid(half_width, n_points)
        channels = [uniform_channel(grid, 0.3), uniform_channel(grid, 1.0),
                    lowpass_channel(grid, 2.0), thermal_channel(grid, 1.0)]
        stacked = BogoliubovChannel(grid, np.stack([ch.iota for ch in channels]),
                                    np.stack([ch.squeeze for ch in channels]))
        stack, fractions = reconstruct(stacked), loss_fraction(stacked)
        assert stack.levels == 4 and fractions.shape == (4,)
        for level, channel in enumerate(channels):
            alone, fraction = reconstruct(channel), loss_fraction(channel)
            assert alone.levels == 1 and type(fraction) is float
            assert same_bits(stack.samples[level], alone.samples)
            assert same_bits(stack.derivative_samples[level], alone.derivative_samples)
            assert same_bits(fractions[level], fraction)

    def test_the_grid_transforms_its_gap_once(self, monkeypatch):
        """A grid's ``gap_spectrum`` is what every channel on it reads:
        ``loss_fraction``, a stacked ``reconstruct`` and four more
        ``reconstruct`` calls transform the gap once between them.  Values
        reads transform nothing more; the stack's first derivative read,
        through it or a level, transforms sigma' once, and later reads none.
        Each value table has the stack's row's bits.  The spectrum is
        read-only, with the bits of the lattice transform of the gap."""
        grid, transformed, real_transform = Grid(40.0, 4096), [], spectral.transform_samples

        def transform(grid, samples):
            transformed.append(samples)
            return real_transform(grid, samples)
        bound = [(module, name) for module in list(sys.modules.values())
                 if module.__name__.split(".")[0] == "modegap"
                 for name, value in vars(module).items() if value is real_transform]
        assert {(module.__name__, name) for module, name in bound} >= {
            ("modegap", "transform_samples"), ("modegap.spectral", "transform_samples"),
            ("modegap.bogoliubov", "transform_samples")}
        for module, name in bound:
            monkeypatch.setattr(module, name, transform)

        fraction = loss_fraction(uniform_channel(grid, 0.5))
        stack = reconstruct(uniform_channel(grid, [0.0, 0.5, 1.0]))
        values = [reconstruct(channel) for channel in (
            uniform_channel(grid, 0.5), uniform_channel(grid, [0.0, 1.0]),
            lowpass_channel(grid, 2.0), thermal_channel(grid, 1.0))]
        for act in [stack, *values]:
            act.evaluate(np.zeros((act.levels, 5)))
        assert len(transformed) == 1
        assert same_bits(transformed[0], gap_samples(grid))
        assert fraction == pytest.approx(0.5, abs=1e-12)
        assert [v.levels for v in values] == [1, 2, 1, 1]
        assert same_bits(values[0].samples, stack.samples[1])
        assert same_bits(values[1].samples, stack.samples[[0, 2]])
        stack.level(2).evaluate_derivative(0.0)
        stack.evaluate_with_derivative(np.zeros((3, 5)))
        assert same_bits(stack.level(0).derivative_samples, stack.derivative_samples[0])
        assert len(transformed) == 2
        assert same_bits(transformed[1], sigmoid_prime(grid.z))

        spectrum = grid.gap_spectrum
        assert spectrum is grid.gap_spectrum
        with pytest.raises(ValueError):
            spectrum.amplitudes[0] = 0.0
        assert same_bits(spectrum.amplitudes.view(float),
                         real_transform(grid, gap_samples(grid)).amplitudes.view(float))

    def test_derivative_table_owns_contiguous_memory(self):
        for channel in (uniform_channel(GRID, 0.3), uniform_channel(GRID, [0.0, 0.5])):
            deriv = reconstruct(channel).derivative_samples
            assert deriv.flags.c_contiguous and deriv.flags.owndata


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


class TestForwardBackward:
    """Where the derivative table is the slope of the value table, and where
    it is not."""

    @staticmethod
    def slopes(activation, z):
        """The forward pass's central difference at ``z``, with h = dz/8, and
        the backward pass's f'(z)."""
        h = activation.channel.grid.dz / 8
        forward = (activation.evaluate(z + h) - activation.evaluate(z - h)) / (2 * h)
        return forward, activation.evaluate_derivative(z)

    def test_uniform_stack(self):
        """The sweep's stack, read at every cell midpoint.  Off the two cells
        beside z = 0 the backward pass is the forward slope, c*sigma' with
        c = sqrt(1 - iota), to interpolation accuracy.  On them the forward
        pass ramps across the step's jump 1 - c, half of it per cell, which
        the derivative table leaves out."""
        grid = DEFAULT_GRID
        stack = reconstruct(uniform_channel(grid, SWEEP_LEVELS))
        mid = grid.z[:-1] + grid.dz / 2
        forward, backward = self.slopes(stack, np.tile(mid, (stack.levels, 1)))
        jump = np.abs(mid) < grid.dz
        assert np.flatnonzero(jump).tolist() == [grid.n_points // 2 - 1, grid.n_points // 2]
        assert np.max(np.abs(forward - backward)[:, ~jump]) < 1e-5
        for level, iota in enumerate(SWEEP_LEVELS):
            c = math.sqrt(1.0 - iota)
            assert backward[level, jump] == pytest.approx(c / 4, rel=1e-4, abs=1e-15)
            assert forward[level, jump] == pytest.approx((1 - c) / (2 * grid.dz) + c / 4,
                                                         rel=1e-4)

    @pytest.mark.parametrize("n_points, bound", [(4096, 7e-5), (16384, 4.5e-6)])
    @pytest.mark.parametrize("k_cut", [1.5, 2.0, 2.5])
    def test_lowpass_misses_the_image_of_the_delta(self, k_cut, n_points, bound):
        """The table is the channel applied to sigma', the gap's derivative
        without the jump's delta.  A lowpass channel turns that delta into
        D(z) = (1/2L) sum_{|k_n| < kc} cos(k_n z), which spreads over the
        line, so df/dz - fprime is -D(z) even far from the jump."""
        grid = Grid(40.0, n_points)
        table = reconstruct(lowpass_channel(grid, k_cut))
        residual = np.gradient(table.samples, grid.dz) - table.derivative_samples
        far = (np.abs(grid.z) > 2) & (np.abs(grid.z) < 30)
        kept = grid.k[np.abs(grid.k) < k_cut]
        image = np.cos(np.outer(grid.z[far], kept)).sum(axis=1) / (2 * grid.half_width)
        assert np.max(np.abs(residual[far])) > 0.05
        assert np.max(np.abs(residual[far] + image)) < bound


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def with_tables(channel, samples, derivative_samples):
    """An activation of ``channel`` holding the given tables: its derivative
    table is set before its first read, so it is never made."""
    activation = DegradedActivation(channel, samples)
    activation.derivative_samples = derivative_samples
    return activation


class TestLatticeLookup:
    """``evaluate`` and ``evaluate_derivative`` index the lattice by
    arithmetic; they must return ``np.interp``'s bits, which this compares
    against directly, so a numpy change that moves either side shows.  The
    fused ``evaluate_with_derivative`` must return both reads' bits."""

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
        # Every 8th point on the grid, nodes and points between them alike.
        inside = points[(points >= x[0]) & (points < x[-1])][::8]
        kept = inside.copy()
        scalars = points[[0, 64, 128, 129, 127 + n_points, -8, -7, -6, -3, -1]]
        acts = [reconstruct(ch) for ch in (
            uniform_channel(grid, 0.3), uniform_channel(grid, 1.0),
            thermal_channel(grid, 1.0), lowpass_channel(grid, 2.0))]
        # A signed-zero table: numpy gives y_j itself, -0.0, where z == x_j.
        acts.append(with_tables(acts[1].channel, -np.zeros(n_points), -np.zeros(n_points)))
        channels = BogoliubovChannel(grid, np.stack([a.channel.iota for a in acts]),
                                     np.stack([a.channel.squeeze for a in acts]))
        stack = with_tables(channels, np.stack([a.samples for a in acts]),
                            np.stack([a.derivative_samples for a in acts]))
        stacked_points = np.stack([points] * len(acts))
        view_tables = [4, 0, 2]
        views = [stack.level(i) for i in view_tables]
        inputs = [points, triples, x, inside, *scalars]
        reads = {}   # (activation, input) -> [value read, derivative read]
        for table, right, lookup in [("samples", 1.0, "evaluate"),
                                     ("derivative_samples", 0.0, "evaluate_derivative")]:
            levels = getattr(stack, lookup)(stacked_points)
            viewed = [getattr(view, lookup)(points) for view in views]
            reads.setdefault(("stack", 0), []).append(levels)
            for v, read in enumerate(viewed):
                reads.setdefault(("view", v), []).append(read)
            for level, act in enumerate(acts):
                fp = getattr(act, table)
                ref = np.interp(points, x, fp, left=0.0, right=right)
                values = [getattr(act, lookup)(z) for z in inputs]
                for i, value in enumerate(values):
                    reads.setdefault((level, i), []).append(value)
                assert same_bits(values[0], ref)
                assert same_bits(values[1], np.interp(triples, x, fp, left=0.0, right=right))
                assert same_bits(levels[level], ref)
                assert same_bits(values[2], fp)
                assert same_bits(values[3], np.interp(inside, x, fp, left=0.0, right=right))
                for z, value in zip(scalars, values[4:]):
                    assert type(value) is float
                    assert same_bits(value, np.interp(z, x, fp, left=0.0, right=right))
            for read, level in zip(viewed, view_tables):
                assert same_bits(read, np.interp(points, x, getattr(acts[level], table),
                                                 left=0.0, right=right))
            with pytest.raises(DimensionError):
                getattr(stack, lookup)(stacked_points[:len(views)])

        with pytest.raises(DimensionError):
            stack.evaluate_with_derivative(stacked_points[:len(views)])
        cases = [(stack, stacked_points, reads["stack", 0])]
        cases += [(view, points, reads["view", v]) for v, view in enumerate(views)]
        cases += [(act, z, reads[level, i]) for level, act in enumerate(acts)
                  for i, z in enumerate(inputs)]
        for act, z, (value, derivative) in cases:
            f, f_prime = act.evaluate_with_derivative(z)
            assert type(f) is type(f_prime) is type(value)
            assert same_bits(f, value)
            assert same_bits(f_prime, derivative)
        assert same_bits(inside, kept)   # a lookup never writes the caller's z

    def test_a_read_off_the_lattice_is_np_interp_per_row(self):
        """One rule reads every point.  Rows wholly inside [z_0, z_{N-1}),
        rows holding z_{N-1} (on the lattice: it reads y_{N-1}), and rows with
        points past +-L, +-inf and NaNs (each read as itself, payload and
        sign) give ``np.interp``'s bits per row and per table, through all
        three reads of one table, of a stack and of its levels: one taken and
        read before any read of the stack, whose derivative read makes the
        stack's derivative table, one taken before the stack's first read and
        read after it, and one taken after it.  Each level's derivative table
        is then its row of the stack's, sharing its memory."""
        x, half_width = SMALL.z, SMALL.half_width
        stack = reconstruct(uniform_channel(SMALL, [0.0, 0.5, 1.0]))
        alone = reconstruct(uniform_channel(SMALL, 0.5))
        payload_nan = np.array([0x7ff8000000000123, 0xfff8000000000456], np.uint64).view(float)
        inside = np.linspace(x[0], x[-2], 16)
        z = np.stack([inside, inside.copy(), inside.copy()])
        z[1, [0, 5, 15]] = x[-1]
        z[2, :12] = [-np.inf, np.inf, np.nan, -np.nan, *payload_nan, -half_width - 1.0,
                     half_width, np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
                     x[-1], 2 * half_width]
        assert not np.isnan(z[:2]).any() and np.all((z[0] >= x[0]) & (z[0] < x[-1]))
        lookups = [("evaluate", [("samples", 1.0)]),
                   ("evaluate_derivative", [("derivative_samples", 0.0)]),
                   ("evaluate_with_derivative", [("samples", 1.0), ("derivative_samples", 0.0)])]

        def check(act, points, read):
            for lookup, tables in lookups:
                got = getattr(act, lookup)(points)
                got = got if lookup == "evaluate_with_derivative" else (got,)
                rows = np.reshape(points, (len(read), -1))
                for (table, right), value in zip(tables, got, strict=True):
                    per_table = getattr(act, table).reshape(-1, SMALL.n_points)
                    want = np.stack([np.interp(z_row, x, per_table[t], 0.0, right)
                                     for z_row, t in zip(rows, read)])
                    assert type(value) is (float if np.ndim(points) == 0 else np.ndarray)
                    assert same_bits(value, want.reshape(np.shape(points)))

        first, before = stack.level(1), stack.level(2)
        check(first, z[::-1], [0])
        check(stack, z, [0, 1, 2])
        check(before, z[2], [0])
        after = stack.level(0)
        check(after, z[2], [0])
        for level, i in [(first, 1), (before, 2), (after, 0)]:
            assert np.shares_memory(level.derivative_samples, stack.derivative_samples)
            assert same_bits(level.derivative_samples, stack.derivative_samples[i])
        check(alone, z, [0])
        check(alone, z[2, :, None], [0])
        for point in z[2, :12]:
            check(alone, np.float64(point), [0])

    def test_level_is_one_table_of_the_stack(self):
        """An activation is its channel and value table, nothing else: the
        channel makes its derivative table on the first read of it, and a
        values read makes none.  ``level(i)`` is table i alone, sharing the
        stack's channel and memory and reading row i's bits whether it is
        taken before any read of the stack, after a values read or after a
        fused read; one table is its own ``level(0)``, and any other ``i``
        names no table."""
        stack, unread, values_read = (reconstruct(uniform_channel(SMALL, [0.0, 0.5, 1.0]))
                                      for _ in range(3))
        alone = reconstruct(uniform_channel(SMALL, 0.5))
        assert [f.name for f in dataclasses.fields(DegradedActivation)] == ["channel", "samples"]
        hand_built = DegradedActivation(stack.channel, stack.samples)
        assert hand_built.levels == 3 and stack.levels == 3 and alone.levels == 1
        assert same_bits(hand_built.derivative_samples, stack.derivative_samples)
        for index in ([-1], [-3], [0, 1]):
            with pytest.raises(TypeError):
                DegradedActivation(stack.channel, stack.samples, index=index)
        z = np.linspace(-3.0, 3.0, 30).reshape(2, 3, 5)
        before = [unread.level(i) for i in range(3)]
        values_read.evaluate(np.stack([z] * 3))
        assert "derivative_samples" not in vars(values_read)
        f, f_prime = stack.evaluate_with_derivative(np.stack([z] * 3))
        for i in range(3):
            for level, source in [(stack.level(i), stack), (before[i], unread),
                                  (values_read.level(i), values_read)]:
                assert level.levels == 1 and level.channel is source.channel
                assert np.shares_memory(level.samples, source.samples)
                assert same_bits(level.evaluate(z), f[i])
                assert same_bits(level.evaluate_derivative(z), f_prime[i])
                assert np.shares_memory(level.derivative_samples, source.derivative_samples)
        assert alone.level(0) is alone
        for i in (-1, stack.levels, 1.5, True, False):
            with pytest.raises(DimensionError):
                stack.level(i)
        for i in (-1, 1, 0.0, True, False):
            with pytest.raises(DimensionError):
                alone.level(i)

    def test_stack_rejects_a_mismatched_level_axis(self):
        acts = [reconstruct(uniform_channel(SMALL, iota)) for iota in (0.0, 1.0)]
        stack = reconstruct(uniform_channel(SMALL, [0.0, 1.0]))
        assert stack.levels == 2 and acts[0].levels == 1
        assert stack.level(1).levels == 1 and acts[0].level(0).levels == 1
        for index in (2, -1, [0, 1], np.array([0])):
            with pytest.raises(DimensionError):
                stack.level(index)
        z = np.linspace(-3.0, 3.0, 10)
        for bad in (np.stack([z] * 3), z, np.float64(0.5), z.reshape(1, 10)):
            with pytest.raises(DimensionError):
                stack.evaluate(bad)
            with pytest.raises(DimensionError):
                stack.evaluate_derivative(bad)
            with pytest.raises(DimensionError):
                stack.evaluate_with_derivative(bad)
        assert same_bits(stack.evaluate(np.stack([z, z])),
                         np.stack([a.evaluate(z) for a in acts]))
        f, f_prime = stack.evaluate_with_derivative(np.stack([z, z]))
        assert same_bits(f, stack.evaluate(np.stack([z, z])))
        assert same_bits(f_prime, np.stack([a.evaluate_derivative(z) for a in acts]))


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
