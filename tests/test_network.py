import math

import numpy as np
import pytest

from modegap import (
    SIGMOID,
    DimensionError,
    Grid,
    MlpConfig,
    forward,
    loss_gradients,
    make_dataset,
    reconstruct,
    sweep,
    task_config,
    train,
    uniform_channel,
)
from modegap.network import (
    bce_loss,
    hidden_gradient_norm,
    init_weights,
    median_epochs,
    read_report_csv,
    write_report_csv,
)

GRID = Grid(40.0, 4096)


def degraded(iota):
    return reconstruct(uniform_channel(GRID, iota))


class TestDatasets:
    def test_xor_exact(self):
        ds = make_dataset("xor", seed=123)
        np.testing.assert_array_equal(
            ds.inputs, [[0, 0], [0, 1], [1, 0], [1, 1]])
        np.testing.assert_array_equal(ds.labels, [0, 1, 1, 0])

    def test_moons_shape_and_balance(self):
        ds = make_dataset("moons", seed=0)
        assert ds.inputs.shape == (200, 2)
        assert ds.labels.sum() == 100

    def test_moons_deterministic(self):
        a, b = make_dataset("moons", 5), make_dataset("moons", 5)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_moons_seed_sensitivity(self):
        a, b = make_dataset("moons", 1), make_dataset("moons", 2)
        assert np.any(a.inputs != b.inputs)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_dataset("mnist")


class TestForward:
    def test_zero_weights_give_half(self):
        config = MlpConfig((2, 4, 1), SIGMOID, 0.5, 1, 4, 0)
        weights = [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((1, 4)), np.zeros(1))]
        _, _, out = forward(config, weights, np.array([0.3, -2.0]))
        assert out == 0.5

    def test_shape_mismatch(self):
        config = MlpConfig((2, 4, 1), SIGMOID, 0.5, 1, 4, 0)
        weights = [(np.zeros((4, 3)), np.zeros(4)), (np.zeros((1, 4)), np.zeros(1))]
        with pytest.raises(DimensionError):
            forward(config, weights, np.array([1.0, 2.0]))
        good = [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((1, 4)), np.zeros(1))]
        with pytest.raises(DimensionError):
            forward(config, good, np.array([1.0, 2.0, 3.0]))

    def test_identity_channel_matches_analytic_sigmoid(self):
        """Degraded table at zero loss is the sigmoid up to interpolation."""
        rng = np.random.default_rng(3)
        weights = [(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 4)),
                   (rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1))]
        cfg_table = MlpConfig((2, 4, 1), degraded(0.0), 0.5, 1, 4, 0)
        cfg_exact = MlpConfig((2, 4, 1), SIGMOID, 0.5, 1, 4, 0)
        x = rng.uniform(-2, 2, (50, 2))
        _, _, out_table = forward(cfg_table, weights, x)
        _, _, out_exact = forward(cfg_exact, weights, x)
        assert np.abs(out_table - out_exact).max() < 1e-3

    def test_small_perturbation_bounded_response(self):
        """No output jump under a 1e-6 weight tweak while iota < 1."""
        rng = np.random.default_rng(8)
        weights = [(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 4)),
                   (rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1))]
        config = MlpConfig((2, 4, 1), degraded(0.5), 0.5, 1, 4, 0)
        x = np.array([0.7, 0.2])
        _, _, base = forward(config, weights, x)
        bumped = [(weights[0][0].copy(), weights[0][1]), weights[1]]
        bumped[0][0][2, 1] += 1e-6
        _, _, out = forward(config, bumped, x)
        # worst slope on the table is the step ramp across one cell, ~1/(2 dz)
        lipschitz = 0.25 * (1.0 + 1.0 / (2.0 * GRID.dz))
        assert abs(out - base) <= lipschitz * 1e-6


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        ds = make_dataset("xor")
        config = MlpConfig((2, 4, 1), SIGMOID, 0.5, 1, 4, 0)
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(5):
            weights = [(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 4)),
                       (rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1))]
            grads = loss_gradients(config, weights, ds.inputs, ds.labels)
            flat = np.concatenate([np.concatenate([w.ravel(), b.ravel()])
                                   for w, b in weights])
            analytic = np.concatenate([np.concatenate([dw.ravel(), db.ravel()])
                                       for dw, db in grads])

            def loss_at(vec):
                rebuilt, i = [], 0
                for w, b in weights:
                    w2 = vec[i:i + w.size].reshape(w.shape); i += w.size
                    b2 = vec[i:i + b.size]; i += b.size
                    rebuilt.append((w2, b2))
                _, _, out = forward(config, rebuilt, ds.inputs)
                return bce_loss(out, ds.labels)

            numeric = np.array([
                (loss_at(flat + h * e) - loss_at(flat - h * e)) / (2 * h)
                for e in np.eye(flat.size)])
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-4

    def test_hidden_norm_excludes_output_layer(self):
        grads = [(np.full((4, 2), 2.0), np.zeros(4)), (np.full((1, 4), 9.0), np.ones(1))]
        assert hidden_gradient_norm(grads) == pytest.approx(math.sqrt(8 * 4.0))

    def test_scaling_at_isolated_fixed_point(self):
        """With first-layer weights zero the hidden values match across loss
        levels, so the hidden gradient scales exactly like the derivative
        table: sqrt(1 - iota)."""
        ds = make_dataset("xor")
        rng = np.random.default_rng(42)
        weights = [(np.zeros((4, 2)), np.zeros(4)),
                   (rng.uniform(-0.5, 0.5, (1, 4)), np.zeros(1))]
        norms = {}
        for iota in (0.0, 0.25, 0.5, 0.75):
            config = task_config("xor", degraded(iota), seed=0)
            norms[iota] = hidden_gradient_norm(
                loss_gradients(config, weights, ds.inputs, ds.labels))
        for iota in (0.25, 0.5, 0.75):
            ratio = norms[iota] / norms[0.0]
            assert ratio == pytest.approx(math.sqrt(1 - iota), rel=1e-3)


class TestTrain:
    def test_deterministic(self):
        config = task_config("xor", SIGMOID, seed=4)
        a = train(config, make_dataset("xor"))
        b = train(config, make_dataset("xor"))
        assert a == b

    def test_total_loss_freezes_hidden_layers(self):
        config = task_config("xor", degraded(1.0), seed=3)
        initial = init_weights(config)
        report = train(config, make_dataset("xor"))
        final = report.weights
        assert report.mean_grad_norm_first100 == 0.0
        for (w0, b0), (w1, b1) in zip(initial[:-1], final[:-1]):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)

    def test_report_fields(self):
        config = task_config("xor", SIGMOID, seed=0)
        report = train(config, make_dataset("xor"))
        assert 0.0 <= report.final_accuracy <= 1.0
        assert report.final_loss >= 0.0
        assert report.loss_fraction == 0.0
        if report.epochs_to_threshold is not None:
            assert report.epochs_to_threshold <= config.max_epochs

    def test_moons_smoke(self):
        config = task_config("moons", degraded(0.0), seed=0)
        report = train(config, make_dataset("moons", 0))
        assert report.epochs_to_threshold is not None
        assert report.final_accuracy >= 0.9

    def test_xor_reference_fixture(self):
        """Frozen from a reference run: seeds 0 and 1 converge at exactly
        these epochs (full ten-seed outcome: 658, 678, 620, 821, 782, 637,
        783, 657, 825, 683 -- all ten under the 2000-epoch budget)."""
        expected = {0: 658, 1: 678}
        for seed, epochs in expected.items():
            config = task_config("xor", SIGMOID, seed)
            report = train(config, make_dataset("xor"))
            assert report.epochs_to_threshold == epochs
            assert report.final_loss < 0.05


class TestSweep:
    def test_single_level_matches_direct_train(self):
        reports = sweep("xor", [0.0], [0, 1], GRID)
        act = degraded(0.0)
        for seed, report in zip((0, 1), reports):
            direct = train(task_config("xor", act, seed), make_dataset("xor"))
            assert report.final_loss == direct.final_loss
            assert report.epochs_to_threshold == direct.epochs_to_threshold

    def test_levels_must_ascend(self):
        with pytest.raises(ValueError):
            sweep("xor", [0.5, 0.0], [0], GRID)

    def test_median_epochs_never(self):
        reports = sweep("xor", [1.0], list(range(4)), GRID)
        assert sum(1 for r in reports if r.epochs_to_threshold is None) >= 2
        assert math.isinf(median_epochs(reports))

    def test_moons_total_loss_band(self):
        """Frozen from measurement: with all hidden layers frozen the output
        layer still reads the moons geometry off the random step features,
        landing well above chance but short of the learnable regime."""
        reports = sweep("moons", [1.0], list(range(10)), GRID)
        accs = [r.final_accuracy for r in reports]
        assert min(accs) >= 0.65
        assert max(accs) <= 0.92
        assert all(r.mean_grad_norm_first100 == 0.0 for r in reports)


class TestReportCsv:
    def test_round_trip_with_never(self, tmp_path):
        reports = sweep("xor", [1.0], [0, 3], GRID)
        path = tmp_path / "reports.csv"
        write_report_csv(path, reports)
        header = path.read_text().splitlines()[0]
        assert header == ("iota,seed,final_accuracy,final_loss,"
                          "epochs_to_threshold,mean_grad_norm_first100")
        again = read_report_csv(path)
        for orig, back in zip(reports, again):
            assert back.iota == orig.iota
            assert back.seed == orig.seed
            assert back.final_accuracy == orig.final_accuracy
            assert back.final_loss == orig.final_loss
            assert back.epochs_to_threshold == orig.epochs_to_threshold
            assert back.mean_grad_norm_first100 == orig.mean_grad_norm_first100

    def test_never_encoded_as_minus_one(self, tmp_path):
        reports = sweep("xor", [1.0], [0], GRID)
        assert any(r.epochs_to_threshold is None for r in reports)
        path = tmp_path / "never.csv"
        write_report_csv(path, reports)
        row = path.read_text().splitlines()[1].split(",")
        assert row[4] == "-1"
