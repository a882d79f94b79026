import dataclasses
import functools
import math

import numpy as np
import pytest

from modegap import (
    SIGMOID,
    TASKS,
    DimensionError,
    Grid,
    TrainReport,
    forward,
    loss_gradients,
    make_dataset,
    reconstruct,
    sweep,
    train,
    uniform_channel,
)
from modegap import network
from modegap.network import (
    bce_loss,
    hidden_gradient_norm,
    init_weights,
    median_epochs,
    write_report_csv,
)

GRID = Grid(40.0, 4096)


def degraded(iota):
    return reconstruct(uniform_channel(GRID, iota))


@functools.cache
def trained_alone(task, iota, seed):
    """The report of the (task, iota, seed) cell trained alone, tagged with its
    iota; shared by the tests that meet the same cell more than once, which
    therefore must not change it."""
    report, = train(task, degraded(iota), [seed])
    report.iota = iota
    return report


class TestDatasets:
    def test_xor_exact(self):
        inputs, labels = make_dataset("xor", seed=123)
        np.testing.assert_array_equal(inputs, [[0, 0], [0, 1], [1, 0], [1, 1]])
        np.testing.assert_array_equal(labels, [0, 1, 1, 0])

    def test_moons_shape_and_balance(self):
        inputs, labels = make_dataset("moons", seed=0)
        assert inputs.shape == (200, 2)
        assert labels.sum() == 100

    def test_moons_deterministic(self):
        (a, _), (b, _) = make_dataset("moons", 5), make_dataset("moons", 5)
        np.testing.assert_array_equal(a, b)

    def test_moons_seed_sensitivity(self):
        (a, _), (b, _) = make_dataset("moons", 1), make_dataset("moons", 2)
        assert np.any(a != b)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_dataset("mnist")
        with pytest.raises(ValueError):
            train("XOR", SIGMOID, [0])


class TestForward:
    def test_zero_weights_give_half(self):
        weights = [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((1, 4)), np.zeros(1))]
        _, _, out = forward(SIGMOID, weights, np.array([[0.3, -2.0]]))
        np.testing.assert_array_equal(out, [0.5])

    def test_shape_mismatch(self):
        weights = [(np.zeros((4, 3)), np.zeros(4)), (np.zeros((1, 4)), np.zeros(1))]
        with pytest.raises(DimensionError):
            forward(SIGMOID, weights, np.array([[1.0, 2.0]]))
        good = [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((1, 4)), np.zeros(1))]
        with pytest.raises(DimensionError):
            forward(SIGMOID, good, np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(DimensionError):
            forward(SIGMOID, good, np.array([1.0, 2.0]))  # a 1-D input is no batch
        hidden = [(np.zeros((4, 2)), np.zeros(4)), (np.zeros((1, 3)), np.zeros(1))]
        with pytest.raises(DimensionError):
            forward(SIGMOID, hidden, np.array([[1.0, 2.0]]))

    def test_identity_channel_matches_analytic_sigmoid(self):
        """Degraded table at zero loss is the sigmoid up to interpolation."""
        rng = np.random.default_rng(3)
        weights = [(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 4)),
                   (rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1))]
        x = rng.uniform(-2, 2, (50, 2))
        _, _, out_table = forward(degraded(0.0), weights, x)
        _, _, out_exact = forward(SIGMOID, weights, x)
        assert np.abs(out_table - out_exact).max() < 1e-3

    def test_small_perturbation_bounded_response(self):
        """No output jump under a 1e-6 weight tweak while iota < 1."""
        rng = np.random.default_rng(8)
        weights = [(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 4)),
                   (rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1))]
        act = degraded(0.5)
        x = np.array([[0.7, 0.2]])
        _, _, (base,) = forward(act, weights, x)
        bumped = [(weights[0][0].copy(), weights[0][1]), weights[1]]
        bumped[0][0][2, 1] += 1e-6
        _, _, (out,) = forward(act, bumped, x)
        # worst slope on the table is the step ramp across one cell, ~1/(2 dz)
        lipschitz = 0.25 * (1.0 + 1.0 / (2.0 * GRID.dz))
        assert abs(out - base) <= lipschitz * 1e-6


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        inputs, labels = make_dataset("xor")
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(5):
            weights = [(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 4)),
                       (rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1))]
            grads = loss_gradients(SIGMOID, weights, forward(SIGMOID, weights, inputs), labels)
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
                _, _, out = forward(SIGMOID, rebuilt, inputs)
                return bce_loss(out, labels)

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
        inputs, labels = make_dataset("xor")
        rng = np.random.default_rng(42)
        weights = [(np.zeros((4, 2)), np.zeros(4)),
                   (rng.uniform(-0.5, 0.5, (1, 4)), np.zeros(1))]
        norms = {}
        for iota in (0.0, 0.25, 0.5, 0.75):
            act = degraded(iota)
            norms[iota] = hidden_gradient_norm(
                loss_gradients(act, weights, forward(act, weights, inputs), labels))
        for iota in (0.25, 0.5, 0.75):
            ratio = norms[iota] / norms[0.0]
            assert ratio == pytest.approx(math.sqrt(1 - iota), rel=1e-3)


class TestTrain:
    def test_deterministic(self):
        (a,), (b,) = train("xor", SIGMOID, [4]), train("xor", SIGMOID, [4])
        assert a == b

    def test_total_loss_freezes_hidden_layers(self):
        initial = init_weights(TASKS["xor"].layer_sizes, np.random.default_rng(3))
        report, = train("xor", degraded(1.0), [3])
        final = report.weights
        assert report.mean_grad_norm_first100 == 0.0
        for (w0, b0), (w1, b1) in zip(initial[:-1], final[:-1]):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)

    def test_report_fields(self):
        report, = train("xor", SIGMOID, [0])
        assert 0.0 <= report.final_accuracy <= 1.0
        assert report.final_loss >= 0.0
        if report.epochs_to_threshold is not None:
            assert report.epochs_to_threshold <= TASKS["xor"].max_epochs

    def test_moons_smoke(self):
        report = trained_alone("moons", 0.0, 0)
        assert report.epochs_to_threshold is not None
        assert report.final_accuracy >= 0.9

    def test_xor_reference_fixture(self):
        """Frozen from a reference run: seeds 0-9 converge at exactly these
        epochs, all ten under the 2000-epoch budget."""
        expected = [658, 678, 620, 821, 782, 637, 783, 657, 825, 683]
        reports = train("xor", SIGMOID, range(10))
        assert [r.seed for r in reports] == list(range(10))
        assert [r.epochs_to_threshold for r in reports] == expected
        assert all(r.final_loss < 0.05 for r in reports)


def assert_same_report(a, b):
    """Every field equal, the weights bit for bit; repr is exact for floats
    and reads nan (an untagged iota) as equal to itself."""
    for f in dataclasses.fields(TrainReport):
        if f.name != "weights":
            assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name
    assert len(a.weights) == len(b.weights)
    for (wa, ba), (wb, bb) in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def assert_cells_trained_alone(task, batched):
    """Each report equals ``trained_alone(task, iota, seed)``, and no two
    reports share weight memory."""
    for report in batched:
        assert_same_report(report, trained_alone(task, report.iota, report.seed))
    arrays = [[a for layer in r.weights for a in layer] for r in batched]
    for i, mine in enumerate(arrays):
        for theirs in arrays[i + 1:]:
            assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


class TestBatchedTrain:
    """``train`` runs its (level, seed) cells as one stack; each report must
    be the one that cell gives when trained alone."""

    @pytest.mark.parametrize("task, iota, seeds", [
        ("xor", 0.0, [0, 1]), ("xor", 0.5, [0, 1]), ("xor", 0.5, [7, 0, 0]),
        ("moons", 0.0, [0, 1]), ("moons", 1.0, [0, 1]),
    ])
    def test_report_does_not_depend_on_its_batch(self, task, iota, seeds):
        batched = train(task, degraded(iota), seeds)
        assert [r.seed for r in batched] == seeds
        for report in batched:
            report.iota = iota
        assert_cells_trained_alone(task, batched)

    @pytest.mark.parametrize("task, levels, seeds", [
        ("xor", [0.5, 1.0], [7, 0, 0]), ("moons", [0.0, 1.0], [0, 1]),
    ])
    def test_level_stack_report_does_not_depend_on_its_batch(self, task, levels, seeds):
        """``sweep`` trains every (level, seed) cell in one stack."""
        batched = sweep(task, levels, seeds, GRID)
        assert [(r.iota, r.seed) for r in batched] == [
            (iota, seed) for iota in levels for seed in seeds]
        assert_cells_trained_alone(task, batched)

    @staticmethod
    def count_calls(monkeypatch, name):
        """The list each call of ``network.<name>`` appends its arguments to."""
        calls, real = [], getattr(network, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(network, name, counting)
        return calls

    def test_sweep_trains_every_level_in_one_call(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "train")
        reports = sweep("xor", [0.0, 1.0], [0, 1, 2], GRID)
        assert len(calls) == 1
        assert [(r.iota, r.seed) for r in reports] == [
            (iota, seed) for iota in (0.0, 1.0) for seed in (0, 1, 2)]

    def test_sweep_reconstructs_every_level_in_one_call(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "reconstruct")
        reports = sweep("xor", [0.0, 0.5, 1.0], [0], GRID)
        assert len(calls) == 1
        channel, = calls[0]
        assert channel.iota.shape == (3, GRID.n_points)
        assert [r.iota for r in reports] == [0.0, 0.5, 1.0]

    def test_full_batch_reuses_the_evaluation_pass(self, monkeypatch):
        """One forward pass per epoch plus the first: the pass that judges an
        epoch is the next epoch's training pass."""
        calls = self.count_calls(monkeypatch, "forward")
        train("xor", SIGMOID, [0, 1])
        assert len(calls) == TASKS["xor"].max_epochs + 1

    @pytest.mark.parametrize("task, calls_per_epoch", [("xor", 1), ("moons", 7)])
    def test_gradient_norms_only_for_the_reported_epochs(self, monkeypatch, task,
                                                         calls_per_epoch):
        """``mean_grad_norm_first100`` reads the first 100 epochs' hidden
        gradient norms: one per minibatch step of those epochs, none later."""
        calls = self.count_calls(monkeypatch, "hidden_gradient_norm")
        train(task, SIGMOID, [0])
        assert len(calls) == 100 * calls_per_epoch


class TestSweep:
    def test_single_level_matches_direct_train(self):
        reports = sweep("xor", [0.0], [0, 1], GRID)
        for seed, report in zip((0, 1), reports):
            direct = trained_alone("xor", 0.0, seed)
            assert report.final_loss == direct.final_loss
            assert report.epochs_to_threshold == direct.epochs_to_threshold

    def test_no_seeds_no_reports(self):
        assert train("xor", SIGMOID, []) == []
        assert sweep("xor", [0.0, 1.0], [], GRID) == []

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


def report_row(r):
    """The text of a report's row: every value's repr, epochs -1 for never."""
    epochs = -1 if r.epochs_to_threshold is None else r.epochs_to_threshold
    return ",".join(map(repr, (r.iota, r.seed, r.final_accuracy, r.final_loss, epochs,
                               r.mean_grad_norm_first100)))


class TestReportCsv:
    def test_round_trip_with_never(self, tmp_path):
        reports = sweep("xor", [1.0], [0, 3], GRID)
        path = tmp_path / "reports.csv"
        write_report_csv(path, reports)
        lines = path.read_text().splitlines()
        assert lines[0] == ("iota,seed,final_accuracy,final_loss,"
                            "epochs_to_threshold,mean_grad_norm_first100")
        assert lines[1:] == [report_row(r) for r in reports]

    def test_seed_beyond_float_precision_round_trips(self, tmp_path):
        seed = 2**53 + 1                           # a float would write 2**53
        report = TrainReport(final_accuracy=1.0, final_loss=0.01, epochs_to_threshold=5,
                             mean_grad_norm_first100=0.1, seed=seed, iota=0.5)
        path = tmp_path / "big.csv"
        write_report_csv(path, [report])
        assert path.read_text().splitlines()[1:] == ["0.5,9007199254740993,1.0,0.01,5,0.1"]

    def test_never_encoded_as_minus_one(self, tmp_path):
        reports = sweep("xor", [1.0], [0], GRID)
        assert any(r.epochs_to_threshold is None for r in reports)
        path = tmp_path / "never.csv"
        write_report_csv(path, reports)
        row = path.read_text().splitlines()[1].split(",")
        assert row[4] == "-1"
