import dataclasses
import functools
import math
import types

import numpy as np
import pytest

from modegap import (
    SIGMOID,
    TASKS,
    DegradedActivation,
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
from modegap.workers import WorkerError

GRID = Grid(40.0, 4096)


def degraded(iota):
    return reconstruct(uniform_channel(GRID, iota))


@functools.cache
def trained_alone(task, iota, seed):
    """The one-cell report of the (task, iota, seed) cell trained alone, tagged
    with its iota; shared by the tests that meet the same cell more than once,
    which therefore must not change it."""
    report = train(task, degraded(iota), [seed])
    report.iota = np.array([iota])
    return report


def cell(report, i=0, j=0):
    """Field name -> value of cell (i, j) of a report, ``seed`` and ``iota``
    included; every value as its repr, which is exact for floats and reads
    nan (an untagged iota) as equal to itself."""
    values = {f.name: getattr(report, f.name)[i, j] for f in dataclasses.fields(TrainReport)
              if f.name not in ("seeds", "iota", "weights")}
    values.update(seed=report.seeds[j], iota=report.iota[i])
    return {name: repr(np.asarray(value).item()) for name, value in values.items()}


def cell_weights(report, i=0, j=0):
    """Cell (i, j)'s trained weights, one (W, b) per layer."""
    return [(w[i, j], b[i, j]) for w, b in report.weights]


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
            grads = loss_gradients(weights, forward(SIGMOID, weights, inputs, derivatives=True),
                                   labels)
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
                loss_gradients(weights, forward(act, weights, inputs, derivatives=True), labels))
        for iota in (0.25, 0.5, 0.75):
            ratio = norms[iota] / norms[0.0]
            assert ratio == pytest.approx(math.sqrt(1 - iota), rel=1e-3)


class TestTrain:
    def test_deterministic(self):
        assert_same_report(train("xor", SIGMOID, [4]), train("xor", SIGMOID, [4]))

    @pytest.mark.parametrize("task", ["xor", "moons"])
    def test_training_off_the_lattice_is_np_interp_training(self, monkeypatch, task):
        """On Grid(3, 512) hidden pre-activations leave the lattice.  A report
        trained on the lattice read equals, bit for bit, the report trained
        with the reference read patched in: ``np.interp``, row by row, for
        every read, as reads with a point off the lattice once were made."""
        grid, seeds = Grid(3.0, 512), [0, 1]
        lattice = train(task, reconstruct(uniform_channel(grid, 0.5)), seeds)
        off_reads = []

        def interp_read(act, z, tables):
            rows = np.reshape(z, (act.levels, -1))
            off_reads.append(np.any((rows < grid.z[0]) | (rows > grid.z[-1])))
            reads = [np.stack([np.interp(z_row, grid.z, row, 0.0, right) for z_row, row in
                               zip(rows, table.reshape(act.levels, -1))]).reshape(np.shape(z))
                     for table, right in tables]
            return tuple(read if read.ndim else float(read) for read in reads)

        monkeypatch.setattr(DegradedActivation, "evaluate",
                            lambda act, z: interp_read(act, z, [(act.samples, 1.0)])[0])
        monkeypatch.setattr(DegradedActivation, "evaluate_with_derivative",
                            lambda act, z: interp_read(act, z, [(act.samples, 1.0),
                                                                (act.derivative_samples, 0.0)]))
        reference = train(task, reconstruct(uniform_channel(grid, 0.5)), seeds)
        assert any(off_reads)
        assert_same_report(lattice, reference)

    def test_total_loss_freezes_hidden_layers(self):
        initial = init_weights(TASKS["xor"].layer_sizes, np.random.default_rng(3))
        report = train("xor", degraded(1.0), [3])
        final = cell_weights(report)
        assert report.mean_grad_norm_first100[0, 0] == 0.0
        for (w0, b0), (w1, b1) in zip(initial[:-1], final[:-1]):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)

    def test_backprop_refuses_a_value_only_pass(self):
        """A pass that only judges the network keeps no slopes, and backprop
        refuses it."""
        inputs, labels = make_dataset("xor")
        weights = init_weights(TASKS["xor"].layer_sizes, np.random.default_rng(0))
        passes = forward(SIGMOID, weights, inputs)
        assert passes[0] is None
        with pytest.raises(ValueError, match="derivatives=True"):
            loss_gradients(weights, passes, labels)

    def test_report_fields(self):
        report = train("xor", SIGMOID, [0])
        assert report.seeds == (0,)
        assert np.isnan(report.iota).tolist() == [True]
        assert report.final_accuracy.shape == report.final_loss.shape == (1, 1)
        assert report.epochs_to_threshold.shape == report.mean_grad_norm_first100.shape == (1, 1)
        assert [(w.shape, b.shape) for w, b in report.weights] == [
            ((1, 1, 4, 2), (1, 1, 4)), ((1, 1, 1, 4), (1, 1, 1))]
        assert 0.0 <= report.final_accuracy[0, 0] <= 1.0
        assert report.final_loss[0, 0] >= 0.0
        assert -1 <= report.epochs_to_threshold[0, 0] <= TASKS["xor"].max_epochs
        assert report.epochs_to_threshold[0, 0] != 0

    def test_moons_smoke(self):
        report = trained_alone("moons", 0.0, 0)
        assert report.epochs_to_threshold[0, 0] > 0
        assert report.final_accuracy[0, 0] >= 0.9

    def test_xor_reference_fixture(self):
        """Frozen from a reference run: seeds 0-9 converge at exactly these
        epochs, all ten under the 2000-epoch budget."""
        expected = [658, 678, 620, 821, 782, 637, 783, 657, 825, 683]
        report = train("xor", SIGMOID, range(10))
        assert report.seeds == tuple(range(10))
        assert report.epochs_to_threshold.tolist() == [expected]
        assert np.all(report.final_loss < 0.05)


def assert_same_cell(a, b, at_a=(0, 0), at_b=(0, 0)):
    """Cell ``at_a`` of report ``a`` equals cell ``at_b`` of report ``b``:
    every field, the weights bit for bit."""
    assert cell(a, *at_a) == cell(b, *at_b)
    for (wa, ba), (wb, bb) in zip(cell_weights(a, *at_a), cell_weights(b, *at_b), strict=True):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)


def assert_same_report(a, b):
    """The same (levels, seeds) shape, and every cell equal."""
    assert a.final_loss.shape == b.final_loss.shape
    for at in np.ndindex(a.final_loss.shape):
        assert_same_cell(a, b, at, at)


def assert_cells_trained_alone(task, batched):
    """Each cell of a report equals ``trained_alone(task, iota, seed)``."""
    for i, j in np.ndindex(batched.final_loss.shape):
        alone = trained_alone(task, batched.iota[i].item(), batched.seeds[j])
        assert_same_cell(batched, alone, (i, j))


class TestBatchedTrain:
    """``train`` runs its (level, seed) cells as one stack; each cell of its
    report must be the one that cell gives when trained alone."""

    @pytest.mark.parametrize("task, iota, seeds", [
        ("xor", 0.0, [0, 1]), ("xor", 0.5, [0, 1]), ("xor", 0.5, [7, 0, 0]),
        ("moons", 0.0, [0, 1]), ("moons", 1.0, [0, 1]),
    ])
    def test_report_does_not_depend_on_its_batch(self, task, iota, seeds):
        batched = train(task, degraded(iota), seeds)
        assert batched.seeds == tuple(seeds)
        assert batched.final_loss.shape == (1, len(seeds))
        batched.iota = np.array([iota])
        assert_cells_trained_alone(task, batched)

    @pytest.mark.parametrize("task, levels, seeds", [
        ("xor", [0.5, 1.0], [7, 0, 0]), ("moons", [0.0, 1.0], [0, 1]),
    ])
    def test_level_stack_report_does_not_depend_on_its_batch(self, task, levels, seeds):
        """``sweep`` trains every (level, seed) cell in one stack."""
        batched = sweep(task, levels, seeds, GRID)
        assert (batched.iota.tolist(), batched.seeds) == (levels, tuple(seeds))
        assert batched.final_loss.shape == (len(levels), len(seeds))
        assert_cells_trained_alone(task, batched)

    @staticmethod
    def count_calls(monkeypatch, name, owner=network):
        """The list each call of ``owner.<name>`` appends its positional
        arguments to; ``owner`` is a module or a class."""
        calls, real = [], getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_one_cell_search_per_hidden_layer_per_pass(self, monkeypatch):
        """A training pass reads each hidden layer once, with the fused read;
        moons' epoch-end evaluation reads values only, up to the epoch after
        the threshold is reached and at the last, and the xor one is the
        next epoch's training pass.  The derivative table is never read on
        its own.  A fused lookup reads both tables, a value read one."""
        names = ["_lookup", "evaluate", "evaluate_derivative", "evaluate_with_derivative"]
        calls = [self.count_calls(monkeypatch, name, DegradedActivation) for name in names]
        lookups = calls[0]
        act = degraded(0.5)
        report = train("moons", act, [0])
        epochs = TASKS["moons"].max_epochs      # 7 minibatches and 2 hidden layers
        reached = report.epochs_to_threshold[0, 0]
        judged = epochs if reached < 0 else min(reached + 1, epochs)
        assert [len(c) for c in calls] == [14 * epochs + 2 * judged, 2 * judged, 0, 14 * epochs]
        tables = [len(args) - 2 for args in lookups]   # args: self, z, *tables
        assert (tables.count(2), tables.count(1)) == (14 * epochs, 2 * judged)
        for c in calls:
            c.clear()
        train("xor", act, [0])
        passes = TASKS["xor"].max_epochs + 1
        assert [len(c) for c in calls] == [passes, 0, 0, passes]
        assert all(len(args) - 2 == 2 for args in lookups)

    def test_minibatch_epoch_end_judges_the_open_cells(self, monkeypatch, harness):
        """Every epoch, moons judges each level that has a judged cell through
        that level's own table, in ascending level order, on that level's
        judged seeds: before the last epoch each cell up to the epoch it
        reaches the threshold, and at the last epoch every cell.  One core, so
        that the spy, which sees only this process, sees every cell."""
        harness.cores(1)
        levels, seeds = [0.0, 1.0], [1, 4]
        tables = degraded(levels).samples
        reads, real = [], DegradedActivation.evaluate

        def spy(act, z):
            assert act.samples.ndim == 1
            level, = [i for i, table in enumerate(tables) if np.array_equal(act.samples, table)]
            reads.append((level, z.shape))
            return real(act, z)

        monkeypatch.setattr(DegradedActivation, "evaluate", spy)
        report = sweep("moons", levels, seeds, GRID)
        reached = report.epochs_to_threshold.tolist()    # (level, seed)
        assert -1 in sum(reached, []) and len(set(sum(reached, []))) == 4
        epochs = TASKS["moons"].max_epochs
        expected = []
        for epoch in range(1, epochs + 1):
            for level, per_seed in enumerate(reached):
                judged = [e for e in per_seed if e < 0 or e >= epoch or epoch == epochs]
                expected += [(level, (len(judged), 200, 8))] * 2 * bool(judged)
        assert reads == expected
        assert expected[-4:] == [(0, (2, 200, 8))] * 2 + [(1, (2, 200, 8))] * 2

    def test_sweep_trains_every_level_in_one_call(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "train")
        report = sweep("xor", [0.0, 1.0], [0, 1, 2], GRID)
        assert len(calls) == 1
        assert (report.iota.tolist(), report.seeds) == ([0.0, 1.0], (0, 1, 2))
        assert report.final_loss.shape == (2, 3)

    def test_sweep_reconstructs_every_level_in_one_call(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "reconstruct")
        report = sweep("xor", [0.0, 0.5, 1.0], [0], GRID)
        assert len(calls) == 1
        channel, = calls[0]
        assert channel.iota.shape == (3, GRID.n_points)
        assert report.iota.tolist() == [0.0, 0.5, 1.0]

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


class TestShares:
    """``train`` splits its seeds into one contiguous share per core, at most
    one per seed and one per ``_SHARE_VALUES`` hidden values a step computes;
    ``tests/test_workers.py`` checks the split and how the shares run."""

    def test_a_share_pays_for_itself(self, monkeypatch):
        """A step of the default xor sweep computes 80 hidden values per seed
        (five levels, batch 4, 4 hidden units), 800 in all; the documented
        moons sweep 1,024 per seed (two levels, batch 32, 8 + 8 hidden
        units), 10,240 in all.  ``tests/test_workers.py`` splits both."""
        class Split(Exception):
            pass

        def spy(items, cost, floor):
            raise Split(items, cost, floor)
        seeds = tuple(range(10))
        monkeypatch.setattr(network, "split", spy)
        stack = types.SimpleNamespace
        for task, activation, per_seed in [("xor", stack(levels=5), 80), ("xor", SIGMOID, 16),
                                           ("moons", stack(levels=2), 1024),
                                           ("moons", stack(levels=1), 512)]:
            with pytest.raises(Split) as caught:
                train(task, activation, seeds)
            assert caught.value.args == (seeds, per_seed, network._SHARE_VALUES)

    @staticmethod
    def assert_same_at_every_core_count(harness, run):
        """``run()``, at 1, 2 and 3 cores, gives the same report bit for bit."""
        harness.cores(1)
        one = run()
        for count in (2, 3):
            harness.cores(count)
            assert_same_report(run(), one)
        harness.assert_nothing_left()

    @pytest.mark.parametrize("task, iota, seeds", [
        ("xor", 0.5, [7, 0, 0]), ("xor", 0.0, [3, 1]),
    ])
    def test_train_does_not_depend_on_the_core_count(self, harness, task, iota, seeds):
        self.assert_same_at_every_core_count(harness, lambda: train(task, degraded(iota), seeds))

    @pytest.mark.parametrize("task, levels, seeds", [
        ("xor", [0.0, 0.5, 1.0], [4, 2, 9]), ("moons", [0.0, 1.0], [2, 5]),
    ])
    def test_sweep_does_not_depend_on_the_core_count(self, harness, task, levels, seeds):
        self.assert_same_at_every_core_count(harness, lambda: sweep(task, levels, seeds, GRID))

    def test_one_seed_forks_nothing(self, harness):
        harness.cores(3)
        train("xor", SIGMOID, [0])
        sweep("xor", [0.0, 1.0], [0], GRID)
        assert harness.forks == []
        train("xor", SIGMOID, [0, 1, 2, 3])
        assert len(harness.forks) == 2

    def test_failed_worker_names_its_seeds(self, harness):
        """Three seeds on three cores: the first worker to fail, the one
        training seed 6, is named, and no worker is left."""
        harness.cores(3)
        harness.spy(network, "_train", fail="worker")
        with pytest.raises(WorkerError) as caught:
            train("xor", SIGMOID, [5, 6, 7])
        assert str(caught.value) == "the worker training seeds 6 exited with 1"
        harness.assert_nothing_left()


class TestSweep:
    def test_single_level_matches_direct_train(self):
        report = sweep("xor", [0.0], [0, 1], GRID)
        for j, seed in enumerate((0, 1)):
            direct = trained_alone("xor", 0.0, seed)
            assert report.final_loss[0, j] == direct.final_loss[0, 0]
            assert report.epochs_to_threshold[0, j] == direct.epochs_to_threshold[0, 0]

    def test_no_seeds_no_reports(self):
        """An empty seed or level list is refused, not trained into an empty
        report."""
        with pytest.raises(ValueError):
            train("xor", SIGMOID, [])
        with pytest.raises(ValueError):
            sweep("xor", [0.0, 1.0], [], GRID)
        with pytest.raises(ValueError):
            sweep("xor", [], [0], GRID)

    def test_levels_must_ascend(self):
        with pytest.raises(ValueError):
            sweep("xor", [0.5, 0.0], [0], GRID)
        with pytest.raises(ValueError):                 # a repeated level trains its cells twice
            sweep("xor", [0.0, 0.0, 1.0], [0], GRID)

    def test_median_epochs_never(self):
        report = sweep("xor", [1.0], list(range(4)), GRID)
        assert np.count_nonzero(report.epochs_to_threshold == -1) >= 2
        assert math.isinf(median_epochs(report.epochs_to_threshold))
        assert median_epochs([[3, -1, 5]]) == 5.0

    def test_moons_total_loss_band(self):
        """Frozen from measurement: with all hidden layers frozen the output
        layer still reads the moons geometry off the random step features,
        landing well above chance but short of the learnable regime."""
        report = sweep("moons", [1.0], list(range(10)), GRID)
        accs = report.final_accuracy
        assert accs.min() >= 0.65
        assert accs.max() <= 0.92
        assert np.all(report.mean_grad_norm_first100 == 0.0)


def cell_row(report):
    """The text of a one-cell report's row: every value's repr, epochs -1
    for never."""
    values = cell(report)
    return ",".join(values[name] for name in network.REPORT_HEADER)


class TestReportCsv:
    def test_round_trip_with_never(self, tmp_path):
        """Rows come in (level, seed) order, iota repeated per seed, each the
        row of that cell trained alone; never is -1 and a seed past float
        precision is written exactly (a float would write 2**53)."""
        levels, seeds = [0.0, 1.0], [3, 2**53 + 1]
        report = sweep("xor", levels, seeds, GRID)
        path = tmp_path / "reports.csv"
        write_report_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == ("iota,seed,final_accuracy,final_loss,"
                            "epochs_to_threshold,mean_grad_norm_first100")
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:2] for row in rows] == [["0.0", "3"], ["0.0", "9007199254740993"],
                                             ["1.0", "3"], ["1.0", "9007199254740993"]]
        assert rows[2][4] == "-1"
        assert lines[1:] == [cell_row(trained_alone("xor", iota, seed))
                             for iota in levels for seed in seeds]

    def test_seed_beyond_float_precision_round_trips(self, tmp_path):
        seed = 2**53 + 1                           # a float would write 2**53
        report = TrainReport(seeds=(seed,), final_accuracy=np.array([[1.0]]),
                             final_loss=np.array([[0.01]]),
                             epochs_to_threshold=np.array([[5]]),
                             mean_grad_norm_first100=np.array([[0.1]]), weights=[],
                             iota=np.array([0.5]))
        path = tmp_path / "big.csv"
        write_report_csv(path, report)
        assert path.read_text().splitlines()[1:] == ["0.5,9007199254740993,1.0,0.01,5,0.1"]

    def test_never_encoded_as_minus_one(self, tmp_path):
        report = sweep("xor", [1.0], [0], GRID)
        assert report.epochs_to_threshold.tolist() == [[-1]]
        path = tmp_path / "never.csv"
        write_report_csv(path, report)
        row = path.read_text().splitlines()[1].split(",")
        assert row[4] == "-1"
