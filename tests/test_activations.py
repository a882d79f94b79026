import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modegap import (
    SIGMOID,
    DimensionError,
    PerceptronConfig,
    perceptron_decide,
    sigmoid,
    sigmoid_prime,
    step,
)
from modegap import activations


def _branchwise_sigmoid(z):
    """The branch-wise logistic: 1/(1+exp(-z)) where z >= 0, exp(z)/(1+exp(z))
    elsewhere, so no positive argument is exponentiated."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 710.0, -710.0]


def assert_same_bits(a, b):
    """Bit for bit, except that a NaN matches any NaN: exp(-|nan|) carries
    the sign bit, which is no value."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()


class TestSigmoid:
    def test_bits_of_the_branchwise_formula_at_the_edges(self):
        z = np.array(SIGMOID_EDGES)
        assert_same_bits(sigmoid(z), _branchwise_sigmoid(z))
        for value in SIGMOID_EDGES:
            assert isinstance(sigmoid(value), float)
            assert_same_bits(sigmoid(value), _branchwise_sigmoid(value))

    @given(st.lists(st.one_of(st.floats(), st.floats(-50.0, 50.0)), max_size=16))
    @settings(max_examples=300)
    def test_bits_of_the_branchwise_formula(self, values):
        z = np.array(values, dtype=float)
        assert_same_bits(sigmoid(z), _branchwise_sigmoid(z))
        assert_same_bits(sigmoid(z.reshape(-1, 1)), _branchwise_sigmoid(z).reshape(-1, 1))

    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_tanh_identity(self):
        """sigma(z) = (tanh(z/2) + 1)/2 across the working range."""
        z = np.linspace(-30, 30, 10_000)
        dev = np.abs(sigmoid(z) - 0.5 * (np.tanh(z / 2) + 1.0))
        assert dev.max() < 1e-12

    def test_no_overflow_at_minus_500(self):
        val = sigmoid(-500.0)
        assert val > 0.0
        assert np.isfinite(val)

    def test_large_positive(self):
        assert sigmoid(700.0) == 1.0

    @given(st.floats(min_value=-700, max_value=700, allow_nan=False))
    @settings(max_examples=300)
    def test_complement(self, z):
        assert abs(sigmoid(z) + sigmoid(-z) - 1.0) < 1e-12

    def test_derivative_identity(self):
        z = np.linspace(-10, 10, 1001)
        h = 1e-6
        numeric = (sigmoid(z + h) - sigmoid(z - h)) / (2 * h)
        np.testing.assert_allclose(sigmoid_prime(z), numeric, atol=1e-9)

    def test_array_and_scalar(self):
        assert isinstance(sigmoid(1.0), float)
        assert sigmoid(np.array([0.0, 1.0])).shape == (2,)


class TestStep:
    def test_values(self):
        assert step(-3.2) == 0.0
        assert step(0.0) == 0.5
        assert step(7.0) == 1.0

    def test_array(self):
        np.testing.assert_array_equal(step(np.array([-1.0, 0.0, 2.0])),
                                      [0.0, 0.5, 1.0])


class TestPerceptron:
    def test_clothes_color_example(self):
        cfg = PerceptronConfig([2.0, 2.0], -3.0)
        assert perceptron_decide(cfg, [1.0, 1.0]) == 1
        assert perceptron_decide(cfg, [1.0, 0.0]) == 0
        assert perceptron_decide(cfg, [0.0, 1.0]) == 0
        assert perceptron_decide(cfg, [0.0, 0.0]) == 0

    def test_tie_maps_to_zero(self):
        assert perceptron_decide(PerceptronConfig([1.0], 0.0), [0.0]) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            perceptron_decide(PerceptronConfig([1.0, 2.0], 0.0), [1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PerceptronConfig([], 0.0)
        with pytest.raises(ValueError):
            PerceptronConfig([np.inf], 0.0)

    # Rescaling invariance holds in IEEE arithmetic only while no product
    # c*w*x or c*b underflows: a nonzero weight or bias is at least 1e-100 in
    # magnitude, so with c >= 1e-3 and the fixed inputs' |x| > 0.5 every
    # product stays far above the smallest normal float.
    COEFFICIENT = st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=5),
                            st.floats(min_value=-5, max_value=-1e-100))

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.lists(COEFFICIENT, min_size=1, max_size=4),
        COEFFICIENT,
    )
    @settings(max_examples=200)
    def test_positive_rescaling_invariance(self, c, weights, bias):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, len(weights))
        base = perceptron_decide(PerceptronConfig(weights, bias), x)
        scaled = perceptron_decide(
            PerceptronConfig(c * np.asarray(weights), c * bias), x)
        assert base == scaled

    def test_rescaling_underflow_falls_on_the_tie(self):
        """Outside that domain invariance fails: 0.5 * 5e-324 rounds to 0, so
        the rescaled sum is the tie, class 0, while the base sum is positive."""
        base = perceptron_decide(PerceptronConfig([5e-324], 0.0), [1.0])
        scaled = perceptron_decide(PerceptronConfig(0.5 * np.array([5e-324]), 0.0), [1.0])
        assert (base, scaled) == (1, 0)


class TestClosedFormActivation:
    def test_sigmoid_dispatch(self):
        assert SIGMOID.evaluate(0.0) == 0.5
        assert SIGMOID.evaluate_with_derivative(0.0) == (0.5, 0.25)

    def test_fields_are_what_a_network_reads(self):
        """``SIGMOID`` has two public methods: the two reads of a network."""
        assert [name for name in dir(SIGMOID) if not name.startswith("_")] == [
            "evaluate", "evaluate_with_derivative"]

    def test_reads_go_through_the_module_function(self, monkeypatch):
        calls = []

        def spy(z):
            calls.append(z)
            return sigmoid(z)
        monkeypatch.setattr(activations, "sigmoid", spy)
        assert SIGMOID.evaluate(0.0) == 0.5
        assert SIGMOID.evaluate_with_derivative(0.0) == (0.5, 0.25)
        assert calls == [0.0, 0.0]

    def test_sigmoid_fused_read_gives_both_reads_bits(self):
        """The fused read of a training pass: every bit of ``sigmoid`` and
        ``sigmoid_prime``, NaN's sign included, and their types."""
        z = np.concatenate([SIGMOID_EDGES, np.linspace(-40.0, 40.0, 161)])
        for arg in [z, z.reshape(-1, 1), *SIGMOID_EDGES]:
            f, f_prime = SIGMOID.evaluate_with_derivative(arg)
            for fused, alone in [(f, sigmoid(arg)), (f_prime, sigmoid_prime(arg))]:
                assert type(fused) is type(alone)
                assert np.asarray(fused).tobytes() == np.asarray(alone).tobytes()


def _sensitivity_predict(activation, cfg, inputs, deltas_w, delta_b):
    """First-order output change of one unit under weight/bias perturbations.

    With m = f(sum_j w_j x_j + b) the chain rule gives
    dm = f'(z) * (sum_j x_j dw_j + db).
    """
    inputs = np.asarray(inputs, dtype=float)
    deltas_w = np.asarray(deltas_w, dtype=float)
    if inputs.shape != cfg.weights.shape or deltas_w.shape != cfg.weights.shape:
        raise DimensionError("inputs, perturbations and weights must have equal length")
    z = float(cfg.weights @ inputs) + cfg.bias
    slope = float(activation.evaluate_with_derivative(z)[1])
    return slope * (float(inputs @ deltas_w) + delta_b)


class TestSensitivity:
    def test_zero_input_kills_weight_term(self):
        cfg = PerceptronConfig([1.0], 0.0)
        pred = _sensitivity_predict(SIGMOID, cfg, [0.0], [0.01], 0.0)
        assert pred == 0.0

    def test_quarter_slope_at_zero_preactivation(self):
        # bias -1 puts the evaluation point at z = 0, where the slope is 1/4
        cfg = PerceptronConfig([1.0], -1.0)
        pred = _sensitivity_predict(SIGMOID, cfg, [1.0], [0.01], 0.0)
        assert pred == pytest.approx(0.0025, abs=1e-15)

    def test_slope_at_unit_preactivation(self):
        cfg = PerceptronConfig([1.0], 0.0)
        pred = _sensitivity_predict(SIGMOID, cfg, [1.0], [0.01], 0.0)
        s1 = sigmoid(1.0)
        assert pred == pytest.approx(s1 * (1 - s1) * 0.01, abs=1e-15)

    def test_second_order_convergence(self):
        """Halving the perturbation shrinks the prediction error ~4x."""
        cfg = PerceptronConfig([0.8, -0.4], 0.3)
        x = np.array([1.2, 0.7])
        act = SIGMOID

        def true_delta(dw, db):
            before = sigmoid(np.dot(cfg.weights, x) + cfg.bias)
            after = sigmoid(np.dot(cfg.weights + dw, x) + cfg.bias + db)
            return after - before

        dw = np.array([0.02, -0.01])
        db = 0.015
        err_full = abs(true_delta(dw, db)
                       - _sensitivity_predict(act, cfg, x, dw, db))
        err_half = abs(true_delta(dw / 2, db / 2)
                       - _sensitivity_predict(act, cfg, x, dw / 2, db / 2))
        assert err_full / err_half == pytest.approx(4.0, rel=0.15)

    def test_dimension_error(self):
        cfg = PerceptronConfig([1.0, 2.0], 0.0)
        with pytest.raises(DimensionError):
            _sensitivity_predict(SIGMOID, cfg, [1.0], [0.01, 0.0], 0.0)
