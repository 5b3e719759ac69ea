"""Gradient checks and unit tests for the hand-written layers.

Every backward pass is validated against central finite differences —
the only way to trust a from-scratch BPTT implementation.
"""

import numpy as np
import pytest

from repro.ml.layers import (
    AdditiveAttention,
    BiLstmLayer,
    Dense,
    Dropout,
    LstmCell,
    sigmoid,
    softmax,
    softmax_cross_entropy,
)


def numeric_gradient(f, array, epsilon=1e-6):
    """Central-difference gradient of scalar f w.r.t. *array* (in place)."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + epsilon
        plus = f()
        array[idx] = original - epsilon
        minus = f()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * epsilon)
        it.iternext()
    return grad


class TestActivations:
    def test_sigmoid_range_and_stability(self):
        x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
        s = sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        assert s[2] == pytest.approx(0.5)
        assert not np.any(np.isnan(s))

    def test_sigmoid_is_bit_identical_to_masked_formula(self):
        def masked(x):
            out = np.empty_like(x)
            positive = x >= 0
            out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
            expx = np.exp(x[~positive])
            out[~positive] = expx / (1.0 + expx)
            return out

        rng = np.random.default_rng(3)
        for x in (
            rng.normal(size=(8, 16, 32)) * 10,
            rng.uniform(-800, 800, size=1000),
            np.array([0.0, -0.0, 745.0, -745.0]),
        ):
            assert sigmoid(x).tobytes() == masked(x).tobytes()
        # NaN stays NaN (only its sign bit may differ).
        edges = np.array([0.0, -0.0, 745.0, -745.0, np.nan])
        assert np.array_equal(sigmoid(edges), masked(edges), equal_nan=True)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 7)) * 50
        p = softmax(x, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_cross_entropy_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        numeric = numeric_gradient(
            lambda: softmax_cross_entropy(logits, labels)[0], logits
        )
        assert np.allclose(grad, numeric, atol=1e-6)

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3, 4)), np.zeros(2, dtype=int))


class TestDense:
    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(4, 3))
        grad_out = rng.normal(size=(4, 2))

        def loss():
            return float((layer.forward(x) * grad_out).sum())

        loss()  # populate cache
        grad_x = layer.backward(grad_out)
        assert np.allclose(grad_x, numeric_gradient(loss, x), atol=1e-5)
        assert np.allclose(layer.grad_weight, numeric_gradient(loss, layer.weight), atol=1e-5)
        assert np.allclose(layer.grad_bias, numeric_gradient(loss, layer.bias), atol=1e-5)


class TestLstm:
    def test_output_shape(self):
        cell = LstmCell(3, 5, np.random.default_rng(0))
        out = cell.forward(np.zeros((2, 7, 3)))
        assert out.shape == (2, 7, 5)

    def test_forget_bias_initialized_to_one(self):
        cell = LstmCell(3, 4, np.random.default_rng(0))
        assert np.all(cell.bias[4:8] == 1.0)

    def test_bptt_gradient_check(self):
        rng = np.random.default_rng(3)
        cell = LstmCell(2, 3, rng)
        x = rng.normal(size=(2, 4, 2))
        grad_out = rng.normal(size=(2, 4, 3))

        def loss():
            return float((cell.forward(x) * grad_out).sum())

        loss()
        grad_x = cell.backward(grad_out)
        assert np.allclose(grad_x, numeric_gradient(loss, x), atol=1e-5)
        for param, grad in zip(cell.params(), cell.grads()):
            loss()
            cell.backward(grad_out)
            assert np.allclose(grad, numeric_gradient(loss, param), atol=1e-5)


def reference_lstm(cell, x, grad_hs):
    """The textbook one-direction loop: forward, then BPTT.

    Returns ``(hs, grad_x, [grad_w_x, grad_w_h, grad_bias])``.  The
    fused recurrence must reproduce it bit for bit.
    """
    batch, steps, _ = x.shape
    hidden = cell.hidden
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    hs = np.zeros((batch, steps, hidden))
    cache = []
    for t in range(steps):
        z = x[:, t, :] @ cell.w_x + h @ cell.w_h + cell.bias
        i = sigmoid(z[:, :hidden])
        f = sigmoid(z[:, hidden : 2 * hidden])
        o = sigmoid(z[:, 2 * hidden : 3 * hidden])
        g = np.tanh(z[:, 3 * hidden :])
        c_prev, h_prev = c, h
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t, :] = h
        cache.append((i, f, o, g, c, c_prev, h_prev))
    grads = [np.zeros_like(cell.w_x), np.zeros_like(cell.w_h), np.zeros_like(cell.bias)]
    grad_x = np.zeros_like(x)
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        i, f, o, g, c, c_prev, h_prev = cache[t]
        tanh_c = np.tanh(c)
        dh = grad_hs[:, t, :] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c**2) + dc_next
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_next = dc * f
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g**2)],
            axis=1,
        )
        grads[0] += x[:, t, :].T @ dz
        grads[1] += h_prev.T @ dz
        grads[2] += dz.sum(axis=0)
        grad_x[:, t, :] = dz @ cell.w_x.T
        dh_next = dz @ cell.w_h.T
    return hs, grad_x, grads


def assert_bit_identical(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.shape == e.shape
        assert a.tobytes() == e.tobytes()


#: ``(batch, steps, in_features, hidden)``: a single step, a single
#: trace, widths that leave SIMD tails, and the model's own widths.
RECURRENCE_SHAPES = [(1, 1, 1, 1), (1, 7, 1, 3), (3, 5, 2, 5), (16, 20, 1, 12), (8, 11, 24, 12)]


class TestFusedRecurrenceMatchesReference:
    @pytest.mark.parametrize("batch,steps,features,hidden", RECURRENCE_SHAPES)
    def test_lstm_cell(self, batch, steps, features, hidden):
        rng = np.random.default_rng(batch * 100 + hidden)
        cell = LstmCell(features, hidden, rng)
        x = rng.normal(size=(batch, steps, features)) * 2
        grad_out = rng.normal(size=(batch, steps, hidden))
        hs, grad_x, grads = reference_lstm(cell, x, grad_out)
        out = cell.forward(x)
        assert_bit_identical([out, cell.backward(grad_out), *cell.grads()], [hs, grad_x, *grads])

    @pytest.mark.parametrize("batch,steps,features,hidden", RECURRENCE_SHAPES)
    def test_bilstm_layer(self, batch, steps, features, hidden):
        rng = np.random.default_rng(batch * 100 + hidden + 1)
        layer = BiLstmLayer(features, hidden, rng)
        x = rng.normal(size=(batch, steps, features)) * 2
        grad_out = rng.normal(size=(batch, steps, 2 * hidden))
        fwd = reference_lstm(layer.forward_cell, x, grad_out[:, :, :hidden])
        bwd = reference_lstm(layer.backward_cell, x[:, ::-1, :], grad_out[:, ::-1, hidden:])
        out = layer.forward(x)
        expected_out = np.concatenate([fwd[0], bwd[0][:, ::-1, :]], axis=2)
        expected_grad_x = fwd[1] + bwd[1][:, ::-1, :]
        assert_bit_identical(
            [out, layer.backward(grad_out), *layer.grads()],
            [expected_out, expected_grad_x, *fwd[2], *bwd[2]],
        )


class TestBiLstm:
    def test_output_concatenates_directions(self):
        layer = BiLstmLayer(2, 3, np.random.default_rng(0))
        out = layer.forward(np.random.default_rng(1).normal(size=(2, 5, 2)))
        assert out.shape == (2, 5, 6)
        assert layer.out_features == 6

    def test_gradient_check(self):
        rng = np.random.default_rng(4)
        layer = BiLstmLayer(2, 2, rng)
        x = rng.normal(size=(2, 3, 2))
        grad_out = rng.normal(size=(2, 3, 4))

        def loss():
            return float((layer.forward(x) * grad_out).sum())

        loss()
        grad_x = layer.backward(grad_out)
        assert np.allclose(grad_x, numeric_gradient(loss, x), atol=1e-5)

    def test_direction_sensitivity(self):
        """A BiLSTM output at step t depends on future inputs too."""
        layer = BiLstmLayer(1, 3, np.random.default_rng(5))
        x = np.zeros((1, 6, 1))
        base = layer.forward(x)[0, 0].copy()
        x[0, 5, 0] = 10.0  # change the last step
        changed = layer.forward(x)[0, 0]
        assert not np.allclose(base, changed)


class TestAttention:
    def test_weights_sum_to_one(self):
        attention = AdditiveAttention(4, 3, np.random.default_rng(0))
        attention.forward(np.random.default_rng(1).normal(size=(2, 5, 4)))
        assert np.allclose(attention.last_attention.sum(axis=1), 1.0)

    def test_gradient_check(self):
        rng = np.random.default_rng(6)
        attention = AdditiveAttention(3, 2, rng)
        h = rng.normal(size=(2, 4, 3))
        grad_out = rng.normal(size=(2, 3))

        def loss():
            return float((attention.forward(h) * grad_out).sum())

        loss()
        grad_h = attention.backward(grad_out)
        assert np.allclose(grad_h, numeric_gradient(loss, h), atol=1e-5)
        for param, grad in zip(attention.params(), attention.grads()):
            loss()
            attention.backward(grad_out)
            assert np.allclose(grad, numeric_gradient(loss, param), atol=1e-5)

    def test_attention_prefers_informative_step(self):
        """A step with a huge score should dominate the pooling."""
        rng = np.random.default_rng(7)
        attention = AdditiveAttention(2, 4, rng)
        h = np.zeros((1, 3, 2))
        h[0, 1] = [5.0, 5.0]
        attention.forward(h)
        weights = attention.last_attention[0]
        assert weights[1] != pytest.approx(1 / 3, abs=1e-3)


class TestDropout:
    def test_eval_mode_is_identity(self):
        dropout = Dropout(0.5, np.random.default_rng(0))
        dropout.training = False
        x = np.ones((4, 4))
        assert np.array_equal(dropout.forward(x), x)

    def test_training_mode_scales_survivors(self):
        dropout = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((100, 100))
        out = dropout.forward(x)
        survivors = out[out > 0]
        assert np.allclose(survivors, 2.0)
        assert 0.3 < (out > 0).mean() < 0.7

    def test_backward_uses_same_mask(self):
        dropout = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((10, 10))
        out = dropout.forward(x)
        grad = dropout.backward(np.ones_like(x))
        assert np.array_equal(grad > 0, out > 0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0, np.random.default_rng(0))
