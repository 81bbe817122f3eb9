"""Tests for GRU/LSTM cells and the masked recurrent layer.

A single step is the length-1 unroll of the sequence kernels, the same
kernels the layer runs over whole padded batches.
"""

import numpy as np
import pytest

from repro.nn import (GRUCell, LSTMCell, RecurrentLayer, Tensor,
                      fused_gru_sequence, fused_lstm_sequence, gradient_check)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def gru_step(cell, x, h, keep=None):
    """One GRU step; rows whose ``keep`` is 0 freeze ``h``."""
    batch = x.shape[0]
    states = fused_gru_sequence(
        x.reshape(batch, 1, cell.input_size), h, cell.w_ih, cell.w_hh,
        cell.b_ih, cell.b_hh, step_mask=None if keep is None else keep > 0)
    return states.reshape(batch, cell.hidden_size)


def lstm_step(cell, x, h, c):
    """One LSTM step's new hidden state."""
    batch = x.shape[0]
    states = fused_lstm_sequence(x.reshape(batch, 1, cell.input_size), h, c,
                                 cell.w_ih, cell.w_hh, cell.bias)
    return states.reshape(batch, cell.hidden_size)


def unmasked(inputs):
    return np.ones(inputs.shape[:2], dtype=bool)


class TestCells:
    def test_gru_step_shape(self, rng):
        cell = GRUCell(4, 6, rng)
        h = gru_step(cell, Tensor(np.ones((2, 4))), cell.initial_state(2))
        assert h.shape == (2, 6)

    def test_lstm_step_shape(self, rng):
        layer = RecurrentLayer("lstm", 4, 6, rng)
        inputs = Tensor(np.ones((2, 1, 4)))
        states, last = layer(inputs, step_mask=unmasked(inputs))
        assert states.shape == (2, 1, 6)
        assert last.shape == (2, 6)

    def test_gru_gradient(self, rng):
        cell = GRUCell(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def run(a):
            h = gru_step(cell, a, cell.initial_state(2))
            return (h * h).sum()

        assert gradient_check(run, [x]) < 1e-5

    def test_lstm_gradient(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def run(a):
            h = lstm_step(cell, a, *cell.initial_state(2))
            return (h * h).sum()

        assert gradient_check(run, [x]) < 1e-5

    def test_lstm_forget_bias_init(self, rng):
        cell = LSTMCell(3, 4, rng)
        np.testing.assert_allclose(cell.bias.data[4:8], np.ones(4))

    def test_gru_state_bounded(self, rng):
        cell = GRUCell(3, 4, rng)
        states = fused_gru_sequence(
            Tensor(np.full((1, 100, 3), 10.0)), cell.initial_state(1),
            cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)
        assert np.all(np.abs(states.data) <= 1.0 + 1e-9)


class TestRecurrentLayer:
    def test_invalid_cell_type(self, rng):
        with pytest.raises(ValueError):
            RecurrentLayer("rnn", 3, 4, rng)

    @pytest.mark.parametrize("cell_type", ["gru", "lstm"])
    def test_output_shapes(self, rng, cell_type):
        layer = RecurrentLayer(cell_type, 3, 5, rng)
        inputs = Tensor(rng.normal(size=(2, 7, 3)))
        states, last = layer(inputs, step_mask=unmasked(inputs))
        assert states.shape == (2, 7, 5)
        assert last.shape == (2, 5)

    @pytest.mark.parametrize("cell_type", ["gru", "lstm"])
    def test_masked_steps_freeze_state(self, rng, cell_type):
        layer = RecurrentLayer(cell_type, 3, 5, rng)
        inputs = Tensor(rng.normal(size=(1, 4, 3)))
        mask = np.array([[True, True, False, False]])
        states, last = layer(inputs, step_mask=mask)
        # State after masked steps equals state at the last valid step.
        np.testing.assert_allclose(states.data[0, 1], states.data[0, 2])
        np.testing.assert_allclose(states.data[0, 1], last.data[0])

    def test_mask_equivalence_to_truncation(self, rng):
        """Padding + mask must equal running on the shorter sequence."""
        layer = RecurrentLayer("gru", 3, 5, rng)
        seq = rng.normal(size=(1, 3, 3))
        padded = np.concatenate([seq, np.zeros((1, 2, 3))], axis=1)
        mask = np.array([[True] * 3 + [False] * 2])
        _, last_masked = layer(Tensor(padded), step_mask=mask)
        _, last_short = layer(Tensor(seq), step_mask=unmasked(seq))
        np.testing.assert_allclose(last_masked.data, last_short.data)

    def test_initial_state_used(self, rng):
        layer = RecurrentLayer("gru", 3, 5, rng)
        inputs = Tensor(rng.normal(size=(2, 1, 3)))
        init = Tensor(rng.normal(size=(2, 5)))
        mask = unmasked(inputs)
        _, with_init = layer(inputs, step_mask=mask, initial_state=init)
        _, without = layer(inputs, step_mask=mask)
        assert not np.allclose(with_init.data, without.data)

    def test_gradient_through_time(self, rng):
        layer = RecurrentLayer("gru", 2, 3, rng)
        x = Tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)

        def run(a):
            states, last = layer(a, step_mask=unmasked(a))
            return (states * states).sum() + last.sum()

        assert gradient_check(run, [x]) < 1e-5

    def test_all_masked_sequence_keeps_zero_state(self, rng):
        layer = RecurrentLayer("gru", 2, 3, rng)
        inputs = Tensor(rng.normal(size=(1, 3, 2)))
        mask = np.zeros((1, 3), dtype=bool)
        states, last = layer(inputs, step_mask=mask)
        np.testing.assert_allclose(last.data, np.zeros((1, 3)))


class TestLSTMGradients:
    """Finite-difference checks for the LSTM paths the suite used to skip.

    The step's input gradient was already covered; these add the
    parameter-side gradients and the full time-unrolled RecurrentLayer,
    including the masked-step (state-freezing) and user-seeded
    initial-state paths Causer exercises.
    """

    def test_lstm_cell_parameter_gradients(self, rng):
        cell = LSTMCell(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)))
        params = [cell.w_ih, cell.w_hh, cell.bias]

        def run(*_params):
            h = lstm_step(cell, x, *cell.initial_state(2))
            return (h * h).sum()

        assert gradient_check(run, params) < 1e-5

    def test_lstm_layer_gradient_through_time(self, rng):
        layer = RecurrentLayer("lstm", 2, 3, rng)
        x = Tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)

        def run(a):
            states, last = layer(a, step_mask=unmasked(a))
            return (states * states).sum() + last.sum()

        assert gradient_check(run, [x]) < 1e-5

    @pytest.mark.parametrize("cell_type", ["gru", "lstm"])
    def test_masked_layer_input_gradient(self, rng, cell_type):
        layer = RecurrentLayer(cell_type, 2, 3, rng)
        x = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        mask = np.array([[True, True, False, True],
                         [True, False, False, False]])

        def run(a):
            states, last = layer(a, step_mask=mask)
            return (states * states).sum() + (last * last).sum()

        assert gradient_check(run, [x]) < 1e-5

    def test_lstm_layer_initial_state_gradient(self, rng):
        layer = RecurrentLayer("lstm", 2, 3, rng)
        x = Tensor(rng.normal(size=(2, 3, 2)))
        init = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def run(h0):
            states, last = layer(x, step_mask=unmasked(x),
                                 initial_state=h0)
            return (states * states).sum() + last.sum()

        assert gradient_check(run, [init]) < 1e-5

    def test_lstm_layer_parameter_gradients(self, rng):
        layer = RecurrentLayer("lstm", 2, 3, rng)
        x = Tensor(rng.normal(size=(1, 3, 2)))
        mask = np.array([[True, False, True]])
        params = [layer.cell.w_ih, layer.cell.w_hh, layer.cell.bias]

        def run(*_params):
            states, last = layer(x, step_mask=mask)
            return (states * states).sum() + last.sum()

        assert gradient_check(run, params) < 1e-5


class TestFusedGRUGradients:
    """Finite-difference checks aimed at the fused GRU kernels.

    The hand-derived backward of ``fused_gru_sequence`` replaces a dozen
    autograd nodes; every input of the fused node gets its own check so a
    wrong analytic term cannot hide behind the others.
    """

    def test_gru_cell_hidden_state_gradient(self, rng):
        cell = GRUCell(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)))
        h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

        def run(a):
            out = gru_step(cell, x, a)
            return (out * out).sum()

        assert gradient_check(run, [h]) < 1e-5

    def test_gru_cell_parameter_gradients(self, rng):
        cell = GRUCell(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)))
        h = Tensor(rng.normal(size=(2, 4)))
        params = [cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh]

        def run(*_params):
            out = gru_step(cell, x, h)
            return (out * out).sum()

        assert gradient_check(run, params) < 1e-5

    def test_gru_layer_parameter_gradients(self, rng):
        layer = RecurrentLayer("gru", 2, 3, rng)
        x = Tensor(rng.normal(size=(2, 4, 2)))
        mask = np.array([[True, True, False, True],
                         [True, False, False, False]])
        params = [layer.cell.w_ih, layer.cell.w_hh,
                  layer.cell.b_ih, layer.cell.b_hh]

        def run(*_params):
            states, last = layer(x, step_mask=mask)
            return (states * states).sum() + last.sum()

        assert gradient_check(run, params) < 1e-5

    def test_gru_layer_initial_state_gradient(self, rng):
        layer = RecurrentLayer("gru", 2, 3, rng)
        x = Tensor(rng.normal(size=(2, 3, 2)))
        init = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def run(h0):
            states, last = layer(x, step_mask=unmasked(x),
                                 initial_state=h0)
            return (states * states).sum() + last.sum()

        assert gradient_check(run, [init]) < 1e-5


class TestFusedStepKeepRule:
    """Direct unit tests of the per-step ``keep`` skip rule.

    Where ``keep`` is 0 the step must carry the previous state through
    unchanged — value AND gradient — implementing the paper's rule that
    causally-filtered (all-zero) inputs leave the user state untouched.
    """

    def test_gru_step_keep_zero_passes_state_through(self, rng):
        cell = GRUCell(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)))
        h = Tensor(rng.normal(size=(2, 4)))
        keep = np.array([[1.0], [0.0]])
        out = gru_step(cell, x, h, keep=keep)
        active = gru_step(cell, x, h)
        np.testing.assert_allclose(out.data[0], active.data[0])
        np.testing.assert_array_equal(out.data[1], h.data[1])

    def test_gru_step_keep_gradient_routes_to_previous_state(self, rng):
        cell = GRUCell(3, 4, rng)
        keep = np.array([[1.0], [0.0]])
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

        def run(a, b):
            out = gru_step(cell, a, b, keep=keep)
            return (out * out).sum()

        assert gradient_check(run, [x, h]) < 1e-5
        x.grad = None
        h.grad = None
        # A skipped row contributes no gradient to its input...
        out = gru_step(cell, x, h, keep=keep)
        (out * out).sum().backward()
        np.testing.assert_array_equal(x.grad[1], np.zeros(3))
        # ...while its previous-state gradient is exactly the upstream grad.
        np.testing.assert_allclose(h.grad[1], 2.0 * h.data[1])
