"""Tests for the runtime gradient sanitizer and the training-loop guards.

The headline scenario (acceptance criterion): a tensor poisoned *after* its
creation, mid-graph, is attributed to its creating op at ``backward()``
time, with the recorded creation traceback attached.
"""

import numpy as np
import pytest

from repro.analysis import (GradientAnomalyError, anomaly_mode_enabled,
                            detect_anomaly)
from repro.core import Causer, CauserConfig
from repro.nn import Tensor


class TestAnomalyDetection:
    def test_poisoned_tensor_names_creating_op(self):
        """NaN injected mid-graph is traced back to the op that built the node."""
        with detect_anomaly():
            a = Tensor(np.ones(3), requires_grad=True)
            b = a * 2.0
            loss = (b * b).sum()
            b.data[1] = np.nan  # poison after creation
            with pytest.raises(GradientAnomalyError) as excinfo:
                loss.backward()
        err = excinfo.value
        assert err.kind == "poisoned"
        assert err.op == "__mul__"
        assert "__mul__" in str(err)
        # The recorded creation traceback points at this test.
        assert "test_poisoned_tensor_names_creating_op" in str(err)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_forward_value_raises_at_creation(self):
        with detect_anomaly():
            with pytest.raises(GradientAnomalyError) as excinfo:
                Tensor(np.array([1.0])) / Tensor(np.array([0.0]))
        assert excinfo.value.kind == "forward"
        assert excinfo.value.op == "__truediv__"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_names_op(self):
        """sqrt is finite at 0 but its gradient is not."""
        with detect_anomaly():
            x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
            loss = x.sqrt().sum()
            with pytest.raises(GradientAnomalyError) as excinfo:
                loss.backward()
        assert excinfo.value.kind == "gradient"
        assert excinfo.value.op == "sqrt"

    def test_shape_contract_violation(self):
        """A hand-rolled backward closure that forgets to un-broadcast."""
        with detect_anomaly():
            x = Tensor(np.ones((2, 3)), requires_grad=True)
            rogue = Tensor._make(x.data.sum(axis=0), (x,),
                                 lambda grad: x._accumulate(grad))
            with pytest.raises(GradientAnomalyError) as excinfo:
                rogue.sum().backward()
        assert excinfo.value.kind == "shape"
        assert "(3,)" in str(excinfo.value) and "(2, 3)" in str(excinfo.value)

    def test_clean_graph_passes_and_matches_plain_mode(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        (x * x).sum().backward()
        plain_grad = x.grad.copy()
        with detect_anomaly():
            y = Tensor(np.arange(6, dtype=float).reshape(2, 3),
                       requires_grad=True)
            (y * y).sum().backward()
        np.testing.assert_allclose(y.grad, plain_grad)


class TestModeManagement:
    def test_context_manager_restores_state(self):
        assert not anomaly_mode_enabled()
        with detect_anomaly():
            assert anomaly_mode_enabled()
        assert not anomaly_mode_enabled()

    def test_nested_contexts(self):
        with detect_anomaly():
            with detect_anomaly():
                assert anomaly_mode_enabled()
            assert anomaly_mode_enabled()
        assert not anomaly_mode_enabled()

    def test_disabled_mode_propagates_nan_silently(self):
        """Without anomaly mode the engine keeps its zero-overhead path."""
        a = Tensor(np.ones(3), requires_grad=True)
        b = a * 2.0
        b.data[1] = np.nan
        (b * b).sum().backward()
        assert np.isnan(a.grad).any()


def tiny_causer(dataset, **overrides):
    defaults = dict(embedding_dim=6, hidden_dim=6, num_epochs=1,
                    batch_size=64, max_history=6, num_clusters=4,
                    epsilon=0.2, seed=0, pretrain_graph=False)
    defaults.update(overrides)
    return Causer(dataset.corpus.num_users, dataset.num_items,
                  dataset.features, CauserConfig(**defaults))


class TestTrainingGuards:
    """The augmented-Lagrangian loop fails fast instead of stalling."""

    def test_poisoned_weights_abort_with_iterate(self, tiny_dataset,
                                                 tiny_split):
        model = tiny_causer(tiny_dataset)
        model.graph.weights.data[0, 1] = np.nan
        with pytest.raises(RuntimeError, match=r"epoch 1, batch 1"):
            model.fit(tiny_split.train)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_guard_names_bad_parameters(self, tiny_dataset, tiny_split):
        model = tiny_causer(tiny_dataset)
        model.graph.weights.data[0, 1] = np.inf
        with pytest.raises(RuntimeError, match=r"graph\.weights\.data"):
            model.fit(tiny_split.train)

    def test_h_guard_names_epoch(self, tiny_dataset):
        model = tiny_causer(tiny_dataset)
        with pytest.raises(RuntimeError, match=r"h\(W\).*epoch 3"):
            model._check_finite_h(float("nan"), epoch=2)

    def test_anomaly_mode_attributes_training_nan_to_op(self, tiny_dataset,
                                                        tiny_split):
        """--detect-anomaly semantics: the creating op is reported."""
        model = tiny_causer(tiny_dataset)
        model.graph.weights.data[0, 1] = np.nan
        with detect_anomaly():
            with pytest.raises(GradientAnomalyError) as excinfo:
                model.fit(tiny_split.train)
        assert excinfo.value.op is not None
        assert excinfo.value.kind in ("forward", "poisoned")

    def test_healthy_training_with_anomaly_mode(self, tiny_dataset,
                                                tiny_split):
        model = tiny_causer(tiny_dataset)
        with detect_anomaly():
            fit = model.fit(tiny_split.train)
        assert np.isfinite(fit.final_loss)


class TestTrainingCli:
    def test_detect_anomaly_flag_accepted(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["table2", "--detect-anomaly"])
        assert args.detect_anomaly

    def test_table2_runs_under_detect_anomaly(self, capsys):
        from repro.cli import main
        assert main(["table2", "--scale", "0.02", "--quick",
                     "--detect-anomaly"]) == 0
        assert "Table II" in capsys.readouterr().out
