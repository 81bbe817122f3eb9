"""Tests for loss functions against hand-computed references."""

import numpy as np
import pytest

from repro.nn import Tensor, gradient_check, losses


class TestBCEWithLogits:
    def test_matches_manual(self):
        logits = Tensor(np.array([0.5, -1.0, 2.0]))
        targets = np.array([1.0, 0.0, 1.0])
        out = losses.bce_with_logits(logits, targets).item()
        p = 1 / (1 + np.exp(-logits.data))
        manual = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert out == pytest.approx(manual, rel=1e-10)

    def test_stable_at_extremes(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        out = losses.bce_with_logits(logits, np.array([1.0, 0.0])).item()
        assert np.isfinite(out)
        assert out == pytest.approx(0.0, abs=1e-8)

    def test_mask_excludes_entries(self):
        logits = Tensor(np.array([[1.0, 100.0]]))
        targets = np.array([[1.0, 0.0]])
        mask = np.array([[1.0, 0.0]])
        masked = losses.bce_with_logits(logits, targets, mask=mask).item()
        unmasked_single = losses.bce_with_logits(
            Tensor(np.array([1.0])), np.array([1.0])).item()
        assert masked == pytest.approx(unmasked_single, rel=1e-10)

    def test_all_masked_returns_zero(self):
        logits = Tensor(np.ones((2, 2)))
        out = losses.bce_with_logits(logits, np.ones((2, 2)),
                                     mask=np.zeros((2, 2)))
        assert out.item() == pytest.approx(0.0)

    def test_gradient(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(3, 2)),
                        requires_grad=True)
        targets = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
        err = gradient_check(
            lambda x: losses.bce_with_logits(x, targets), [logits])
        assert err < 1e-6


class TestBPRLoss:
    def test_zero_when_pos_much_larger(self):
        pos = Tensor(np.array([100.0]))
        neg = Tensor(np.array([0.0]))
        assert losses.bpr_loss(pos, neg).item() == pytest.approx(0.0, abs=1e-8)

    def test_symmetric_point(self):
        pos = Tensor(np.array([1.0]))
        neg = Tensor(np.array([1.0]))
        assert losses.bpr_loss(pos, neg).item() == pytest.approx(np.log(2.0))

    def test_gradient_direction(self):
        pos = Tensor(np.array([0.0]), requires_grad=True)
        neg = Tensor(np.array([0.0]), requires_grad=True)
        losses.bpr_loss(pos, neg).backward()
        assert pos.grad[0] < 0  # increasing pos decreases loss
        assert neg.grad[0] > 0


class TestFusedBCEGradients:
    """Extra gradient coverage for the fused BCE-with-logits kernel."""

    def test_masked_gradient(self):
        rng = np.random.default_rng(14)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        targets = (rng.random((3, 4)) > 0.5).astype(float)
        mask = np.array([[1.0, 1.0, 0.0, 1.0],
                         [0.0, 0.0, 1.0, 1.0],
                         [1.0, 0.0, 0.0, 0.0]])
        err = gradient_check(
            lambda x: losses.bce_with_logits(x, targets, mask=mask), [logits])
        assert err < 1e-6

    def test_masked_entries_get_zero_gradient(self):
        logits = Tensor(np.array([[0.3, -0.8]]), requires_grad=True)
        mask = np.array([[1.0, 0.0]])
        losses.bce_with_logits(logits, np.array([[1.0, 0.0]]),
                               mask=mask).backward()
        assert logits.grad[0, 1] == 0.0
        assert logits.grad[0, 0] != 0.0
