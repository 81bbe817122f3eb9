"""Tests for optimizers, gradient clipping and LR schedules."""

import numpy as np
import pytest

from repro.nn import Adagrad, Adam, Parameter, SGD, Tensor, make_optimizer


def quadratic_loss(param):
    """(param - 3)^2 summed — minimized at 3."""
    diff = param - Tensor(np.full(param.shape, 3.0))
    return (diff * diff).sum()


def run_steps(optimizer, param, steps=200):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = quadratic_loss(param)
        loss.backward()
        optimizer.step()
    return param.data


class TestConvergence:
    @pytest.mark.parametrize("factory", [
        lambda p: SGD([p], lr=0.1),
        lambda p: SGD([p], lr=0.05, momentum=0.9),
        lambda p: Adam([p], lr=0.1),
        lambda p: Adagrad([p], lr=0.8),
    ])
    def test_reaches_minimum(self, factory):
        param = Parameter(np.zeros(4))
        optimizer = factory(param)
        final = run_steps(optimizer, param)
        np.testing.assert_allclose(final, np.full(4, 3.0), atol=0.05)

    def test_weight_decay_shrinks_solution(self):
        clean = Parameter(np.zeros(2))
        run_steps(SGD([clean], lr=0.1), clean)
        decayed = Parameter(np.zeros(2))
        run_steps(SGD([decayed], lr=0.1, weight_decay=1.0), decayed)
        assert np.all(decayed.data < clean.data)


class TestMechanics:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=-1.0)

    def test_none_grads_skipped(self):
        p1 = Parameter(np.ones(2))
        p2 = Parameter(np.ones(2))
        opt = Adam([p1, p2], lr=0.1)
        (p1 * 2).sum().backward()
        opt.step()  # p2 has no grad — must not crash
        np.testing.assert_allclose(p2.data, np.ones(2))
        assert not np.allclose(p1.data, np.ones(2))

    def test_clip_grad_norm(self):
        p = Parameter(np.ones(4))
        opt = SGD([p], lr=0.1)
        p.grad = np.full(4, 10.0)
        pre_norm = opt.clip_grad_norm(1.0)
        assert pre_norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_no_op_when_small(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([0.1, 0.1])
        opt.clip_grad_norm(5.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])

    def test_zero_grad(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1)
        p.grad = np.ones(2)
        opt.zero_grad()
        assert p.grad is None


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("adam", Adam), ("sgd", SGD), ("adagrad", Adagrad), ("Adam", Adam),
    ])
    def test_known_names(self, name, cls):
        opt = make_optimizer(name, [Parameter(np.ones(1))], lr=0.1)
        assert isinstance(opt, cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_optimizer("lion", [Parameter(np.ones(1))], lr=0.1)
