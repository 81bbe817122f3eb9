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


class TestClipAndState:
    def test_clip_grad_norm_matches_numpy_reference(self):
        """Integer-valued grads make every sum exact: the joint norm and
        the clipped gradients equal the numpy reference bit for bit."""
        rng = np.random.default_rng(17)
        grads = [rng.integers(-5, 6, size=(40, 4)).astype(float),
                 rng.integers(-5, 6, size=7).astype(float)]
        params = [Parameter(np.zeros_like(g)) for g in grads]
        for param, grad in zip(params, grads):
            param.grad = grad.copy()
        norm = SGD(params, lr=0.1).clip_grad_norm(2.0)
        expected = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))
        assert norm == expected
        for param, grad in zip(params, grads):
            assert np.array_equal(param.grad, grad * (2.0 / expected))

    def test_state_keyed_by_index_not_id(self):
        """Two same-shaped params must never share state buffers — the old
        ``id(param)``-keyed dicts aliased state when the allocator reused
        an address."""
        init = np.ones((6, 2))
        p0, p1 = Parameter(init.copy()), Parameter(init.copy())
        opt = Adam([p0, p1], lr=1e-2)
        p0.grad = np.full((6, 2), 0.5)
        p1.grad = np.full((6, 2), -2.0)
        opt.step()
        assert set(opt._m.keys()) == {0, 1}
        assert opt._m[0] is not opt._m[1]
        assert not np.array_equal(opt._m[0], opt._m[1])
        # Recreating a param (allowing id() reuse) must not leak state.
        del p0
        p2 = Parameter(init.copy())
        opt2 = Adagrad([p2], lr=0.1)
        p2.grad = np.ones((6, 2))
        opt2.step()
        assert set(opt2._accum.keys()) == {0}
        assert np.array_equal(opt2._accum[0], np.ones((6, 2)))

    @pytest.mark.parametrize("factory,state_attr", [
        (lambda p: Adam([p], lr=1e-2), "_m"),
        (lambda p: Adam([p], lr=1e-2), "_v"),
        (lambda p: Adagrad([p], lr=0.1), "_accum"),
    ])
    def test_state_updated_in_place(self, factory, state_attr):
        """The fixed ``accum += g**2`` (vs legacy ``accum = accum + g**2``)
        must keep the same buffer across steps — no per-step reallocation
        of table-sized state."""
        param = Parameter(np.ones((50, 4)))
        opt = factory(param)
        rng = np.random.default_rng(19)
        param.grad = rng.normal(size=(50, 4))
        opt.step()
        buffer_id = id(getattr(opt, state_attr)[0])
        for _ in range(3):
            param.grad = rng.normal(size=(50, 4))
            opt.step()
            assert id(getattr(opt, state_attr)[0]) == buffer_id
