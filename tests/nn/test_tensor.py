"""Unit tests for the autograd engine: every op is gradient-checked."""

import pickle
import weakref

import numpy as np
import pytest

from repro.analysis import detect_anomaly
from repro.nn import Tensor, concat, gradient_check
from repro.nn.tensor import _released_backward


def make(shape, seed=0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


def sum_sq(t):
    return (t * t).sum()


class TestBasics:
    def test_data_coerced_to_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_shape_properties(self):
        t = make((2, 3))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.data.size == 6
        assert len(t) == 2

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_backward_requires_grad(self):
        t = Tensor([1.0], requires_grad=False)
        with pytest.raises(RuntimeError):
            t.backward()

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(make((1,)))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_pickle_round_trip_detaches(self):
        """A pickled tensor keeps data, grad and flag, not its graph."""
        t = make((3, 2))
        out = (t * 2.0).sum()
        out.backward()
        back = pickle.loads(pickle.dumps(t))
        assert np.array_equal(back.data, t.data)
        assert np.array_equal(back.grad, t.grad)
        assert back.requires_grad is True
        node = pickle.loads(pickle.dumps(t * 3.0))
        assert node._parents == () and node._backward is None


class TestArithmeticGradients:
    def test_add(self):
        a, b = make((3, 2), 1), make((3, 2), 2)
        assert gradient_check(lambda x, y: (x + y).sum(), [a, b]) < 1e-6

    def test_add_broadcast(self):
        a, b = make((3, 2), 1), make((2,), 2)
        assert gradient_check(lambda x, y: (x + y).sum(), [a, b]) < 1e-6

    def test_sub(self):
        a, b = make((2, 2), 1), make((2, 2), 2)
        assert gradient_check(lambda x, y: (x - y).sum(), [a, b]) < 1e-6

    def test_mul_broadcast(self):
        a, b = make((4, 3), 1), make((1, 3), 2)
        assert gradient_check(lambda x, y: (x * y).sum(), [a, b]) < 1e-6

    def test_div(self):
        a = make((3,), 1)
        b = Tensor(np.abs(np.random.default_rng(2).normal(size=(3,))) + 1.0,
                   requires_grad=True)
        assert gradient_check(lambda x, y: (x / y).sum(), [a, b]) < 1e-6

    def test_rsub_rdiv_radd(self):
        a = Tensor([2.0, 4.0], requires_grad=True)
        out = (1.0 - a) + (Tensor(8.0) / a) + (3.0 + a)
        out.sum().backward()
        # d/da [-a + 8/a + a] = -8/a^2
        np.testing.assert_allclose(a.grad, -8.0 / a.data ** 2)

    def test_neg(self):
        a = make((2, 2))
        assert gradient_check(lambda x: (-x).sum(), [a]) < 1e-6

    def test_scalar_mul_grad(self):
        a = make((3,))
        (a * 5.0).sum().backward()
        np.testing.assert_allclose(a.grad, 5.0 * np.ones(3))


class TestMatmulGradients:
    def test_2d_2d(self):
        a, b = make((3, 4), 1), make((4, 2), 2)
        assert gradient_check(lambda x, y: (x @ y).sum(), [a, b]) < 1e-6

    def test_batched_3d_2d(self):
        a, b = make((2, 3, 4), 1), make((4, 5), 2)
        assert gradient_check(lambda x, y: (x @ y).sum(), [a, b]) < 1e-6

    def test_batched_3d_3d(self):
        a, b = make((2, 3, 4), 1), make((2, 4, 5), 2)
        assert gradient_check(lambda x, y: (x @ y).sum(), [a, b]) < 1e-6

    def test_vector_matrix(self):
        a, b = make((4,), 1), make((4, 3), 2)
        assert gradient_check(lambda x, y: (x @ y).sum(), [a, b]) < 1e-6

    def test_matrix_vector(self):
        a, b = make((3, 4), 1), make((4,), 2)
        assert gradient_check(lambda x, y: (x @ y).sum(), [a, b]) < 1e-6

    def test_forward_value(self):
        a, b = make((2, 3), 1), make((3, 2), 2)
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)


class TestShapeOps:
    def test_transpose_default(self):
        a = make((2, 3))
        assert gradient_check(lambda x: (x.T * x.T).sum(), [a]) < 1e-6

    def test_transpose_axes(self):
        a = make((2, 3, 4))
        out = a.transpose(0, 2, 1)
        assert out.shape == (2, 4, 3)
        assert gradient_check(
            lambda x: sum_sq(x.transpose(0, 2, 1)), [a]) < 1e-6

    def test_reshape(self):
        a = make((2, 6))
        assert a.reshape(3, 4).shape == (3, 4)
        assert a.reshape((4, 3)).shape == (4, 3)
        assert gradient_check(lambda x: sum_sq(x.reshape(3, 4)), [a]) < 1e-6

    def test_getitem_slice(self):
        a = make((4, 3))
        assert gradient_check(lambda x: sum_sq(x[1:3]), [a]) < 1e-6

    def test_getitem_fancy_accumulates(self):
        a = make((5, 2))
        idx = np.array([0, 0, 3])
        out = a[idx].sum()
        out.backward()
        assert a.grad[0, 0] == pytest.approx(2.0)  # row 0 picked twice
        assert a.grad[3, 0] == pytest.approx(1.0)
        assert a.grad[1, 0] == pytest.approx(0.0)


class TestReductions:
    def test_sum_all(self):
        a = make((3, 4))
        assert gradient_check(lambda x: (x.sum() * 2), [a]) < 1e-6

    def test_sum_axis(self):
        a = make((3, 4))
        assert gradient_check(lambda x: sum_sq(x.sum(axis=0)), [a]) < 1e-6

    def test_sum_keepdims(self):
        a = make((3, 4))
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        assert gradient_check(
            lambda x: sum_sq(x.sum(axis=1, keepdims=True)), [a]) < 1e-6

    def test_mean(self):
        a = make((2, 5))
        (a.mean()).backward()
        np.testing.assert_allclose(a.grad, np.full((2, 5), 0.1))

    def test_mean_axis(self):
        a = make((2, 5))
        assert gradient_check(lambda x: sum_sq(x.mean(axis=1)), [a]) < 1e-6


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "tanh", "sigmoid", "relu", "abs"])
    def test_gradients(self, op):
        a = make((3, 3), seed=hash(op) % 100)
        assert gradient_check(lambda x: getattr(x, op)().sum(), [a]) < 1e-5

    def test_log_sqrt_on_positive(self):
        a = Tensor(np.abs(np.random.default_rng(0).normal(size=(4,))) + 0.5,
                   requires_grad=True)
        assert gradient_check(lambda x: x.log().sum(), [a]) < 1e-6
        assert gradient_check(lambda x: x.sqrt().sum(), [a]) < 1e-6

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor([-1000.0, 1000.0])
        out = a.sigmoid().data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_clip(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        out = a.clip(-1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.5, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestCombinators:
    def test_concat_gradients(self):
        a, b = make((2, 3), 1), make((2, 2), 2)
        assert gradient_check(
            lambda x, y: sum_sq(concat([x, y], axis=1)), [a, b]) < 1e-6

    def test_concat_forward(self):
        a, b = make((2, 3), 1), make((2, 2), 2)
        out = concat([a, b], axis=-1)
        assert out.shape == (2, 5)


class TestGraphMechanics:
    def test_gradient_accumulates_on_reuse(self):
        a = make((2,))
        out = (a * a).sum() + a.sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 1.0)

    def test_diamond_graph(self):
        a = make((3,))
        b = a * 2
        out = (b + b * b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 2 + 8 * a.data)

    def test_zero_grad(self):
        a = make((2,))
        (a * 2).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_through_constants(self):
        a = make((2,))
        c = Tensor([1.0, 2.0])
        ((a * c).sum()).backward()
        assert c.grad is None

    def test_deep_chain(self):
        a = make((2,))
        out = a
        for _ in range(50):
            out = out * 1.01
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full(2, 1.01 ** 50), rtol=1e-10)


class TestSingleUseGraph:
    """backward() consumes the graph: PyTorch's ``retain_graph=False``."""

    def test_backward_releases_every_consumed_node(self):
        a = make((3,))
        hidden = (a * 2.0).exp()
        out = hidden.sum()
        out.backward()
        for node in (hidden, out):
            assert node._parents == ()
            assert node._backward is _released_backward
        assert a._backward is None and a._parents == ()
        np.testing.assert_allclose(a.grad, 2.0 * hidden.data)
        np.testing.assert_allclose(out.grad, 1.0)

    def test_saved_forward_array_dies_during_backward(self):
        """Only the closure holds ``saved``; the root outliving backward()
        (a training loop's ``loss``) no longer keeps it alive."""
        saved = np.arange(1.0, 5.0)
        ref = weakref.ref(saved)
        out = (make((4,)) * Tensor(saved)).sum()
        del saved
        assert ref() is not None
        out.backward()
        assert ref() is None

    def test_second_backward_on_the_same_root_raises(self):
        a = make((3,))
        out = (a * 2.0).sum()
        out.backward()
        grad = a.grad.copy()
        with pytest.raises(RuntimeError, match="already ran"):
            out.backward()
        np.testing.assert_array_equal(a.grad, grad)

    def test_new_graph_through_a_consumed_node_raises(self):
        a = make((3,))
        hidden = a * 2.0
        hidden.sum().backward()
        with pytest.raises(RuntimeError, match="already ran"):
            (hidden * 3.0).sum().backward()

    def test_error_names_the_op_in_anomaly_mode(self):
        a = make((3,))
        with detect_anomaly():
            hidden = a.exp()
            hidden.sum().backward()
            with pytest.raises(RuntimeError, match="op `exp`"):
                (hidden * 3.0).sum().backward()
