"""Tests for the NOTEARS acyclicity constraint h(W)."""

import numpy as np
import pytest

from repro.causal import (h_tensor, h_value, h_value_and_grad,
                          polynomial_h_value, random_dag)
from repro.causal.dag_constraint import _expm_nonnegative
from repro.nn import Tensor


class TestHValue:
    def test_zero_on_dag(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            dag = random_dag(6, 0.4, np.random.default_rng(seed)).astype(float)
            assert h_value(dag) == pytest.approx(0.0, abs=1e-9)

    def test_positive_on_cycle(self):
        cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert h_value(cycle) > 0.5

    def test_grows_with_cycle_weight(self):
        def cyc(w):
            return np.array([[0.0, w], [w, 0.0]])
        assert h_value(cyc(2.0)) > h_value(cyc(1.0)) > h_value(cyc(0.5)) > 0

    def test_self_loop_detected(self):
        m = np.zeros((3, 3))
        m[1, 1] = 1.0
        assert h_value(m) > 0


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 4)) * 0.5
        _, grad = h_value_and_grad(w)
        eps = 1e-6
        for i in range(4):
            for j in range(4):
                w_plus, w_minus = w.copy(), w.copy()
                w_plus[i, j] += eps
                w_minus[i, j] -= eps
                numeric = (h_value(w_plus) - h_value(w_minus)) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, abs=1e-5)

    def test_zero_gradient_at_zero(self):
        _, grad = h_value_and_grad(np.zeros((3, 3)))
        np.testing.assert_allclose(grad, np.zeros((3, 3)))


class TestHTensor:
    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 4)) * 0.3
        t = Tensor(w, requires_grad=True)
        assert h_tensor(t).item() == pytest.approx(h_value(w), rel=1e-12)

    def test_backward_matches_analytic(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 3)) * 0.4
        t = Tensor(w, requires_grad=True)
        h_tensor(t).backward()
        _, grad = h_value_and_grad(w)
        np.testing.assert_allclose(t.grad, grad, rtol=1e-10)

    def test_chains_with_other_ops(self):
        rng = np.random.default_rng(4)
        t = Tensor(rng.normal(size=(3, 3)) * 0.2, requires_grad=True)
        out = h_tensor(t) * 2.0 + (t * t).sum()
        out.backward()
        assert t.grad is not None


class TestPolynomialApproximation:
    def test_converges_to_exact(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(5, 5)) * 0.3
        exact = h_value(w)
        approx = polynomial_h_value(w, order=30)
        assert approx == pytest.approx(exact, rel=1e-6)

    def test_zero_on_dag(self):
        dag = random_dag(5, 0.4, np.random.default_rng(6)).astype(float)
        assert polynomial_h_value(dag, order=10) == pytest.approx(0.0, abs=1e-12)


class TestExpmCache:
    """There is no expm memo; h(W) still follows in-place edits of W."""

    def test_cached_results_stay_correct_after_mutation(self):
        w = np.random.default_rng(9).normal(size=(4, 4)) * 0.2
        before = h_value(w)
        w[0, 1] += 0.5  # same array object, new content
        after = h_value(w)
        assert after != before
        assert after == pytest.approx(h_value(w.copy()), abs=1e-12)


def _expm_reference(a):
    """``e^A`` in extended precision: a long Taylor series after scaling."""
    a = a.astype(np.longdouble)
    squarings = max(0, int(np.frexp(float(a.sum(axis=0).max()))[1]) + 4)
    scaled = a / np.longdouble(2.0) ** squarings
    term = np.eye(a.shape[0], dtype=np.longdouble)
    result = term.copy()
    for k in range(1, 30):
        term = term @ scaled / k
        result += term
    for _ in range(squarings):
        result = result @ result
    return result


def _squared_weights():
    """``W ∘ W`` for dense and sparse ``W`` with entries up to 3 in size."""
    rng = np.random.default_rng(10)
    for k in (1, 2, 5, 8, 16, 32):
        for scale in (0.1, 1.0, 3.0):
            for density in (1.0, 0.2):
                w = rng.uniform(-scale, scale, size=(k, k))
                w *= rng.random((k, k)) < density
                yield w * w


def _max_rel_error(approx, reference):
    reference = np.asarray(reference, dtype=np.longdouble)
    return float(np.abs(approx - reference).max() / np.abs(reference).max())


class TestMatrixExponential:
    def test_matches_extended_precision(self):
        if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
            pytest.skip("long double is no wider than double here")
        worst = max(_max_rel_error(_expm_nonnegative(a), _expm_reference(a))
                    for a in _squared_weights())
        assert worst <= 1e-13

    def test_matches_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        worst = max(_max_rel_error(_expm_nonnegative(a), linalg.expm(a))
                    for a in _squared_weights())
        assert worst <= 1e-11

    def test_dag_gives_exact_zero(self):
        dag = random_dag(16, 0.5, np.random.default_rng(11)) * 3.0
        assert h_value(dag) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
class TestNonFiniteWeights:
    """Broken weights give a non-finite h(W), never an exception."""

    @staticmethod
    def _weights(bad):
        w = np.random.default_rng(12).normal(size=(5, 5)) * 0.3
        w[1, 3] = bad
        return w

    def test_h_value(self, bad):
        assert not np.isfinite(h_value(self._weights(bad)))

    def test_h_value_and_grad(self, bad):
        value, grad = h_value_and_grad(self._weights(bad))
        assert not np.isfinite(value)
        assert not np.isfinite(grad).all()

    def test_h_tensor(self, bad):
        t = Tensor(self._weights(bad), requires_grad=True)
        node = h_tensor(t)
        assert not np.isfinite(node.item())
        node.backward()
        assert not np.isfinite(t.grad).all()
