"""Tests for parameter initializers."""

import numpy as np
import pytest

from repro.nn import init


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestXavier:
    def test_uniform_bound(self, rng):
        w = init.xavier_uniform((50, 100), rng)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= bound

    def test_gain_scales(self, rng, monkeypatch):
        small = init.xavier_uniform((50, 50), np.random.default_rng(1))
        monkeypatch.setattr(init, "XAVIER_GAIN", 2.0)
        large = init.xavier_uniform((50, 50), np.random.default_rng(1))
        np.testing.assert_allclose(large, 2.0 * small)

    def test_fans_1d(self, rng):
        w = init.xavier_uniform((64,), rng)
        assert w.shape == (64,)

    def test_scalar_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            init.xavier_uniform((), rng)


class TestSimpleInits:
    def test_normal_std(self, rng):
        w = init.normal((500, 500), rng, std=0.02)
        assert w.std() == pytest.approx(0.02, rel=0.05)
        assert w.mean() == pytest.approx(0.0, abs=0.001)

    def test_zeros(self):
        np.testing.assert_array_equal(init.zeros((3, 4)), np.zeros((3, 4)))


class TestOrthogonal:
    def test_square_orthogonality(self, rng):
        w = init.orthogonal((32, 32), rng)
        np.testing.assert_allclose(w @ w.T, np.eye(32), atol=1e-10)

    def test_tall_matrix_columns_orthonormal(self, rng):
        w = init.orthogonal((48, 16), rng)
        np.testing.assert_allclose(w.T @ w, np.eye(16), atol=1e-10)

    def test_wide_matrix_rows_orthonormal(self, rng):
        w = init.orthogonal((16, 48), rng)
        np.testing.assert_allclose(w @ w.T, np.eye(16), atol=1e-10)

    def test_gain(self, rng, monkeypatch):
        monkeypatch.setattr(init, "ORTHOGONAL_GAIN", 3.0)
        w = init.orthogonal((8, 8), rng)
        np.testing.assert_allclose(w @ w.T, 9.0 * np.eye(8), atol=1e-9)

    def test_1d_rejected(self, rng):
        with pytest.raises(ValueError):
            init.orthogonal((8,), rng)

    def test_reproducible(self):
        a = init.orthogonal((8, 8), np.random.default_rng(5))
        b = init.orthogonal((8, 8), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
