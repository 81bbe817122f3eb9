"""Tests for small utilities: no_grad, table formatting, version metadata."""

import numpy as np
import pytest

import repro
from repro.exp.tables import render_series
from repro.nn import Linear, Tensor, no_grad


class TestNoGrad:
    def test_disables_graph_building(self):
        layer = Linear(3, 2, np.random.default_rng(0))
        with no_grad(layer):
            out = layer(Tensor(np.ones((2, 3))))
            assert not out.requires_grad
        out = layer(Tensor(np.ones((2, 3))))
        assert out.requires_grad

    def test_flags_restored_on_exception(self):
        layer = Linear(3, 2, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            with no_grad(layer):
                raise RuntimeError("boom")
        assert layer.weight.requires_grad

    def test_nested_modules_covered(self):
        from repro.nn import TransformerBlock
        block = TransformerBlock(4, 2, np.random.default_rng(0))
        with no_grad(block):
            assert all(not p.requires_grad for p in block.parameters())
        assert all(p.requires_grad for p in block.parameters())


class TestRenderSeries:
    def test_small_floats_readable(self):
        text = render_series("eta", [1e-8, 1e-4, 1.0],
                             {"s": [1.0, 2.0, 3.0]})
        assert "1e-08" in text
        assert "0.0001" in text

    def test_integer_x_unchanged(self):
        text = render_series("K", [2, 32], {"s": [1.0, 2.0]})
        assert "2 " in text or "2\n" in text or "2|" in text.replace(" | ", "|")

    def test_metric_cells_two_decimals(self):
        text = render_series("x", [1.0], {"s": [3.14159]})
        assert "3.14" in text
        assert "3.142" not in text


class TestPackageMetadata:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_subpackages_importable(self):
        for name in repro.__all__:
            if name != "__version__":
                assert getattr(repro, name) is not None

    def test_cli_module_entrypoint_exists(self):
        import repro.__main__  # noqa: F401
        from repro.cli import EXPERIMENTS
        assert "table4" in EXPERIMENTS
