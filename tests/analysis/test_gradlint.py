"""Rule-by-rule tests for the gradlint static-analysis engine.

Each rule gets a seeded violation (must be caught) and a near-miss (must
not be flagged); suppression syntax and the repo-wide clean-tree invariant
are covered at the end.
"""

import os
import textwrap

import pytest

from repro.analysis import LintEngine, lint_paths
from repro.analysis.engine import discover_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run(source, path="pkg/module.py", **engine_kwargs):
    engine = LintEngine(**engine_kwargs)
    findings, suppressed = engine.run_source(textwrap.dedent(source), path)
    return findings, suppressed


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestMissingUnbroadcast:
    VIOLATION = """
    def __mul__(self, other_t):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
        return Tensor._make(self.data * other_t.data, (self, other_t), backward)
    """

    def test_raw_foreign_product_flagged(self):
        findings, _ = run(self.VIOLATION)
        assert rule_ids(findings) == ["GL001"]
        assert "_unbroadcast" in findings[0].message

    def test_wrapped_accumulate_clean(self):
        findings, _ = run("""
        def backward(grad):
            self._accumulate(_unbroadcast(grad * other_t.data, self.shape))
        """)
        assert findings == []

    def test_own_data_reference_clean(self):
        # `self.data` inside `self._accumulate` is shape-safe by definition.
        findings, _ = run("""
        def backward(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1))
        """)
        assert findings == []

    def test_only_backward_functions_scanned(self):
        findings, _ = run("""
        def forward(grad):
            self._accumulate(grad * other_t.data)
        """)
        assert findings == []


class TestGraphBypass:
    def test_data_method_flagged_in_layer_file(self):
        findings, _ = run("y = Tensor(x.data.max(axis=-1))",
                          path="src/repro/nn/functional.py")
        assert rule_ids(findings) == ["GL002"]

    def test_np_call_on_data_flagged(self):
        findings, _ = run("y = np.exp(x.data)",
                          path="src/repro/nn/rnn.py")
        assert rule_ids(findings) == ["GL002"]

    def test_other_files_out_of_scope(self):
        findings, _ = run("y = np.exp(x.data)", path="src/repro/models/bpr.py")
        assert findings == []

    def test_graph_ops_clean(self):
        findings, _ = run("y = (x * x).sum(axis=-1)",
                          path="src/repro/nn/attention.py")
        assert findings == []


class TestInPlaceMutation:
    def test_subscript_store_flagged(self):
        findings, _ = run("model.weight.data[...] = seed")
        assert rule_ids(findings) == ["GL003"]

    def test_augmented_store_flagged(self):
        findings, _ = run("param.data += update")
        assert rule_ids(findings) == ["GL003"]

    def test_grad_rebind_flagged(self):
        findings, _ = run("param.grad = fake_grad")
        assert rule_ids(findings) == ["GL003"]

    def test_sanctioned_files_exempt(self):
        for path in ("src/repro/nn/tensor.py", "src/repro/nn/optim.py",
                     "src/repro/nn/module.py"):
            findings, _ = run("param.data -= lr * param.grad", path=path)
            assert findings == []

    def test_plain_data_attribute_clean(self):
        # Ordinary classes may own a `data` attribute.
        findings, _ = run("self.data = np.asarray(rows)")
        assert findings == []


class TestLegacyNumpyRandom:
    @pytest.mark.parametrize("call", [
        "np.random.seed(0)",
        "np.random.randn(3, 3)",
        "np.random.choice(items)",
        "numpy.random.shuffle(deck)",
        "np.random.RandomState(1)",
    ])
    def test_legacy_calls_flagged(self, call):
        findings, _ = run(call)
        assert rule_ids(findings) == ["GL004"]

    def test_default_rng_clean(self):
        findings, _ = run("rng = np.random.default_rng(7)")
        assert findings == []

    def test_generator_annotation_clean(self):
        findings, _ = run("""
        def f(rng: np.random.Generator) -> None:
            return rng.normal(size=3)
        """)
        assert findings == []


class TestSwallowedException:
    def test_bare_except_flagged(self):
        findings, _ = run("""
        try:
            risky()
        except:
            handle()
        """)
        assert rule_ids(findings) == ["GL005"]

    def test_broad_pass_flagged(self):
        findings, _ = run("""
        try:
            risky()
        except Exception:
            pass
        """)
        assert rule_ids(findings) == ["GL005"]

    def test_narrow_pass_clean(self):
        findings, _ = run("""
        try:
            risky()
        except ValueError:
            pass
        """)
        assert findings == []

    def test_broad_with_handling_clean(self):
        findings, _ = run("""
        try:
            risky()
        except Exception as exc:
            log(exc)
            raise
        """)
        assert findings == []


class TestAllDrift:
    def test_phantom_export_flagged(self):
        findings, _ = run("""
        from .mod import real_name

        __all__ = ["real_name", "phantom_name"]
        """, path="pkg/__init__.py")
        assert rule_ids(findings) == ["GL006"]
        assert "phantom_name" in findings[0].message

    def test_missing_reexport_warned(self):
        findings, _ = run("""
        from .mod import exported, forgotten

        __all__ = ["exported"]
        """, path="pkg/__init__.py")
        assert rule_ids(findings) == ["GL006"]
        assert findings[0].severity == "warning"
        assert "forgotten" in findings[0].message

    def test_consistent_init_clean(self):
        findings, _ = run("""
        from .mod import name_a, name_b
        from . import sub

        __all__ = ["name_a", "name_b", "sub"]
        """, path="pkg/__init__.py")
        assert findings == []

    def test_non_init_files_out_of_scope(self):
        findings, _ = run('__all__ = ["phantom"]', path="pkg/module.py")
        assert findings == []


class TestMemmapInflation:
    DATA_PATH = "src/repro/data/eventlog.py"

    def test_tainted_name_flagged(self):
        findings, _ = run("""
        col = np.load(path, mmap_mode="r")
        dense = np.asarray(col)
        """, path=self.DATA_PATH, select=["GL008"])
        assert rule_ids(findings) == ["GL008"]
        assert "slice" in findings[0].message

    def test_direct_nesting_flagged(self):
        findings, _ = run('dense = np.array(np.load(p, mmap_mode="r"))',
                          path=self.DATA_PATH, select=["GL008"])
        assert rule_ids(findings) == ["GL008"]

    def test_column_view_flagged(self):
        findings, _ = run("""
        items = store.column(k, "item")
        flat = np.ascontiguousarray(items)
        """, path=self.DATA_PATH, select=["GL008"])
        assert rule_ids(findings) == ["GL008"]

    def test_sliced_window_clean(self):
        # Converting a slice is the sanctioned idiom: the copy is O(window).
        findings, _ = run("""
        col = np.load(path, mmap_mode="r")
        window = np.asarray(col[start:stop])
        """, path=self.DATA_PATH, select=["GL008"])
        assert findings == []

    def test_plain_load_clean(self):
        # Without mmap_mode, np.load already returns a resident array.
        findings, _ = run("""
        col = np.load(path)
        dense = np.asarray(col)
        """, path=self.DATA_PATH, select=["GL008"])
        assert findings == []

    def test_non_data_files_out_of_scope(self):
        findings, _ = run("""
        col = np.load(path, mmap_mode="r")
        dense = np.asarray(col)
        """, path="src/repro/io.py", select=["GL008"])
        assert findings == []

    def test_suppression_applies(self):
        findings, suppressed = run("""
        col = store.column(k, "user")
        dense = np.asarray(col)  # gradlint: disable=GL008 — tiny index col
        """, path=self.DATA_PATH, select=["GL008"])
        assert findings == []
        assert suppressed == 1


class TestSuppression:
    def test_inline_disable(self):
        findings, suppressed = run("np.random.seed(0)  # gradlint: disable=GL004 — fixture")
        assert findings == []
        assert suppressed == 1

    def test_disable_next_skips_comment_lines(self):
        findings, suppressed = run("""
        # gradlint: disable-next=GL004 — a justification that is long
        # enough to span a second comment line before the statement.
        np.random.seed(0)
        """)
        assert findings == []
        assert suppressed == 1

    def test_disable_file(self):
        findings, suppressed = run("""
        # gradlint: disable-file=GL004 — generated fixture module
        np.random.seed(0)
        np.random.randn(2)
        """)
        assert findings == []
        assert suppressed == 2

    def test_bare_disable_suppresses_all_rules_on_line(self):
        findings, _ = run("np.random.seed(0)  # gradlint: disable")
        assert findings == []

    def test_unrelated_rule_not_suppressed(self):
        findings, _ = run("np.random.seed(0)  # gradlint: disable=GL005")
        assert rule_ids(findings) == ["GL004"]


class TestEngine:
    def test_select_restricts_rules(self):
        source = """
        np.random.seed(0)
        try:
            risky()
        except:
            pass
        """
        findings, _ = run(source, select=["GL005"])
        assert rule_ids(findings) == ["GL005"]
        findings, _ = run(source, ignore=["GL005"])
        assert rule_ids(findings) == ["GL004"]

    def test_syntax_error_reported_not_raised(self):
        findings, _ = run("def broken(:\n    pass")
        assert rule_ids(findings) == ["GL000"]

    def test_discover_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "keep.py").write_text("x = 1\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "skip.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "skip.py").write_text("x = 1\n")
        files = discover_files([str(tmp_path)])
        assert [os.path.basename(f) for f in files] == ["keep.py"]


class TestRepoIsClean:
    """Acceptance criterion: the shipped tree lints clean."""

    def test_src_and_examples_lint_clean(self):
        report = lint_paths([os.path.join(REPO_ROOT, "src"),
                             os.path.join(REPO_ROOT, "examples")])
        assert report.files_checked > 70
        messages = [f.render() for f in report.findings]
        assert messages == []
        # The intentional detaches/seed-writes are suppressed, not hidden.
        assert report.suppressed >= 2
