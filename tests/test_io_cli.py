"""Tests for model persistence and the CLI."""

import json
import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import Causer, CauserConfig
from repro.exp import BenchmarkSettings, build_model
from repro.io import load_model, save_model
from repro.lineup import checkpoint_classes
from repro.models import (BPR, GRU4Rec, PopularityRecommender, TrainConfig,
                          VTRNN)


@pytest.fixture(scope="module")
def trained_causer(tiny_dataset, tiny_split):
    config = CauserConfig(embedding_dim=8, hidden_dim=8, num_epochs=2,
                          batch_size=64, num_clusters=4, epsilon=0.2,
                          eta=0.5, seed=0)
    model = Causer(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                   tiny_dataset.features, config)
    model.fit(tiny_split.train)
    return model


class TestSaveLoad:
    def test_causer_roundtrip(self, trained_causer, tiny_split, tmp_path):
        path = tmp_path / "causer.npz"
        save_model(trained_causer, path)
        restored = load_model(path)
        original_scores = trained_causer.score_samples(tiny_split.test[:4])
        restored_scores = restored.score_samples(tiny_split.test[:4])
        np.testing.assert_allclose(original_scores, restored_scores,
                                   atol=1e-10)

    def test_config_restored(self, trained_causer, tmp_path):
        path = tmp_path / "causer.npz"
        save_model(trained_causer, path)
        restored = load_model(path)
        assert restored.config.num_clusters == trained_causer.config.num_clusters
        assert restored.config.epsilon == trained_causer.config.epsilon

    def test_baseline_roundtrip(self, tiny_dataset, tiny_split, tmp_path):
        cfg = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=1,
                          batch_size=64, seed=0)
        model = GRU4Rec(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                        cfg)
        model.fit(tiny_split.train)
        path = tmp_path / "gru.npz"
        save_model(model, path)
        restored = load_model(path)
        np.testing.assert_allclose(model.score_samples(tiny_split.test[:3]),
                                   restored.score_samples(tiny_split.test[:3]),
                                   atol=1e-10)

    def test_feature_model_roundtrip(self, tiny_dataset, tiny_split,
                                     tmp_path):
        cfg = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=1,
                          batch_size=64, seed=0)
        model = VTRNN(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                      tiny_dataset.features, cfg)
        model.fit(tiny_split.train)
        path = tmp_path / "vtrnn.npz"
        save_model(model, path)
        restored = load_model(path)
        np.testing.assert_allclose(model.score_samples(tiny_split.test[:2]),
                                   restored.score_samples(tiny_split.test[:2]),
                                   atol=1e-10)

    def test_unsupported_model(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(PopularityRecommender(5), tmp_path / "pop.npz")


class TestCheckpointHeaders:
    def _tampered(self, model, tmp_path, mutate):
        """Save, rewrite the JSON header with ``mutate``, re-save."""
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        header = json.loads(bytes(arrays["header"]).decode("utf-8"))
        mutate(header)
        arrays["header"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)
        np.savez_compressed(str(path), **arrays)
        return path

    def test_unknown_class_is_a_clear_error(self, trained_causer, tmp_path):
        path = self._tampered(trained_causer, tmp_path,
                              lambda h: h.update({"class": "FancyModel"}))
        with pytest.raises(ValueError, match="unknown model class"):
            load_model(path)
        with pytest.raises(ValueError, match=str(path)):
            load_model(path)  # the message names the offending file

    def test_format_version_mismatch(self, trained_causer, tmp_path):
        path = self._tampered(
            trained_causer, tmp_path,
            lambda h: h.update({"format_version": 999}))
        with pytest.raises(ValueError, match="format_version"):
            load_model(path)

    def test_missing_version_rejected(self, trained_causer, tmp_path):
        """Pre-versioning archives are refused rather than mis-read."""
        path = self._tampered(trained_causer, tmp_path,
                              lambda h: h.pop("format_version"))
        with pytest.raises(ValueError, match="format_version"):
            load_model(path)

    @pytest.mark.parametrize("name", ["SASRec", "MMSARec"])
    def test_checkpoint_with_transformer_shape_loads(self, name, tiny_dataset,
                                                     tiny_split, tmp_path):
        """Checkpoints written while the transformer shape was a
        constructor argument carry it as ``extra``; they still load."""
        settings = BenchmarkSettings(embedding_dim=8, hidden_dim=8,
                                     max_history=8, quick=True)
        model = build_model(name, tiny_dataset, settings)
        path = self._tampered(model, tmp_path, lambda h: h.update(
            {"extra": {"num_blocks": 2, "num_heads": 1}}))
        restored = load_model(path)
        model.eval()
        np.testing.assert_array_equal(
            model.score_samples(tiny_split.test[:3]),
            restored.score_samples(tiny_split.test[:3]))

    @pytest.mark.parametrize("name,extra", [
        ("SASRec", {"num_blocks": 3, "num_heads": 1}),
        ("SASRec", {"num_blocks": 2}),
        ("GRU4Rec", {"num_blocks": 2, "num_heads": 1}),
    ])
    def test_other_extra_is_refused(self, name, extra, tiny_dataset,
                                    tmp_path):
        settings = BenchmarkSettings(embedding_dim=8, hidden_dim=8,
                                     max_history=8, quick=True)
        model = build_model(name, tiny_dataset, settings)
        path = self._tampered(model, tmp_path,
                              lambda h: h.update({"extra": extra}))
        with pytest.raises(ValueError, match="constructor arguments"):
            load_model(path)
        with pytest.raises(ValueError, match=str(path)):
            load_model(path)

    def test_registry_covers_every_class(self):
        assert set(checkpoint_classes()) == {
            "Causer", "BPR", "GRU4Rec", "MMSARec", "NARM", "NCF", "SASRec",
            "STAMP", "VTRNN"}


def _cuts(size):
    """Truncation offsets: empty, inside the magic, early, half, near end."""
    return sorted({0, 1, 3, 10, size // 2, size - 10, size - 1})


class TestCrashConsistency:
    """Checkpoints are written then renamed; torn files name themselves."""

    def test_truncated_npz_names_the_file(self, trained_causer, tmp_path):
        raw_path = tmp_path / "whole.npz"
        save_model(trained_causer, raw_path)
        raw = raw_path.read_bytes()
        path = tmp_path / "torn.npz"
        for cut in _cuts(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_model(path)

    def test_directory_path_is_a_clear_error(self, tmp_path):
        root = tmp_path / "ckpt"
        root.mkdir()
        with pytest.raises(ValueError, match=re.escape(str(root))):
            load_model(root)

    @staticmethod
    def _dies_mid_write(monkeypatch):
        """Make np.savez_compressed write a few bytes, then fail."""
        def savez(file, **arrays):
            file.write(b"PK\x03\x04 partial")
            raise OSError("disk full")
        monkeypatch.setattr(np, "savez_compressed", savez)

    def test_failed_save_keeps_previous_checkpoint(self, trained_causer,
                                                   tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        save_model(trained_causer, path)
        before = path.read_bytes()
        self._dies_mid_write(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save_model(trained_causer, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_suffixless_path_still_gains_npz(self, trained_causer, tmp_path):
        save_model(trained_causer, tmp_path / "model")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]


class TestCLI:
    def test_parser_accepts_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table2", "--scale", "0.02"])
        assert args.experiment == "table2"
        assert args.scale == 0.02

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_table2_end_to_end(self, capsys):
        code = main(["table2", "--scale", "0.02", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "epinions" in out

    def test_fig3_end_to_end(self, capsys):
        code = main(["fig3", "--scale", "0.02", "--quick"])
        assert code == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_fig5_restricted_sweep(self, capsys):
        code = main(["fig5", "--scale", "0.02", "--quick",
                     "--datasets", "baby", "--cells", "gru"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baby/gru" in out


class TestTrainEvalServeCLI:
    def test_parser_accepts_new_commands(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--model", "GRU4Rec",
                                  "--save-model", "ck.npz"])
        assert (args.experiment, args.model, args.save_model) == \
            ("train", "GRU4Rec", "ck.npz")
        args = parser.parse_args(["eval", "--load-model", "ck.npz"])
        assert args.load_model == "ck.npz"
        args = parser.parse_args(["serve", "--checkpoint", "ck.npz",
                                  "--port", "0", "--max-batch-size", "16",
                                  "--max-wait-ms", "1.5",
                                  "--session-capacity", "50"])
        assert args.port == 0 and args.max_batch_size == 16
        assert args.max_wait_ms == 1.5 and args.session_capacity == 50

    def test_serve_rejects_multiple_workers(self, capsys):
        """Serving runs in one process: ``--workers N > 1`` is refused."""
        assert main(["serve", "--workers", "2"]) == 2
        assert "serving runs in one process" in capsys.readouterr().out

    def test_serve_online_refuses_a_model_it_cannot_train(
            self, tiny_dataset, tmp_path, capsys, monkeypatch):
        """``serve --online`` on a BPR checkpoint exits 2 naming the class,
        before it builds the app (whose batcher is a thread) or binds."""
        import threading

        import repro.serve

        def started(*args, **kwargs):
            raise AssertionError("serving started")

        path = tmp_path / "bpr.npz"
        save_model(BPR(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                       TrainConfig(embedding_dim=8, seed=0)), path)
        monkeypatch.setattr(repro.serve, "ServeApp", started)
        monkeypatch.setattr(repro.serve, "ServeServer", started)
        threads = threading.active_count()
        assert main(["serve", "--checkpoint", str(path), "--online",
                     "--port", "0"]) == 2
        assert threading.active_count() == threads
        assert ("serve --online cannot train a BPR checkpoint"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv,message", [
        (["--model", "Causer"],
         "error: train --model 'Causer' names no lineup entry; choose from "
         "Pop, BPR,"),
        (["--model", "Pop", "--save-model", "pop.npz"],
         "error: train --save-model: Pop has no checkpoint format; classes "
         "that have one: BPR, Causer,"),
    ])
    def test_train_refuses_a_model_before_generating_data(
            self, argv, message, capsys, monkeypatch, tmp_path):
        """An unknown ``--model``, or ``--save-model`` for a class with no
        checkpoint format, exits 2 with one line before any corpus is
        simulated."""
        import repro.data

        def generated(*args, **kwargs):
            raise AssertionError("corpus generated")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(repro.data, "load_dataset", generated)
        assert main(["train", "--quick", "--scale", "0.02", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_eval_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--load-model"):
            main(["eval", "--scale", "0.02", "--quick"])

    def test_train_save_eval_roundtrip(self, tmp_path, capsys):
        """``eval --load-model`` reproduces the training run's metrics."""
        path = tmp_path / "gru.npz"
        assert main(["train", "--scale", "0.02", "--quick",
                     "--model", "GRU4Rec", "--save-model", str(path)]) == 0
        train_out = capsys.readouterr().out
        assert f"saved checkpoint: {path}" in train_out
        assert main(["eval", "--load-model", str(path),
                     "--scale", "0.02", "--quick"]) == 0
        eval_out = capsys.readouterr().out
        # Same split (same scale/seed), same weights → identical metrics.
        train_metrics = train_out.split("F1@", 1)[1].splitlines()[0]
        eval_metrics = eval_out.split("F1@", 1)[1].splitlines()[0]
        assert train_metrics == eval_metrics
