"""Tests for the out-of-core columnar event log (repro.data.eventlog).

The contracts under test, in order of importance:

* shard-parallel generation is bit-identical to serial at any worker
  count (same shard files, byte for byte);
* the corpus behaves the same whether its columns sit in RAM or in
  memmapped shards, and both match explicit oracles over the
  simulator's nested basket tuples — same statistics, same
  leave-one-out splits, same training batches, and therefore the same
  loss trajectory through a real model;
* every store refuses columns that break the layout, and the header is
  versioned, written atomically, and rejected with the file's name when
  torn.
"""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import (BehaviorSimulator, EvalSample, SequenceCorpus,
                        SimulatorConfig, UserSequence, generate_eventlog,
                        iterate_batches, load_eventlog_dataset,
                        open_eventlog, pad_samples, training_prefixes)
from repro.data.eventlog import EVENTLOG_FORMAT, EVENTLOG_VERSION
from repro.data.interactions import leave_one_out_split
from repro.exp import ALL_MODEL_NAMES, quick_settings, run_model
from repro.io import write_json_header

CONFIG = SimulatorConfig(num_users=60, num_items=80, num_clusters=6, seed=11)
TINY = SimulatorConfig(num_users=2, num_items=10, num_clusters=2, seed=3)


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("eventlog") / "corpus"
    generate_eventlog(CONFIG, path, users_per_shard=25)
    return path


@pytest.fixture(scope="module")
def memory_dataset(reference_sequences):
    # The in-memory twin of the shards: every user and the features drawn
    # from the same keyed streams the event-log generator uses.
    sim = BehaviorSimulator(CONFIG)
    return SimpleNamespace(
        corpus=SequenceCorpus(CONFIG.num_items, reference_sequences),
        features=sim.generate_features(sim.feature_rng()),
        cluster_of_item=sim.cluster_of_item,
        cluster_graph=sim.cluster_graph)


def _raw_user(user_id, baskets):
    """A user without :class:`UserSequence`'s own checks, so the store's
    layout checks are the ones that refuse it."""
    return SimpleNamespace(user_id=user_id, baskets=baskets)


class TestWriterValidation:
    """The layout checks every store is written through."""

    def test_user_ids_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SequenceCorpus(10, [UserSequence(4, ((1, 2),)),
                                UserSequence(4, ((3,),))])

    def test_empty_basket_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SequenceCorpus(10, [_raw_user(0, ((1,), ()))])

    def test_item_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[1, 10\]"):
            SequenceCorpus(10, [UserSequence(0, ((11,),))])
        with pytest.raises(ValueError, match=r"\[1, 10\]"):
            SequenceCorpus(10, [_raw_user(0, ((0,),))])

    def test_refuses_to_overwrite(self, tmp_path):
        generate_eventlog(TINY, tmp_path / "log")
        with pytest.raises(FileExistsError):
            generate_eventlog(TINY, tmp_path / "log")


class TestHeaderVersioning:
    def test_bad_version_rejected(self, tmp_path):
        generate_eventlog(TINY, tmp_path / "log")
        header_path = tmp_path / "log" / "header.json"
        header = json.loads(header_path.read_text())
        header["format_version"] = 99
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="version"):
            open_eventlog(tmp_path / "log")

    def test_bad_format_rejected(self, tmp_path):
        generate_eventlog(TINY, tmp_path / "log")
        header_path = tmp_path / "log" / "header.json"
        header = json.loads(header_path.read_text())
        header["format"] = "something.else"
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="format"):
            open_eventlog(tmp_path / "log")


class TestHeaderAtomicity:
    def _log(self, tmp_path):
        generate_eventlog(TINY, tmp_path / "log")
        return tmp_path / "log" / "header.json"

    def test_every_truncation_names_the_file(self, tmp_path):
        header_path = self._log(tmp_path)
        full = header_path.read_bytes()
        for cut in range(len(full)):
            header_path.write_bytes(full[:cut])
            with pytest.raises(ValueError, match=re.escape(str(header_path))):
                open_eventlog(tmp_path / "log")
        header_path.write_bytes(full)
        assert open_eventlog(tmp_path / "log").num_users == TINY.num_users

    def test_non_object_header_names_the_file(self, tmp_path):
        header_path = self._log(tmp_path)
        header_path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=re.escape(str(header_path))):
            open_eventlog(tmp_path / "log")

    def test_failed_rewrite_keeps_old_header(self, tmp_path):
        header_path = self._log(tmp_path)
        before = header_path.read_bytes()
        with pytest.raises(TypeError):  # object() is not JSON: dies mid-dump
            write_json_header(header_path, EVENTLOG_FORMAT, EVENTLOG_VERSION,
                              {"num_items": 10, "bad": object()})
        assert header_path.read_bytes() == before
        assert sorted(p.name for p in header_path.parent.iterdir()
                      if p.name.startswith(".")) == []


class TestParallelBitIdentity:
    """The acceptance contract: worker count never changes the bytes."""

    def test_any_worker_count_same_bytes(self, tmp_path):
        stores = {}
        for workers in (1, 2, 3):
            path = tmp_path / f"w{workers}"
            stores[workers] = generate_eventlog(
                CONFIG, path, users_per_shard=25, workers=workers)
        checksums = {w: s.checksum() for w, s in stores.items()}
        assert len(set(checksums.values())) == 1
        # Belt and braces: compare the raw shard files too.
        serial_files = sorted(p.name for p in stores[1].path.iterdir()
                              if p.suffix == ".npy")
        for workers in (2, 3):
            for name in serial_files:
                assert ((stores[workers].path / name).read_bytes()
                        == (stores[1].path / name).read_bytes()), name

    def test_one_pool_for_every_shard(self, tmp_path, monkeypatch):
        import repro.parallel
        real, calls = repro.parallel.parallel_map, []

        def spy(fn, specs, **kwargs):
            calls.append(len(specs))
            return real(fn, specs, **kwargs)

        monkeypatch.setattr(repro.parallel, "parallel_map", spy)
        store = generate_eventlog(CONFIG, tmp_path / "log",
                                  users_per_shard=7, workers=2)
        assert store.num_shards == 9
        assert calls == [9]

    def test_shard_size_does_not_change_users(self, tmp_path):
        coarse = generate_eventlog(CONFIG, tmp_path / "coarse")
        fine = generate_eventlog(CONFIG, tmp_path / "fine",
                                 users_per_shard=7)
        assert coarse.num_shards == 1 and fine.num_shards == 9
        assert list(coarse.corpus()) == list(fine.corpus())


def reference_split(sequences, min_length=3):
    """Oracle: the leave-one-out loop over nested basket tuples."""
    train, validation, test = [], [], []
    for seq in sequences:
        if seq.length < min_length:
            train.append(seq)
            continue
        test.append(EvalSample(user_id=seq.user_id,
                               history=seq.baskets[:-1],
                               target=seq.baskets[-1]))
        validation.append(EvalSample(user_id=seq.user_id,
                                     history=seq.baskets[:-2],
                                     target=seq.baskets[-2]))
        train.append(UserSequence(user_id=seq.user_id,
                                  baskets=seq.baskets[:-2]))
    return train, validation, test


def reference_prefixes(sequences, max_history=None):
    """Oracle: eq. (1)'s prefix expansion over nested basket tuples."""
    samples = []
    for seq in sequences:
        for j in range(1, seq.length):
            history = seq.baskets[:j]
            if max_history is not None and len(history) > max_history:
                history = history[-max_history:]
            samples.append(EvalSample(user_id=seq.user_id, history=history,
                                      target=seq.baskets[j]))
    return samples


def reference_popularity(sequences, num_items):
    counts = np.zeros(num_items + 1, dtype=np.int64)
    for seq in sequences:
        for item in seq.items():
            counts[item] += 1
    return counts


@pytest.fixture(scope="module")
def reference_sequences():
    # The simulator's own output, before any corpus code touches it.
    sim = BehaviorSimulator(CONFIG)
    return [UserSequence(user_id=u, baskets=tuple(
                sim._simulate_user(sim.user_rng(u))[0]))
            for u in range(CONFIG.num_users)]


def _stores(log_dir, memory_dataset):
    """The same corpus with its columns in RAM and memmapped on disk."""
    return (("memory", memory_dataset.corpus),
            ("disk", open_eventlog(log_dir).corpus()))


class TestBackendEquivalence:
    """Both storages against the nested-tuple oracles above."""

    def test_statistics_match(self, log_dir, memory_dataset,
                              reference_sequences):
        ref = reference_sequences
        for _, corpus in _stores(log_dir, memory_dataset):
            assert corpus.num_users == len(ref)
            assert corpus.num_items == CONFIG.num_items
            assert corpus.num_interactions == sum(len(b) for s in ref
                                                  for b in s.baskets)
            assert corpus.average_sequence_length == float(
                np.mean([s.length for s in ref]))
            assert np.array_equal(corpus.sequence_lengths(),
                                  [s.length for s in ref])
            assert np.array_equal(corpus.item_popularity(),
                                  reference_popularity(ref, CONFIG.num_items))

    def test_baskets_match(self, log_dir, memory_dataset, reference_sequences):
        for _, corpus in _stores(log_dir, memory_dataset):
            sequences = list(corpus)
            assert len(sequences) == len(reference_sequences)
            for seq, ref in zip(sequences, reference_sequences):
                assert seq.user_id == ref.user_id
                assert seq.baskets == ref.baskets

    def test_features_and_truth_match(self, log_dir, memory_dataset):
        dataset = load_eventlog_dataset(log_dir)
        assert np.array_equal(dataset.features, memory_dataset.features)
        assert np.array_equal(dataset.cluster_of_item,
                              memory_dataset.cluster_of_item)
        assert np.array_equal(dataset.cluster_graph,
                              memory_dataset.cluster_graph)

    def test_split_matches(self, log_dir, memory_dataset,
                           reference_sequences):
        train, validation, test = reference_split(reference_sequences)
        for _, corpus in _stores(log_dir, memory_dataset):
            split = leave_one_out_split(corpus)
            for view, samples in ((split.validation, validation),
                                  (split.test, test)):
                assert len(view) == len(samples)
                assert list(view) == samples
            # The training corpus hides the same two baskets per user.
            assert np.array_equal(split.train.sequence_lengths(),
                                  np.fromiter((len(s.baskets) for s in train),
                                              dtype=np.int64))
            assert np.array_equal(split.train.item_popularity(),
                                  reference_popularity(train,
                                                       CONFIG.num_items))

    def test_training_prefixes_match(self, log_dir, memory_dataset,
                                     reference_sequences):
        train, _, _ = reference_split(reference_sequences)
        samples = reference_prefixes(train, max_history=10)
        for _, corpus in _stores(log_dir, memory_dataset):
            view = training_prefixes(leave_one_out_split(corpus).train,
                                     max_history=10)
            assert len(view) == len(samples)
            assert list(view) == samples
            # Random access agrees with iteration.
            assert view[0] == samples[0]
            assert view[len(view) - 1] == samples[-1]
            assert list(view[3:7]) == samples[3:7]

    def test_gather_batch_bit_identical_to_pad_samples(self, log_dir,
                                                       memory_dataset,
                                                       reference_sequences):
        train, _, _ = reference_split(reference_sequences)
        samples = reference_prefixes(train)
        batches_ref = list(iterate_batches(samples, 16,
                                           np.random.default_rng(5),
                                           max_history=8))
        for _, corpus in _stores(log_dir, memory_dataset):
            view = training_prefixes(leave_one_out_split(corpus).train)
            batches = list(iterate_batches(view, 16,
                                           np.random.default_rng(5),
                                           max_history=8))
            assert len(batches) == len(batches_ref)
            for got, want in zip(batches, batches_ref):
                for field in ("users", "items", "basket_mask", "step_mask",
                              "positives", "positive_mask"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype, field
                    assert np.array_equal(a, b), field

    def test_loss_trajectories_match(self, log_dir, memory_dataset,
                                     reference_sequences):
        from repro.models import GRU4Rec, TrainConfig
        cfg = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=3,
                          batch_size=16, seed=0)
        train, _, _ = reference_split(reference_sequences)
        reference = GRU4Rec(CONFIG.num_users, CONFIG.num_items, cfg)
        want = reference.fit_samples(
            reference_prefixes(train, max_history=cfg.max_history))
        for backend, corpus in _stores(log_dir, memory_dataset):
            split = leave_one_out_split(corpus)
            model = GRU4Rec(corpus.num_users, corpus.num_items, cfg)
            assert model.fit(split.train).epoch_losses == want.epoch_losses, \
                backend


class TestPrefixSampleView:
    def test_gather_batch_without_max_history(self, log_dir):
        view = training_prefixes(open_eventlog(log_dir).corpus())
        indices = np.arange(min(12, len(view)))
        batch = view.gather_batch(indices)
        reference = pad_samples([view[int(i)] for i in indices])
        assert np.array_equal(batch.items, reference.items)
        assert np.array_equal(batch.positives, reference.positives)

    def test_length_counts_prefixes(self, log_dir, reference_sequences):
        view = training_prefixes(open_eventlog(log_dir).corpus())
        expected = sum(len(s.baskets) - 1 for s in reference_sequences)
        assert len(view) == expected


class TestModelsOnEventlog:
    @pytest.mark.parametrize("name", ALL_MODEL_NAMES)
    def test_fits_and_evaluates(self, log_dir, name):
        dataset = load_eventlog_dataset(log_dir)
        run = run_model(name, dataset, quick_settings())
        assert np.isfinite(run.final_loss)
        assert 0.0 <= run.result.mean("ndcg") <= 1.0

    def test_missing_truth_names_the_dataset(self, tmp_path):
        generate_eventlog(TINY, tmp_path / "bare", name="bare")
        for sidecar in ("features.npy", "truth.npz"):
            (tmp_path / "bare" / sidecar).unlink()
        dataset = load_eventlog_dataset(tmp_path / "bare")
        assert dataset.features is None and dataset.cause_log == []
        assert dataset.name == "bare"
        assert dataset.cluster_graph is None
        assert dataset.cluster_of_item is None


class TestDataCli:
    def test_generate_and_inspect(self, tmp_path, capsys):
        from repro.data.__main__ import main
        out = tmp_path / "cli-log"
        assert main(["generate", "--users", "30", "--items", "40",
                     "--seed", "2", "--out", str(out),
                     "--users-per-shard", "12"]) == 0
        assert main(["inspect", str(out), "--head", "3"]) == 0
        printed = capsys.readouterr().out
        assert "30" in printed and "shards (3)" in printed

    def test_generate_requires_sizing(self):
        from repro.data.__main__ import main
        with pytest.raises(SystemExit):
            main(["generate", "--out", "/tmp/never-created"])
