"""Optimizer-state round-trip: warm restarts continue bit-identically."""

import numpy as np
import pytest

from repro.io import load_optimizer_state, save_optimizer_state
from repro.nn import Adagrad, Adam, Parameter
from repro.nn.optim import make_optimizer
from repro.online import EventLog, OnlineTrainer, select_online_params
from repro.online.__main__ import fingerprint

from .conftest import fill_log


def _pumped_trainer(model, log, optimizer, max_batches=None):
    trainer = OnlineTrainer(model, log, lr=0.05, optimizer=optimizer,
                            batch_events=16)
    trainer.pump(max_batches=max_batches)
    return trainer


@pytest.mark.parametrize("optimizer", ["sgd", "adagrad", "adam"])
def test_state_tables_round_trip_exactly(tmp_path, online_causer, shadow_of,
                                         optimizer):
    log = EventLog(None)
    fill_log(log, 48)
    trainer = _pumped_trainer(shadow_of(online_causer), log, optimizer)
    saved = trainer._optimizer
    path = tmp_path / "opt.npz"
    save_optimizer_state(saved, path)

    fresh = make_optimizer(optimizer, select_online_params(
        shadow_of(online_causer)), lr=0.05)
    load_optimizer_state(fresh, path)
    assert getattr(fresh, "_t", 0) == getattr(saved, "_t", 0)
    for slot in ("_velocity", "_m", "_v", "_accum"):
        table = getattr(saved, slot, None)
        if table is None:
            continue
        restored = getattr(fresh, slot)
        assert set(restored) == set(table)
        for index in table:
            np.testing.assert_array_equal(restored[index], table[index])
    log.close()


def test_load_rejects_class_and_shape_mismatches(tmp_path, online_causer,
                                                 shadow_of):
    log = EventLog(None)
    fill_log(log, 32)
    trainer = _pumped_trainer(shadow_of(online_causer), log, "adam")
    path = tmp_path / "opt.npz"
    save_optimizer_state(trainer._optimizer, path)

    params = select_online_params(shadow_of(online_causer))
    wrong_class = make_optimizer("sgd", params, lr=0.05)
    with pytest.raises(ValueError, match="Adam"):
        load_optimizer_state(wrong_class, path)
    wrong_count = make_optimizer("adam", params[:2], lr=0.05)
    with pytest.raises(ValueError, match="parameters"):
        load_optimizer_state(wrong_count, path)
    log.close()


@pytest.mark.parametrize("optimizer", ["adagrad", "adam"])
def test_trainer_restart_is_bitwise_warm(tmp_path, online_causer, shadow_of,
                                         optimizer):
    """save_state → restore_state → continue == never having stopped.

    The moments and the step counter matter here: a cold-restart
    optimizer would restart Adam's bias correction at step 1 and diverge.
    """
    log = EventLog(None)
    fill_log(log, 96)

    uninterrupted = _pumped_trainer(shadow_of(online_causer), log, optimizer)
    assert uninterrupted.consumed_offset == 96

    first_half = _pumped_trainer(shadow_of(online_causer), log, optimizer,
                                 max_batches=3)
    assert first_half.consumed_offset == 48
    state_dir = tmp_path / "trainer-state"
    first_half.save_state(state_dir)

    resumed = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            optimizer=optimizer, batch_events=16)
    resumed.restore_state(state_dir)
    assert resumed.consumed_offset == 48
    assert fingerprint(resumed.model) == fingerprint(first_half.model)
    resumed.pump()
    assert resumed.consumed_offset == 96
    assert resumed.steps == uninterrupted.steps
    assert fingerprint(resumed.model) == fingerprint(uninterrupted.model)
    log.close()


def test_restore_rejects_sheared_batch_size(tmp_path, online_causer,
                                            shadow_of):
    log = EventLog(None)
    fill_log(log, 32)
    trainer = _pumped_trainer(shadow_of(online_causer), log, "adagrad")
    state_dir = tmp_path / "trainer-state"
    trainer.save_state(state_dir)
    other = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                          batch_events=8)
    with pytest.raises(ValueError, match="batch_events"):
        other.restore_state(state_dir)
    log.close()


def _stepped(optimizer_cls, shapes, **kwargs):
    params = [Parameter(np.ones(shape)) for shape in shapes]
    optimizer = optimizer_cls(params, lr=0.1, **kwargs)
    for param in params:
        param.grad = np.full(param.data.shape, 0.5)
    optimizer.step()
    return optimizer


def _rewrite_archive(path, **entries):
    """Copy the archive at ``path`` with ``entries`` added or replaced."""
    with np.load(str(path)) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays.update(entries)
    np.savez(str(path), **arrays)


def test_load_rejects_misshapen_entry_naming_file_and_key(tmp_path):
    path = tmp_path / "opt.npz"
    save_optimizer_state(_stepped(Adagrad, [(5, 3), (4,)]), path)
    _rewrite_archive(path, **{"state::_accum::0": np.ones((2, 3))})
    fresh = Adagrad([Parameter(np.ones((5, 3))), Parameter(np.ones(4))],
                    lr=0.1)
    with pytest.raises(ValueError) as err:
        load_optimizer_state(fresh, path)
    assert str(path) in str(err.value)
    assert "state::_accum::0" in str(err.value)
    assert "(2, 3)" in str(err.value) and "(5, 3)" in str(err.value)
    assert fresh._accum == {}  # a rejected archive leaves no partial state


@pytest.mark.parametrize("index", [-1, 2])
def test_load_rejects_entry_outside_parameter_list(tmp_path, index):
    path = tmp_path / "opt.npz"
    save_optimizer_state(_stepped(Adagrad, [(5, 3), (4,)]), path)
    _rewrite_archive(path, **{f"state::_accum::{index}": np.ones(4)})
    fresh = Adagrad([Parameter(np.ones((5, 3))), Parameter(np.ones(4))],
                    lr=0.1)
    with pytest.raises(ValueError, match="outside the parameter list"):
        load_optimizer_state(fresh, path)
    assert fresh._accum == {}


def test_load_rejects_legacy_lazy_adam_archive(tmp_path):
    """Archives from the lazy row-sparse Adam of older builds carried
    per-row last-touch steps; dense Adam has no such slot, so they are
    refused by name."""
    legacy_slot = "_row_steps"
    path = tmp_path / "opt.npz"
    save_optimizer_state(_stepped(Adam, [(5, 3)]), path)
    _rewrite_archive(path, **{
        f"state::{legacy_slot}::0": np.ones(5, dtype=np.int64)})
    fresh = Adam([Parameter(np.ones((5, 3)))], lr=0.1)
    with pytest.raises(ValueError, match=legacy_slot) as err:
        load_optimizer_state(fresh, path)
    assert str(path) in str(err.value)
    assert fresh._t == 0 and fresh._m == {}

