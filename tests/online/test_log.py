"""EventLog: roundtrip, rotation, recovery, and mirror-eviction contracts."""

import json

import pytest

from repro.online import EventLog
from repro.online import log as log_module

from .conftest import fill_log


def test_append_read_window_roundtrip(tmp_path):
    log = EventLog(tmp_path / "log")
    events = fill_log(log, 10)
    assert log.next_offset == 10
    records = log.read(0, 10)
    assert [(r.user_id, r.basket) for r in records] == events
    assert [r.offset for r in records] == list(range(10))
    assert log.read(3, 6) == records[3:6]
    assert log.window(4) == records[6:]
    assert log.window(100) == records
    log.close()


def test_segments_rotate_at_fixed_boundaries(tmp_path, monkeypatch):
    monkeypatch.setattr(log_module, "SEGMENT_RECORDS", 4)
    log = EventLog(tmp_path / "log")
    fill_log(log, 10)
    log.close()
    names = sorted(p.name for p in (tmp_path / "log").iterdir())
    assert names == ["events-000000000000.jsonl", "events-000000000004.jsonl",
                     "events-000000000008.jsonl"]
    # Each line is self-describing JSON carrying its global offset.
    first = json.loads(
        (tmp_path / "log" / names[1]).read_text().splitlines()[0])
    assert first["o"] == 4


def test_reopen_recovers_offset_and_appends_continue(tmp_path, monkeypatch):
    monkeypatch.setattr(log_module, "SEGMENT_RECORDS", 4)
    log = EventLog(tmp_path / "log")
    events = fill_log(log, 6)
    log.close()

    reopened = EventLog(tmp_path / "log")
    assert reopened.next_offset == 6
    assert [(r.user_id, r.basket) for r in reopened.read(0, 6)] == events
    offset = reopened.append(99, (1, 2))
    assert offset == 6
    reopened.close()
    # The resumed append landed in the partially-filled last segment.
    lines = (tmp_path / "log"
             / "events-000000000004.jsonl").read_text().splitlines()
    assert [json.loads(line)["o"] for line in lines] == [4, 5, 6]


def test_torn_tail_is_cut_and_appends_continue(tmp_path, monkeypatch):
    monkeypatch.setattr(log_module, "SEGMENT_RECORDS", 4)
    log = EventLog(tmp_path / "log")
    events = fill_log(log, 5)
    log.close()
    # The writer died mid-append: the last segment ends in a partial line.
    with (tmp_path / "log" / "events-000000000004.jsonl").open("a") as tail:
        tail.write('{"o": 5, "u": 5, "b": [1')

    reopened = EventLog(tmp_path / "log")
    assert reopened.next_offset == 5
    assert reopened.append(99, (1, 2)) == 5
    reopened.close()
    again = EventLog(tmp_path / "log")
    assert [(r.user_id, r.basket) for r in again.read(0, 6)] == (
        events + [(99, (1, 2))])
    again.close()


@pytest.mark.parametrize("segment, line", [("events-000000000000.jsonl", 2),
                                           ("events-000000000004.jsonl", 1)])
def test_corrupt_line_names_the_segment(tmp_path, segment, line, monkeypatch):
    monkeypatch.setattr(log_module, "SEGMENT_RECORDS", 4)
    log = EventLog(tmp_path / "log")
    fill_log(log, 6)
    log.close()
    path = tmp_path / "log" / segment
    lines = path.read_text().splitlines(keepends=True)
    lines[line - 1] = '{"o": 1, "u"\n'
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"{segment}, line {line}"):
        EventLog(tmp_path / "log")


def test_old_ranges_fall_back_to_disk(tmp_path, monkeypatch):
    monkeypatch.setattr(log_module, "SEGMENT_RECORDS", 4)
    monkeypatch.setattr(log_module, "MIRROR_CAPACITY", 3)
    log = EventLog(tmp_path / "log")
    events = fill_log(log, 12)
    # Offsets 0..8 are long gone from the 3-record mirror.
    assert [(r.user_id, r.basket) for r in log.read(0, 12)] == events
    assert [r.offset for r in log.read(2, 7)] == [2, 3, 4, 5, 6]
    log.close()


def test_memory_only_log_raises_on_evicted_range(monkeypatch):
    monkeypatch.setattr(log_module, "MIRROR_CAPACITY", 4)
    log = EventLog(None)
    fill_log(log, 10)
    assert [r.offset for r in log.read(6, 10)] == [6, 7, 8, 9]
    with pytest.raises(ValueError, match="evicted"):
        log.read(0, 10)
    log.close()


def test_read_clamps_stop_and_validates_start(tmp_path):
    log = EventLog(tmp_path / "log")
    fill_log(log, 5)
    assert [r.offset for r in log.read(3, 999)] == [3, 4]
    assert log.read(5, 10) == []
    assert log.window(0) == []
    with pytest.raises(ValueError):
        log.read(-1, 3)
    log.close()


def test_append_is_the_event_sink_signature(tmp_path):
    """``log.append`` plugs straight into ``ServeApp.event_sink``."""
    log = EventLog(tmp_path / "log")
    sink = log.append
    sink(7, [3, 4])
    record = log.read(0, 1)[0]
    assert (record.user_id, record.basket) == (7, (3, 4))
    log.close()
