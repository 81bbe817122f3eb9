"""Append-only, replayable event log backing online learning.

``/v1/events`` tees every accepted event here (see
``ServeApp.event_sink``); the online trainer and the refresh loop
consume it.  The log is the *only* coupling between serving and online
training: serving appends, training reads — so online training can be
replayed offline (``python -m repro.online replay``), restarted from any
offset, or disabled entirely without touching the request path.

Layout: a directory of ``events-<start>.jsonl`` segments, rotated every
``SEGMENT_RECORDS`` records.  One JSON object per line::

    {"o": 17, "u": 42, "b": [3, 9], "t": 1722000000.123}

``o`` is the global offset (dense, starting at 0), ``u`` the user id,
``b`` the basket, ``t`` a wall-clock timestamp.  The timestamp is
diagnostic only — readers return ``(offset, user, basket)`` records, so
replays are bit-reproducible regardless of when events were logged.

A bounded in-memory mirror (a deque of the ``MIRROR_CAPACITY`` most
recent records) serves
``window()`` and recent ``read()`` calls without disk I/O; older ranges
fall back to scanning segments.  With ``path=None`` the log is
memory-only (tests, ephemeral serving) and ranges evicted from the
mirror are unrecoverable — ``read`` raises rather than silently
returning a gap.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from itertools import islice
from pathlib import Path
from typing import Deque, List, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = ["EventLog", "EventRecord"]

_SEGMENT_PREFIX = "events-"
_SEGMENT_SUFFIX = ".jsonl"

#: Records per segment file before the log rotates to a new one.
SEGMENT_RECORDS = 4096
#: Most recent records kept in memory for ``window`` and ``read``.
MIRROR_CAPACITY = 65536


class EventRecord(NamedTuple):
    """One logged event: global offset, user, basket."""

    offset: int
    user_id: int
    basket: Tuple[int, ...]


def _segment_name(start_offset: int) -> str:
    return f"{_SEGMENT_PREFIX}{start_offset:012d}{_SEGMENT_SUFFIX}"


def _segment_start(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])


def _parse_line(line: Union[str, bytes]) -> Optional[EventRecord]:
    line = line.strip()
    if not line:
        return None
    obj = json.loads(line)
    return EventRecord(offset=int(obj["o"]), user_id=int(obj["u"]),
                       basket=tuple(int(item) for item in obj["b"]))


def _recover_segment(segment: Path, last: bool) -> List[EventRecord]:
    """Every record of one segment, checked line by line on reopen.

    An unterminated final line of the ``last`` segment is an append torn
    by a dying writer: it is cut back to the previous newline, so the next
    append starts on a line of its own.  Any other line that does not
    parse raises ``ValueError`` naming the file and line.
    """
    records: List[EventRecord] = []
    complete = 0                 # bytes up to the last newline kept
    with segment.open("rb") as handle:
        for number, line in enumerate(handle, start=1):
            if last and not line.endswith(b"\n"):
                break
            try:
                record = _parse_line(line)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"event log segment {segment}, line "
                                 f"{number}: not an event record "
                                 f"({exc})") from exc
            complete += len(line)
            if record is not None:
                records.append(record)
    if complete < segment.stat().st_size:
        os.truncate(segment, complete)
    return records


class EventLog:
    """Thread-safe append-only event log with segment rotation.

    ``append`` is the serving tee's target (it matches the
    ``event_sink(user_id, basket)`` signature, ignoring the returned
    offset); ``read``/``window`` are the trainer/refresh read side.
    Reopening an existing directory recovers ``next_offset`` from the
    last segment and refills the mirror from the tail — appends resume
    exactly where the previous process stopped.
    """

    def __init__(self, path=None) -> None:
        self.path = None if path is None else Path(path)
        self._lock = threading.Lock()
        self._mirror: Deque[EventRecord] = deque(maxlen=MIRROR_CAPACITY)
        self._next_offset = 0
        self._handle = None          # open file of the current segment
        self._segment_count = 0      # records written to the current segment
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            with self._lock:
                self._recover_locked()

    # -- recovery (constructor only; the lock is not yet shared) ---------
    def _segments(self) -> List[Path]:
        if self.path is None:
            return []
        return sorted(
            (p for p in self.path.glob(
                f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")),
            key=_segment_start)

    def _recover_locked(self) -> None:
        segments = self._segments()
        if not segments:
            return
        tail: Deque[EventRecord] = deque(maxlen=self._mirror.maxlen)
        for segment in segments:
            tail.extend(_recover_segment(segment, segment == segments[-1]))
        if tail:
            self._next_offset = tail[-1].offset + 1
            self._mirror.extend(tail)
        # Continue filling the last segment if it still has room.
        last = segments[-1]
        written = self._next_offset - _segment_start(last)
        if written < SEGMENT_RECORDS:
            self._handle = last.open("a", encoding="utf-8")
            self._segment_count = written

    # -- write side ------------------------------------------------------
    def append(self, user_id: int, basket: Sequence[int]) -> int:
        """Durably record one event; returns its global offset."""
        basket = tuple(int(item) for item in basket)
        with self._lock:
            offset = self._next_offset
            self._next_offset = offset + 1
            record = EventRecord(offset=offset, user_id=int(user_id),
                                 basket=basket)
            self._mirror.append(record)
            if self.path is not None:
                self._write_locked(record)
        return offset

    def _write_locked(self, record: EventRecord) -> None:
        if self._handle is None or self._segment_count >= SEGMENT_RECORDS:
            if self._handle is not None:
                self._handle.close()
            segment = self.path / _segment_name(record.offset)
            self._handle = segment.open("a", encoding="utf-8")
            self._segment_count = 0
        line = json.dumps({"o": record.offset, "u": record.user_id,
                           "b": list(record.basket),
                           "t": round(time.time(), 3)})
        self._handle.write(line + "\n")
        self._handle.flush()
        self._segment_count += 1

    # -- read side -------------------------------------------------------
    @property
    def next_offset(self) -> int:
        """Offset the next append will receive (== total events logged)."""
        with self._lock:
            return self._next_offset

    def read(self, start: int, stop: int) -> List[EventRecord]:
        """Records with ``start <= offset < stop``, in offset order.

        Served from the in-memory mirror when the range is recent enough,
        from disk segments otherwise.  Requesting a range that predates
        the mirror of a memory-only log raises ``ValueError`` (the data
        is gone); ``stop`` past the end is clamped, not an error.
        """
        if start < 0:
            raise ValueError("start offset must be non-negative")
        with self._lock:
            stop = min(stop, self._next_offset)
            if stop <= start:
                return []
            mirror_start = (self._mirror[0].offset if self._mirror
                            else self._next_offset)
            if start >= mirror_start:
                skip = start - mirror_start
                return list(islice(self._mirror, skip,
                                   skip + (stop - start)))
            if self.path is None:
                raise ValueError(
                    f"offsets [{start}, {mirror_start}) were evicted from "
                    f"the in-memory mirror of a memory-only event log")
        # Disk scan outside the lock: segments already written are
        # immutable except the live tail, and the tail range we need
        # ends at a snapshot of next_offset taken under the lock.
        return self._read_disk(start, stop)

    def _read_disk(self, start: int, stop: int) -> List[EventRecord]:
        out: List[EventRecord] = []
        for segment in self._segments():
            seg_start = _segment_start(segment)
            if seg_start >= stop:
                break
            if seg_start + SEGMENT_RECORDS <= start:
                continue
            with segment.open("r", encoding="utf-8") as handle:
                for line in handle:
                    record = _parse_line(line)
                    if record is None or record.offset < start:
                        continue
                    if record.offset >= stop:
                        break
                    out.append(record)
        return out

    def window(self, count: int) -> List[EventRecord]:
        """The most recent ``count`` records (fewer if the log is shorter)."""
        if count < 1:
            return []
        end = self.next_offset
        return self.read(max(0, end - count), end)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
