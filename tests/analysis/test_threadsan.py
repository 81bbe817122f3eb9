"""Tests for the runtime thread sanitizer (`repro.analysis.threadsan`).

The seeded lock-inversion fixture shared with the static CL004 tests must
be caught dynamically too, with both acquisition stacks attributed; the
long-hold and torn-read detectors get direct unit coverage; and restore()
must put the original primitives back.
"""

import threading
import time

import pytest

from repro.analysis import (LockProxy, ThreadSanitizer, concurrency,
                            threadsan)

from .inversion_fixture import InvertedPair


def run_in_thread(fn):
    error = []

    def target():
        try:
            fn()
        except BaseException as exc:  # pragma: no cover - surfaced below
            error.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "test thread wedged"
    if error:
        raise error[0]


# ----------------------------------------------------------------------
# lock-order inversion
# ----------------------------------------------------------------------
def test_seeded_inversion_fixture_is_detected():
    """The MUST-detect acceptance case: InvertedPair trips threadsan, and
    the finding carries the stacks of both acquiring sites."""
    pair = InvertedPair()
    with threadsan() as san:
        san.instrument(pair, "_alpha", "_beta")
        run_in_thread(pair.ab)
        run_in_thread(pair.ba)
        findings = san.findings
    inversions = [f for f in findings if f.kind == "lock-inversion"]
    assert len(inversions) == 1
    finding = inversions[0]
    assert "InvertedPair._alpha" in finding.message
    assert "InvertedPair._beta" in finding.message
    # Attribution: the offending stack is the second ordering (ba), the
    # conflicting stack is the first (ab).
    assert "in ba" in finding.where
    assert "in ab" in finding.also


def test_inversion_detected_single_threaded():
    """Order discipline is checked even when no deadlock actually fires."""
    pair = InvertedPair()
    with threadsan() as san:
        san.instrument(pair, "_alpha", "_beta")
        pair.ab()
        pair.ba()
        assert [f.kind for f in san.findings] == ["lock-inversion"]


def test_inversion_reported_once_per_pair():
    pair = InvertedPair()
    with threadsan() as san:
        san.instrument(pair, "_alpha", "_beta")
        for _ in range(5):
            pair.ab()
            pair.ba()
        assert len(san.findings) == 1


def test_consistent_order_is_clean():
    pair = InvertedPair()
    with threadsan() as san:
        san.instrument(pair, "_alpha", "_beta")
        for _ in range(5):
            pair.ab()
        assert san.findings == []


# ----------------------------------------------------------------------
# long hold
# ----------------------------------------------------------------------
def test_long_hold_detected_with_acquisition_stack(monkeypatch):
    monkeypatch.setattr(concurrency, "LONG_HOLD_MS", 5.0)
    with threadsan() as san:
        lock = san.wrap_lock(threading.Lock(), "slow_lock")
        with lock:
            time.sleep(0.03)
        findings = san.findings
    assert [f.kind for f in findings] == ["long-hold"]
    assert "slow_lock" in findings[0].message
    assert "test_long_hold_detected" in findings[0].where


def test_fast_hold_is_clean(monkeypatch):
    monkeypatch.setattr(concurrency, "LONG_HOLD_MS", 500.0)
    with threadsan() as san:
        lock = san.wrap_lock(threading.Lock(), "fast_lock")
        with lock:
            pass
        assert san.findings == []


def test_condition_wait_does_not_count_as_holding(monkeypatch):
    """Condition.wait releases the lock; waiting must not be a long hold."""
    monkeypatch.setattr(concurrency, "LONG_HOLD_MS", 20.0)
    with threadsan() as san:
        cond = san.wrap_lock(threading.Condition(), "cond")
        with cond:
            cond.wait(timeout=0.08)   # 4x the threshold, but not *holding*
        assert san.findings == []


def test_rlock_reentry_is_not_an_edge_or_double_release():
    with threadsan() as san:
        rlock = san.wrap_lock(threading.RLock(), "re_lock")
        with rlock:
            with rlock:
                pass
            # Still held here: depth bookkeeping must survive re-entry.
            assert rlock.wrapped._is_owned()
        assert san.findings == []


# ----------------------------------------------------------------------
# torn reads (generation shadow checking)
# ----------------------------------------------------------------------
def test_generation_regression_on_one_thread_is_torn_read():
    with threadsan() as san:
        san.observe_generation("reg", 3, fingerprint=id(object()))
        san.observe_generation("reg", 2, fingerprint=id(object()))
        findings = san.findings
    assert [f.kind for f in findings] == ["torn-read"]
    assert "3 -> 2" in findings[0].message


def test_same_generation_different_identity_is_torn_read():
    with threadsan() as san:
        san.observe_generation("reg", 7, fingerprint=1111)
        san.observe_generation("reg", 7, fingerprint=2222)
        findings = san.findings
    assert [f.kind for f in findings] == ["torn-read"]
    assert "generation 7" in findings[0].message


def test_monotonic_generations_across_threads_are_clean():
    """Per-thread monotonicity only: one thread seeing gen 5 then another
    thread seeing gen 4 is scheduling, not a torn read."""
    with threadsan() as san:
        san.observe_generation("reg", 5, fingerprint=5)
        run_in_thread(lambda: san.observe_generation("reg", 4,
                                                     fingerprint=4))
        assert san.findings == []


# ----------------------------------------------------------------------
# instrumentation + restore
# ----------------------------------------------------------------------
def test_wrap_lock_is_idempotent():
    san = ThreadSanitizer()
    lock = san.wrap_lock(threading.Lock(), "x")
    assert san.wrap_lock(lock, "y") is lock


def test_instrument_and_restore_roundtrip():
    pair = InvertedPair()
    original_alpha = pair._alpha
    with threadsan() as san:
        san.instrument(pair, "_alpha", "_beta")
        assert isinstance(pair._alpha, LockProxy)
        assert pair._alpha.wrapped is original_alpha
        pair.ab()
    assert pair._alpha is original_alpha
    assert not isinstance(pair._beta, LockProxy)
    # The fixture still works un-instrumented.
    assert pair.ab() == 2


def test_instrument_app_wires_the_serving_stack():
    from repro.serve import ServeApp

    app = ServeApp(max_wait_ms=0.0)
    try:
        with threadsan() as san:
            san.instrument_app(app)
            assert isinstance(app.registry._lock, LockProxy)
            assert isinstance(app.sessions._lock, LockProxy)
            assert isinstance(app.batcher._nonempty, LockProxy)
            assert isinstance(app.metrics._lock, LockProxy)
            assert isinstance(app._pop_lock, LockProxy)
            status, _, _ = app.handle("GET", "/healthz")
            assert status == 200
            assert san.findings == []
        assert not isinstance(app.registry._lock, LockProxy)
        assert not isinstance(app._pop_lock, LockProxy)
    finally:
        app.close()


def test_render_report_mentions_kind_and_site():
    pair = InvertedPair()
    with threadsan() as san:
        san.instrument(pair, "_alpha", "_beta")
        pair.ab()
        pair.ba()
    report = san.render_report()
    assert "lock-inversion" in report
    assert "offending site" in report
    assert "conflicting site" in report
    assert "1 finding(s)" in report


def test_clean_report_text():
    with threadsan() as san:
        pass
    assert san.render_report() == "threadsan: no findings"
