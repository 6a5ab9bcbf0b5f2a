"""Tracer unit tests: span nesting, the event stream, worker merging."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.observability.tracing import MAX_BUFFERED_EVENTS, Tracer


@pytest.fixture
def tracer():
    return Tracer()


class TestSpans:
    def test_span_records_wall_and_cpu(self, tracer):
        with tracer.span("work") as span:
            sum(range(10_000))
        assert span.wall_s >= 0
        assert span.cpu_s >= 0
        (event,) = tracer.snapshot()
        assert event["type"] == "span"
        assert event["name"] == "work"
        assert event["wall_s"] == span.wall_s

    def test_nesting_links_parent_ids(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        events = {e["name"]: e for e in tracer.snapshot()}
        # Children finish (and emit) before their parents.
        assert events["inner"]["parent_id"] == events["outer"]["span_id"]

    def test_tags_survive_to_event(self, tracer):
        with tracer.span("mapping", dataset="lj", technique="DBG"):
            pass
        (event,) = tracer.snapshot()
        assert event["tags"] == {"dataset": "lj", "technique": "DBG"}

    def test_exception_tags_error_and_reraises(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("nope")
        (event,) = tracer.snapshot()
        assert event["tags"]["error"] == "ValueError"

    def test_point_events_attach_to_current_span(self, tracer):
        with tracer.span("stage") as span:
            tracer.event("cache_hit", kind="cache_hit")
        hit, stage = tracer.snapshot()
        assert hit["type"] == "event"
        assert hit["parent_id"] == span.span_id
        assert stage["type"] == "span"

    def test_rss_is_current_not_a_high_water_mark(self, tracer):
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("no /proc/self/statm")
        with tracer.span("holding") as holding:
            block = np.ones(100 * 2**20, dtype=np.uint8)  # touched: resident
        del block
        with tracer.span("freed") as freed:
            pass
        assert holding.rss_kb - freed.rss_kb >= 50 * 1024
        events = {e["name"]: e for e in tracer.snapshot()}
        assert events["freed"]["rss_kb"] == freed.rss_kb

    def test_threads_have_independent_stacks(self, tracer):
        seen = {}

        def worker():
            with tracer.span("in-thread") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The thread's span must NOT parent onto the main thread's span.
        assert seen["parent"] is None


class TestStream:
    def test_drain_empties_buffer(self, tracer):
        tracer.event("a")
        tracer.event("b")
        drained = tracer.drain()
        assert [e["name"] for e in drained] == ["a", "b"]
        assert tracer.snapshot() == []

    def test_merge_reinjects_worker_events(self, tracer):
        worker = Tracer()
        worker.event("from-worker", n=1)
        tracer.merge(worker.drain())
        (event,) = tracer.snapshot()
        assert event["name"] == "from-worker"

    def test_subscriber_sees_events_and_can_leave(self, tracer):
        got = []
        tracer.subscribe(got.append)
        tracer.event("one")
        tracer.unsubscribe(got.append)
        tracer.event("two")
        assert [e["name"] for e in got] == ["one"]

    def test_buffer_cap_drops_oldest_and_counts(self, tracer):
        for i in range(MAX_BUFFERED_EVENTS + 10):
            tracer.event("e", i=i)
        events = tracer.snapshot()
        assert len(events) == MAX_BUFFERED_EVENTS
        assert tracer.dropped == 10
        # The oldest events are the ones sacrificed.
        assert events[0]["tags"]["i"] == 10

    def test_reset_clears_everything(self, tracer):
        tracer.event("x")
        tracer.reset()
        assert tracer.snapshot() == []
        assert tracer.dropped == 0


class TestForkSafety:
    def test_reanchor_isolates_child_state(self, tracer):
        tracer.event("parent-buffered")
        tracer.subscribe(lambda e: None)
        tracer._reanchor()
        # A "forked child" must not re-ship the parent's events nor write
        # into the parent's subscribers (an inherited open file handle).
        assert tracer.snapshot() == []
        assert tracer._subscribers == []

    def test_wall_anchored_timestamps_are_epoch_like(self, tracer):
        import time

        tracer.event("now")
        (event,) = tracer.snapshot()
        assert abs(event["ts"] - time.time()) < 60

    def test_span_ids_carry_pid(self, tracer):
        with tracer.span("s") as span:
            pass
        assert span.span_id.startswith(f"{os.getpid():x}-")
