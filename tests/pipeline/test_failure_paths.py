"""Failure-path hardening: the pipeline degrades, it does not crash.

Three failure families, each asserted end to end:

* **corrupt artifacts** — truncated or garbage pickles in the store are
  quarantined on read, the slot recomputes cleanly, and the observed
  run's event log records the quarantine;
* **worker exceptions** — an exception raised inside a parallel grid
  worker propagates to the caller *and* the run manifest records which
  scheduler phase failed (status ``failed``, not a half-written run);
* **full disk** — an ``OSError`` (ENOSPC) during ``put`` turns the
  store cache-less for that artifact: the computed value is still
  returned, ``put_errors`` is counted, a ``store_put_error`` event is
  emitted, and a later retry with a healthy disk persists normally.
"""

from __future__ import annotations

import errno
import multiprocessing
import pickle

import pytest

from repro import observability
from repro.pipeline import ArtifactStore, CellPipeline, ExperimentConfig, run_grid
from repro.pipeline.store import SCHEMA_VERSION

only_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatching into grid workers requires fork start method",
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def run(tmp_path):
    with observability.start_run(tmp_path / "runs", run_id="failure-test") as ctx:
        yield ctx


class TestCorruptArtifacts:
    def test_truncated_pickle_quarantined_and_recomputed(self, store, run):
        path = store.put("mapping", "k1", {"value": 1})
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        assert store.get("mapping", "k1") is None
        assert store.stats.snapshot()["mapping"].quarantined == 1
        assert not path.exists()
        assert list((store.directory / "quarantine").iterdir())

        # The slot is free again: a clean retry stores and reads back.
        assert store.memoize("mapping", "k1", lambda: {"value": 2}) == {"value": 2}
        assert store.get("mapping", "k1") == {"value": 2}

    def test_garbage_bytes_quarantined(self, store):
        path = store.path_for("trace", "k2")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"this is not a pickle")
        assert store.get("trace", "k2") is None
        assert store.stats.snapshot()["trace"].quarantined == 1

    def test_wrong_schema_quarantined(self, store):
        path = store.path_for("cell", "k3")
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"schema": SCHEMA_VERSION - 1, "kind": "cell", "value": 7}
        path.write_bytes(pickle.dumps(envelope))
        assert store.get("cell", "k3") is None
        assert store.stats.snapshot()["cell"].quarantined == 1

    def test_quarantine_recorded_in_event_log(self, store, run):
        path = store.put("mapping", "k4", [1, 2, 3])
        path.write_bytes(b"garbage")
        store.get("mapping", "k4")
        run.finish()
        kinds = [
            event["name"]
            for event in observability.iter_events(run.run_dir)
            if event.get("tags", {}).get("kind") == "store_error"
        ]
        assert "store_quarantine" in kinds


class TestFullDisk:
    @pytest.fixture
    def broken_disk(self, monkeypatch):
        def explode(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.pipeline.store.os.replace", explode)

    def test_put_failure_returns_value_and_counts(self, store, broken_disk):
        assert store.put("mapping", "k", {"v": 1}) is None
        # memoize still hands the computed value back to the caller.
        assert store.memoize("trace", "k", lambda: 41) == 41
        snap = store.stats.snapshot()
        assert snap["mapping"].put_errors == 1
        assert snap["trace"].put_errors == 1
        assert snap["mapping"].stores == 0
        # No tmp-file debris left behind in the store directory.
        assert not list(store.directory.glob("*.tmp*"))

    def test_put_failure_emits_event_and_retry_recovers(
        self, store, run, monkeypatch
    ):
        import os as real_os

        calls = {"n": 0}
        real_replace = real_os.replace

        def flaky(src, dst):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.pipeline.store.os.replace", flaky)
        run.attach_store(store)
        assert store.put("cell", "k", 1) is None
        assert store.put("cell", "k", 1) is not None  # disk recovered
        assert store.get("cell", "k") == 1
        run.finish()
        names = [e["name"] for e in observability.iter_events(run.run_dir)]
        assert "store_put_error" in names
        manifest = observability.load_manifest(run.run_dir)
        assert manifest["store"]["kinds"]["cell"]["put_errors"] == 1


@only_fork
class TestWorkerFailure:
    def test_worker_exception_propagates_and_manifest_records_phase(
        self, tmp_path, monkeypatch
    ):
        # Forked workers inherit the patched technique, so the mapping
        # phase blows up inside a real child process.
        def boom(self, graph):
            raise RuntimeError("injected mapping failure")

        from repro.reorder.dbg import DBG

        monkeypatch.setattr(DBG, "compute_mapping", boom)
        pipeline = CellPipeline(
            ExperimentConfig(scale=0.15, num_roots=1),
            store=ArtifactStore(tmp_path / "store"),
        )
        with observability.start_run(tmp_path / "runs", run_id="worker-fail") as run:
            with pytest.raises(RuntimeError, match="injected mapping failure"):
                run_grid(pipeline, ["PR"], ["wl"], ["DBG"], workers=2)
        manifest = observability.load_manifest(run.run_dir)
        assert manifest["status"] == "failed"
        phases = [f["phase"] for f in manifest["failures"]]
        assert "mapping" in phases
        assert any("injected mapping failure" in f["detail"] for f in manifest["failures"])

    def test_serial_grid_failure_also_recorded(self, tmp_path, monkeypatch):
        def boom(self, graph):
            raise RuntimeError("injected serial failure")

        from repro.reorder.dbg import DBG

        monkeypatch.setattr(DBG, "compute_mapping", boom)
        pipeline = CellPipeline(
            ExperimentConfig(scale=0.15, num_roots=1),
            store=ArtifactStore(tmp_path / "store"),
        )
        with observability.start_run(tmp_path / "runs", run_id="serial-fail") as run:
            with pytest.raises(RuntimeError):
                run_grid(pipeline, ["PR"], ["wl"], ["DBG"], workers=1)
        manifest = observability.load_manifest(run.run_dir)
        assert manifest["status"] == "failed"
        assert manifest["failures"]

    def test_clean_grid_after_failure_reuses_store(self, tmp_path, monkeypatch):
        """A crashed grid leaves the store consistent: rerunning succeeds."""
        from repro.reorder.dbg import DBG

        real = DBG.compute_mapping

        def boom(self, graph):
            raise RuntimeError("transient")

        store_dir = tmp_path / "store"
        pipeline = CellPipeline(
            ExperimentConfig(scale=0.15, num_roots=1),
            store=ArtifactStore(store_dir),
        )
        monkeypatch.setattr(DBG, "compute_mapping", boom)
        with pytest.raises(RuntimeError):
            run_grid(pipeline, ["PR"], ["wl"], ["DBG"], workers=2)
        monkeypatch.setattr(DBG, "compute_mapping", real)
        retry = CellPipeline(
            ExperimentConfig(scale=0.15, num_roots=1),
            store=ArtifactStore(store_dir),
        )
        results = run_grid(retry, ["PR"], ["wl"], ["DBG"], workers=2)
        assert results
