"""Tests for the content-addressed artifact store."""

import multiprocessing
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.pipeline.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    KindStats,
    StoreStats,
    default_store_dir,
    diff_store_snapshots,
)


class TestAddressing:
    def test_miss_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("cell", ("a", 1)) is None

    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("cell", ("a", 1), {"x": 2})
        assert store.get("cell", ("a", 1)) == {"x": 2}

    def test_numpy_values(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("mapping", "arr", np.arange(5))
        assert np.array_equal(store.get("mapping", "arr"), np.arange(5))

    def test_distinct_keys_distinct_slots(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("cell", ("k", 1), 1)
        store.put("cell", ("k", 2), 2)
        assert store.get("cell", ("k", 1)) == 1
        assert store.get("cell", ("k", 2)) == 2

    def test_same_key_distinct_kinds_distinct_slots(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("mapping", ("k",), "m")
        store.put("trace", ("k",), "t")
        assert store.get("mapping", ("k",)) == "m"
        assert store.get("trace", ("k",)) == "t"

    def test_filenames_carry_kind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("mapping", ("k",), 1)
        names = [p.name for p in tmp_path.glob("*.pkl")]
        assert len(names) == 1 and names[0].startswith("mapping-")

    def test_bad_kind_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="artifact kind"):
            store.path_for("Not-A-Kind!", ("k",))

    def test_memoize_computes_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert store.memoize("cell", "k", compute) == 42
        assert store.memoize("cell", "k", compute) == 42
        assert len(calls) == 1

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_store_dir() == tmp_path / "custom"


class TestSchemaVersioning:
    def test_schema_version_changes_address(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        old = store.path_for("cell", ("k",))
        monkeypatch.setattr("repro.pipeline.store.SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert store.path_for("cell", ("k",)) != old

    def test_stale_schema_artifact_misses_cleanly(self, tmp_path, monkeypatch):
        """An artifact written under an older schema is never served."""
        store = ArtifactStore(tmp_path)
        monkeypatch.setattr("repro.pipeline.store.SCHEMA_VERSION", SCHEMA_VERSION - 1)
        stale_path = store.put("cell", ("k",), "old-value")
        monkeypatch.undo()
        # Different schema -> different address -> a clean miss, no error.
        assert store.get("cell", ("k",)) is None
        assert stale_path.exists()  # left for gc, never addressed again

    def test_wrong_envelope_schema_quarantined(self, tmp_path):
        """Even at the *same* address, a wrong-schema envelope is rejected."""
        store = ArtifactStore(tmp_path)
        path = store.path_for("cell", ("k",))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            pickle.dumps({"schema": SCHEMA_VERSION - 1, "kind": "cell", "value": 1})
        )
        assert store.get("cell", ("k",)) is None
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_legacy_plain_pickle_quarantined(self, tmp_path):
        """A pre-envelope payload (old DiskCache format) at a current
        address is quarantined and recomputed, not surfaced."""
        store = ArtifactStore(tmp_path)
        path = store.path_for("mapping", ("k",))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(np.arange(4)))
        assert store.get("mapping", ("k",)) is None
        assert store.memoize("mapping", ("k",), lambda: "fresh") == "fresh"
        assert store.get("mapping", ("k",)) == "fresh"


class TestCorruption:
    def test_corrupt_file_quarantined_and_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.put("cell", "k", 1)
        path.write_bytes(b"not a pickle")
        assert store.get("cell", "k") is None
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()
        # ... and memoize then transparently refills it.
        assert store.memoize("cell", "k", lambda: 7) == 7
        assert store.get("cell", "k") == 7
        assert store.stats.snapshot()["cell"].quarantined == 1

    def test_truncated_pickle_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.put("cell", "k", {"payload": list(range(1000))})
        path.write_bytes(path.read_bytes()[:20])
        assert store.get("cell", "k") is None
        assert not path.exists()

    def test_unopenable_file_is_a_miss_not_quarantined(self, tmp_path):
        """A slot that cannot be opened (here a directory) is a miss and
        is left in place: an I/O failure says nothing about contents."""
        store = ArtifactStore(tmp_path)
        path = store.path_for("cell", "k")
        path.mkdir(parents=True)
        assert store.get("cell", "k") is None
        assert path.is_dir()
        assert not (tmp_path / "quarantine").exists()
        stats = store.stats.snapshot()["cell"]
        assert (stats.misses, stats.quarantined) == (1, 0)

    def test_unreadable_file_is_a_miss_not_quarantined(self, tmp_path, monkeypatch):
        """A read that fails mid-unpickle is a miss; the file stays."""
        import builtins
        import errno

        from repro.pipeline import store as store_module

        store = ArtifactStore(tmp_path)
        path = store.put("cell", "k", {"payload": list(range(100_000))})

        class FailingHandle:
            def __init__(self, handle):
                self._handle = handle
                self._reads = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def fileno(self):
                return self._handle.fileno()

            def _fail_after_first(self, method, *args):
                self._reads += 1
                if self._reads > 1:
                    raise OSError(errno.EIO, "Input/output error")
                return getattr(self._handle, method)(*args)

            def read(self, *args):
                return self._fail_after_first("read", *args)

            def readinto(self, *args):
                return self._fail_after_first("readinto", *args)

            def readline(self, *args):
                return self._fail_after_first("readline", *args)

        def failing_open(file, mode="r", *args, **kwargs):
            return FailingHandle(builtins.open(file, mode, *args, **kwargs))

        monkeypatch.setattr(store_module, "open", failing_open, raising=False)
        assert store.get("cell", "k") is None
        monkeypatch.undo()
        assert path.exists()
        assert not (tmp_path / "quarantine").exists()
        stats = store.stats.snapshot()["cell"]
        assert (stats.hits, stats.misses, stats.quarantined) == (0, 1, 0)
        assert store.get("cell", "k") == {"payload": list(range(100_000))}

    def test_byte_counts_are_file_sizes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        value = {"blocks": np.arange(50_000, dtype=np.uint32), "n": 3}
        path = store.put("trace", "k", value)
        got = store.get("trace", "k")
        assert got["n"] == 3 and np.array_equal(got["blocks"], value["blocks"])
        stats = store.stats.snapshot()["trace"]
        size = path.stat().st_size
        assert stats.bytes_written == stats.bytes_read == size
        assert size == len(
            pickle.dumps(
                {"schema": SCHEMA_VERSION, "kind": "trace", "value": value},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )

    def test_unpicklable_reference_treated_as_miss(self, tmp_path):
        """A pickle referencing a class that no longer exists is a miss."""
        store = ArtifactStore(tmp_path)
        path = store.put("cell", "k", KindStats())
        bad = path.read_bytes().replace(b"KindStats", b"GoneClass")
        path.write_bytes(bad)
        assert store.get("cell", "k") is None

    def test_wrong_kind_envelope_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for("cell", "k")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            pickle.dumps({"schema": SCHEMA_VERSION, "kind": "trace", "value": 1})
        )
        assert store.get("cell", "k") is None

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(5):
            store.put("cell", ("k", i), i)
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".*.tmp")) == []


def _race_writer(args):
    """Cross-process worker: hammer one key with put/get cycles."""
    directory, worker_id = args
    store = ArtifactStore(directory)
    value = {"arr": np.arange(2000), "worker": None}
    ok = True
    for _ in range(20):
        store.put("mapping", "shared", value)
        got = store.get("mapping", "shared")
        ok = ok and got is not None and np.array_equal(got["arr"], value["arr"])
    return ok


class TestConcurrency:
    def test_concurrent_threads_same_key(self, tmp_path):
        """Racing threads never corrupt the slot (atomic publish)."""
        store = ArtifactStore(tmp_path)
        value = {"arr": np.arange(2000)}

        def hammer(_):
            for _ in range(20):
                store.put("cell", "shared", value)
                got = store.get("cell", "shared")
                assert got is None or np.array_equal(got["arr"], value["arr"])

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert np.array_equal(store.get("cell", "shared")["arr"], value["arr"])
        assert list(tmp_path.glob("*.tmp")) == []

    def test_cross_process_same_key_single_valid_artifact(self, tmp_path):
        """Concurrent same-key writers across processes leave exactly one
        valid, atomically published artifact and no debris."""
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(4) as pool:
            results = pool.map(_race_writer, [(str(tmp_path), i) for i in range(4)])
        assert all(results)
        files = list(tmp_path.glob("*.pkl"))
        assert len(files) == 1  # one key -> one slot, however many writers
        assert list(tmp_path.glob("*.tmp")) == []
        assert not (tmp_path / "quarantine").exists()
        store = ArtifactStore(tmp_path)
        got = store.get("mapping", "shared")
        assert np.array_equal(got["arr"], np.arange(2000))


class TestMaintenance:
    def test_ls_newest_first_and_kinds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("mapping", "a", 1)
        store.put("trace", "b", 2)
        (tmp_path / "stray.bin").write_bytes(b"x")
        infos = store.ls()
        assert {i.kind for i in infos} == {"mapping", "trace", "(legacy)"}
        assert [i.mtime for i in infos] == sorted(
            (i.mtime for i in infos), reverse=True
        )

    def test_total_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        p1 = store.put("cell", "a", list(range(100)))
        p2 = store.put("cell", "b", list(range(200)))
        assert store.total_bytes() == p1.stat().st_size + p2.stat().st_size

    def test_gc_to_budget_evicts_oldest_first(self, tmp_path):
        import os
        import time

        store = ArtifactStore(tmp_path)
        old = store.put("cell", "old", b"x" * 4000)
        new = store.put("cell", "new", b"y" * 4000)
        past = time.time() - 100
        os.utime(old, (past, past))
        summary = store.gc(max_bytes=5000)
        assert summary["removed"] == 1
        assert not old.exists() and new.exists()
        assert summary["remaining_bytes"] <= 5000

    def test_gc_removes_quarantine_and_legacy(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.put("cell", "k", 1)
        path.write_bytes(b"garbage")
        assert store.get("cell", "k") is None  # quarantines
        (tmp_path / "legacy.pkl").write_bytes(b"old")
        summary = store.gc(max_bytes=10**9)
        assert summary["removed"] == 2
        assert not (tmp_path / "quarantine").exists()
        assert not (tmp_path / "legacy.pkl").exists()

    def test_clear_empties_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(3):
            store.put("cell", i, i)
        assert store.clear() == 3
        assert store.ls() == []


class TestStats:
    def test_counters_track_operations(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get("cell", "k")  # miss
        store.put("cell", "k", 1)  # store
        store.get("cell", "k")  # hit
        s = store.stats.snapshot()["cell"]
        assert (s.hits, s.misses, s.stores) == (1, 1, 1)
        assert s.bytes_written > 0 and s.bytes_read == s.bytes_written

    def test_snapshot_diff_merge_roundtrip(self):
        stats = StoreStats()
        stats.record_miss("trace")
        before = stats.snapshot()
        stats.record_hit("trace", 10)
        stats.record_store("mapping", 5)
        delta = diff_store_snapshots(stats.snapshot(), before)
        assert delta["trace"].hits == 1 and delta["trace"].misses == 0
        assert delta["mapping"].stores == 1
        other = StoreStats()
        other.merge(delta)
        assert other.as_dict() == {
            "mapping": KindStats(stores=1, bytes_written=5).as_dict(),
            "trace": KindStats(hits=1, bytes_read=10).as_dict(),
        }

    def test_reset(self):
        stats = StoreStats()
        stats.record_miss("cell")
        stats.reset()
        assert stats.as_dict() == {}
