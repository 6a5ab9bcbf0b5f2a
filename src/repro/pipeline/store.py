"""The unified content-addressed artifact store behind the pipeline.

Every persisted intermediate of the experiment pipeline — reordering
mappings, built application traces, finished cell results — lives in one
:class:`ArtifactStore` instead of the historical trio of mechanisms (the
keyed ``DiskCache``, the bespoke ``AppTrace`` memoization inside the
experiment runner, and per-runner in-memory caches).  One store means
one addressing scheme, one atomicity story, one statistics surface and
one CLI (``repro-cache``) for the whole grid.

Addressing
----------
An artifact is identified by a *kind* (the pipeline stage family that
produces it: ``"mapping"``, ``"trace"``, ``"cell"``) plus an arbitrary
repr-able *key*.  The on-disk name is ``{kind}-{sha256(key)[:32]}.pkl``
with :data:`SCHEMA_VERSION` folded into the hash, so

* two processes computing the same stage derive the same path and
  last-write-win with identical content;
* bumping the schema version makes *every* stale artifact miss cleanly —
  files written by older formats are simply never addressed, instead of
  surfacing unpickle or shape errors mid-campaign.

Durability
----------
Writes pickle straight into a uniquely named temp file in the store
directory, published with an atomic ``os.replace``; readers never
observe partial pickles, and unpickle straight from the file, so no
artifact is copied through an intermediate ``bytes``.  Every payload
travels in a small envelope carrying its schema version and kind — a
file that fails to unpickle, decodes to a foreign object, or carries the
wrong schema/kind is *quarantined* (moved under ``quarantine/``) and
reported as a miss, so the slot is recomputed and the evidence kept for
inspection.  A file that cannot be opened or read is a plain miss and
stays where it is: an I/O failure says nothing about its contents.

Statistics and GC
-----------------
The store counts hits / misses / stores / quarantines and bytes moved,
per kind (:class:`StoreStats`).  The parallel grid scheduler ships each
worker's deltas back to the parent, so a grid reports one coherent
"was anything recomputed?" answer no matter how stages were distributed
— CI's warm-grid job asserts zero recomputes this way.  :meth:`ArtifactStore.gc`
evicts oldest-first down to a byte budget; ``repro-cache`` exposes
``ls`` / ``stats`` / ``gc`` / ``clear`` over all of it.

Namespaces
----------
A store optionally serves *tenants*: :meth:`ArtifactStore.namespaced`
returns a view over the same root whose artifacts live under
``ns/<tenant>/`` with the identical addressing scheme.  The root
namespace holds artifacts shared by everyone (generator-spec graphs and
their derived stages); tenant namespaces isolate private uploads and
their derived artifacts.  Accounting (:meth:`ArtifactStore.usage`) and
eviction (:meth:`ArtifactStore.gc` with ``namespace=`` / ``keep_kinds=``)
are namespace-aware, so one tenant's eviction pressure cannot purge
another tenant's — or the shared tier's — hot artifacts.  All views of
one root share a single :class:`StoreStats`, so hit/miss accounting
stays coherent no matter which namespace served a request.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import re
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.observability.tracing import TRACER

__all__ = [
    "SCHEMA_VERSION",
    "NAMESPACE_DIR",
    "KindStats",
    "StoreStats",
    "diff_store_snapshots",
    "ArtifactInfo",
    "ArtifactStore",
    "default_store_dir",
]

#: Folded into every artifact address; bump whenever a change invalidates
#: previously persisted artifacts (continues the old DiskCache lineage).
#: v11: cell keys grew the replacement-policy token (policy registry).
#: v12: traces store uint32 blocks, uint8 cores and an access total
#: (6 bytes per run) instead of per-run int64 counts.
SCHEMA_VERSION = 12

#: On-disk artifact name: ``{kind}-{digest}.pkl``.
_ARTIFACT_RE = re.compile(r"^([a-z][a-z0-9_]*)-([0-9a-f]{32})\.pkl$")
_KIND_RE = re.compile(r"^[a-z][a-z0-9_]*$")
#: Tenant namespace names (directory-safe lowercase tokens).
_NAMESPACE_RE = re.compile(r"^[a-z0-9][a-z0-9_.-]{0,63}$")

#: Subdirectory of the store root holding the tenant namespaces.
NAMESPACE_DIR = "ns"

#: Everything that can surface when unpickling a damaged or alien file.
_CORRUPT_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    MemoryError,
    ValueError,
    struct.error,
)


class _Unreadable(Exception):
    """An artifact file that could not be opened or read: a miss, not
    evidence of corruption."""


class _Reader:
    """The file handle :func:`pickle.load` reads, with every read failure
    raised as :class:`_Unreadable`, so I/O errors are told apart from
    bytes that do not decode."""

    __slots__ = ("_handle",)

    def __init__(self, handle) -> None:
        self._handle = handle

    def read(self, size: int = -1) -> bytes:
        try:
            return self._handle.read(size)
        except OSError as exc:
            raise _Unreadable from exc

    def readinto(self, buffer) -> int:
        try:
            return self._handle.readinto(buffer)
        except OSError as exc:
            raise _Unreadable from exc

    def readline(self) -> bytes:
        try:
            return self._handle.readline()
        except OSError as exc:
            raise _Unreadable from exc


def _load(path: Path) -> tuple[object, int]:
    """Unpickle ``path`` straight from the file, with its size in bytes.

    Raises :class:`_Unreadable` if the file cannot be opened or read;
    bytes that do not decode raise what unpickling raises.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise _Unreadable from exc
    with handle:
        try:
            nbytes = os.fstat(handle.fileno()).st_size
        except OSError as exc:
            raise _Unreadable from exc
        return pickle.load(_Reader(handle)), nbytes


def default_store_dir() -> Path:
    """Resolve the store directory (env override, else repo-local)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.cwd() / ".repro_cache"


@dataclass
class KindStats:
    """Store activity counters for one artifact kind."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    #: Publishes that failed at the filesystem (e.g. full disk); the
    #: computed value is still returned to the caller, so a sick disk
    #: degrades to cache-less operation instead of killing the campaign.
    put_errors: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "put_errors": self.put_errors,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


class StoreStats:
    """Lock-guarded per-kind :class:`KindStats` accumulators.

    Counters are process-local; the grid scheduler snapshots them around
    each worker job and merges the deltas into the parent's store.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: dict[str, KindStats] = {}

    def _bump(self, kind: str, **deltas: int) -> None:
        with self._lock:
            stats = self._kinds.setdefault(kind, KindStats())
            for name, delta in deltas.items():
                setattr(stats, name, getattr(stats, name) + delta)

    def record_hit(self, kind: str, nbytes: int) -> None:
        self._bump(kind, hits=1, bytes_read=nbytes)

    def record_miss(self, kind: str) -> None:
        self._bump(kind, misses=1)

    def record_store(self, kind: str, nbytes: int) -> None:
        self._bump(kind, stores=1, bytes_written=nbytes)

    def record_quarantine(self, kind: str) -> None:
        self._bump(kind, quarantined=1)

    def record_put_error(self, kind: str) -> None:
        self._bump(kind, put_errors=1)

    def snapshot(self) -> dict[str, KindStats]:
        """Copy of the per-kind counters accumulated so far."""
        with self._lock:
            return {kind: KindStats(**s.as_dict()) for kind, s in self._kinds.items()}

    def merge(self, delta: dict[str, KindStats]) -> None:
        """Fold another snapshot (e.g. from a grid worker) into this one."""
        for kind, s in delta.items():
            self._bump(kind, **s.as_dict())

    def reset(self) -> None:
        with self._lock:
            self._kinds.clear()

    def as_dict(self) -> dict:
        return {kind: s.as_dict() for kind, s in sorted(self.snapshot().items())}


def diff_store_snapshots(
    after: dict[str, KindStats], before: dict[str, KindStats]
) -> dict[str, KindStats]:
    """Per-kind difference ``after - before`` (for worker job deltas)."""
    delta: dict[str, KindStats] = {}
    for kind, s in after.items():
        b = before.get(kind, KindStats())
        fields = {
            name: value - getattr(b, name) for name, value in s.as_dict().items()
        }
        if any(fields.values()):
            delta[kind] = KindStats(**fields)
    return delta


@dataclass(frozen=True)
class ArtifactInfo:
    """Directory-listing entry for one on-disk artifact."""

    path: Path
    kind: str  #: parsed from the filename; ``"(legacy)"`` for foreign files
    nbytes: int
    mtime: float
    #: Tenant namespace the artifact lives in (``None`` = shared root).
    namespace: str | None = None


class ArtifactStore:
    """Atomic, schema-versioned, corruption-tolerant artifact storage."""

    def __init__(
        self,
        directory: Path | str | None = None,
        namespace: str | None = None,
        stats: StoreStats | None = None,
    ) -> None:
        self.root = Path(directory) if directory else default_store_dir()
        if namespace is not None and not _NAMESPACE_RE.match(namespace):
            raise ValueError(
                f"bad store namespace {namespace!r} (want [a-z0-9][a-z0-9_.-]*)"
            )
        self.namespace = namespace
        self.directory = (
            self.root / NAMESPACE_DIR / namespace if namespace else self.root
        )
        self.stats = stats if stats is not None else StoreStats()

    def namespaced(self, namespace: str | None) -> "ArtifactStore":
        """A view over the same root rooted at a tenant namespace.

        The view shares this store's :class:`StoreStats`, so hit/miss
        accounting stays coherent across namespaces; ``None`` returns a
        shared-root view.
        """
        return ArtifactStore(self.root, namespace=namespace, stats=self.stats)

    # -- addressing ----------------------------------------------------------
    def path_for(self, kind: str, key: object) -> Path:
        """Deterministic content address of ``(kind, key)``."""
        if not _KIND_RE.match(kind):
            raise ValueError(f"bad artifact kind {kind!r} (want [a-z][a-z0-9_]*)")
        digest = hashlib.sha256(
            repr((SCHEMA_VERSION, kind, key)).encode()
        ).hexdigest()[:32]
        return self.directory / f"{kind}-{digest}.pkl"

    # -- get/put -------------------------------------------------------------
    def get(self, kind: str, key: object, *, _path: Path | None = None):
        """Return the stored value, or ``None`` (quarantining bad files).

        ``_path`` is ``path_for(kind, key)`` when the caller already
        derived it (the serving layer names the artifact in its reply),
        so the address is hashed once per request.
        """
        path = self.path_for(kind, key) if _path is None else _path
        try:
            envelope, nbytes = _load(path)
        except _Unreadable:
            self.stats.record_miss(kind)
            return None
        except _CORRUPT_ERRORS:
            envelope = None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != SCHEMA_VERSION
            or envelope.get("kind") != kind
            or "value" not in envelope
        ):
            # Truncated, garbage, or older-format payload: quarantine it so
            # the slot is recomputed cleanly and the evidence is kept.
            self._quarantine(path)
            self.stats.record_quarantine(kind)
            self.stats.record_miss(kind)
            TRACER.event(
                "store_quarantine",
                kind="store_error",
                artifact_kind=kind,
                file=path.name,
            )
            return None
        self.stats.record_hit(kind, nbytes)
        return envelope["value"]

    def put(self, kind: str, key: object, value) -> Path | None:
        """Store a value (unique temp + atomic rename; race-safe).

        A publish that fails at the filesystem — full disk, read-only
        mount, permissions — is *recorded* (``put_errors`` counter plus
        a ``store_put_error`` trace event) and returns ``None`` instead
        of raising: the caller already holds the computed value, so the
        right degradation is to keep running without the cache slot and
        let the run manifest surface the sick store.
        """
        path = self.path_for(kind, key)
        envelope = {"schema": SCHEMA_VERSION, "kind": kind, "value": value}
        tmp = path.with_name(f".{path.stem}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
                nbytes = handle.tell()
            os.replace(tmp, path)
        except OSError as exc:
            self.stats.record_put_error(kind)
            TRACER.event(
                "store_put_error",
                kind="store_error",
                artifact_kind=kind,
                error=f"{type(exc).__name__}: {exc}",
            )
            return None
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        self.stats.record_store(kind, nbytes)
        return path

    def memoize(self, kind: str, key: object, compute):
        """Return the stored value for the slot or compute, store, return."""
        hit = self.get(kind, key)
        if hit is not None:
            return hit
        value = compute()
        self.put(kind, key, value)
        return value

    def _quarantine(self, path: Path) -> None:
        """Move a bad file out of the addressable namespace (best-effort)."""
        target_dir = self.directory / "quarantine"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    # -- maintenance ---------------------------------------------------------
    def _ls_dir(self, directory: Path, namespace: str | None) -> list[ArtifactInfo]:
        entries: list[ArtifactInfo] = []
        if not directory.is_dir():
            return entries
        for path in directory.iterdir():
            if not path.is_file():
                continue
            match = _ARTIFACT_RE.match(path.name)
            kind = match.group(1) if match else "(legacy)"
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append(
                ArtifactInfo(path, kind, stat.st_size, stat.st_mtime, namespace)
            )
        return entries

    def ls(self) -> list[ArtifactInfo]:
        """Files in this store view's directory, newest first."""
        entries = self._ls_dir(self.directory, self.namespace)
        entries.sort(key=lambda e: e.mtime, reverse=True)
        return entries

    def namespaces(self) -> list[str]:
        """Tenant namespaces present under the store root."""
        base = self.root / NAMESPACE_DIR
        if not base.is_dir():
            return []
        return sorted(p.name for p in base.iterdir() if p.is_dir())

    def ls_all(self) -> list[ArtifactInfo]:
        """Artifacts across the shared root and every tenant namespace."""
        entries = self._ls_dir(self.root, None)
        for ns in self.namespaces():
            entries.extend(self._ls_dir(self.root / NAMESPACE_DIR / ns, ns))
        entries.sort(key=lambda e: e.mtime, reverse=True)
        return entries

    def usage(self) -> dict[str, dict]:
        """Per-namespace, per-kind byte/count accounting (``""`` = root).

        The surface tenant-fair eviction policies and the ``repro-cache``
        CLI budget against: each namespace owns exactly the bytes under
        its directory, never a share of someone else's.
        """
        out: dict[str, dict] = {}
        for info in self.ls_all():
            kinds = out.setdefault(info.namespace or "", {})
            entry = kinds.setdefault(info.kind, {"artifacts": 0, "bytes": 0})
            entry["artifacts"] += 1
            entry["bytes"] += info.nbytes
        return out

    def total_bytes(self) -> int:
        return sum(info.nbytes for info in self.ls())

    def _gc_scope(self, namespace: str | None) -> tuple[list[ArtifactInfo], list[Path]]:
        """Entries + quarantine dirs a gc invocation is allowed to touch.

        An explicit ``namespace`` (or a namespaced view) confines eviction
        to that tenant's directory; a root view with no namespace governs
        the whole store — shared tier and every tenant alike.
        """
        namespace = namespace if namespace is not None else self.namespace
        if namespace is not None:
            directory = self.root / NAMESPACE_DIR / namespace
            return self._ls_dir(directory, namespace), [directory / "quarantine"]
        quarantines = [self.root / "quarantine"] + [
            self.root / NAMESPACE_DIR / ns / "quarantine" for ns in self.namespaces()
        ]
        return self.ls_all(), quarantines

    def gc(
        self,
        max_bytes: int,
        namespace: str | None = None,
        keep_kinds: tuple[str, ...] = (),
    ) -> dict:
        """Evict artifacts, oldest first, until at most ``max_bytes`` remain.

        ``namespace`` confines both the accounting and the eviction to one
        tenant's directory, so one tenant's pressure never purges another
        tenant's (or the shared tier's) artifacts; ``keep_kinds`` exempts
        whole artifact kinds from eviction (their bytes still count
        against the budget, so the summary reports an honest remainder).
        Quarantined and legacy/foreign files in scope are removed
        unconditionally — they can never be addressed again.
        """
        removed = 0
        freed = 0
        entries, quarantines = self._gc_scope(namespace)
        for quarantine in quarantines:
            if not quarantine.is_dir():
                continue
            for path in quarantine.iterdir():
                try:
                    size = path.stat().st_size
                    path.unlink()
                    removed += 1
                    freed += size
                except OSError:
                    pass
            with contextlib.suppress(OSError):
                quarantine.rmdir()
        for info in [e for e in entries if e.kind == "(legacy)"]:
            try:
                info.path.unlink()
                removed += 1
                freed += info.nbytes
                entries.remove(info)
            except OSError:
                pass
        total = sum(e.nbytes for e in entries)
        kept = 0
        for info in sorted(entries, key=lambda e: e.mtime):  # oldest first
            if total <= max_bytes:
                break
            if info.kind in keep_kinds:
                kept += info.nbytes
                continue
            try:
                info.path.unlink()
                removed += 1
                freed += info.nbytes
                total -= info.nbytes
            except OSError:
                pass
        base = self.root / NAMESPACE_DIR
        if base.is_dir():
            # Prune namespace directories gc emptied (best-effort).
            for ns_dir in base.iterdir():
                with contextlib.suppress(OSError):
                    ns_dir.rmdir()
            with contextlib.suppress(OSError):
                base.rmdir()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_bytes": total,
            "kept_bytes": kept,
        }

    def clear(self) -> int:
        """Remove every artifact (and the quarantine); returns files removed."""
        summary = self.gc(max_bytes=0)
        return summary["removed"]
