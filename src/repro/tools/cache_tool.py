"""``repro-cache`` — inspect and maintain the experiment artifact store.

The store (:class:`repro.pipeline.store.ArtifactStore`) holds every
persisted stage output of the experiment pipeline: reordering mappings,
built application traces and finished cell results, each a small
content-addressed pickle.  Subcommands::

    repro-cache ls                  # every artifact, newest first
    repro-cache stats               # per-namespace/kind totals + quarantine
    repro-cache stats --json        # same, machine-readable
    repro-cache gc --max-bytes 1G   # evict oldest-first to a budget
    repro-cache gc --max-bytes 1G --namespace t1 --keep-kind mapping
    repro-cache clear               # remove everything

All subcommands accept ``--dir`` to target a specific store root; the
default is ``$REPRO_CACHE_DIR`` or ``./.repro_cache`` — the same
resolution the experiment pipeline uses.  Tenant namespaces (``ns/<t>/``
subdirectories, populated by the serving layer) are reported by
``stats``, listable via ``ls --namespace``, and garbage-collectable in
isolation via ``gc --namespace``.

Artifact addresses fold in the store schema version (``stats`` prints
it), so a version bump orphans stale artifacts rather than replaying
them — v11 re-addressed every cell result when cell keys grew the
replacement-policy token (the policy registry); pre-v11 cells simply
miss and the files are reclaimed by ``gc``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.pipeline.store import ArtifactStore, SCHEMA_VERSION, default_store_dir

__all__ = ["main", "parse_size"]

_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def parse_size(text: str) -> int:
    """Parse a byte budget: plain int or K/M/G/T-suffixed (binary units)."""
    raw = text.strip().lower().removesuffix("b")
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    else:
        factor = 1
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r} (want e.g. 500000, 64K, 1.5G)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("size must be non-negative")
    return int(value * factor)


def _human(nbytes: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(nbytes) < 1024 or unit == "GiB":
            return f"{nbytes:.1f}{unit}" if unit != "B" else f"{int(nbytes)}B"
        nbytes /= 1024
    return f"{nbytes:.1f}GiB"  # pragma: no cover - loop always returns


def _quarantined_files(store: ArtifactStore) -> list:
    """Files under ``quarantine/`` (empty when absent or unreadable).

    Listed defensively: a store directory that holds *only* quarantined
    evidence (every addressable artifact was corrupt) must still be
    inspectable — historically this case crashed ``ls``/``stats``.
    """
    quarantine = store.directory / "quarantine"
    try:
        return sorted(p for p in quarantine.iterdir() if p.is_file())
    except OSError:
        return []


def _cmd_ls(store: ArtifactStore) -> int:
    entries = store.ls()
    quarantined = _quarantined_files(store)
    if not entries and not quarantined:
        print(f"{store.directory}: empty")
        return 0
    for info in entries:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(info.mtime))
        print(f"{stamp}  {_human(info.nbytes):>10}  {info.kind:<10} {info.path.name}")
    for path in quarantined:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        print(f"{'(quarantined)':>19}  {_human(size):>10}  {'--':<10} {path.name}")
    print(
        f"total: {len(entries)} artifacts, {_human(store.total_bytes())}"
        + (f" (+{len(quarantined)} quarantined)" if quarantined else "")
    )
    return 0


def _cmd_stats(store: ArtifactStore, as_json: bool = False) -> int:
    usage = store.usage()
    entries = store.ls_all()
    quarantined = len(_quarantined_files(store))
    if as_json:
        payload = {
            "store": str(store.root),
            "schema_version": SCHEMA_VERSION,
            "namespaces": usage,
            "artifacts": len(entries),
            "total_bytes": sum(info.nbytes for info in entries),
            "quarantined": quarantined,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"store:          {store.root}")
    print(f"schema version: {SCHEMA_VERSION}")
    for namespace in sorted(usage):
        label = namespace or "(root)"
        print(f"  namespace {label}")
        for kind in sorted(usage[namespace]):
            counts = usage[namespace][kind]
            print(
                f"    {kind:<10} {counts['artifacts']:>6} artifacts"
                f"  {_human(counts['bytes']):>10}"
            )
    quarantine_line = f"  quarantined {quarantined:>5} files"
    print(quarantine_line)
    total = sum(info.nbytes for info in entries)
    print(f"  total      {len(entries):>6} artifacts  {_human(total):>10}")
    return 0


def _cmd_gc(
    store: ArtifactStore,
    max_bytes: int,
    namespace: str | None = None,
    keep_kinds: tuple[str, ...] = (),
) -> int:
    summary = store.gc(max_bytes, namespace=namespace, keep_kinds=keep_kinds)
    scope = f" in namespace {namespace!r}" if namespace else ""
    kept = (
        f", kept {_human(summary['kept_bytes'])} ({'/'.join(keep_kinds)})"
        if keep_kinds
        else ""
    )
    print(
        f"removed {summary['removed']} files{scope}, "
        f"freed {_human(summary['freed_bytes'])}, "
        f"{_human(summary['remaining_bytes'])} remaining{kept}"
    )
    return 0


def _cmd_clear(store: ArtifactStore) -> int:
    removed = store.clear()
    print(f"removed {removed} files from {store.directory}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Inspect and maintain the experiment artifact store.",
    )
    parser.add_argument(
        "--dir",
        default=None,
        help="store directory (default: $REPRO_CACHE_DIR or ./.repro_cache)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ls = sub.add_parser("ls", help="list artifacts, newest first")
    ls.add_argument(
        "--namespace", default=None, help="list one tenant namespace instead of root"
    )
    stats = sub.add_parser("stats", help="per-namespace/kind artifact counts and sizes")
    stats.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    gc = sub.add_parser("gc", help="evict artifacts, oldest first, to a byte budget")
    gc.add_argument(
        "--max-bytes",
        type=parse_size,
        required=True,
        help="byte budget to shrink the store to (accepts K/M/G suffixes)",
    )
    gc.add_argument(
        "--namespace",
        default=None,
        help="confine eviction (and the budget) to one tenant namespace",
    )
    gc.add_argument(
        "--keep-kind",
        action="append",
        default=[],
        metavar="KIND",
        help="artifact kind exempt from eviction (repeatable, e.g. mapping)",
    )
    sub.add_parser("clear", help="remove every artifact")
    args = parser.parse_args(argv)

    store = ArtifactStore(args.dir or default_store_dir())
    try:
        if args.command == "ls":
            view = (
                store.namespaced(args.namespace) if args.namespace else store
            )
            return _cmd_ls(view)
        if args.command == "stats":
            return _cmd_stats(store, as_json=args.json)
        if args.command == "gc":
            return _cmd_gc(
                store,
                args.max_bytes,
                namespace=args.namespace,
                keep_kinds=tuple(args.keep_kind),
            )
        return _cmd_clear(store)
    except BrokenPipeError:
        # Downstream pager/head closed early (`repro-cache ls | head`);
        # detach stdout so the interpreter's exit flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
