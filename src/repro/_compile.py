"""Shared build-and-load machinery for the compiled fast-path kernels.

Two subsystems ship ANSI-C kernels next to their Python reference
implementations — the cache simulator (``repro/cachesim/_fastsim.c``) and
the trace pipeline (``repro/framework/_fasttrace.c``).  Both follow the
same lifecycle, factored out here:

* the source file is compiled **lazily** on first use with whatever C
  compiler the environment provides (``$CC``, ``cc``, ``gcc``, ``clang``);
* the shared library is cached under ``REPRO_KERNEL_DIR`` (default
  ``~/.cache/repro-kernels``), keyed by a hash of the source, so
  compilation happens once per source revision, not per process;
* compilation writes to a unique temp file and publishes with an atomic
  rename, so concurrent builders never hand a half-written library to a
  concurrent loader;
* load success *and* failure are memoized per process
  (:class:`LazyKernel`), so a missing compiler costs one probe, not one
  probe per call, and ``auto`` dispatchers can fall back to the Python
  reference cheaply.

Kernel availability is environmental, never a correctness question: every
kernel is verified bit-identical to its reference by the equivalence
suites, and callers that can fall back should catch
:class:`KernelUnavailable`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable

__all__ = [
    "KernelUnavailable",
    "LazyKernel",
    "BASE_CFLAGS",
    "kernel_build_dir",
    "find_compiler",
    "cache_key",
    "compile_shared_library",
    "load_shared_library",
]


class KernelUnavailable(RuntimeError):
    """A compiled kernel could not be built or loaded."""


#: Flags every kernel build gets.  Extra per-kernel flags
#: (``-ffp-contract=off``, feature macros) are appended by the caller and folded into the cache
#: key, so changing the flag set can never resurface a stale ``.so``.
BASE_CFLAGS = ("-O3", "-shared", "-fPIC")


def kernel_build_dir() -> Path:
    """Where compiled kernels are cached (override: ``REPRO_KERNEL_DIR``)."""
    env = os.environ.get("REPRO_KERNEL_DIR")
    if env:
        return Path(env)
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-kernels"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"


def find_compiler() -> str | None:
    """First available C compiler, or ``None``."""
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def compile_shared_library(
    source: Path, lib_path: Path, flags: tuple[str, ...] = ()
) -> None:
    """Compile ``source`` into the shared library at ``lib_path``."""
    compiler = find_compiler()
    if compiler is None:
        raise KernelUnavailable("no C compiler (cc/gcc/clang) on PATH")
    lib_path.parent.mkdir(parents=True, exist_ok=True)
    # Unique temp output + atomic rename: concurrent builders never hand a
    # half-written library to a concurrent loader.
    tmp = lib_path.with_name(
        f".{lib_path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    )
    cmd = [compiler, *BASE_CFLAGS, *flags, "-o", str(tmp), str(source)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise KernelUnavailable(f"kernel compilation failed to run: {exc}") from exc
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise KernelUnavailable(
            f"kernel compilation failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
        )
    os.replace(tmp, lib_path)


def cache_key(source: Path, flags: tuple[str, ...] = ()) -> str:
    """Content digest naming a cached build: source bytes *and* flags.

    The full compiler invocation (base flags + per-kernel extras such as
    ``-ffp-contract=off`` or feature macros) is hashed alongside the
    source so a flag change — e.g. a kernel that starts forbidding fused
    multiply-adds — can never load a stale library compiled under the
    old flag set.
    """
    hasher = hashlib.sha256(source.read_bytes())
    for flag in (*BASE_CFLAGS, *flags):
        hasher.update(b"\0" + flag.encode())
    return hasher.hexdigest()[:16]


def load_shared_library(
    source: Path, stem: str, flags: tuple[str, ...] = ()
) -> ctypes.CDLL:
    """Compile (if not cached by source+flags hash) and ``dlopen`` a kernel."""
    digest = cache_key(source, flags)
    lib_path = kernel_build_dir() / (
        f"{stem}-{digest}-py{sys.version_info[0]}{sys.version_info[1]}.so"
    )
    if not lib_path.exists():
        compile_shared_library(source, lib_path, flags)
    return ctypes.CDLL(str(lib_path))


class LazyKernel:
    """One kernel source, built on first use, with memoized load state.

    ``configure`` receives the freshly loaded :class:`ctypes.CDLL` and
    declares argument/return types.  The load result — the library or the
    exception explaining why it could not be produced — is cached per
    process behind a lock; :meth:`reset` forgets it (test hook).
    """

    def __init__(
        self,
        source: Path,
        stem: str,
        configure: Callable[[ctypes.CDLL], None],
        flags: tuple[str, ...] = (),
    ) -> None:
        self._source = source
        self._stem = stem
        self._configure = configure
        self._flags = tuple(flags)
        self._lock = threading.Lock()
        self._state: ctypes.CDLL | Exception | None = None

    def load(self) -> ctypes.CDLL:
        """The configured library; raises :class:`KernelUnavailable`."""
        with self._lock:
            if isinstance(self._state, ctypes.CDLL):
                return self._state
            if isinstance(self._state, Exception):
                raise KernelUnavailable(str(self._state)) from self._state
            try:
                lib = load_shared_library(self._source, self._stem, self._flags)
                self._configure(lib)
            except Exception as exc:
                self._state = exc
                raise KernelUnavailable(str(exc)) from exc
            self._state = lib
            return lib

    def available(self) -> bool:
        """Whether the kernel can be used in this environment."""
        try:
            self.load()
            return True
        except KernelUnavailable:
            return False

    def unavailable_reason(self) -> str | None:
        """Why :meth:`available` is False (``None`` when it is True)."""
        try:
            self.load()
            return None
        except KernelUnavailable as exc:
            return str(exc)

    def reset(self) -> None:
        """Forget the cached load result (test hook)."""
        with self._lock:
            self._state = None
