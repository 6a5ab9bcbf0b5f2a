"""Kernel build-cache keying: compiler flags must be part of the key.

A kernel's per-kernel flags change what its source compiles to: the
trace kernels build with ``-ffp-contract=off`` so the super-step keys
round exactly like numpy's, never through a fused multiply-add.  If the
cache were keyed by source bytes alone, a ``.so`` built *before* the
flags changed would be silently reused, and its keys could differ from
the reference's in the last bit.  These tests pin the contract: source +
full flag set -> cache key.  The flag strings they use are arbitrary.
"""

from __future__ import annotations

import ctypes

import pytest

from repro import _compile

KERNEL_SOURCE = """
int repro_answer(void) { return 42; }
#ifdef REPRO_EXTRA
int repro_extra(void) { return 7; }
#endif
"""


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL_SOURCE)
    return path


def test_key_changes_with_flags(source):
    plain = _compile.cache_key(source)
    threaded = _compile.cache_key(source, ("-pthread",))
    macro = _compile.cache_key(source, ("-pthread", "-DREPRO_EXTRA"))
    assert len({plain, threaded, macro}) == 3


def test_key_stable_for_same_inputs(source):
    assert _compile.cache_key(source, ("-pthread",)) == _compile.cache_key(
        source, ("-pthread",)
    )


def test_key_changes_with_source(source, tmp_path):
    other = tmp_path / "other.c"
    other.write_text(KERNEL_SOURCE + "/* v2 */\n")
    assert _compile.cache_key(source) != _compile.cache_key(other)


def test_flag_order_matters_not_concatenation(source):
    # The key must separate flags, not join them: ("-DA", "-DB") and
    # ("-DA -DB",) are different compiler invocations.
    split = _compile.cache_key(source, ("-DA", "-DB"))
    joined = _compile.cache_key(source, ("-DA -DB",))
    assert split != joined


@pytest.mark.skipif(
    _compile.find_compiler() is None, reason="no C compiler on PATH"
)
def test_flag_sets_build_distinct_libraries(source, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(tmp_path / "cache"))
    lib_plain = _compile.load_shared_library(source, "t")
    lib_macro = _compile.load_shared_library(source, "t", ("-DREPRO_EXTRA",))
    assert lib_plain._name != lib_macro._name
    assert lib_macro.repro_extra() == 7
    with pytest.raises(AttributeError):
        ctypes.CDLL(lib_plain._name).repro_extra  # noqa: B018

    # A stale single-flag build is never reused for the macro build: the
    # cached file names differ, so both .so files exist side by side.
    cached = sorted(p.name for p in (tmp_path / "cache").glob("t-*.so"))
    assert len(cached) == 2


@pytest.mark.skipif(
    _compile.find_compiler() is None, reason="no C compiler on PATH"
)
def test_lazy_kernel_passes_flags(source, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(tmp_path / "cache"))
    kernel = _compile.LazyKernel(
        source, "lazy", lambda lib: None, flags=("-DREPRO_EXTRA",)
    )
    assert kernel.available()
    assert kernel.load().repro_extra() == 7
