"""The PSS sampler sees a child's 200 MB peak and the drop after it frees it;
process listing and clean-up find and end what the benchmark started, also
when the benchmark is told to stop or is killed."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from benchlib import procs
from benchlib.env import child_env
from benchlib.procs import PssSampler, group_members, stop_children, tree_pids

CHILD = """
import sys, time
time.sleep(0.4)
buf = bytearray(b"\\x01") * (200 * 1024 * 1024)
print("allocated", flush=True)
time.sleep(0.6)
del buf
print("freed", flush=True)
time.sleep(0.6)
"""


def test_sampler_sees_peak_and_drop():
    child = subprocess.Popen([sys.executable, "-c", CHILD], stdout=subprocess.PIPE, text=True)
    try:
        sampler = PssSampler(child.pid, interval=0.05).start()
        try:
            assert child.stdout.readline().strip() == "allocated"
            allocated = time.monotonic()
            assert child.stdout.readline().strip() == "freed"
            freed = time.monotonic()
            time.sleep(0.4)
        finally:
            sampler.stop()
        assert child.wait(timeout=10) == 0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    before = [kb for t, kb, _ in sampler.samples if t < allocated - 0.45]
    held = [kb for t, kb, _ in sampler.samples if allocated <= t <= freed]
    after = [kb for t, kb, _ in sampler.samples if t > freed + 0.1]
    assert before and held and after, sampler.samples
    peak_mb = max(held) / 1024
    assert peak_mb - max(before) / 1024 > 180, (before, held)
    assert sampler.peak_mb(allocated, freed) == peak_mb
    assert peak_mb - max(after) / 1024 > 150, (held, after)


def test_tree_and_group_listing():
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(30)"], start_new_session=True
    )
    try:
        deadline = time.monotonic() + 5
        while child.pid not in tree_pids(os.getpid()) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert child.pid in tree_pids(os.getpid())
        assert group_members(child.pid) == [child.pid]
    finally:
        child.kill()
        child.wait()
    assert group_members(child.pid) == []


def test_stop_children_leaves_nothing_running():
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=16)  # starts the tracker
    segment.close()
    segment.unlink()
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    assert len(tree_pids(os.getpid())) >= 3
    assert stop_children() == [child.pid]  # the tracker stops cleanly, not killed
    assert tree_pids(os.getpid()) == [os.getpid()]
    child.poll()


STOPPABLE = """
import time
from benchlib.procs import exit_on_signals
exit_on_signals()
try:
    print("ready", flush=True)
    time.sleep(30)
finally:
    print("cleaned up", flush=True)
"""


def test_stop_signal_runs_the_clean_up():
    proc = subprocess.Popen(
        [sys.executable, "-c", STOPPABLE], stdout=subprocess.PIPE, text=True, env=child_env()
    )
    try:
        assert proc.stdout.readline().strip() == "ready"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 128 + signal.SIGTERM
        assert proc.stdout.read().strip() == "cleaned up"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


TIED = """
import os, time
from benchlib.procs import tie_forks
tie_forks()
pid = os.fork()
if pid == 0:
    time.sleep(30)
    os._exit(0)
print(pid, flush=True)
time.sleep(30)
"""


def _ended(pid: int, timeout: float) -> bool:
    """Whether ``pid`` is gone (or a zombie) within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        fields = procs._stat_fields(pid)
        if fields is None or fields[0] == "Z":
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)


def test_forked_worker_dies_with_a_killed_parent():
    parent = subprocess.Popen(
        [sys.executable, "-c", TIED], stdout=subprocess.PIPE, text=True, env=child_env()
    )
    worker = int(parent.stdout.readline())
    try:
        assert not _ended(worker, 0.2)
        parent.kill()
        parent.wait()
        assert _ended(worker, 5.0)
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        if not _ended(worker, 0):
            os.kill(worker, signal.SIGKILL)
