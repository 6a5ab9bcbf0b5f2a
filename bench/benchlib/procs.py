"""Process-tree memory and CPU, read from ``/proc``.

Memory is proportional set size (PSS) from ``/proc/<pid>/smaps_rollup``:
summed over a process tree it counts each shared or copy-on-write page
once, where summed RSS counts a forked worker's inherited pages again in
every worker.  When ``smaps_rollup`` is unreadable the sampler falls back
to ``/proc/<pid>/statm`` RSS and says so in :attr:`PssSampler.source`.

A high-water mark (``ru_maxrss``) cannot show what one phase used, so
:class:`PssSampler` polls the current value on a fixed period and keeps
every sample with its timestamp; the peak of any time window, or of the
spans open at a sample, is computed afterwards.

The rest keeps a run from leaving processes behind on any way out of it:
:func:`stop_children` on a normal exit or an error, :func:`exit_on_signals`
when the run is told to stop, and :func:`tie_forks` /
:func:`die_with_parent` when it is killed outright.
"""

from __future__ import annotations

import ctypes
import os
import signal
import threading
import time
from pathlib import Path

__all__ = [
    "tree_pids",
    "pss_kb",
    "cpu_seconds",
    "stat_cpu_seconds",
    "tree_cpu_seconds",
    "PssSampler",
    "cpu_counters",
    "steal_share",
    "group_members",
    "kill_group",
    "stop_children",
    "STOP_SIGNALS",
    "exit_on_signals",
    "die_with_parent",
    "tie_forks",
]

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024
_TICKS = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1
#: Looked up once here: a forked child must not enter the dynamic loader,
#: whose lock another thread may have held at the fork.
_PRCTL = ctypes.CDLL(None, use_errno=True).prctl


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        kids.extend(int(tok) for tok in text.split())
    return kids


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant (children of all its threads)."""
    pids, queue = [], [root]
    while queue:
        pid = queue.pop()
        pids.append(pid)
        queue.extend(_children(pid))
    return pids


def pss_kb(pid: int) -> tuple[int, str] | None:
    """``(kilobytes, source)`` for one process, ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
            for line in handle:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1]), "pss"
    except (OSError, ValueError, IndexError):
        pass
    try:
        fields = Path(f"/proc/{pid}/statm").read_text().split()
        return int(fields[1]) * _PAGE_KB, "rss"
    except (OSError, ValueError, IndexError):
        return None


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ")".
    return text[text.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one live process (0.0 once it is gone).

    Summed in nanoseconds over the process's threads from
    ``/proc/<pid>/task/<tid>/schedstat`` where the kernel provides it;
    ``/proc/<pid>/stat`` counts in clock ticks (10 ms), a coarse step
    against the fraction of a second a serve-mix block takes.  (A thread's
    schedstat time leaves with the thread; the program's threads are pool
    threads that live as long as their process.)
    """
    try:
        return sum(
            int(Path(f"/proc/{pid}/task/{tid}/schedstat").read_text().split()[0])
            for tid in os.listdir(f"/proc/{pid}/task")
        ) / 1e9
    except (OSError, ValueError, IndexError):
        return stat_cpu_seconds(pid)


def stat_cpu_seconds(pid: int) -> float:
    """User + system CPU time of one live process, ended threads included.

    From ``/proc/<pid>/stat``, in clock ticks (10 ms); 0.0 once it is gone.
    """
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def tree_cpu_seconds(root: int, ended_threads: bool = False) -> float:
    """User + system CPU time summed over a live process tree.

    ``ended_threads`` counts the threads that have ended too, in clock
    ticks (:func:`stat_cpu_seconds`) instead of nanoseconds.
    """
    per_process = stat_cpu_seconds if ended_threads else cpu_seconds
    return sum(per_process(pid) for pid in tree_pids(root))


class PssSampler:
    """Background thread summing PSS over a process tree every ``interval``.

    ``samples`` holds ``(monotonic time, total kB, {pid: kB})`` tuples.
    The sampler's own CPU time is tracked (:meth:`own_cpu_s`) so callers
    that measure CPU of the process hosting it can take it back out.
    """

    def __init__(self, root: int, interval: float = 0.05) -> None:
        self.root = root
        self.interval = interval
        self.samples: list[tuple[float, int, dict[int, int]]] = []
        self.source = "pss"
        self._stop = threading.Event()
        self._own_cpu = 0.0
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop, name="pss-sampler", daemon=True)

    def start(self) -> "PssSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def sample(self) -> None:
        """Take one sample now (also called by the background loop).

        The sample is stamped with the time it started, so a sample that
        began before a window opened (and may have read processes that
        exited since) never counts inside it.
        """
        started = time.monotonic()
        per_pid: dict[int, int] = {}
        for pid in tree_pids(self.root):
            got = pss_kb(pid)
            if got is None:
                continue
            per_pid[pid], source = got
            if source != "pss":
                self.source = source
        with self._lock:
            self.samples.append((started, sum(per_pid.values()), per_pid))

    def _loop(self) -> None:
        while not self._stop.is_set():
            cpu0 = time.thread_time()
            self.sample()
            with self._lock:
                self._own_cpu += time.thread_time() - cpu0
            self._stop.wait(self.interval)

    def own_cpu_s(self) -> float:
        with self._lock:
            return self._own_cpu

    def window(self, start: float, end: float) -> list[tuple[float, int, dict[int, int]]]:
        with self._lock:
            return [s for s in self.samples if start <= s[0] <= end]

    def peak_mb(self, start: float, end: float, exclude: set[int] = frozenset()) -> float:
        """Largest total sampled in ``[start, end]``, in MiB, leaving out ``exclude``."""
        totals = [
            sum(kb for pid, kb in per_pid.items() if pid not in exclude)
            for _, _, per_pid in self.window(start, end)
        ]
        if not totals:
            raise RuntimeError("no memory sample inside the timed window")
        return max(totals) / 1024.0


def cpu_counters() -> tuple[int, int]:
    """``(busy ticks, steal ticks)`` of the machine from ``/proc/stat``.

    Busy is user + nice + system + irq + softirq time (guest time is
    already inside user time).
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(tok) for tok in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    busy = fields[0] + fields[1] + fields[2] + fields[5] + fields[6]
    return busy, fields[7] if len(fields) > 7 else 0


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the machine's CPU demand the hypervisor stole in between.

    Steal only accrues while a virtual CPU has work to run, so this is the
    share of the time the benchmark's processes wanted a CPU and did not
    get one.
    """
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


def group_members(pgid: int) -> list[int]:
    """Live processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # After the command: state, ppid, pgrp, ...; zombies are already dead.
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def stop_children() -> list[int]:
    """End every process this one started and wait for each; returns the pids.

    ``multiprocessing`` starts a resource tracker the first time a grid
    shares graphs through shared memory, and leaves it running until the
    interpreter's exit closes its pipe, so it would outlive this process
    by a moment.  Closing that pipe now (the tracker's own stop) lets it
    clean up and exit, and it is waited for; any other descendant still
    alive is killed and waited for.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    left = [pid for pid in tree_pids(os.getpid()) if pid != os.getpid()]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in left:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # not our child: wait until it is gone
            deadline = time.monotonic() + 5.0
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.02)
    return left


def kill_group(pgid: int, timeout: float = 5.0) -> None:
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


#: Signals that end a run early; its clean-up still runs.
STOP_SIGNALS = (signal.SIGTERM, signal.SIGHUP)


def exit_on_signals() -> None:
    """Turn SIGTERM and SIGHUP into ``SystemExit`` in this process.

    The run's ``finally`` clean-up then stops and waits for every process
    it started, as on any error.  Later signals are ignored, so they
    cannot cut that clean-up short.  A signal the caller had ignored stays
    ignored, and forked children get back the handling they had before.
    """
    previous = {signum: signal.getsignal(signum) for signum in STOP_SIGNALS}

    def stop(signum, _frame):
        for other in previous:
            signal.signal(other, signal.SIG_IGN)
        raise SystemExit(128 + signum)

    for signum, handler in previous.items():
        if handler is not signal.SIG_IGN:
            signal.signal(signum, stop)

    def restore() -> None:
        for signum, handler in previous.items():
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)

    os.register_at_fork(after_in_child=restore)


def die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process when ``parent`` ends.

    Strictly, when the thread of ``parent`` that started this process
    ends.  If ``parent`` has already ended, this process ends now.
    """
    _PRCTL(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:
        os._exit(1)


def tie_forks() -> None:
    """Have every process this one forks from its main thread die with it.

    Pool workers are forked by the program from its main thread, which
    ends only with the process.  Should the process be killed before its
    clean-up runs (SIGKILL, the out-of-memory killer), its workers would
    otherwise wait on their task queue forever.
    """
    forker: dict = {}

    def before() -> None:
        forker["pid"] = os.getpid()
        forker["main"] = threading.current_thread() is threading.main_thread()

    def child() -> None:
        if forker.get("main"):
            die_with_parent(forker["pid"])

    os.register_at_fork(before=before, after_in_child=child)
