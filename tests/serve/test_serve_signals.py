"""``repro-serve`` stops its worker pool on SIGTERM.

A service manager stops a server with SIGTERM.  Without a handler the
signal killed only the server process and left its pool worker running,
holding inherited pipes open.  The server now treats SIGTERM like Ctrl-C:
it cancels the serve loop and shuts the pool down before exiting.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            return ""
    return proc.stdout.readline()


def test_sigterm_stops_server_and_pool(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.tools.serve_tool",
            "--port",
            "0",
            "--workers",
            "1",
            "--scale",
            "0.1",
            "--store-dir",
            str(tmp_path / "store"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        start_new_session=True,  # own process group: the server + its pool
    )
    pgid = proc.pid
    try:
        line = _read_line(proc, timeout=60)
        assert "listening on" in line, f"server did not come up: {line!r}"
        os.kill(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        deadline = time.monotonic() + 10
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _group_alive(pgid), "a pool worker outlived the server"
    finally:
        if _group_alive(pgid):
            os.killpg(pgid, signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
