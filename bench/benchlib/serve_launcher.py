"""Start ``repro-serve``, optionally with the benchmark's span wrappers.

Usage::

    python -m benchlib.serve_launcher --parent PID [--trace-dir DIR] -- <repro-serve args>

The server, and the pool workers it forks, are killed by the kernel when
the benchmark process ``PID`` ends, even if that process is killed before
it can stop them.

With ``--trace-dir`` the wrappers of :mod:`benchlib.tracing` (plus the
server's ``Connection.read_request``) are installed before the service
starts its worker pool, and the server process writes its spans when it
exits; the pool worker writes its own when the pool shuts it down.
"""

from __future__ import annotations

import atexit
import signal
import sys

from benchlib import procs


def main(argv: list[str] | None = None) -> int:
    # The benchmark stops the server with SIGINT.  A process started in the
    # background of a non-interactive shell inherits SIGINT ignored, and
    # then Python (and asyncio.run) never install their handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--parent"]:
        procs.die_with_parent(int(argv[1]))
        procs.tie_forks()
        argv = argv[2:]
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_dir is not None:
        from benchlib import tracing

        tracing.install(trace_dir, serve=True)
        atexit.register(tracing.flush)
    from repro.tools import serve_tool

    return serve_tool.main(argv)


if __name__ == "__main__":
    sys.exit(main())
