"""Library behind ``bench/run.py``: inputs, workloads, sampling and tracing.

Everything here drives the program under test (``src/repro``) through its
public API and measures it from outside: wall and CPU clocks around calls,
``/proc`` for memory and CPU of the process tree, and wrappers installed
around public functions for the traced run.
"""
