"""The one way a helper process is forked: joined to its parent by a pipe.

Two callers — a job's alone-replay helper (:class:`repro.harness.runner.
_Chaser`) and the daemon's job process (:mod:`repro.service.daemon`) — need
the same four things: the ``fork`` start method (no import or pickling
cost, the child starts with what the parent holds), a duplex ``Pipe`` whose
far end is closed on each side so that **EOF means the other side is
gone**, ``SIGINT`` ignored in the child (^C reaches the parent, which reaps
its children itself), and a reaping order — kill, join, close — that leaves
nothing for ``multiprocessing.active_children()`` to find.  What the child
runs and what the two say to each other over the pipe is the caller's.

Leaf module, no ``repro`` imports.
"""

from __future__ import annotations

import multiprocessing
import os
import signal


def usable_cpus() -> int:
    """How many CPUs this process may run on — the affinity mask where the
    platform has one, not the machine's count: what decides whether a forked
    helper has somewhere to run."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spawn(main, *args, daemon: bool):
    """Fork a process running ``main(conn, *args)``; returns ``(process,
    conn)``, the parent's end of the pipe.  ``daemon`` is
    ``multiprocessing``'s: a daemonic child dies with its parent's normal
    exit but may not have children of its own."""
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    proc = ctx.Process(
        target=_child, args=(ours, main, theirs, args), daemon=daemon,
    )
    proc.start()
    theirs.close()
    return proc, ours


def _child(parent_end, main, conn, args) -> None:
    parent_end.close()  # a vanished parent must read as EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C: the parent reaps us
    main(conn, *args)


def reap(proc, conn) -> int:
    """Kill (a no-op on one that has exited), join and close ``proc``, and
    close our end of its pipe; returns its exit code (``-N``: signal N)."""
    proc.kill()
    proc.join()
    code = proc.exitcode
    proc.close()
    conn.close()
    return code
