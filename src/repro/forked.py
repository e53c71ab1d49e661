"""The one way a helper process is forked: joined to its parent by a pipe.

Three callers — a job's alone-replay helper (:class:`repro.harness.runner.
_Chaser`), a pooled sweep's job process (:mod:`repro.harness.parallel`)
and the daemon's job process (:mod:`repro.service.daemon`) — need the same
four things: the ``fork`` start method (no import or pickling cost, the
child starts with what the parent holds), a duplex ``Pipe`` whose far end
is closed on each side so that **EOF means the other side is gone**,
``SIGINT`` ignored in the child (^C reaches the parent, which reaps its
children itself), and a reaping order — kill, join, close — that leaves
nothing for ``multiprocessing.active_children()`` to find.  What the child
runs and what the two say to each other over the pipe is the caller's;
:func:`hear` is how a parent that waits for an answer tells an answer from
a death, and says which death.

One lock keeps threads that spawn apart from threads that wait (the
daemon's slots do both): ``Process.start()`` first reaps every exited child
it knows, and a ``join`` elsewhere that loses that race leaves the exit
code unset, so the ``close`` after it raises.

Leaf module, no ``repro`` imports.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

#: How long :func:`hear` waits on a silent child before checking that it is
#: alive (a dead one's pipe stays open while a process it forked holds it).
LIVENESS_POLL_S = 0.25

#: Held around ``Process.start()`` and every wait on a child, never across
#: a pipe read.  A forked child, which may fork helpers of its own, gets a
#: fresh one rather than the copy its forking thread held.
_LOCK = threading.Lock()


def _fresh_lock() -> None:
    global _LOCK
    _LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock)


class Lost(Exception):
    """A child that will not answer: ``died`` with nothing left to read
    (``how`` is ``"signal N"`` or ``"exit code N"``), or it sent something
    that will not load (``how`` is the error's first line)."""

    def __init__(self, how: str, died: bool) -> None:
        super().__init__(f"died: {how}" if died else f"answer unreadable: {how}")
        self.how = how
        self.died = died


def hear(proc, conn, timeout: float = LIVENESS_POLL_S):
    """The next message ``proc`` sends on ``conn`` within ``timeout``, or
    None while it is alive and silent; raises :class:`Lost` otherwise."""
    if conn.poll(timeout):
        try:
            return conn.recv()
        except (EOFError, OSError):
            with _LOCK:  # its end is closed: it has exited, or is exiting
                proc.join()
        except Exception as exc:  # noqa: BLE001 - what it sent will not load
            how = f"{type(exc).__name__}: {exc}".splitlines()[0]
            raise Lost(how, died=False) from None
    else:
        with _LOCK:
            alive = proc.is_alive()
        if alive or conn.poll():
            return None
    with _LOCK:
        code = proc.exitcode
    raise Lost(f"signal {-code}" if code < 0 else f"exit code {code}", died=True)


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
    with _LOCK:
        proc.start()
    theirs.close()
    return proc, ours


def _child(parent_end, main, conn, args) -> None:
    parent_end.close()  # a vanished parent must read as EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C: the parent reaps us
    main(conn, *args)


def reap(proc, conn) -> None:
    """Kill (a no-op on one that has exited), join and close ``proc``, and
    close our end of its pipe."""
    with _LOCK:
        proc.kill()
        proc.join()
        proc.close()
    conn.close()
