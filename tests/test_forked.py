"""The forked-helper leaf: spawning and reaping from two threads at once."""

import os
import pathlib
import subprocess
import sys

#: One thread spawns children that exit at once, another reaps them, for
#: two seconds; prints the reap count and each failed reap.  The bounded
#: queue keeps at most a handful of children alive.
_SPAWN_BESIDE_REAP = """
import queue, sys, threading, time
from repro import forked

def exit_at_once(conn):
    conn.close()

spawned = queue.Queue(maxsize=4)
failures, reaped = [], 0
stop = time.monotonic() + 2.0

def spawn_until_stop():
    try:
        while time.monotonic() < stop:
            spawned.put(forked.spawn(exit_at_once, daemon=True))
    finally:
        spawned.put(None)

def reap_all():
    global reaped
    while (pair := spawned.get()) is not None:
        try:
            forked.reap(*pair)
        except Exception as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
        reaped += 1

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=spawn_until_stop),
           threading.Thread(target=reap_all)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(reaped)
print(*failures, sep="\\n")
"""


def test_a_spawn_beside_a_reap_loses_no_child():
    """``Process.start()`` reaps every exited child it knows; unserialised,
    it races another thread's ``join`` for the same child, and the loser's
    ``close`` raises "Cannot close a process while it is still running"
    (the daemon's slot threads did this).  A fresh interpreter forks
    fastest, so the race shows a few times in two seconds there."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _SPAWN_BESIDE_REAP],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    reaped, *failures = out.stdout.strip().splitlines()
    assert int(reaped) > 0
    assert failures == [], f"{len(failures)} of {reaped} reaps: {failures[0]}"
