"""Durable files — the one way this package writes state that must survive
a crash.  Three algorithms and nothing about formats (callers serialise and
hand over text): atomic replace of a whole file, an append-only line log
whose torn tail is repaired on open and skipped by its readers, and
quarantine of a damaged file.  Leaf module: it imports nothing from
:mod:`repro`.  docs/architecture.md ("Durable files") lists every file
written through it and what a kill at each point leaves behind.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from typing import IO

#: :func:`sweep_tmp` leaves younger temp files alone: one may be a live
#: :func:`replace_text`, which renames within well under a second.
TMP_SWEEP_AGE_S = 300.0


def replace_text(path: str | os.PathLike, text: str) -> pathlib.Path:
    """Make ``text`` the whole content of ``path`` (temp file beside it +
    ``os.replace``).  Readers see the old file or the new one, never a mix;
    of concurrent writers the last wins; a writer killed before the rename
    leaves a ``.<name>.*.tmp`` for :func:`sweep_tmp`."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def sweep_tmp(directory: str | os.PathLike) -> int:
    """Remove the temp files interrupted :func:`replace_text` calls left in
    ``directory`` more than :data:`TMP_SWEEP_AGE_S` ago; returns how many."""
    cutoff = time.time() - TMP_SWEEP_AGE_S
    swept = 0
    for tmp in pathlib.Path(directory).glob(".*.tmp"):
        try:
            if tmp.stat().st_mtime < cutoff:
                tmp.unlink()
                swept += 1
        except OSError:
            continue  # raced with the owner or another sweeper
    return swept


def quarantine(path: str | os.PathLike) -> bool:
    """Move a damaged file into ``quarantine/`` beside it for post-mortem
    (never delete evidence).  False when it could not be moved (permissions,
    races): the owner's rewrite then replaces it in place."""
    path = pathlib.Path(path)
    try:
        (path.parent / "quarantine").mkdir(parents=True, exist_ok=True)
        os.replace(path, path.parent / "quarantine" / path.name)
    except OSError:
        return False
    return True


def open_log(path: str | os.PathLike) -> IO[str]:
    """Open a line log (one record per line) for append, creating it and its
    directory when missing.  If it exists and does not end in a newline, its
    last writer died mid-line: the fragment is terminated first, so it stays
    one unreadable line (which the readers below skip) and the next record
    is not glued onto it and lost with it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    torn = False
    if os.lseek(fd, 0, os.SEEK_END):
        os.lseek(fd, -1, os.SEEK_END)
        torn = os.read(fd, 1) != b"\n"
    log = os.fdopen(fd, "a")
    if torn:
        log.write("\n")
    return log


def append(log: IO[str], line: str, flush: bool = False,
           fsync: bool = False) -> None:
    """Write ``line`` + newline to an :func:`open_log` file: buffered, or
    with ``flush`` handed to the OS (survives this process), or with
    ``fsync`` on disk (survives the machine)."""
    log.write(line + "\n")
    if flush or fsync:
        log.flush()
    if fsync:
        os.fsync(log.fileno())


def _parse(text: str) -> tuple[list[dict], int]:
    records: list[dict] = []
    skipped = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        if isinstance(rec, dict):
            records.append(rec)
        else:
            skipped += 1
    return records, skipped


def read_log(path: str | os.PathLike) -> tuple[list[dict], int]:
    """``(records, skipped)`` of a line log: the JSON objects on its
    non-blank lines, and how many lines were not one (torn or damaged —
    counted, never fatal).  A missing file is an empty log."""
    try:
        return _parse(pathlib.Path(path).read_text(errors="replace"))
    except FileNotFoundError:
        return [], 0


def tail_log(path: str | os.PathLike, offset: int) -> tuple[list[dict], int]:
    """``(records, new offset)`` of the complete lines past byte ``offset``;
    a line still being written is left for the next call."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        chunk = fh.read()
    chunk = chunk[: chunk.rfind(b"\n") + 1]
    return _parse(chunk.decode(errors="replace"))[0], offset + len(chunk)
