"""Durable file I/O for analysis artifacts.

Everything the tower writes to disk — crash repros and the cross-run
analysis store — must survive the process dying at any instruction:
these files are read back by *later* runs, and a torn or half-written
artifact would either crash that run or (worse) silently feed it
garbage.  :func:`atomic_write` is the one way to write them:
the content lands in a temporary file in the destination directory and
is moved into place with :func:`os.replace`, which POSIX guarantees is
atomic on a single filesystem.  A reader therefore sees either the old
complete file or the new complete file, never a prefix.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from contextlib import contextmanager
from typing import IO, Iterator, Optional, Union


@contextmanager
def atomic_write(
    path: Union[str, os.PathLike], binary: bool = False
) -> Iterator[IO]:
    """Write ``path`` atomically: yield a handle to a sibling temp file,
    fsync it, and :func:`os.replace` it over the destination on clean
    exit.  On any exception the temp file is removed and the
    destination is left untouched."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        mode = "wb" if binary else "w"
        with os.fdopen(
            fd, mode, encoding=None if binary else "utf-8"
        ) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def checksummed_write(path: Union[str, os.PathLike], data: bytes) -> dict:
    """Atomically write ``data`` to ``path`` and return its integrity
    record ``{"crc32": ..., "size": ...}`` for the caller to persist in
    a manifest.  Atomicity protects against *torn* writes; the checksum
    additionally detects post-write damage (bit rot, a partial restore,
    an editor or test poking the file) when the reader verifies it with
    :func:`read_checksummed`."""
    record = {"crc32": zlib.crc32(data), "size": len(data)}
    with atomic_write(path, binary=True) as handle:
        handle.write(data)
    return record


def read_checksummed(
    path: Union[str, os.PathLike], record: dict
) -> Optional[bytes]:
    """Read ``path`` and verify it against a :func:`checksummed_write`
    record.  Returns the content, or ``None`` on any mismatch or read
    failure — the caller decides whether to fall back to an older
    generation or start cold; this layer never raises."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    try:
        if len(data) != record["size"] or zlib.crc32(data) != record["crc32"]:
            return None
    except (KeyError, TypeError):
        return None
    return data
