"""Whole-file artifact writes, and the lines of text artifacts read back.

Every writer in the pipeline goes through ``_atomic_write``, so a process
that dies mid-write leaves the previous file, or none, but never a
truncated one that ``--force``-less reruns refuse to replace or a later
stage reads.  Every text reader iterates ``_utf8_lines``, so a byte that
is not UTF-8 fails as a parse error that names the file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError


@contextmanager
def _atomic_write(path, mode: str = "w", **kwargs):
    """Open a temporary file next to ``path`` and move it over ``path`` once
    the block completes.

    The temporary file sits in the same directory, so ``os.replace`` swaps
    it in atomically: readers see the old file or the whole new one.  If the
    block raises, the temporary file is removed and ``path`` is left as it
    was.  ``mode`` and ``kwargs`` go to ``open``; the file gets the mode bits
    a plain ``open`` would give it.  Nothing is synced to disk, so this
    guards against a crash of the process, not of the machine.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _utf8_lines(fh):
    """The lines of ``fh``, a text file opened as UTF-8.  A byte it cannot
    decode raises :class:`ParseError` naming the file, where the decoder's
    ``UnicodeDecodeError`` would end the command in a traceback; the file
    is decoded a chunk at a time, so the error gives no line number."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{fh.name}: not UTF-8 text ({exc.reason})") from None
