"""Crash-safe file writes — the one atomic-write helper for the repo.

A plain ``open(path, "w")`` destroys the previous contents the moment it
runs; a crash (or ``SIGKILL``, or a full disk) mid-write leaves a
truncated, unparseable file where a good one used to be. Every on-disk
artefact the framework produces — trace files, CSV/JSON exports, the
sweep checkpoint manifest and its stored ``.npz`` traces — is written
through :func:`atomic_write` (or its binary sibling
:func:`atomic_write_bytes`) instead: the content goes to a temporary
file in the *same directory* (same filesystem, so the final rename
cannot cross devices) and is moved into place with :func:`os.replace`,
which POSIX guarantees to be atomic. Readers therefore only ever observe the old complete file or the new
complete file, never a half-written one.

The checkpoint *journal* (:mod:`repro.core.checkpoint`) is the one
deliberate exception: it is append-only, so it uses flushed+fsynced
appends of whole records and tolerates a torn final line on read
instead of rewriting the file per record.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from collections.abc import Callable
from typing import Any, BinaryIO, TextIO

__all__ = ["atomic_write", "atomic_write_bytes", "atomic_write_text"]


def atomic_write(
    path: str | Path,
    writer: Callable[[TextIO], None],
    *,
    encoding: str = "utf-8",
    newline: str | None = None,
) -> None:
    """Write a text file atomically via temp file + :func:`os.replace`.

    ``writer`` receives an open text stream positioned at the start of an
    empty temporary file in ``path``'s directory. Once it returns, the
    data is flushed and fsynced, and the temp file is renamed over
    ``path`` in one atomic step. If ``writer`` raises, the temp file is
    removed and ``path`` is left untouched.

    Args:
        path: Final destination.
        writer: Callback that writes the full content to the stream.
        encoding: Text encoding (default UTF-8).
        newline: Forwarded to :func:`open` (pass ``""`` for ``csv``).
    """
    _replace_atomically(path, writer, "w", encoding=encoding, newline=newline)


def atomic_write_bytes(path: str | Path, writer: Callable[[BinaryIO], None]) -> None:
    """Binary sibling of :func:`atomic_write`: ``writer`` gets a binary stream.

    Same guarantees — temp file in ``path``'s directory, flush + fsync,
    then one atomic :func:`os.replace`; a raising ``writer`` leaves
    ``path`` untouched and no temp file behind.
    """
    _replace_atomically(path, writer, "wb")


def _replace_atomically(
    path: str | Path, writer: Callable[[Any], None], mode: str, **open_kwargs: Any
) -> None:
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with open(fd, mode, **open_kwargs) as stream:
            writer(stream)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already gone / fd cleanup race
            pass
        raise


def atomic_write_text(
    path: str | Path, text: str, *, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path``'s contents with ``text``."""

    def _write(stream: TextIO) -> None:
        stream.write(text)

    atomic_write(path, _write, encoding=encoding)
