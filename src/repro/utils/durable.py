"""Durable, atomic file replacement for bundles, job states, checkpoints
and calibration profiles — files other processes read, possibly after a
crash, and must only ever observe complete.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Iterator, Union

__all__ = ["atomic_write"]


def _fsync_dir(path: Union[str, Path]) -> None:
    """fsync a directory, tolerating filesystems that refuse it (some
    network mounts)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_write(path: Union[str, Path], mode: str = "w") -> Iterator[IO]:
    """Write ``path`` through a temp sibling: ``flush`` + ``fsync`` the
    data, rename over the target (atomic on POSIX), then ``fsync`` the
    directory so the rename itself survives a host crash — a replayed
    journal must not resurrect the previous version after dependent
    state advanced.

    If the block raises, ``path`` is untouched and the temp file is
    removed. A writer *killed* mid-block leaves ``<name>.<pid>.tmp``
    behind (``*.tmp`` — what :meth:`repro.fitting.JobStore.recover`
    sweeps); the pid keeps concurrent writer processes off each other's
    temp file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    _fsync_dir(path.parent)
