"""Atomic artifact files: the one place that decides how bytes reach disk.

The bytes go to ``.{name}.{pid}.tmp`` next to the destination, created with
mode 0o666 (less the umask, as ``Path.write_text`` would create it); the
file is flushed and fsynced, then renamed over the destination. A write that
fails for any reason, a full disk or an exception raised by the chunk source
alike, removes the temporary file and leaves the destination as it was.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path

__all__ = ["write_artifact", "write_lines"]


def write_artifact(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Replace ``path`` with the concatenation of ``chunks``, in order."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    handle = open(tmp, "xb")  # O_CREAT | O_EXCL
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines``, each ended by ``\\n``, as UTF-8."""
    write_artifact(path, (f"{line}\n".encode("utf-8") for line in lines))
