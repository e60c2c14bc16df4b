"""The one place that decides how bytes reach disk and input text leaves it.

The bytes go to ``.{name}.{pid}.{token}.tmp`` next to the destination, with
a random token per write, so a temporary file left by a killed writer never
blocks a later one that got the same pid. It is created exclusively with
mode 0o666 (less the umask, as ``Path.write_text`` would create it); the
file is flushed and fsynced, then renamed over the destination, and the
directory is fsynced so that the rename itself survives a crash. A write that
fails for any reason, a full disk or an exception raised by the chunk source
alike, removes the temporary file and leaves the destination as it was.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from pathlib import Path

__all__ = ["read_lines", "write_artifact", "write_lines"]


def write_artifact(path: str | Path, chunks: Iterable) -> None:
    """Replace ``path`` with the concatenation of ``chunks``, in order.

    A chunk is any bytes-like object (``bytes``, or a C-contiguous numpy
    array, whose buffer is written as it is). Each chunk is dropped once
    written, before the next one is drawn, so a source that makes large
    chunks on demand holds one at a time.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
    handle = open(tmp, "xb")  # O_CREAT | O_EXCL
    try:
        with handle:
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines``, each ended by ``\\n``, as UTF-8."""
    write_artifact(path, (f"{line}\n".encode("utf-8") for line in lines))


def read_lines(path: str | Path, error: type[Exception]
               ) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` for each UTF-8 line of ``path``, numbered from
    1, without its ending (``\\n``, ``\\r\\n`` or a lone ``\\r``). A line that
    is not UTF-8 raises ``error`` naming the file and the line."""
    # an undecodable byte reads as a lone surrogate, which does not encode
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}: line {lineno}: not UTF-8 text") from None
            yield lineno, line.rstrip("\n")
