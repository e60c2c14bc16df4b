"""Protein sequence-composition descriptors.

A descriptor is the concatenation of monomer, dipeptide and tripeptide
frequencies over the 20 canonical amino acids, followed by one binary
phosphorylation entry: 20 + 400 + 8000 + 1 = 8421 values. Frequencies are
normalized to [0, 1] (users of percentage-scaled descriptors must divide by
100). Block order is AAC | DC | TC | phospho, with each block indexed
alphabetically by residue; the layout is version-stamped so downstream
consumers can detect drift.

Sequence tables are tab-separated text, one record per line:
``protein_id<TAB>phospho_flag<TAB>sequence`` with the flag in {0, 1}.

Descriptor matrices are stored in a small binary container:
8-byte magic ``PSCMAT01``, uint32 layout version, uint32 record count,
uint32 descriptor length, then per record a uint16 id byte length plus the
UTF-8 id, and finally the float64 little-endian matrix, row-major.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .artifacts import read_lines, write_artifact

__all__ = [
    "AMINO_ACIDS",
    "DESCRIPTOR_LENGTH",
    "LAYOUT_VERSION",
    "SequenceError",
    "psc",
    "descriptor_matrix",
    "validate_sequence",
    "read_sequence_table",
    "write_descriptor_matrix",
    "read_descriptor_matrix",
]

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
# residue code per code point up to 127, and -1 at 128 for every other one
_CODES = np.full(129, -1, dtype=np.int64)
_CODES[[ord(letter) for letter in AMINO_ACIDS]] = np.arange(len(AMINO_ACIDS))

AAC_LENGTH = 20
DC_LENGTH = 400
TC_LENGTH = 8000
DESCRIPTOR_LENGTH = AAC_LENGTH + DC_LENGTH + TC_LENGTH + 1
LAYOUT_VERSION = 1

_MAGIC = b"PSCMAT01"
_MAX_ID_BYTES = 0xFFFF  # an id's byte length is stored as uint16


class SequenceError(ValueError):
    pass


def _encode(sequence: str) -> np.ndarray:
    """Residue codes of a usable sequence, else :class:`SequenceError`
    naming the first letter that is not a canonical residue."""
    if len(sequence) < 3:
        raise SequenceError(
            f"sequence length {len(sequence)} is below the minimum of 3")
    # one code point per letter; a lone surrogate is a letter too
    points = np.frombuffer(sequence.encode("utf-32-le", "surrogatepass"),
                           dtype="<u4")
    codes = _CODES[np.minimum(points, 128)]
    if codes.min() < 0:
        pos = int(np.argmax(codes < 0))
        raise SequenceError(
            f"unknown residue {sequence[pos]!r} at position {pos} "
            f"(non-canonical letters are rejected, not remapped)")
    return codes


def validate_sequence(sequence: str) -> None:
    """Raise :class:`SequenceError` if ``sequence`` is unusable."""
    _encode(sequence)


def psc(sequence: str, phosphorylated: bool = False) -> np.ndarray:
    """Sequence-composition descriptor of length 8421.

    Monomer frequencies divide by L, dipeptides by L-1 and tripeptides by
    L-2, so each block sums to exactly 1; the final entry is 1 for a
    phosphorylated protein.
    """
    out = np.empty(DESCRIPTOR_LENGTH)
    _describe(sequence, phosphorylated, out)
    return out


def _describe(sequence: str, phosphorylated: bool, out: np.ndarray) -> None:
    """Write :func:`psc` of the sequence into every entry of ``out``."""
    codes = _encode(sequence)
    length = len(codes)
    di = codes[:-1] * 20 + codes[1:]
    tri = codes[:-2] * 400 + codes[1:-1] * 20 + codes[2:]
    np.divide(np.bincount(codes, minlength=AAC_LENGTH), length,
              out=out[:AAC_LENGTH])
    np.divide(np.bincount(di, minlength=DC_LENGTH), length - 1,
              out=out[AAC_LENGTH:AAC_LENGTH + DC_LENGTH])
    np.divide(np.bincount(tri, minlength=TC_LENGTH), length - 2,
              out=out[AAC_LENGTH + DC_LENGTH:-1])
    out[-1] = 1.0 if phosphorylated else 0.0


def descriptor_matrix(table: dict[str, tuple[str, bool]], ids) -> np.ndarray:
    """One :func:`psc` row per id in ``ids``, from a sequence table."""
    matrix = np.empty((len(ids), DESCRIPTOR_LENGTH))
    for row, protein_id in zip(matrix, ids):
        _describe(*table[protein_id], row)
    return matrix


def read_sequence_table(path: str | Path) -> dict[str, tuple[str, bool]]:
    """Load ``protein_id / phospho_flag / sequence`` records from a TSV file."""
    table: dict[str, tuple[str, bool]] = {}
    for lineno, line in read_lines(path, SequenceError):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise SequenceError(
                f"{path}: line {lineno}: expected 3 tab-separated fields, "
                f"got {len(parts)}")
        protein_id, flag, sequence = parts
        if flag not in ("0", "1"):
            raise SequenceError(
                f"{path}: line {lineno}: phospho flag must be 0 or 1, got {flag!r}")
        if protein_id in table:
            raise SequenceError(f"{path}: line {lineno}: duplicate id {protein_id!r}")
        try:
            validate_sequence(sequence)
        except SequenceError as exc:
            raise SequenceError(f"{path}: line {lineno}: {exc}") from exc
        table[protein_id] = (sequence, flag == "1")
    return table


def write_descriptor_matrix(path: str | Path, ids: list[str],
                            matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.shape != (len(ids), DESCRIPTOR_LENGTH):
        raise SequenceError(
            f"matrix shape {matrix.shape} does not match "
            f"({len(ids)}, {DESCRIPTOR_LENGTH})")
    chunks = [_MAGIC, struct.pack("<III", LAYOUT_VERSION, len(ids),
                                  DESCRIPTOR_LENGTH)]
    for position, protein_id in enumerate(ids):
        raw = protein_id.encode("utf-8")
        if len(raw) > _MAX_ID_BYTES:
            raise SequenceError(
                f"{path}: protein id at position {position} is {len(raw)} "
                f"UTF-8 bytes long; the limit is {_MAX_ID_BYTES}")
        chunks += [struct.pack("<H", len(raw)), raw]
    write_artifact(path, chunks + [matrix.astype("<f8").tobytes()])


def read_descriptor_matrix(path: str | Path) -> tuple[list[str], np.ndarray]:
    with open(path, "rb") as handle:

        def read(size: int) -> bytes:
            data = handle.read(size)
            if len(data) != size:
                raise SequenceError(f"{path}: truncated descriptor matrix file")
            return data

        magic = handle.read(8)
        if magic != _MAGIC:
            raise SequenceError(f"{path}: not a descriptor matrix file")
        version, count, dim = struct.unpack("<III", read(12))
        if version != LAYOUT_VERSION:
            raise SequenceError(
                f"{path}: layout version {version} is not supported "
                f"(expected {LAYOUT_VERSION})")
        if dim != DESCRIPTOR_LENGTH:
            raise SequenceError(
                f"{path}: descriptor length {dim} != {DESCRIPTOR_LENGTH}")
        ids = []
        for _ in range(count):
            (id_len,) = struct.unpack("<H", read(2))
            raw = read(id_len)
            try:
                ids.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise SequenceError(
                    f"{path}: protein id {raw!r} is not UTF-8") from None
        payload = read(count * dim * 8)
        matrix = np.frombuffer(payload, dtype="<f8").reshape(count, dim).copy()
    return ids, matrix
