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

from .artifacts import write_artifact

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
_AA_INDEX = {letter: k for k, letter in enumerate(AMINO_ACIDS)}

AAC_LENGTH = 20
DC_LENGTH = 400
TC_LENGTH = 8000
DESCRIPTOR_LENGTH = AAC_LENGTH + DC_LENGTH + TC_LENGTH + 1
LAYOUT_VERSION = 1

_MAGIC = b"PSCMAT01"


class SequenceError(ValueError):
    pass


def _encode(sequence: str) -> np.ndarray:
    """Residue codes of a usable sequence, else :class:`SequenceError`."""
    if len(sequence) < 3:
        raise SequenceError(
            f"sequence length {len(sequence)} is below the minimum of 3")
    codes = np.empty(len(sequence), dtype=np.int64)
    for pos, letter in enumerate(sequence):
        code = _AA_INDEX.get(letter)
        if code is None:
            raise SequenceError(
                f"unknown residue {letter!r} at position {pos} "
                f"(non-canonical letters are rejected, not remapped)")
        codes[pos] = code
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
    codes = _encode(sequence)
    length = len(codes)
    out = np.zeros(DESCRIPTOR_LENGTH, dtype=np.float64)
    out[:AAC_LENGTH] = np.bincount(codes, minlength=20) / length
    di = codes[:-1] * 20 + codes[1:]
    out[AAC_LENGTH:AAC_LENGTH + DC_LENGTH] = (
        np.bincount(di, minlength=400) / (length - 1))
    tri = codes[:-2] * 400 + codes[1:-1] * 20 + codes[2:]
    out[AAC_LENGTH + DC_LENGTH:AAC_LENGTH + DC_LENGTH + TC_LENGTH] = (
        np.bincount(tri, minlength=8000) / (length - 2))
    out[-1] = 1.0 if phosphorylated else 0.0
    return out


def descriptor_matrix(table: dict[str, tuple[str, bool]], ids) -> np.ndarray:
    """One :func:`psc` row per id in ``ids``, from a sequence table."""
    return np.stack([psc(*table[protein_id]) for protein_id in ids])


def read_sequence_table(path: str | Path) -> dict[str, tuple[str, bool]]:
    """Load ``protein_id / phospho_flag / sequence`` records from a TSV file."""
    table: dict[str, tuple[str, bool]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SequenceError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, "
                    f"got {len(parts)}")
            protein_id, flag, sequence = parts
            if flag not in ("0", "1"):
                raise SequenceError(
                    f"{path}:{lineno}: phospho flag must be 0 or 1, got {flag!r}")
            if protein_id in table:
                raise SequenceError(f"{path}:{lineno}: duplicate id {protein_id!r}")
            try:
                validate_sequence(sequence)
            except SequenceError as exc:
                raise SequenceError(f"{path}:{lineno}: {exc}") from exc
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
    for protein_id in ids:
        raw = protein_id.encode("utf-8")
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
