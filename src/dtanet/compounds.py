"""Compound featurization: circular fingerprints and per-atom feature rows.

Featurizers read the columns of a molecule table and return plain arrays.
:func:`ecfp_matrix` is the one builder of fingerprint matrices: model input,
clustering and the fingerprint CSV. :func:`ecfp` is its one-molecule view,
as :func:`atom_features` is of :func:`atom_feature_matrix`.

The fingerprint is the classic iterative circular construction (ECFP,
Rogers & Hahn, J. Chem. Inf. Model. 50 (2010) 742): every atom starts from
a hashed invariant tuple, each round rehashes it with the sorted
(bond order, neighbor identifier) list, environments covering an already-seen
atom set are dropped in favour of the lowest-radius occurrence (then the
lowest identifier), and surviving identifiers are folded modulo the bit
length. Hashing is FNV-1a over the values serialized as 64-bit little-endian
two's-complement words, so bit patterns are reproducible across platforms.

All molecules of a call are fingerprinted together, as numpy arithmetic over
the table's atom columns, in blocks of molecules of similar size:

* atoms of a block are numbered globally and ordered by descending degree,
  so the atoms with more than ``k`` neighbors are a prefix of every column
  (the degree-sliced layout of DeepChem, Altae-Tran et al.,
  arXiv:1611.03199); neighbor lists are one edge array sorted by atom;
* each radius sorts every atom's ``(order, neighbor id)`` pairs with one
  ``lexsort``, hashes ``[r, id]`` for every atom, then neighbor slot ``k``
  for the prefix of atoms whose degree exceeds ``k``;
* an atom's covered atom set is a bitset of ``ceil(n_atoms / 64)`` uint64
  words over its molecule's atoms, grown by OR-ing in its neighbors' sets;
* one ``lexsort`` of every ``(molecule, atom set, radius, id)`` entry keeps
  the first entry of each ``(molecule, atom set)`` group.

The arithmetic is bit-identical to hashing one byte at a time: FNV-1a keeps
a 32-bit state that numpy's uint32 multiply wraps modulo 2**32, and each
int64 word is read as its 8 little-endian bytes. Where the high bytes of a
column are known to be zero (identifiers fit in 32 bits; bond orders and
most invariants in one byte), they leave the state's xor unchanged and fold
into one multiply by a power of the prime. The first entry of a sorted
``(atom set, radius, id)`` group is the lowest ``(radius, id)``, the one a
dictionary of best occurrences per atom set keeps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .elements import PERIODIC_TABLE, SYMBOLS
from .smiles import MoleculeTable

__all__ = [
    "FeaturizationError",
    "ECFP_ALLOWED_BITS",
    "DEFAULT_ATOM_VOCABULARY",
    "ecfp",
    "ecfp_matrix",
    "tanimoto",
    "atom_features",
    "atom_feature_matrix",
    "atom_feature_width",
]

ECFP_ALLOWED_BITS = (512, 1024, 2048, 4096)

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = np.uint32(0x01000193)
# _FNV_POWERS[k] is _FNV_PRIME**k mod 2**32
_FNV_POWERS = tuple(np.uint32(pow(0x01000193, k, 1 << 32)) for k in range(9))

# Atoms times 64-atom set words that one block may hold: its atom sets
# take at most (radius + 1) * _BLOCK_WORDS * 8 bytes (128 KB a radius). On a
# 2-core x86-64 host, 5,000 molecules at r = 2 took the same time, within
# 3%, at 2**12 to 2**16 words a block, and 15-30% longer at 2**10.
_BLOCK_WORDS = 1 << 14


class FeaturizationError(ValueError):
    pass


def _fnv1a(h: np.ndarray, words: np.ndarray, width: int = 8) -> None:
    """Continue the uint32 FNV-1a states ``h`` in place over one int64 word
    each, ``words[i]`` feeding ``h[i]`` as its 8 little-endian bytes.

    Only the low ``width`` bytes are read: the caller knows that the others
    are zero, and a zero byte leaves the xor unchanged, so they fold into
    one multiply.
    """
    data = np.ascontiguousarray(words, dtype="<i8").reshape(-1, 1).view(np.uint8)
    for column in data.T[:width]:
        h ^= column
        h *= _FNV_PRIME
    if width < 8:
        h *= _FNV_POWERS[8 - width]


def _byte_width(words: np.ndarray) -> int:
    """The low bytes of every word in ``words`` that :func:`_fnv1a` has to
    read: 8 if one is negative."""
    if words.size == 0 or words.min() < 0:
        return 8
    return (int(words.max()).bit_length() + 7) // 8


def _ecfp_block(molecules: MoleculeTable,
                radius: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, identifiers)``: surviving identifier ``identifiers[k]`` of
    molecule ``rows[k]`` of ``molecules``, for every molecule."""
    sizes = molecules.sizes
    n = molecules.n_atoms
    mol = np.repeat(np.arange(len(molecules)), sizes)
    local = np.arange(n) - molecules.atom_offsets[mol]
    src, dst, order = molecules.edges()
    order_width = _byte_width(order)
    degree = np.bincount(src, minlength=n)

    invariants = np.stack([
        molecules.atomic_numbers, degree, molecules.hydrogens,
        molecules.charges, molecules.aromatic, molecules.ring], axis=1)
    ids = np.full(n, _FNV_OFFSET, dtype=np.uint32)
    for column in invariants.T:
        _fnv1a(ids, column, _byte_width(column))

    # renumber atoms by descending degree; edges sorted by their atom
    by_degree = np.argsort(-degree, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[by_degree] = np.arange(n)
    ids, mol, local, degree = (ids[by_degree], mol[by_degree],
                               local[by_degree], degree[by_degree])
    src, dst = position[src], position[dst]
    edges = np.argsort(src, kind="stable")
    src, dst, order = src[edges], dst[edges], order[edges]
    row_start = np.cumsum(degree) - degree
    # slots[k]: the edge of neighbor slot k of atoms 0 .. len(slots[k]) - 1
    slots = [row_start[:np.count_nonzero(degree > k)] + k
             for k in range(int(degree.max(initial=0)))]

    coverage = np.zeros((n, (int(sizes.max()) + 63) // 64), dtype=np.uint64)
    coverage[np.arange(n), local // 64] = np.left_shift(
        np.uint64(1), (local % 64).astype(np.uint64))
    entries = [(np.zeros(n, dtype=np.int64), ids, coverage, mol)]
    for r in range(1, radius + 1):
        neighbor_ids = ids[dst]
        ranked = np.lexsort((neighbor_ids, order, src))
        ranked_order, ranked_id = order[ranked], neighbor_ids[ranked]
        start = np.array([_FNV_OFFSET], dtype=np.uint32)
        _fnv1a(start, np.array([r]))
        new_ids = np.full(n, start[0])
        _fnv1a(new_ids, ids, 4)
        grown = coverage.copy()
        for slot in slots:
            head = new_ids[:len(slot)]
            _fnv1a(head, ranked_order[slot], order_width)
            _fnv1a(head, ranked_id[slot], 4)
            grown[:len(slot)] |= coverage[dst[slot]]
        # an atom set that did not grow is already held at a lower radius;
        # once none grows, no later radius adds an atom set either
        grew = (grown != coverage).any(axis=1)
        if not grew.any():
            break
        ids, coverage = new_ids, grown
        entries.append((np.full(int(grew.sum()), r), ids[grew],
                        coverage[grew], mol[grew]))
    radii, ids, sets, mols = (np.concatenate(column) for column in zip(*entries))
    ranked = np.lexsort((ids, radii, *sets.T, mols))
    ids, sets, mols = ids[ranked], sets[ranked], mols[ranked]
    first_of_set = np.ones(len(ids), dtype=bool)
    first_of_set[1:] = (mols[1:] != mols[:-1]) | (sets[1:] != sets[:-1]).any(axis=1)
    return mols[first_of_set], ids[first_of_set]


def _ecfp_blocks(molecules: MoleculeTable, radius: int):
    """Yield ``(rows, identifiers)`` per block: ``identifiers[k]`` survives
    in molecule ``rows[k]``. Blocks take molecules by ascending size, so a
    block's bitset width follows its largest molecule."""
    if radius < 0:
        raise FeaturizationError("radius must be >= 0")
    sizes = molecules.sizes.tolist()
    if 0 in sizes:
        raise FeaturizationError("cannot fingerprint an empty molecule")
    blocks: list[list[int]] = []
    atoms = 0
    for i in sorted(range(len(sizes)), key=sizes.__getitem__):
        atoms += sizes[i]
        if not blocks or atoms * ((sizes[i] + 63) // 64) > _BLOCK_WORDS:
            blocks.append([])
            atoms = sizes[i]
        blocks[-1].append(i)
    for block in blocks:
        rows, ids = _ecfp_block(molecules.take(block), radius)
        yield np.asarray(block)[rows], ids


def ecfp(graph: MoleculeTable, radius: int = 2,
         n_bits: int = 2048) -> np.ndarray:
    """Fold the surviving identifiers of ``graph`` into a uint8 0/1 vector."""
    return ecfp_matrix(graph, radius, n_bits)[0]


def ecfp_matrix(molecules: MoleculeTable, radius: int = 2,
                n_bits: int = 2048) -> np.ndarray:
    """uint8 ``(len(molecules), n_bits)`` matrix: row ``i`` is the
    fingerprint of molecule ``i``, bit ``id % n_bits`` set for each of its
    surviving identifiers."""
    if n_bits not in ECFP_ALLOWED_BITS:
        raise FeaturizationError(f"n_bits must be one of {ECFP_ALLOWED_BITS}, got {n_bits}")
    matrix = np.zeros((len(molecules), n_bits), dtype=np.uint8)
    for rows, ids in _ecfp_blocks(molecules, radius):
        matrix[rows, ids % n_bits] = 1
    return matrix


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """|a AND b| / |a OR b| of two bit vectors; two empty ones are identical."""
    if a.size != b.size:
        raise FeaturizationError(
            f"fingerprint length mismatch: {a.size} vs {b.size}")
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return inter / union


# Element vocabulary for the one-hot block of atom feature rows; symbols not
# listed fall into a shared "other" slot.
DEFAULT_ATOM_VOCABULARY = (
    "B", "Br", "C", "Ca", "Cl", "Cu", "F", "Fe", "I", "K",
    "Mg", "Mn", "N", "Na", "O", "P", "S", "Se", "Si", "Zn",
)

_MAX_H_ONEHOT = 4  # hydrogen counts above this share the last slot


def atom_feature_width(vocabulary: Sequence[str] = DEFAULT_ATOM_VOCABULARY,
                       max_degree: int = 6) -> int:
    # element one-hot + other, degree one-hot, H-count one-hot, charge,
    # aromatic flag, ring flag
    return (len(vocabulary) + 1) + (max_degree + 1) + (_MAX_H_ONEHOT + 1) + 3


def atom_feature_matrix(molecules: MoleculeTable,
                        vocabulary: Sequence[str] = DEFAULT_ATOM_VOCABULARY,
                        max_degree: int = 6) -> np.ndarray:
    """Float64 ``(molecules.n_atoms, atom_feature_width(...))`` matrix, one
    row per atom of the table.

    Layout: element one-hot over ``vocabulary`` plus an "other" slot, degree
    one-hot 0..max_degree, hydrogen-count one-hot 0..4, formal charge scalar,
    aromatic flag, ring flag.

    An atom of degree above ``max_degree`` raises a
    :class:`FeaturizationError` naming it in its molecule, whose row is the
    error's ``molecule``.
    """
    degrees = np.bincount(molecules.edges()[0], minlength=molecules.n_atoms)
    over = np.flatnonzero(degrees > max_degree)
    if over.size:
        atom = int(over[0])
        row = int(np.searchsorted(molecules.atom_offsets, atom, side="right")) - 1
        error = FeaturizationError(
            f"atom {atom - molecules.atom_offsets[row]} "
            f"({SYMBOLS[int(molecules.atomic_numbers[atom])]}) has degree "
            f"{degrees[atom]}, max supported is {max_degree}")
        error.molecule = row
        raise error
    # atomic number -> element slot; a symbol listed twice keeps its last slot
    slots = np.full(len(SYMBOLS), len(vocabulary), dtype=np.intp)
    for k, symbol in enumerate(vocabulary):
        if symbol in PERIODIC_TABLE:
            slots[PERIODIC_TABLE[symbol]] = k
    degree_at = len(vocabulary) + 1
    hydrogen_at = degree_at + max_degree + 1
    scalar_at = hydrogen_at + _MAX_H_ONEHOT + 1
    n = molecules.n_atoms
    rows = np.zeros((n, atom_feature_width(vocabulary, max_degree)),
                    dtype=np.float64)
    rows[np.arange(n)[:, None], np.stack([
        slots[molecules.atomic_numbers], degree_at + degrees,
        hydrogen_at + np.minimum(molecules.hydrogens, _MAX_H_ONEHOT)],
        axis=1)] = 1.0
    rows[:, scalar_at] = molecules.charges
    rows[:, scalar_at + 1] = molecules.aromatic
    rows[:, scalar_at + 2] = molecules.ring
    return rows


def atom_features(graph: MoleculeTable,
                  vocabulary: Sequence[str] = DEFAULT_ATOM_VOCABULARY,
                  max_degree: int = 6) -> np.ndarray:
    """The :func:`atom_feature_matrix` of the one molecule ``graph``."""
    return atom_feature_matrix(graph, vocabulary, max_degree)
