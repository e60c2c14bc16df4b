"""Compound featurization: circular fingerprints and per-atom feature rows.

Featurizers return plain arrays. :func:`ecfp_matrix` is the one builder of
fingerprint matrices: model input, clustering and the fingerprint CSV.

The fingerprint is the classic iterative circular construction: every atom
starts from a hashed invariant tuple, each round rehashes it with the sorted
(bond order, neighbor identifier) list, environments covering an already-seen
atom set are dropped in favour of the lowest-radius occurrence, and surviving
identifiers are folded modulo the bit length. Hashing is FNV-1a over the
values serialized as 64-bit little-endian two's-complement words, so bit
patterns are reproducible across platforms.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .elements import atomic_number
from .smiles import MolGraph

__all__ = [
    "FeaturizationError",
    "ECFP_ALLOWED_BITS",
    "DEFAULT_ATOM_VOCABULARY",
    "ecfp",
    "ecfp_matrix",
    "ecfp_identifiers",
    "tanimoto",
    "atom_features",
    "atom_feature_width",
]

ECFP_ALLOWED_BITS = (512, 1024, 2048, 4096)

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


class FeaturizationError(ValueError):
    pass


# _FNV_POWERS[k] is FNV_PRIME**k mod 2**32. A zero byte leaves h unchanged
# under the xor, so the k zero high bytes of a word fold into one multiply.
_FNV_POWERS = tuple(pow(_FNV_PRIME, k, 1 << 32) for k in range(9))


def _mix32(values: Iterable[int]) -> int:
    """FNV-1a over 64-bit little-endian two's-complement words, kept to 32 bits."""
    h = _FNV_OFFSET
    for value in values:
        word = value & 0xFFFFFFFFFFFFFFFF  # a negative word keeps all 8 bytes
        n = 0
        while word:
            h = ((h ^ (word & 0xFF)) * _FNV_PRIME) & 0xFFFFFFFF
            word >>= 8
            n += 1
        h = (h * _FNV_POWERS[8 - n]) & 0xFFFFFFFF
    return h


def _initial_identifiers(graph: MolGraph) -> list[int]:
    return [
        _mix32((atomic_number(element), len(nbrs), hydrogens, charge,
                int(aromatic), int(ring)))
        for element, nbrs, hydrogens, charge, aromatic, ring in zip(
            graph.elements, graph.adjacency, graph.hydrogens, graph.charges,
            graph.aromatic, graph.ring)
    ]


def ecfp_identifiers(graph: MolGraph, radius: int) -> tuple[int, ...]:
    """Surviving 32-bit substructure identifiers, sorted ascending.

    Duplicate substructures (identical covered atom sets) keep the occurrence
    with the lowest radius, then the lowest identifier.
    """
    if radius < 0:
        raise FeaturizationError("radius must be >= 0")
    if graph.n_atoms == 0:
        raise FeaturizationError("cannot fingerprint an empty molecule")
    ids = _initial_identifiers(graph)
    coverage: list[frozenset[int]] = [frozenset((i,)) for i in range(graph.n_atoms)]
    best: dict[frozenset[int], tuple[int, int]] = {}

    def register(atom_set: frozenset[int], r: int, identifier: int) -> None:
        seen = best.get(atom_set)
        if seen is None or (r, identifier) < seen:
            best[atom_set] = (r, identifier)

    for i in range(graph.n_atoms):
        register(coverage[i], 0, ids[i])
    for r in range(1, radius + 1):
        new_ids = []
        new_cov = []
        for i in range(graph.n_atoms):
            neighbors = sorted(zip(graph.bond_orders[i],
                                   [ids[j] for j in graph.adjacency[i]]))
            payload = [r, ids[i]]
            for order_code, nbr_id in neighbors:
                payload.append(order_code)
                payload.append(nbr_id)
            new_ids.append(_mix32(payload))
            grown = set(coverage[i])
            for j in graph.adjacency[i]:
                grown |= coverage[j]
            new_cov.append(frozenset(grown))
        ids, coverage = new_ids, new_cov
        for i in range(graph.n_atoms):
            register(coverage[i], r, ids[i])
    return tuple(sorted({identifier for _, identifier in best.values()}))


def ecfp(graph: MolGraph, radius: int = 2, n_bits: int = 2048) -> np.ndarray:
    """Fold the surviving identifiers of ``graph`` into a uint8 0/1 vector."""
    if n_bits not in ECFP_ALLOWED_BITS:
        raise FeaturizationError(f"n_bits must be one of {ECFP_ALLOWED_BITS}, got {n_bits}")
    bits = np.zeros(n_bits, dtype=np.uint8)
    for identifier in ecfp_identifiers(graph, radius):
        bits[identifier % n_bits] = 1
    return bits


def ecfp_matrix(molecules: Sequence[MolGraph], radius: int = 2,
                n_bits: int = 2048) -> np.ndarray:
    """uint8 ``(len(molecules), n_bits)`` matrix: row ``i`` is
    ``ecfp(molecules[i], radius, n_bits)``."""
    matrix = np.zeros((len(molecules), n_bits), dtype=np.uint8)
    for row, molecule in zip(matrix, molecules):
        row[:] = ecfp(molecule, radius, n_bits)
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


def atom_features(graph: MolGraph,
                  vocabulary: Sequence[str] = DEFAULT_ATOM_VOCABULARY,
                  max_degree: int = 6) -> np.ndarray:
    """Float64 ``(n_atoms, atom_feature_width(...))`` matrix, one row per atom.

    Layout: element one-hot over ``vocabulary`` plus an "other" slot, degree
    one-hot 0..max_degree, hydrogen-count one-hot 0..4, formal charge scalar,
    aromatic flag, ring flag.
    """
    vocab_index = {symbol: k for k, symbol in enumerate(vocabulary)}
    degree_at = len(vocabulary) + 1
    hydrogen_at = degree_at + max_degree + 1
    scalar_at = hydrogen_at + _MAX_H_ONEHOT + 1
    hot = []  # the three one-hot columns of each atom
    for i, (element, nbrs, hydrogens) in enumerate(
            zip(graph.elements, graph.adjacency, graph.hydrogens)):
        if len(nbrs) > max_degree:
            raise FeaturizationError(
                f"atom {i} ({element}) has degree {len(nbrs)}, "
                f"max supported is {max_degree}")
        hot.append((vocab_index.get(element, len(vocabulary)),
                    degree_at + len(nbrs),
                    hydrogen_at + min(hydrogens, _MAX_H_ONEHOT)))
    rows = np.zeros((graph.n_atoms, atom_feature_width(vocabulary, max_degree)),
                    dtype=np.float64)
    rows[np.arange(graph.n_atoms)[:, None],
         np.array(hot, dtype=np.intp).reshape(-1, 3)] = 1.0
    rows[:, scalar_at] = graph.charges
    rows[:, scalar_at + 1] = graph.aromatic
    rows[:, scalar_at + 2] = graph.ring
    return rows
