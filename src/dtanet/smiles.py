"""SMILES parsing into flat molecule tables.

The supported dialect is a practical subset of SMILES:

* organic-subset atoms B, C, N, O, P, S, F, Cl, Br, I and their aromatic
  lowercase forms b, c, n, o, p, s;
* bracket atoms with optional isotope, hydrogen count and formal charge,
  e.g. ``[NH4+]``, ``[13C]``, ``[O-]``, including the aromatic ``[se]`` and
  ``[as]``, which are written only in brackets;
* bond symbols ``-``, ``=``, ``#``, ``:``;
* branches in parentheses and ring closures ``0``..``9`` and ``%nn``.

Digits are ASCII ``0``-``9`` only, as in the grammar of Weininger (J. Chem.
Inf. Comput. Sci. 28 (1988) 31) and OpenSMILES: a ring label, ``%nn``,
isotope, hydrogen count or charge written with any other digit (``²``,
Arabic-Indic ``١``) is a :class:`SmilesError` at that character, or at the
``%`` of a ``%nn``.

Stereo descriptors (``@``, ``/``, ``\\``), wildcard atoms (``*``) and
multi-fragment strings (``.``) are rejected with a diagnostic. No aromaticity
perception is performed: aromatic flags come solely from lowercase notation,
so Kekule and aromatic spellings of the same ring parse to different bond
orders.

Implicit hydrogens are assigned to unbracketed organic-subset atoms from
standard valences (C4, N3, O2, S2/4/6 lowest fit, halogens 1, P3/5, B3),
where aromatic bonds count one valence unit and an aromatic atom loses one
unit of available valence. Bracket atoms carry exactly their written
hydrogen count, which, like the charge, must fit in 64 bits. Isotopes are
accepted and validated but not stored.

A :class:`MoleculeTable` holds molecules as flat columns, like the per-atom
batch arrays of DeepChem's ConvMol (Altae-Tran et al., arXiv:1611.03199).
Molecule ``m`` owns atoms ``atom_offsets[m]:atom_offsets[m + 1]`` and bonds
``bond_offsets[m]:bond_offsets[m + 1]``. Per atom: ``atomic_numbers``,
``charges``, ``hydrogens`` (total counts), ``aromatic`` and ``ring`` (on a
cycle). ``bonds`` holds ``(a, b, order)`` rows in parse order, with atom ids
local to the molecule. :meth:`MoleculeColumns.append` scans one string onto
shared column lists; :func:`parse_table` and its one-molecule view
:func:`parse_smiles` turn them into a table. A table of many molecules comes
from one scan of their strings; tables are never joined, only selected from
(:meth:`MoleculeTable.take`).

The scan reads the text once through a local index. Atoms of the organic
subset take one dict lookup (plus the ``Cl``/``Br`` check), and bond
symbols, branches and one-digit ring closures are handled in the loop
itself; only bracket atoms and ``%nn`` labels, which are rare, go through
helpers. Implicit hydrogen counts are assigned to every atom of a table at
once, from its bonds.

Ring flags are read off the parse tree. Every bond that is not a ring
closure joins an atom to an atom written before it (its parent), so those
bonds form a spanning tree, and an atom lies on a cycle exactly when it lies
on the tree path between the two ends of some closure bond. The parser
records each atom's parent and walks each closure's ends up to their common
ancestor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .elements import (
    AROMATIC_SYMBOLS,
    BRACKET_SYMBOLS,
    DEFAULT_VALENCES,
    ORGANIC_SUBSET,
    PERIODIC_TABLE,
    SYMBOLS,
)

__all__ = ["BondOrder", "MoleculeColumns", "MoleculeTable", "SmilesError",
           "parse_smiles", "parse_table"]


class SmilesError(ValueError):
    """Raised for any SMILES syntax problem; carries the byte offset."""

    def __init__(self, message: str, smiles: str, offset: int):
        self.smiles = smiles
        self.offset = offset
        super().__init__(f"{message} at offset {offset} in {smiles!r}")


class BondOrder(enum.IntEnum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4


# the scan keeps bond orders as the plain ints the table stores
_SINGLE, _DOUBLE, _TRIPLE, _AROMATIC = (int(order) for order in BondOrder)

_BOND_SYMBOLS = {"-": _SINGLE, "=": _DOUBLE, "#": _TRIPLE, ":": _AROMATIC}

# unbracketed atom symbol -> (atomic number, aromatic)
_ORGANIC_ATOMS = {
    **{s: (PERIODIC_TABLE[s], False) for s in ORGANIC_SUBSET},
    **{s: (PERIODIC_TABLE[s.upper()], True) for s in AROMATIC_SYMBOLS}}

# _FITTED[z, u]: the lowest standard valence of organic-subset element z
# that holds u bond units, else its highest; more units fit as 7 do
_FITTED = np.zeros((len(SYMBOLS), 8), dtype=np.int64)
_FITTED[[PERIODIC_TABLE[s] for s in DEFAULT_VALENCES]] = [
    [next((v for v in valences if v >= u), valences[-1]) for u in range(8)]
    for valences in DEFAULT_VALENCES.values()]

# SMILES numbers are ASCII: str.isdigit() would also take "²" or "١"
_DIGITS = frozenset("0123456789")

# the largest hydrogen count or charge magnitude an int64 column holds
_INT64_MAX = (1 << 63) - 1

_UNSUPPORTED_TOKENS = {
    ".": "multi-fragment separator '.'",
    "*": "wildcard atom '*'",
    "/": "stereo bond '/'",
    "\\": "stereo bond '\\'",
    "@": "stereo descriptor '@'",
}

_PER_ATOM = ("atomic_numbers", "charges", "hydrogens", "aromatic", "ring")


@dataclass(frozen=True, eq=False)
class MoleculeTable:
    """Molecules as flat columns (the layout is in the module docstring)."""

    atom_offsets: np.ndarray  # int64
    bond_offsets: np.ndarray  # int64
    atomic_numbers: np.ndarray  # int64
    charges: np.ndarray  # int64
    hydrogens: np.ndarray  # int64
    aromatic: np.ndarray  # bool
    ring: np.ndarray  # bool
    bonds: np.ndarray  # int64 (n_bonds, 3)

    def __len__(self) -> int:
        return len(self.atom_offsets) - 1

    @property
    def n_atoms(self) -> int:
        return len(self.atomic_numbers)

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.atom_offsets)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, order)`` of each bond in both directions, in
        table-wide atom ids: bond ``k`` is edges ``k`` and ``n_bonds + k``."""
        first = np.repeat(self.atom_offsets[:-1], np.diff(self.bond_offsets))
        a, b = self.bonds[:, 0] + first, self.bonds[:, 1] + first
        return (np.concatenate([a, b]), np.concatenate([b, a]),
                np.tile(self.bonds[:, 2], 2))

    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(offsets, ids)``: atom ``i``'s neighbors are
        ``ids[offsets[i]:offsets[i + 1]]``, table-wide, ascending."""
        src, dst, _ = self.edges()
        return (_offsets(np.bincount(src, minlength=self.n_atoms)),
                dst[np.lexsort((dst, src))])

    def take(self, rows) -> MoleculeTable:
        """The molecules ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        atoms = _spans(self.atom_offsets, rows)
        return MoleculeTable(
            _offsets(self.sizes[rows]),
            _offsets(np.diff(self.bond_offsets)[rows]),
            *(getattr(self, name)[atoms] for name in _PER_ATOM),
            self.bonds[_spans(self.bond_offsets, rows)])


def _offsets(counts) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _spans(offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The indices ``offsets[r]:offsets[r + 1]`` of each of ``rows``, back
    to back."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    return np.arange(lengths.sum()) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths)


class MoleculeColumns:
    """Column lists that each scanned molecule is appended to."""

    def __init__(self):
        self.atom_counts, self.bond_counts = [], []
        # per atom; a hydrogen count is -1 until the table assigns it
        self.atomic_numbers, self.charges, self.hydrogens = [], [], []
        self.aromatic, self.ring = [], []
        self.bonds = []  # a, b, order of each bond, flat

    def table(self) -> MoleculeTable:
        """The molecules appended so far, their implicit hydrogen counts
        assigned from the bonds (see the module docstring)."""
        table = MoleculeTable(
            _offsets(self.atom_counts), _offsets(self.bond_counts),
            *(np.array(getattr(self, name), dtype=dtype) for name, dtype in
              zip(_PER_ATOM, (np.int64, np.int64, np.int64, bool, bool))),
            np.array(self.bonds, dtype=np.int64).reshape(-1, 3))
        # each bond's valence units, counted at both of its ends
        first = np.repeat(table.atom_offsets[:-1], np.diff(table.bond_offsets))
        order = table.bonds[:, 2]
        weight = np.where(order == _AROMATIC, 1, order)
        units = np.bincount(table.bonds[:, 0] + first, weight, table.n_atoms)
        units += np.bincount(table.bonds[:, 1] + first, weight, table.n_atoms)
        units = units.astype(np.int64)
        implicit = (_FITTED[table.atomic_numbers, np.minimum(units, 7)]
                    - table.aromatic - units)
        unset = table.hydrogens < 0
        table.hydrogens[unset] = np.maximum(implicit[unset], 0)
        return table

    def append(self, text: str) -> None:
        """Scan ``text`` and append its molecule; a string the scan rejects
        appends nothing.

        Raises:
            SmilesError: with a byte offset, for unmatched parentheses or
                ring closures, unknown element symbols, malformed bracket
                atoms, or tokens outside the supported subset.
        """
        n = len(text)
        if not n:
            raise SmilesError("empty SMILES string", text, 0)
        numbers: list[int] = []
        charges: list[int] = []
        aromatic: list[bool] = []
        hydrogens_written: list[int] = []
        # each atom's parse-tree parent: the atom it bonds to when written,
        # so always a smaller index (-1 for the first atom)
        parent: list[int] = []
        bonds: list[int] = []  # a, b, order of each bond, flat
        # (smaller atom, larger atom) of each ring-closure bond
        closures: list[tuple[int, int]] = []
        # ring label -> (atom index, explicit bond order or None, offset)
        open_rings: dict[int, tuple[int, int | None, int]] = {}
        # (anchor atom, atom count at '(' time, offset of '(')
        branches: list[tuple[int, int, int]] = []
        prev = -1  # the atom the next one bonds to; -1 before the first
        pending: int | None = None  # bond order written before an atom or label
        pending_offset = 0
        i = 0
        while i < n:
            ch = text[i]
            atom = _ORGANIC_ATOMS.get(ch)
            if atom is not None:
                i += 1
                if (ch == "C" and text.startswith("l", i)
                        or ch == "B" and text.startswith("r", i)):
                    atom = _ORGANIC_ATOMS[ch + text[i]]
                    i += 1
                charge, hydrogens = 0, -1
            elif ch == "[":
                i, atom, charge, hydrogens = _bracket_atom(text, i)
            else:
                order = _BOND_SYMBOLS.get(ch)
                if order is not None:
                    if prev < 0:
                        raise SmilesError(
                            "bond symbol without a preceding atom", text, i)
                    if pending is not None:
                        raise SmilesError("two consecutive bond symbols",
                                          text, i)
                    pending, pending_offset = order, i
                    i += 1
                elif ch in _DIGITS or ch == "%":
                    offset = i
                    if ch == "%":
                        label = _percent_label(text, i)
                        i += 3
                    else:
                        label = ord(ch) - 48
                        i += 1
                    if prev < 0:
                        raise SmilesError("ring closure before any atom", text,
                                          offset)
                    opened = open_rings.pop(label, None)
                    if opened is None:
                        open_rings[label] = (prev, pending, offset)
                    else:
                        other, order, _ = opened
                        if other == prev:
                            raise SmilesError(
                                f"ring closure {label} bonds an atom to itself",
                                text, offset)
                        if pending is not None:
                            if order is not None and pending != order:
                                raise SmilesError(
                                    f"conflicting bond orders for ring closure "
                                    f"{label}", text, offset)
                            order = pending
                        if order is None:
                            order = (_AROMATIC
                                     if aromatic[other] and aromatic[prev]
                                     else _SINGLE)
                        key = (other, prev) if other < prev else (prev, other)
                        if parent[key[1]] == key[0] or key in closures:
                            raise SmilesError(
                                f"duplicate bond between atoms {key[0]} and "
                                f"{key[1]}", text, offset)
                        bonds += (other, prev, order)
                        closures.append(key)
                    pending = None
                elif ch == "(":
                    if prev < 0:
                        raise SmilesError("unmatched parenthesis: branch "
                                          "without a preceding atom", text, i)
                    if pending is not None:
                        raise SmilesError("bond symbol before branch opening",
                                          text, i)
                    branches.append((prev, len(numbers), i))
                    i += 1
                elif ch == ")":
                    if not branches:
                        raise SmilesError(
                            "unmatched parenthesis: ')' without '('", text, i)
                    if pending is not None:
                        raise SmilesError("dangling bond symbol before ')'",
                                          text, pending_offset)
                    prev, atom_count, open_offset = branches.pop()
                    if len(numbers) == atom_count:
                        raise SmilesError("empty branch", text, open_offset)
                    i += 1
                elif ch in _UNSUPPORTED_TOKENS:
                    raise SmilesError(
                        f"unsupported token: {_UNSUPPORTED_TOKENS[ch]}", text,
                        i)
                elif ch.isalpha():
                    raise SmilesError(f"unknown element symbol {ch!r}", text,
                                      i)
                else:
                    raise SmilesError(f"unexpected character {ch!r}", text, i)
                continue
            number, is_aromatic = atom
            idx = len(numbers)
            numbers.append(number)
            aromatic.append(is_aromatic)
            charges.append(charge)
            hydrogens_written.append(hydrogens)
            parent.append(prev)
            if prev >= 0:
                order = pending
                if order is None:
                    order = (_AROMATIC if is_aromatic and aromatic[prev]
                             else _SINGLE)
                bonds += (prev, idx, order)
            pending = None
            prev = idx
        if branches:
            raise SmilesError("unmatched parenthesis: '(' never closed", text,
                              branches[0][2])
        if open_rings:
            label, (_, _, offset) = next(iter(open_rings.items()))
            raise SmilesError(f"unmatched ring closure {label}", text, offset)
        if pending is not None:
            raise SmilesError("dangling bond symbol at end of input", text,
                              pending_offset)
        self.atom_counts.append(len(numbers))
        self.bond_counts.append(len(bonds) // 3)
        self.atomic_numbers += numbers
        self.charges += charges
        self.hydrogens += hydrogens_written
        self.aromatic += aromatic
        self.ring += _ring_flags(parent, closures)
        self.bonds += bonds


def parse_table(texts: Iterable[str]) -> MoleculeTable:
    """The table of the molecules of ``texts``, in order; the first string
    the scan rejects raises its :class:`SmilesError`."""
    columns = MoleculeColumns()
    for text in texts:
        columns.append(text)
    return columns.table()


def parse_smiles(text: str) -> MoleculeTable:
    """The one-molecule table of ``text`` (see :meth:`MoleculeColumns.append`
    for the errors)."""
    return parse_table((text,))


def _read_int(text: str, i: int) -> tuple[int | None, int]:
    """The ASCII decimal number at ``text[i:]`` (None if there is none) and
    the offset after it."""
    start = i
    while i < len(text) and text[i] in _DIGITS:
        i += 1
    return (int(text[start:i]) if i > start else None), i


def _bracket_atom(text: str, i: int):
    """Read the bracket atom at ``text[i] == '['``: the offset after its
    ``]``, its ``(atomic number, aromatic)``, charge and hydrogen count."""
    bracket = i
    _isotope, i = _read_int(text, i + 1)  # accepted, not stored
    symbol_start = i
    ch = text[i:i + 1]
    if not ch.isalpha():
        raise SmilesError("malformed bracket atom: expected element symbol",
                          text, i)
    symbol = ch
    i += 1
    if i < len(text) and symbol + text[i] in BRACKET_SYMBOLS:
        symbol += text[i]
        i += 1
    if symbol not in BRACKET_SYMBOLS:
        raise SmilesError(f"unknown element symbol {symbol!r}", text,
                          symbol_start)
    if text.startswith("@", i):
        raise SmilesError("unsupported token: stereo descriptor '@'", text, i)
    hydrogens = 0
    if text.startswith("H", i):
        count, i = _read_int(text, i + 1)
        hydrogens = 1 if count is None else count
    charge = 0
    ch = text[i:i + 1]
    if ch == "+" or ch == "-":
        sign = 1 if ch == "+" else -1
        repeats = 0
        while text.startswith(ch, i):
            i += 1
            repeats += 1
        digits, i = _read_int(text, i)
        if digits is not None:
            if repeats != 1:
                raise SmilesError(
                    "malformed bracket atom: mixed charge notation", text, i)
            charge = sign * digits
        else:
            charge = sign * repeats
    if not text.startswith("]", i):
        raise SmilesError("malformed bracket atom: expected ']'", text, i)
    if hydrogens > _INT64_MAX or abs(charge) > _INT64_MAX:
        raise SmilesError("malformed bracket atom: hydrogen count or charge "
                          "beyond 64 bits", text, bracket)
    return (i + 1, (PERIODIC_TABLE[symbol.capitalize()], symbol.islower()),
            charge, hydrogens)


def _percent_label(text: str, i: int) -> int:
    """The two-digit ring label of the ``%nn`` at ``text[i] == '%'``."""
    digits = text[i + 1:i + 3]
    if len(digits) < 2 or not (digits[0] in _DIGITS and digits[1] in _DIGITS):
        raise SmilesError("malformed ring closure: '%' needs two digits", text,
                          i)
    return int(digits)


def _ring_flags(parent: list[int], closures: list[tuple[int, int]]) -> list[bool]:
    """Flag the atoms on the tree path between the ends of each closure.

    The bonds that are not ring closures form a spanning tree, so an atom
    lies on a cycle exactly when it lies on such a path. A parent's index
    is below its child's, so the larger of the two ends is never the
    common ancestor and steps up first.
    """
    ring = [False] * len(parent)
    for a, b in closures:
        ring[a] = ring[b] = True
        while a != b:
            if a < b:
                a, b = b, a
            a = parent[a]
            ring[a] = True
    return ring
