"""SMILES parsing into molecular graphs.

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
hydrogen count. Isotopes are accepted and validated but not stored.

A parsed :class:`MolGraph` is plain columns, one tuple per atom property
indexed by atom: ``elements`` (symbols, aromatic ones capitalized),
``charges`` (formal charges), ``hydrogens`` (total hydrogen counts),
``aromatic`` and ``ring`` (on a cycle). ``bonds`` holds ``(a, b, order)``
int triples in parse order, ``order`` a :class:`BondOrder` value. The
derived neighbor lists ``adjacency`` (ascending) serve the featurizers.

:func:`parse_smiles` scans the text once through a local index. Atoms of
the organic subset take one dict lookup (plus the ``Cl``/``Br`` check), and
bond symbols, branches and one-digit ring closures are handled in the loop
itself; only bracket atoms and ``%nn`` labels, which are rare, go through
helpers. Each bond adds its valence units to its two atoms as it is read,
so implicit hydrogens need no second pass over the bonds.

Ring flags are read off the parse tree. Every bond that is not a ring
closure joins an atom to an atom written before it (its parent), so those
bonds form a spanning tree, and an atom lies on a cycle exactly when it lies
on the tree path between the two ends of some closure bond. The parser
records each atom's parent and walks each closure's ends up to their common
ancestor.
"""

from __future__ import annotations

import enum

from .elements import (
    AROMATIC_SYMBOLS,
    BRACKET_SYMBOLS,
    DEFAULT_VALENCES,
    ORGANIC_SUBSET,
)

__all__ = [
    "BondOrder",
    "MolGraph",
    "SmilesError",
    "parse_smiles",
    "canonical_atom_order",
]


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


# the parser keeps bond orders as the plain ints MolGraph stores
_SINGLE, _DOUBLE, _TRIPLE, _AROMATIC = (int(order) for order in BondOrder)

_BOND_SYMBOLS = {"-": _SINGLE, "=": _DOUBLE, "#": _TRIPLE, ":": _AROMATIC}

# unbracketed atom symbol -> (element, aromatic)
_ORGANIC_ATOMS = {**{s: (s, False) for s in ORGANIC_SUBSET},
                  **{s: (s.upper(), True) for s in AROMATIC_SYMBOLS}}

# SMILES numbers are ASCII: str.isdigit() would also take "²" or "١"
_DIGITS = frozenset("0123456789")

_UNSUPPORTED_TOKENS = {
    ".": "multi-fragment separator '.'",
    "*": "wildcard atom '*'",
    "/": "stereo bond '/'",
    "\\": "stereo bond '\\'",
    "@": "stereo descriptor '@'",
}


class MolGraph:
    """Molecular graph as per-atom columns and a bond list (see the module
    docstring for the layout); derives ``adjacency``."""

    __slots__ = ("elements", "charges", "hydrogens", "aromatic", "ring",
                 "bonds", "adjacency")

    def __init__(self, elements, charges, hydrogens, aromatic, ring, bonds):
        # tuples of ints, strings and bools leave the garbage collector's
        # tracking, which keeps a dataset of parsed molecules cheap to hold
        self.elements: tuple[str, ...] = tuple(elements)
        self.charges: tuple[int, ...] = tuple(charges)
        self.hydrogens: tuple[int, ...] = tuple(hydrogens)
        self.aromatic: tuple[bool, ...] = tuple(aromatic)
        self.ring: tuple[bool, ...] = tuple(ring)
        self.bonds: tuple[tuple[int, int, int], ...] = tuple(
            (a, b, int(order)) for a, b, order in bonds)
        neighbors: list[list[int]] = [[] for _ in self.elements]
        for a, b, _order in self.bonds:
            neighbors[a].append(b)
            neighbors[b].append(a)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in neighbors)

    @property
    def n_atoms(self) -> int:
        return len(self.elements)

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]


def parse_smiles(text: str) -> MolGraph:
    """Parse ``text`` into a :class:`MolGraph`.

    Raises:
        SmilesError: with a byte offset, for unmatched parentheses or ring
            closures, unknown element symbols, malformed bracket atoms, or
            tokens outside the supported subset.
    """
    n = len(text)
    if not n:
        raise SmilesError("empty SMILES string", text, 0)
    elements: list[str] = []
    charges: list[int] = []
    aromatic: list[bool] = []
    # hydrogen count written in a bracket atom; None for organic-subset
    # atoms, whose count follows from standard valences
    written_h: list[int | None] = []
    # bond order units on each atom (an aromatic bond counts one)
    units: list[int] = []
    # each atom's parse-tree parent: the atom it bonds to when written,
    # so always a smaller index (-1 for the first atom)
    parent: list[int] = []
    bonds: list[tuple[int, int, int]] = []
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
            charge, hydrogens = 0, None
        elif ch == "[":
            i, atom, charge, hydrogens = _bracket_atom(text, i)
        else:
            order = _BOND_SYMBOLS.get(ch)
            if order is not None:
                if prev < 0:
                    raise SmilesError("bond symbol without a preceding atom",
                                      text, i)
                if pending is not None:
                    raise SmilesError("two consecutive bond symbols", text, i)
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
                        order = (_AROMATIC if aromatic[other] and aromatic[prev]
                                 else _SINGLE)
                    key = (other, prev) if other < prev else (prev, other)
                    if parent[key[1]] == key[0] or key in closures:
                        raise SmilesError(
                            f"duplicate bond between atoms {key[0]} and "
                            f"{key[1]}", text, offset)
                    bonds.append((other, prev, order))
                    closures.append(key)
                    bond_units = 1 if order == _AROMATIC else order
                    units[other] += bond_units
                    units[prev] += bond_units
                pending = None
            elif ch == "(":
                if prev < 0:
                    raise SmilesError("unmatched parenthesis: branch without "
                                      "a preceding atom", text, i)
                if pending is not None:
                    raise SmilesError("bond symbol before branch opening",
                                      text, i)
                branches.append((prev, len(elements), i))
                i += 1
            elif ch == ")":
                if not branches:
                    raise SmilesError("unmatched parenthesis: ')' without '('",
                                      text, i)
                if pending is not None:
                    raise SmilesError("dangling bond symbol before ')'", text,
                                      pending_offset)
                prev, atom_count, open_offset = branches.pop()
                if len(elements) == atom_count:
                    raise SmilesError("empty branch", text, open_offset)
                i += 1
            elif ch in _UNSUPPORTED_TOKENS:
                raise SmilesError(
                    f"unsupported token: {_UNSUPPORTED_TOKENS[ch]}", text, i)
            elif ch.isalpha():
                raise SmilesError(f"unknown element symbol {ch!r}", text, i)
            else:
                raise SmilesError(f"unexpected character {ch!r}", text, i)
            continue
        element, is_aromatic = atom
        idx = len(elements)
        elements.append(element)
        aromatic.append(is_aromatic)
        charges.append(charge)
        written_h.append(hydrogens)
        parent.append(prev)
        if prev < 0:
            units.append(0)
        else:
            order = pending
            if order is None:
                order = _AROMATIC if is_aromatic and aromatic[prev] else _SINGLE
            bonds.append((prev, idx, order))
            bond_units = 1 if order == _AROMATIC else order
            units[prev] += bond_units
            units.append(bond_units)
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
    return MolGraph(elements, charges,
                    _hydrogens(elements, aromatic, written_h, units),
                    aromatic, _ring_flags(parent, closures), bonds)


def _read_int(text: str, i: int) -> tuple[int | None, int]:
    """The ASCII decimal number at ``text[i:]`` (None if there is none) and
    the offset after it."""
    start = i
    while i < len(text) and text[i] in _DIGITS:
        i += 1
    return (int(text[start:i]) if i > start else None), i


def _bracket_atom(text: str, i: int):
    """Read the bracket atom at ``text[i] == '['``: the offset after its
    ``]``, its ``(element, aromatic)``, charge and hydrogen count."""
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
    return i + 1, (symbol.capitalize(), symbol.islower()), charge, hydrogens


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


def _hydrogens(elements: list[str], aromatic: list[bool],
               written_h: list[int | None], units: list[int]) -> list[int]:
    """Written counts of bracket atoms; for the others, the lowest standard
    valence that holds the atom's bond units, minus those units and one
    more for an aromatic atom."""
    hydrogens = []
    for element, is_aromatic, written, used in zip(elements, aromatic,
                                                   written_h, units):
        if written is not None:
            hydrogens.append(written)
            continue
        valences = DEFAULT_VALENCES[element]
        fitted = valences[0]
        if fitted < used:  # only P and S have a higher valence to try
            fitted = next((v for v in valences if v >= used), valences[-1])
        if is_aromatic:
            fitted -= 1
        hydrogens.append(fitted - used if fitted > used else 0)
    return hydrogens


def canonical_atom_order(graph: MolGraph) -> tuple[int, ...]:
    """Deterministic atom ordering for hashing and test stability.

    Iterative neighborhood refinement seeded with (element, charge, degree);
    remaining ties fall back to parse order. This stabilises orderings across
    branch reorderings of the same SMILES, it is not a full canonicalization.
    """
    n = graph.n_atoms
    if n == 0:
        return ()
    labels: list[object] = list(zip(graph.elements, graph.charges,
                                    graph.degrees()))
    classes = _dense_ranks(labels)
    n_classes = len(set(classes))
    for _ in range(n):
        signatures = [
            (classes[i], tuple(sorted(classes[j] for j in graph.adjacency[i])))
            for i in range(n)
        ]
        refined = _dense_ranks(signatures)
        refined_count = len(set(refined))
        if refined_count == n_classes:
            break
        classes = refined
        n_classes = refined_count
    return tuple(sorted(range(n), key=lambda i: (classes[i], i)))


def _dense_ranks(values: list) -> list[int]:
    ranking = {v: r for r, v in enumerate(sorted(set(values)))}
    return [ranking[v] for v in values]
