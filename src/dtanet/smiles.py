"""SMILES parsing into molecular graphs.

The supported dialect is a practical subset of SMILES:

* organic-subset atoms B, C, N, O, P, S, F, Cl, Br, I and their aromatic
  lowercase forms b, c, n, o, p, s;
* bracket atoms with optional isotope, hydrogen count and formal charge,
  e.g. ``[NH4+]``, ``[13C]``, ``[O-]``, including the aromatic ``[se]`` and
  ``[as]``, which are written only in brackets;
* bond symbols ``-``, ``=``, ``#``, ``:``;
* branches in parentheses and ring closures ``1``..``9`` and ``%nn``.

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
derived neighbor lists ``adjacency`` (ascending) and ``bond_orders``
(parallel to it) serve the featurizers.

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
    TWO_LETTER_ORGANIC,
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


_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
}

_UNSUPPORTED_TOKENS = {
    ".": "multi-fragment separator '.'",
    "*": "wildcard atom '*'",
    "/": "stereo bond '/'",
    "\\": "stereo bond '\\'",
    "@": "stereo descriptor '@'",
}


class MolGraph:
    """Molecular graph as per-atom columns and a bond list (see the module
    docstring for the layout); derives ``adjacency`` and ``bond_orders``."""

    __slots__ = ("elements", "charges", "hydrogens", "aromatic", "ring",
                 "bonds", "adjacency", "bond_orders")

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
        neighbors: list[list[tuple[int, int]]] = [[] for _ in self.elements]
        for a, b, order in self.bonds:
            neighbors[a].append((b, order))
            neighbors[b].append((a, order))
        for nbrs in neighbors:
            nbrs.sort()
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(j for j, _ in nbrs) for nbrs in neighbors)
        self.bond_orders: tuple[tuple[int, ...], ...] = tuple(
            tuple(order for _, order in nbrs) for nbrs in neighbors)

    @property
    def n_atoms(self) -> int:
        return len(self.elements)

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.elements: list[str] = []
        self.charges: list[int] = []
        self.aromatic: list[bool] = []
        # hydrogen count written in a bracket atom; None for organic-subset
        # atoms, whose count follows from standard valences
        self.written_h: list[int | None] = []
        # each atom's parse-tree parent: the atom it bonds to when written,
        # so always a smaller index (-1 for the first atom)
        self.parent: list[int] = []
        self.bonds: list[tuple[int, int, BondOrder]] = []
        self.closures: list[tuple[int, int]] = []
        self.bond_pairs: set[tuple[int, int]] = set()
        # ring digit -> (atom index, explicit bond order or None, offset)
        self.open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}
        # (anchor atom, atom count at '(' time, offset of '(')
        self.branch_stack: list[tuple[int, int, int]] = []
        self.prev: int | None = None
        self.pending: BondOrder | None = None
        self.pending_offset = 0

    def error(self, message: str, offset: int | None = None) -> SmilesError:
        return SmilesError(message, self.text, self.i if offset is None else offset)

    def peek(self) -> str | None:
        return self.text[self.i] if self.i < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.i]
        self.i += 1
        return ch

    def parse(self) -> MolGraph:
        if not self.text:
            raise SmilesError("empty SMILES string", self.text, 0)
        while self.i < len(self.text):
            ch = self.text[self.i]
            if ch in _UNSUPPORTED_TOKENS:
                raise self.error(f"unsupported token: {_UNSUPPORTED_TOKENS[ch]}")
            if ch in _BOND_SYMBOLS:
                if self.prev is None:
                    raise self.error("bond symbol without a preceding atom")
                if self.pending is not None:
                    raise self.error("two consecutive bond symbols")
                self.pending = _BOND_SYMBOLS[ch]
                self.pending_offset = self.i
                self.take()
            elif ch == "(":
                if self.prev is None:
                    raise self.error("unmatched parenthesis: branch without a preceding atom")
                if self.pending is not None:
                    raise self.error("bond symbol before branch opening")
                self.branch_stack.append((self.prev, len(self.elements), self.i))
                self.take()
            elif ch == ")":
                if not self.branch_stack:
                    raise self.error("unmatched parenthesis: ')' without '('")
                if self.pending is not None:
                    raise self.error("dangling bond symbol before ')'", self.pending_offset)
                anchor, atom_count, open_offset = self.branch_stack.pop()
                if len(self.elements) == atom_count:
                    raise self.error("empty branch", open_offset)
                self.prev = anchor
                self.take()
            elif ch.isdigit() or ch == "%":
                self._ring_closure()
            elif ch == "[":
                self._bracket_atom()
            elif ch.isalpha():
                self._organic_atom()
            else:
                raise self.error(f"unexpected character {ch!r}")
        if self.branch_stack:
            raise self.error("unmatched parenthesis: '(' never closed", self.branch_stack[0][2])
        if self.open_rings:
            digit, (_, _, offset) = next(iter(self.open_rings.items()))
            raise self.error(f"unmatched ring closure {digit}", offset)
        if self.pending is not None:
            raise self.error("dangling bond symbol at end of input", self.pending_offset)
        return self._finalize()

    # -- atoms ---------------------------------------------------------

    def _organic_atom(self) -> None:
        start = self.i
        ch = self.take()
        symbol = ch
        nxt = self.peek()
        if nxt is not None and (ch + nxt) in TWO_LETTER_ORGANIC:
            symbol = ch + self.take()
        if symbol in ORGANIC_SUBSET:
            self._add_atom(symbol, False, 0, None, start)
        elif symbol in AROMATIC_SYMBOLS:
            self._add_atom(symbol.upper(), True, 0, None, start)
        else:
            raise SmilesError(f"unknown element symbol {symbol!r}", self.text, start)

    def _bracket_atom(self) -> None:
        start = self.i
        self.take()  # '['
        self._read_int()  # isotope: accepted, not stored
        symbol_start = self.i
        ch = self.peek()
        if ch is None or not ch.isalpha():
            raise SmilesError("malformed bracket atom: expected element symbol",
                              self.text, self.i)
        symbol = self.take()
        nxt = self.peek()
        if nxt is not None and symbol + nxt in BRACKET_SYMBOLS:
            symbol += self.take()
        if symbol not in BRACKET_SYMBOLS:
            raise SmilesError(f"unknown element symbol {symbol!r}", self.text,
                              symbol_start)
        element = symbol.capitalize()
        aromatic = symbol.islower()
        if self.peek() == "@":
            raise self.error("unsupported token: stereo descriptor '@'")
        hydrogens = 0
        if self.peek() == "H":
            self.take()
            count = self._read_int()
            hydrogens = 1 if count is None else count
        charge = 0
        ch = self.peek()
        if ch in ("+", "-"):
            sign = 1 if ch == "+" else -1
            repeats = 0
            while self.peek() == ch:
                self.take()
                repeats += 1
            digits = self._read_int()
            if digits is not None:
                if repeats != 1:
                    raise self.error("malformed bracket atom: mixed charge notation")
                charge = sign * digits
            else:
                charge = sign * repeats
        if self.peek() != "]":
            raise self.error("malformed bracket atom: expected ']'")
        self.take()
        self._add_atom(element, aromatic, charge, hydrogens, start)

    def _read_int(self) -> int | None:
        digits = ""
        while (ch := self.peek()) is not None and ch.isdigit():
            digits += self.take()
        return int(digits) if digits else None

    def _add_atom(self, element: str, aromatic: bool, charge: int,
                  written_h: int | None, offset: int) -> None:
        idx = len(self.elements)
        self.elements.append(element)
        self.aromatic.append(aromatic)
        self.charges.append(charge)
        self.written_h.append(written_h)
        self.parent.append(-1 if self.prev is None else self.prev)
        if self.prev is not None:
            order = self.pending
            if order is None:
                both_aromatic = self.aromatic[self.prev] and aromatic
                order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
            self._add_bond(self.prev, idx, order, offset)
        self.pending = None
        self.prev = idx

    # -- rings ---------------------------------------------------------

    def _ring_closure(self) -> None:
        offset = self.i
        if self.peek() == "%":
            self.take()
            d1, d2 = self.peek(), None
            if d1 is not None and d1.isdigit():
                self.take()
                d2 = self.peek()
            if d2 is None or not d2.isdigit():
                raise self.error("malformed ring closure: '%' needs two digits", offset)
            self.take()
            digit = int(d1 + d2)
        else:
            digit = int(self.take())
        if self.prev is None:
            raise self.error("ring closure before any atom", offset)
        if digit in self.open_rings:
            other, opened_order, opened_offset = self.open_rings.pop(digit)
            if other == self.prev:
                raise self.error(f"ring closure {digit} bonds an atom to itself", offset)
            order = self.pending
            if order is not None and opened_order is not None and order != opened_order:
                raise self.error(
                    f"conflicting bond orders for ring closure {digit}", offset)
            if order is None:
                order = opened_order
            if order is None:
                both_aromatic = self.aromatic[other] and self.aromatic[self.prev]
                order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
            self._add_bond(other, self.prev, order, offset)
            self.closures.append((other, self.prev))
        else:
            self.open_rings[digit] = (self.prev, self.pending, offset)
        self.pending = None

    def _add_bond(self, a: int, b: int, order: BondOrder, offset: int) -> None:
        key = (a, b) if a < b else (b, a)
        if key in self.bond_pairs:
            raise self.error(f"duplicate bond between atoms {key[0]} and {key[1]}", offset)
        self.bond_pairs.add(key)
        self.bonds.append((a, b, order))

    # -- finalization --------------------------------------------------

    def _finalize(self) -> MolGraph:
        return MolGraph(self.elements, self.charges, self._hydrogens(),
                        self.aromatic, self._ring_flags(), self.bonds)

    def _ring_flags(self) -> list[bool]:
        """Flag the atoms on the tree path between the ends of each closure.

        The bonds that are not ring closures form a spanning tree, so an atom
        lies on a cycle exactly when it lies on such a path. A parent's index
        is below its child's, so the larger of the two ends is never the
        common ancestor and steps up first.
        """
        ring = [False] * len(self.elements)
        for a, b in self.closures:
            ring[a] = ring[b] = True
            while a != b:
                if a < b:
                    a, b = b, a
                a = self.parent[a]
                ring[a] = True
        return ring

    def _hydrogens(self) -> list[int]:
        order_sums = [0] * len(self.elements)
        for a, b, order in self.bonds:
            units = 1 if order is BondOrder.AROMATIC else int(order)
            order_sums[a] += units
            order_sums[b] += units
        hydrogens = []
        for element, aromatic, written, order_sum in zip(
                self.elements, self.aromatic, self.written_h, order_sums):
            if written is not None:
                hydrogens.append(written)
                continue
            valences = DEFAULT_VALENCES[element]
            fitted = next((v for v in valences if v >= order_sum), valences[-1])
            if aromatic:
                fitted -= 1
            hydrogens.append(max(0, fitted - order_sum))
        return hydrogens


def parse_smiles(text: str) -> MolGraph:
    """Parse ``text`` into a :class:`MolGraph`.

    Raises:
        SmilesError: with a byte offset, for unmatched parentheses or ring
            closures, unknown element symbols, malformed bracket atoms, or
            tokens outside the supported subset.
    """
    return _Parser(text).parse()


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
