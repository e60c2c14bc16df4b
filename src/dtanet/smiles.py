"""SMILES parsing into molecular graphs.

The supported dialect is a practical subset of SMILES:

* organic-subset atoms B, C, N, O, P, S, F, Cl, Br, I and their aromatic
  lowercase forms b, c, n, o, p, s;
* bracket atoms with optional isotope, hydrogen count and formal charge,
  e.g. ``[NH4+]``, ``[13C]``, ``[O-]``;
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
hydrogen count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .elements import (
    AROMATIC_SYMBOLS,
    DEFAULT_VALENCES,
    ORGANIC_SUBSET,
    PERIODIC_TABLE,
    TWO_LETTER_ORGANIC,
)

__all__ = [
    "Atom",
    "Bond",
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

    @property
    def valence_units(self) -> int:
        """Contribution to an atom's bond order sum (aromatic counts as 1)."""
        return 1 if self is BondOrder.AROMATIC else int(self)


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


@dataclass
class Atom:
    """One atom of a parsed molecule.

    ``explicit_h`` is the hydrogen count written in a bracket atom and is
    ``None`` for organic-subset atoms, whose total hydrogen count is derived
    from standard valences. ``hydrogens`` always holds the final count.
    """

    element: str
    formal_charge: int = 0
    explicit_h: int | None = None
    isotope: int | None = None
    aromatic: bool = False
    ring_member: bool = False
    hydrogens: int = 0


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: BondOrder


class MolGraph:
    """Molecular graph: atoms, bonds and derived adjacency."""

    def __init__(self, atoms: list[Atom], bonds: list[Bond]):
        self.atoms = atoms
        self.bonds = bonds
        neighbors: list[list[int]] = [[] for _ in atoms]
        self._bond_by_pair: dict[tuple[int, int], Bond] = {}
        for bond in bonds:
            neighbors[bond.a].append(bond.b)
            neighbors[bond.b].append(bond.a)
            self._bond_by_pair[_pair_key(bond.a, bond.b)] = bond
        # tuples of ints leave the garbage collector's tracking, which keeps
        # a dataset of parsed molecules cheap to hold
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in neighbors)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def bond_between(self, i: int, j: int) -> Bond:
        return self._bond_by_pair[_pair_key(i, j)]


def _pair_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
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
                self.branch_stack.append((self.prev, len(self.atoms), self.i))
                self.take()
            elif ch == ")":
                if not self.branch_stack:
                    raise self.error("unmatched parenthesis: ')' without '('")
                if self.pending is not None:
                    raise self.error("dangling bond symbol before ')'", self.pending_offset)
                anchor, atom_count, open_offset = self.branch_stack.pop()
                if len(self.atoms) == atom_count:
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
            self._add_atom(Atom(element=symbol), start)
        elif symbol in AROMATIC_SYMBOLS:
            self._add_atom(Atom(element=symbol.upper(), aromatic=True), start)
        else:
            raise SmilesError(f"unknown element symbol {symbol!r}", self.text, start)

    def _bracket_atom(self) -> None:
        start = self.i
        self.take()  # '['
        isotope = self._read_int()
        symbol_start = self.i
        ch = self.peek()
        if ch is None or not ch.isalpha():
            raise SmilesError("malformed bracket atom: expected element symbol",
                              self.text, self.i)
        symbol = self.take()
        nxt = self.peek()
        if nxt is not None and nxt.islower() and symbol.isupper():
            if (symbol + nxt) in PERIODIC_TABLE:
                symbol += self.take()
        aromatic = False
        if symbol.islower():
            if symbol not in AROMATIC_SYMBOLS:
                raise SmilesError(f"unknown element symbol {symbol!r}", self.text,
                                  symbol_start)
            element = symbol.upper()
            aromatic = True
        else:
            if symbol not in PERIODIC_TABLE:
                raise SmilesError(f"unknown element symbol {symbol!r}", self.text,
                                  symbol_start)
            element = symbol
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
        self._add_atom(
            Atom(element=element, formal_charge=charge, explicit_h=hydrogens,
                 isotope=isotope, aromatic=aromatic),
            start,
        )

    def _read_int(self) -> int | None:
        digits = ""
        while (ch := self.peek()) is not None and ch.isdigit():
            digits += self.take()
        return int(digits) if digits else None

    def _add_atom(self, atom: Atom, offset: int) -> None:
        idx = len(self.atoms)
        self.atoms.append(atom)
        if self.prev is not None:
            order = self.pending
            if order is None:
                both_aromatic = self.atoms[self.prev].aromatic and atom.aromatic
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
                both_aromatic = (self.atoms[other].aromatic
                                 and self.atoms[self.prev].aromatic)
                order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
            self._add_bond(other, self.prev, order, offset)
        else:
            self.open_rings[digit] = (self.prev, self.pending, offset)
        self.pending = None

    def _add_bond(self, a: int, b: int, order: BondOrder, offset: int) -> None:
        key = _pair_key(a, b)
        if key in self.bond_pairs:
            raise self.error(f"duplicate bond between atoms {key[0]} and {key[1]}", offset)
        self.bond_pairs.add(key)
        self.bonds.append(Bond(a, b, order))

    # -- finalization --------------------------------------------------

    def _finalize(self) -> MolGraph:
        graph = MolGraph(self.atoms, self.bonds)
        _mark_ring_members(graph)
        _assign_hydrogens(graph)
        return graph


def _mark_ring_members(graph: MolGraph) -> None:
    """Flag atoms that lie on a cycle (endpoints of non-bridge bonds)."""
    n = graph.n_atoms
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bi, bond in enumerate(graph.bonds):
        incident[bond.a].append((bond.b, bi))
        incident[bond.b].append((bond.a, bi))
    disc = [-1] * n
    low = [0] * n
    is_bridge = [False] * len(graph.bonds)
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[list[int]] = [[root, -1, 0]]  # node, parent bond, child cursor
        while stack:
            node, parent_bond, cursor = stack[-1]
            if cursor == 0:
                disc[node] = low[node] = timer
                timer += 1
            if cursor < len(incident[node]):
                stack[-1][2] += 1
                nbr, bi = incident[node][cursor]
                if bi == parent_bond:
                    continue
                if disc[nbr] != -1:
                    low[node] = min(low[node], disc[nbr])
                else:
                    stack.append([nbr, bi, 0])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        is_bridge[parent_bond] = True
    for bi, bond in enumerate(graph.bonds):
        if not is_bridge[bi]:
            graph.atoms[bond.a].ring_member = True
            graph.atoms[bond.b].ring_member = True


def _assign_hydrogens(graph: MolGraph) -> None:
    order_sums = [0] * graph.n_atoms
    for bond in graph.bonds:
        order_sums[bond.a] += bond.order.valence_units
        order_sums[bond.b] += bond.order.valence_units
    for atom, order_sum in zip(graph.atoms, order_sums):
        if atom.explicit_h is not None:
            atom.hydrogens = atom.explicit_h
            continue
        valences = DEFAULT_VALENCES[atom.element]
        fitted = next((v for v in valences if v >= order_sum), valences[-1])
        if atom.aromatic:
            fitted -= 1
        atom.hydrogens = max(0, fitted - order_sum)


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
    labels: list[object] = [
        (a.element, a.formal_charge, graph.degree(i))
        for i, a in enumerate(graph.atoms)
    ]
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
