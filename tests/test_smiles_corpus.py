"""A seeded corpus of valid and invalid SMILES pinned by one digest.

The corpus mixes random chains with branches and bracket atoms, ring
templates (fused, bridged, spiro, cubane) under digit and ``%nn`` labels,
aromatic lowercase atoms, and mutations of all of these. The digest covers
every parse outcome: the ``SmilesError`` message and offset of an invalid
string, and for a valid one its ECFP identifiers at radius 0..3, its
atom-feature bytes and its neighbor lists. Any change to the parser or the
featurizers that alters one byte of output changes the digest. A second
digest pins every parsed column as it is, in parse order: the ECFP and
atom-feature bytes do not see the bond order of each parsed bond,
hydrogen counts above 4 or elements outside the feature vocabulary. Both
digests hash Python text: element symbols, tuples of ints and bools, and
neighbor lists as tuples of tuples.

The corpus is scanned once, into one table of its valid molecules, and the
featurizers run over that table; every 500th molecule is also compared with
the one-molecule views (``parse_smiles``, ``ecfp``, ``atom_features``).

The generator draws only through ``Random.random()``, whose sequence for a
given seed is fixed across Python versions.
"""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    assert_tables_equal,
    identifiers_per_molecule,
    join_tables,
    molecule_view,
)
from dtanet.compounds import atom_feature_matrix, atom_features, ecfp
from dtanet.smiles import (
    MoleculeColumns,
    SmilesError,
    parse_smiles,
    parse_table,
)

CORPUS_SEED = 20181013
CORPUS_SIZE = 20_000
GOLDEN_DIGEST = "9cfd39aeb08c368651d6c0b3503b4ab40e819090bfd709efaee76c5d0f4f9d44"
GOLDEN_COLUMNS_DIGEST = "dc0e45e0d528d95dc5686630758487e8a95f657ebbb2789f464550622b1ca977"

_ORGANIC = ("C", "C", "C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B")
_AROMATIC = ("c", "c", "c", "n", "o", "s", "p", "b")
_BRACKET_ELEMENTS = ("C", "N", "O", "S", "Fe", "Na", "Se", "Zn", "Cu", "Ca",
                     "Si", "Mg", "K", "H", "c", "n", "se", "C", "Xx")
_CHARGES = ("", "", "", "", "+", "-", "++", "--", "+2", "-3", "+1", "+-")
_BONDS = ("", "", "", "", "", "", "-", "=", "#", ":")
_RING_TEMPLATES = (
    "C1CC1", "C1CCCCC1", "c1ccccc1", "c1ccncc1", "c1ccc2ccccc2c1",
    "C1CC11CC1", "C1CC2CCC1C2", "C12C3C4C1C5C2C3C45", "C1CC1CCC2CC2",
    "C1=CC=CC=C1", "c1cc[nH]c1", "C1CC2(CC1)CC2", "C12CC1C2",
    "C1CCC2(C1)CCC2", "c1ccc2c(c1)ccc1ccccc12",
)
_MUTATION_ALPHABET = "CNOSPFBIclnosp[]()=#:-+@/\\.*%0123456789H"


def _pick(rng: random.Random, items):
    return items[int(rng.random() * len(items))]


def _bracket_atom(rng: random.Random) -> str:
    isotope = str(1 + int(rng.random() * 40)) if rng.random() < 0.3 else ""
    hydrogens = ""
    if rng.random() < 0.4:
        hydrogens = "H" + _pick(rng, ("", "", "2", "3", "4"))
    return f"[{isotope}{_pick(rng, _BRACKET_ELEMENTS)}{hydrogens}{_pick(rng, _CHARGES)}]"


def _atom(rng: random.Random) -> str:
    u = rng.random()
    if u < 0.55:
        return _pick(rng, _ORGANIC)
    if u < 0.85:
        return _pick(rng, _AROMATIC)
    return _bracket_atom(rng)


def _ring_label(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return "%" + str(10 + int(rng.random() * 90))
    return str(1 + int(rng.random() * 9))


def _template(rng: random.Random) -> str:
    """A ring template with each of its digit labels renamed consistently."""
    labels: dict[str, str] = {}
    out = []
    for ch in _pick(rng, _RING_TEMPLATES):
        if ch.isdigit():
            if ch not in labels:
                labels[ch] = _ring_label(rng)
            out.append(labels[ch])
        else:
            out.append(ch)
    return "".join(out)


def _chain(rng: random.Random, depth: int, open_labels: list[str]) -> str:
    parts = []
    for _ in range(1 + int(rng.random() * 4)):
        if parts or depth:
            parts.append(_pick(rng, _BONDS))
        parts.append(_template(rng) if rng.random() < 0.12 else _atom(rng))
        u = rng.random()
        if u < 0.12 and len(open_labels) < 4:
            label = _ring_label(rng)
            open_labels.append(label)
            parts.append(_pick(rng, _BONDS) + label)
        elif u < 0.3 and open_labels:
            parts.append(open_labels.pop(int(rng.random() * len(open_labels))))
        if depth < 2 and rng.random() < 0.25:
            parts.append("(" + _chain(rng, depth + 1, open_labels) + ")")
    return "".join(parts)


def _molecule(rng: random.Random) -> str:
    open_labels: list[str] = []
    text = _chain(rng, 0, open_labels)
    if open_labels:
        text += "C" + "".join(open_labels)
    return text


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(1 + int(rng.random() * 3)):
        at = int(rng.random() * (len(chars) + 1))
        u = rng.random()
        if u < 0.35 and chars:
            del chars[min(at, len(chars) - 1)]
        elif u < 0.7:
            chars.insert(at, _pick(rng, _MUTATION_ALPHABET))
        elif chars:
            chars[min(at, len(chars) - 1)] = _pick(rng, _MUTATION_ALPHABET)
    return "".join(chars)


def smiles_corpus(seed: int = CORPUS_SEED, size: int = CORPUS_SIZE) -> list[str]:
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < size:
        text = _molecule(rng)
        corpus.append(_mutate(rng, text) if rng.random() < 0.45 else text)
    return corpus


@pytest.fixture(scope="module")
def corpus() -> SimpleNamespace:
    """Every corpus string (``texts``), the table of the valid ones in
    order with each row's ``molecule_view`` (``views``), the corpus index
    of each table row (``rows``) and the ``SmilesError`` of each invalid
    string by corpus index, from one scan."""
    texts = smiles_corpus()
    columns = MoleculeColumns()
    rows, errors = [], {}
    for i, text in enumerate(texts):
        try:
            columns.append(text)
        except SmilesError as err:
            errors[i] = err
        else:
            rows.append(i)
    table = columns.table()
    views = [molecule_view(table, m) for m in range(len(table))]
    return SimpleNamespace(texts=texts, table=table, views=views, rows=rows,
                           errors=errors)


def _feature_bytes(table) -> list[bytes]:
    """Each molecule's atom-feature bytes, from one call over the table (no
    corpus molecule has an atom of degree above 6)."""
    matrix = atom_feature_matrix(table)
    offsets = table.atom_offsets.tolist()
    return [matrix[offsets[m]:offsets[m + 1]].tobytes()
            for m in range(len(table))]


def _adjacency(table) -> list[tuple[tuple[int, ...], ...]]:
    """Each molecule's neighbor lists in local atom ids."""
    offsets, ids = (a.tolist() for a in table.neighbors())
    atoms = table.atom_offsets.tolist()
    return [tuple(tuple(j - atoms[m] for j in ids[offsets[i]:offsets[i + 1]])
                  for i in range(atoms[m], atoms[m + 1]))
            for m in range(len(table))]


def test_corpus_covers_valid_and_invalid_strings(corpus):
    assert len(corpus.texts) >= 20_000
    valid = len(corpus.table)
    assert 0.25 * len(corpus.texts) < valid < 0.75 * len(corpus.texts)


def test_golden_digest(corpus):
    table = corpus.table
    by_radius = [identifiers_per_molecule(table, r) for r in range(4)]
    features = _feature_bytes(table)
    for k in range(0, len(table), 500):  # the batch is the one-molecule call
        one = parse_smiles(corpus.texts[corpus.rows[k]])
        assert_tables_equal(one, table.take([k]))
        for r, ids in enumerate(by_radius):
            folded = np.zeros(4096, dtype=np.uint8)
            folded[[i % 4096 for i in ids[k]]] = 1
            assert np.array_equal(ecfp(one, r, 4096), folded)
        assert atom_features(one).tobytes() == features[k]
    outcomes = iter(zip(zip(*by_radius), _adjacency(table), features))
    digest = hashlib.sha256()
    for i in range(len(corpus.texts)):
        error = corpus.errors.get(i)
        if error is not None:
            outcome = f"E|{error}|{error.offset}".encode()
        else:
            ids, adjacency, feature_bytes = next(outcomes)
            outcome = f"M|{list(ids)}|{adjacency}|".encode() + feature_bytes
        digest.update(len(outcome).to_bytes(8, "little"))
        digest.update(outcome)
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_golden_columns_digest(corpus):
    views = iter(corpus.views)
    digest = hashlib.sha256()
    for i in range(len(corpus.texts)):
        if i in corpus.errors:
            outcome = b"E"
        else:
            view = next(views)
            outcome = repr((view.elements, view.charges, view.hydrogens,
                            view.aromatic, view.ring, view.bonds)).encode()
        digest.update(len(outcome).to_bytes(8, "little"))
        digest.update(outcome)
    assert digest.hexdigest() == GOLDEN_COLUMNS_DIGEST


def test_batch_parse_is_the_one_string_parses_joined(corpus):
    texts = [corpus.texts[i] for i in corpus.rows]
    batch = parse_table(texts)
    assert_tables_equal(batch, corpus.table)
    assert_tables_equal(batch, join_tables([parse_smiles(t) for t in texts]))
    rng = np.random.default_rng(5)
    for size in (1, 7, 2000):
        rows = rng.permutation(len(texts))[:size]
        assert_tables_equal(batch.take(rows),
                            parse_table([texts[i] for i in rows]))


def _ring_atoms_by_bond_removal(graph) -> tuple[bool, ...]:
    """An atom is on a ring iff one of its bonds can be removed with the
    bond's two ends still connected."""
    ring = [False] * graph.n_atoms
    for a, b, _ in graph.bonds:
        seen, frontier = {a}, [a]
        while frontier:
            i = frontier.pop()
            for j in graph.adjacency[i]:
                if j not in seen and {i, j} != {a, b}:
                    seen.add(j)
                    frontier.append(j)
        if b in seen:
            ring[a] = ring[b] = True
    return tuple(ring)


@pytest.mark.parametrize("smiles,expected", [
    ("C1CC11CC1", (True,) * 5),                          # spiro
    ("C1CC2CCC1C2", (True,) * 7),                        # bridged
    ("C12C3C4C1C5C2C3C45", (True,) * 8),                 # cubane
    ("C1CC1CCC2CC2", (True,) * 3 + (False,) * 2 + (True,) * 3),
    ("CC1CC1(C)C", (False, True, True, True, False, False)),
])
def test_ring_flags_on_hand_cases(smiles, expected):
    graph = molecule_view(parse_smiles(smiles))
    assert graph.ring == expected
    assert _ring_atoms_by_bond_removal(graph) == expected


def test_ring_flags_match_bond_removal_rule(corpus):
    assert sum(any(g.ring) for g in corpus.views) > 1000
    for graph in corpus.views:
        assert graph.ring == _ring_atoms_by_bond_removal(graph)
