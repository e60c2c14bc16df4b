"""A seeded corpus of valid and invalid SMILES pinned by one digest.

The corpus mixes random chains with branches and bracket atoms, ring
templates (fused, bridged, spiro, cubane) under digit and ``%nn`` labels,
aromatic lowercase atoms, and mutations of all of these. The digest covers
every parse outcome: the ``SmilesError`` message and offset of an invalid
string, and for a valid one its ECFP identifiers at radius 0..3, its
atom-feature bytes and its adjacency. Any change to the parser or the
featurizers that alters one byte of output changes the digest.

The generator draws only through ``Random.random()``, whose sequence for a
given seed is fixed across Python versions.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from dtanet.compounds import FeaturizationError, atom_features, ecfp_identifiers
from dtanet.smiles import SmilesError, parse_smiles

CORPUS_SEED = 20181013
CORPUS_SIZE = 20_000
GOLDEN_DIGEST = "9cfd39aeb08c368651d6c0b3503b4ab40e819090bfd709efaee76c5d0f4f9d44"

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


def _outcome_bytes(parsed) -> bytes:
    if isinstance(parsed, SmilesError):
        return f"E|{parsed}|{parsed.offset}".encode()
    ids = [ecfp_identifiers(parsed, r) for r in range(4)]
    try:
        features = atom_features(parsed).tobytes()
    except FeaturizationError as err:
        features = f"F|{err}".encode()
    return f"M|{ids}|{parsed.adjacency}|".encode() + features


def _parse_or_error(text: str):
    try:
        return parse_smiles(text)
    except SmilesError as err:
        return err


@pytest.fixture(scope="module")
def parsed_corpus() -> list[tuple[str, object]]:
    """``(text, graph or SmilesError)`` for every corpus string, in order."""
    return [(text, _parse_or_error(text)) for text in smiles_corpus()]


def test_corpus_covers_valid_and_invalid_strings(parsed_corpus):
    assert len(parsed_corpus) >= 20_000
    valid = sum(not isinstance(p, SmilesError) for _, p in parsed_corpus)
    assert 0.25 * len(parsed_corpus) < valid < 0.75 * len(parsed_corpus)


def test_golden_digest(parsed_corpus):
    digest = hashlib.sha256()
    for _, parsed in parsed_corpus:
        outcome = _outcome_bytes(parsed)
        digest.update(len(outcome).to_bytes(8, "little"))
        digest.update(outcome)
    assert digest.hexdigest() == GOLDEN_DIGEST


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
    graph = parse_smiles(smiles)
    assert graph.ring == expected
    assert _ring_atoms_by_bond_removal(graph) == expected


def test_ring_flags_match_bond_removal_rule(parsed_corpus):
    graphs = [p for _, p in parsed_corpus if not isinstance(p, SmilesError)]
    assert sum(any(g.ring) for g in graphs) > 1000
    for graph in graphs:
        assert graph.ring == _ring_atoms_by_bond_removal(graph)
