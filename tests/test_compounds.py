"""Fingerprints, similarity and atom feature rows."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtanet.compounds import (
    DEFAULT_ATOM_VOCABULARY,
    ECFP_ALLOWED_BITS,
    FeaturizationError,
    _byte_width,
    _fnv1a,
    atom_feature_matrix,
    atom_feature_width,
    atom_features,
    ecfp,
    ecfp_matrix,
    tanimoto,
)
from conftest import (
    identifiers_per_molecule,
    join_tables,
    molecule_table,
    molecule_view,
)
from dtanet.elements import PERIODIC_TABLE
from dtanet.smiles import parse_smiles, parse_table
from dtanet.synthetic import random_smiles, unique_smiles


def ecfp_identifiers(molecule, radius):
    """The surviving identifiers of the one molecule ``molecule``, sorted
    ascending."""
    (ids,) = identifiers_per_molecule(molecule, radius)
    return ids


def fp_from_bits(indices, n_bits=512):
    bits = np.zeros(n_bits, dtype=np.uint8)
    bits[list(indices)] = 1
    return bits


class TestEcfp:
    def test_methane_single_environment(self):
        # every radius covers the same single-atom set, so one id survives
        fp = ecfp(parse_smiles("C"), radius=2, n_bits=2048)
        assert int(fp.sum()) == 1

    def test_ethane_two_environment_classes(self):
        # one radius-0 class (both atoms identical), one radius-1 class;
        # radius-2 duplicates the radius-1 atom set and is dropped
        ids = ecfp_identifiers(parse_smiles("CC"), radius=2)
        assert len(ids) == 2
        fp = ecfp(parse_smiles("CC"), radius=2, n_bits=2048)
        assert int(fp.sum()) == len({i % 2048 for i in ids}) == 2

    def test_determinism(self):
        a = ecfp(parse_smiles("OC(=O)c1ccccc1O"))
        b = ecfp(parse_smiles("OC(=O)c1ccccc1O"))
        assert np.array_equal(a, b)

    def test_atom_order_invariance(self):
        # same molecule written from different starting atoms
        spellings = ["CC(C)CO", "OCC(C)C", "C(C)(CO)C"]
        prints = [ecfp(parse_smiles(s)) for s in spellings]
        for other in prints[1:]:
            assert np.array_equal(prints[0], other)

    def test_bit_length_validation(self):
        with pytest.raises(FeaturizationError, match="n_bits"):
            ecfp(parse_smiles("C"), n_bits=1000)

    def test_folding_monotonicity(self):
        rng = np.random.default_rng(0)
        for smiles in unique_smiles(25, rng):
            g = parse_smiles(smiles)
            pops = [int(ecfp(g, 2, n).sum())
                    for n in (512, 1024, 2048, 4096)]
            assert pops == sorted(pops)

    def test_radius_zero_counts_atom_classes(self):
        ids = ecfp_identifiers(parse_smiles("CCO"), radius=0)
        # terminal C, middle C and O are three distinct invariant classes
        assert len(ids) == 3

    def test_ring_environment_saturation(self):
        # benzene environments grow 1 -> 3 -> 5 -> 6 atoms with radius; once
        # the whole ring is covered, larger radii duplicate the atom set and
        # are deduplicated at the lower radius
        g = parse_smiles("c1ccccc1")
        assert len(ecfp_identifiers(g, radius=2)) == 3
        assert len(ecfp_identifiers(g, radius=3)) == 4
        assert len(ecfp_identifiers(g, radius=4)) == 4
        assert len(ecfp_identifiers(g, radius=6)) == 4

    def test_hex_round_trip(self, tmp_path):
        from dtanet.pipeline import write_fingerprint_csv
        from dtanet.runconfig import parse_run_config

        compounds = ("c1ccncc1CO", "CCO")
        out = tmp_path / "fingerprints.csv"
        write_fingerprint_csv(parse_run_config(None), compounds,
                              parse_table(compounds), out)
        for line, smiles in zip(out.read_text().splitlines()[1:], compounds):
            molecule = parse_smiles(smiles)
            raw = np.frombuffer(bytes.fromhex(line.split(",")[1]),
                                dtype=np.uint8)
            fp = ecfp(molecule)
            assert np.array_equal(np.unpackbits(raw)[:fp.size], fp)

    def test_matrix_rows_are_the_fingerprints(self):
        smiles = unique_smiles(12, np.random.default_rng(3))
        matrix = ecfp_matrix(parse_table(smiles), 3, 1024)
        assert matrix.dtype == np.uint8 and matrix.shape == (12, 1024)
        for row, text in zip(matrix, smiles):
            assert np.array_equal(row, ecfp(parse_smiles(text), 3, 1024))
        assert ecfp_matrix(parse_table([]), 2, 512).shape == (0, 512)

    def test_matrix_checks_its_arguments_without_molecules(self):
        with pytest.raises(FeaturizationError, match="n_bits"):
            ecfp_matrix(parse_table([]), 2, 1000)
        with pytest.raises(FeaturizationError, match="radius"):
            ecfp_matrix(parse_table([]), -1, 512)
        with pytest.raises(FeaturizationError, match="radius"):
            ecfp(parse_smiles("C"), -1)

    def test_empty_molecule_is_rejected(self):
        empty = molecule_table((), (), (), (), ())
        with pytest.raises(FeaturizationError, match="empty molecule"):
            ecfp_matrix(join_tables([parse_smiles("CC"), empty]), 2, 512)


def mix32_byte_loop(values):
    """FNV-1a one byte at a time over 64-bit little-endian words."""
    h = 0x811C9DC5
    for value in values:
        for byte in struct.pack("<q", value):
            h ^= byte
            h = (h * 0x01000193) & 0xFFFFFFFF
    return h


def fnv1a_words(values, width=None):
    """:func:`_fnv1a` over ``values`` one word at a time, reading each
    word's :func:`_byte_width` bytes unless ``width`` is given."""
    h = np.full(1, 0x811C9DC5, dtype=np.uint32)
    for value in values:
        word = np.array([value], dtype=np.int64)
        _fnv1a(h, word, _byte_width(word) if width is None else width)
    return int(h[0])


EDGE_WORDS = [
    [], [0], [-1], [2 ** 63 - 1], [-2 ** 63], [255, 256, 65536],
    [2 ** 32 - 1, 2 ** 32, -(2 ** 32)], [2 ** 53 + 1, 2 ** 56 - 1, 2 ** 56]]


class TestHash:
    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=12))
    def test_mix32_matches_the_byte_loop(self, values):
        assert fnv1a_words(values) == mix32_byte_loop(values)
        assert fnv1a_words(values, 8) == mix32_byte_loop(values)

    @pytest.mark.parametrize("values", EDGE_WORDS)
    def test_mix32_edge_words(self, values):
        assert fnv1a_words(values) == mix32_byte_loop(values)
        assert fnv1a_words(values, 8) == mix32_byte_loop(values)

    @given(st.lists(st.integers(0, 2 ** 32 - 1), max_size=12))
    def test_unsigned_32_bit_words_read_four_bytes(self, values):
        assert fnv1a_words(values, 4) == mix32_byte_loop(values)

    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1,
                    max_size=40))
    def test_each_state_hashes_its_own_word(self, values):
        words = np.array(values, dtype=np.int64)
        h = np.full(len(values), 0x811C9DC5, dtype=np.uint32)
        _fnv1a(h, words, _byte_width(words))
        assert h.tolist() == [mix32_byte_loop([v]) for v in values]

    @pytest.mark.parametrize("smiles, expected", [
        ("CCO", (953350625, 2003964339, 2227942339, 2316438832, 2810463853,
                 3720778046)),
        ("C[N+](C)(C)C", (953350625, 1796624373, 2652631100, 3451245351)),
        ("[O-]C(=O)C", (771772554, 953350625, 1151119588, 1363373947,
                        1430469954, 1661481452, 2052589344, 2661317883)),
    ])
    def test_identifiers_are_pinned(self, smiles, expected):
        assert ecfp_identifiers(parse_smiles(smiles), radius=2) == expected


def scalar_ecfp_identifiers(table, radius):
    """ECFP identifiers of the one molecule ``table`` computed one atom at
    a time, with frozenset atom sets and a dictionary of the best occurrence
    of each: the reference that the array path of :mod:`dtanet.compounds`
    has to match."""
    graph = molecule_view(table)
    ids = [mix32_byte_loop((PERIODIC_TABLE[element], len(nbrs), hydrogens,
                            charge, int(aromatic), int(ring)))
           for element, nbrs, hydrogens, charge, aromatic, ring in zip(
               graph.elements, graph.adjacency, graph.hydrogens,
               graph.charges, graph.aromatic, graph.ring)]
    coverage = [frozenset((i,)) for i in range(graph.n_atoms)]
    bond_order = {}
    for a, b, order in graph.bonds:
        bond_order[a, b] = bond_order[b, a] = order
    best = {}

    def register(r):
        for atom_set, identifier in zip(coverage, ids):
            seen = best.get(atom_set)
            if seen is None or (r, identifier) < seen:
                best[atom_set] = (r, identifier)

    register(0)
    for r in range(1, radius + 1):
        new_ids = []
        for i, nbrs in enumerate(graph.adjacency):
            payload = [r, ids[i]]
            for order, nbr_id in sorted((bond_order[i, j], ids[j])
                                        for j in nbrs):
                payload += [order, nbr_id]
            new_ids.append(mix32_byte_loop(payload))
        coverage = [coverage[i].union(*(coverage[j] for j in nbrs))
                    for i, nbrs in enumerate(graph.adjacency)]
        ids = new_ids
        register(r)
    return tuple(sorted({identifier for _, identifier in best.values()}))


def reference_molecules():
    """Small, charged, aromatic, large (over 64 and over 128 atoms) and
    disconnected molecules."""
    rng = np.random.default_rng(11)
    molecules = [parse_smiles(s) for s in unique_smiles(24, rng)]
    molecules += [parse_smiles(s) for s in (
        "C", "CC", "[O-]C(=O)C", "C[N+](C)(C)C", "[NH4+]", "c1ccccc1",
        "C#N", "c1cc[se]c1", "OC(=O)c1ccccc1O", "C1CC2CCC1CC2")]
    molecules += [parse_smiles(random_smiles(rng, (30, 34))),
                  parse_smiles(random_smiles(rng, (60, 64)))]
    molecules.append(molecule_table(("Na", "Cl"), (1, -1), (0, 0),
                                    (False, False), (False, False)))
    molecules.append(molecule_table(("C", "C", "O", "N"), (0, 0, 0, 0),
                                    (3, 2, 1, 3), (False,) * 4, (False,) * 4,
                                    [(0, 1, 1), (1, 2, 1)]))
    return molecules


@pytest.fixture(scope="module")
def reference():
    """``(molecules, {radius: scalar identifiers per molecule})``."""
    molecules = reference_molecules()
    return molecules, {r: [scalar_ecfp_identifiers(m, r) for m in molecules]
                       for r in range(5)}


class TestBatchAgainstScalarReference:
    def test_reference_set_spans_multi_word_atom_sets(self, reference):
        sizes = [m.n_atoms for m in reference[0]]
        assert sizes == join_tables(reference[0]).sizes.tolist()
        assert max(sizes) > 128 and any(64 < n <= 128 for n in sizes)

    @pytest.mark.parametrize("radius", range(5))
    def test_shuffled_batch_rows_match(self, reference, radius):
        molecules, expected = reference
        for seed, n_bits in enumerate(ECFP_ALLOWED_BITS):
            order = np.random.default_rng(seed).permutation(len(molecules))
            matrix = ecfp_matrix(join_tables([molecules[i] for i in order]),
                                 radius, n_bits)
            for row, i in zip(matrix, order):
                folded = np.zeros(n_bits, dtype=np.uint8)
                folded[[k % n_bits for k in expected[radius][i]]] = 1
                assert np.array_equal(row, folded)

    @pytest.mark.parametrize("radius", range(5))
    def test_one_molecule_calls_match(self, reference, radius):
        molecules, expected = reference
        matrix = ecfp_matrix(join_tables(molecules), radius, 1024)
        for row, molecule, ids in zip(matrix, molecules, expected[radius]):
            assert ecfp_identifiers(molecule, radius) == ids
            assert np.array_equal(ecfp(molecule, radius, 1024), row)

    def test_small_blocks_give_the_same_rows(self, reference, monkeypatch):
        from dtanet import compounds

        molecules = join_tables(reference[0])
        whole = ecfp_matrix(molecules, 3, 2048)
        monkeypatch.setattr(compounds, "_BLOCK_WORDS", 64)
        assert np.array_equal(ecfp_matrix(molecules, 3, 2048), whole)

    def test_disconnected_atoms_keep_their_own_environments(self, reference):
        salt = reference[0][-2]  # [Na+].[Cl-]: two atoms, no bonds
        ids = scalar_ecfp_identifiers(salt, 0)
        assert len(ids) == 2
        for r in range(5):
            assert ecfp_identifiers(salt, r) == ids


class TestTanimoto:
    def test_identity(self):
        fp = ecfp(parse_smiles("CCO"))
        assert tanimoto(fp, fp) == 1.0

    def test_disjoint(self):
        assert tanimoto(fp_from_bits({1, 2}), fp_from_bits({3, 4})) == 0.0

    def test_half_overlap(self):
        assert tanimoto(fp_from_bits({1, 2, 3}), fp_from_bits({2, 3, 4})) == 0.5

    def test_empty_pair_is_identical(self):
        assert tanimoto(fp_from_bits(set()), fp_from_bits(set())) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(FeaturizationError, match="mismatch"):
            tanimoto(fp_from_bits({1}, 512), fp_from_bits({1}, 1024))

    @given(st.sets(st.integers(0, 255)), st.sets(st.integers(0, 255)))
    def test_symmetric_and_bounded(self, a, b):
        fa, fb = fp_from_bits(a), fp_from_bits(b)
        t = tanimoto(fa, fb)
        assert t == tanimoto(fb, fa)
        assert 0.0 <= t <= 1.0


class TestAtomFeatures:
    def test_default_width_is_36(self):
        assert atom_feature_width() == 36
        assert atom_features(parse_smiles("C")).shape[1] == 36

    def test_single_carbon(self):
        feats = atom_features(parse_smiles("C"))
        row = feats[0]
        c_slot = DEFAULT_ATOM_VOCABULARY.index("C")
        assert row[c_slot] == 1.0
        assert row[21 + 0] == 1.0  # degree 0
        assert row.sum() == 3.0    # element + degree + H-count one-hots

    def test_ethanol_middle_degree(self):
        feats = atom_features(parse_smiles("CCO"))
        assert feats.shape == (3, 36)
        assert feats[1, 21 + 2] == 1.0  # middle carbon has degree 2

    def test_unknown_element_goes_to_other(self):
        feats = atom_features(parse_smiles("[U]"))
        assert feats[0, len(DEFAULT_ATOM_VOCABULARY)] == 1.0

    def test_degree_overflow_names_atom(self):
        g = parse_smiles("C(C)(C)(C)(C)(C)C")  # central degree 6
        with pytest.raises(FeaturizationError, match="atom 0"):
            atom_features(g, max_degree=5)

    def test_permutation_equivariance(self):
        # same molecule entered two ways: rows match under the atom mapping
        a = parse_smiles("CCO")
        b = parse_smiles("OCC")
        fa = atom_features(a)
        fb = atom_features(b)
        assert np.array_equal(fa[[2, 1, 0]], fb)

    def test_charge_and_flags(self):
        feats = atom_features(parse_smiles("[NH4+]"))
        assert feats[0, 33] == 1.0  # charge scalar
        ring = atom_features(parse_smiles("C1CC1"))
        assert np.all(ring[:, 35] == 1.0)
        aromatic = atom_features(parse_smiles("c1ccccc1"))
        assert np.all(aromatic[:, 34] == 1.0)

    def test_custom_vocabulary_slots(self):
        feats = atom_features(parse_smiles("CNO[Se]"), vocabulary=("O", "C"))
        assert feats.shape == (4, atom_feature_width(("O", "C")))
        assert feats[:, :3].tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0],
                                         [0, 0, 1]]

    def test_matrix_rows_are_each_molecules_rows(self):
        smiles = unique_smiles(30, np.random.default_rng(4)) + [
            "[U]", "[NH4+]", "c1cc[se]c1", "CS(=O)(=O)[O-]"]
        assert np.array_equal(
            atom_feature_matrix(parse_table(smiles)),
            np.concatenate([atom_features(parse_smiles(s)) for s in smiles]))

    def test_matrix_degree_error_names_the_molecule_row(self):
        table = parse_table(["CC", "CCC(C)(C)(C)(C)C"])
        with pytest.raises(FeaturizationError,
                           match=r"atom 2 \(C\) has degree 6, max supported "
                                 r"is 5") as err:
            atom_feature_matrix(table, max_degree=5)
        assert err.value.molecule == 1
