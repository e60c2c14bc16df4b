"""Fingerprints, similarity and atom feature rows."""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtanet.compounds import (
    DEFAULT_ATOM_VOCABULARY,
    _mix32,
    FeaturizationError,
    atom_feature_width,
    atom_features,
    ecfp,
    ecfp_identifiers,
    ecfp_matrix,
    tanimoto,
)
from dtanet.smiles import parse_smiles
from dtanet.synthetic import unique_smiles


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

        molecules = {s: parse_smiles(s) for s in ("c1ccncc1CO", "CCO")}
        out = tmp_path / "fingerprints.csv"
        write_fingerprint_csv(parse_run_config(None), molecules, out)
        for line, molecule in zip(out.read_text().splitlines()[1:],
                                  molecules.values()):
            raw = np.frombuffer(bytes.fromhex(line.split(",")[1]),
                                dtype=np.uint8)
            fp = ecfp(molecule)
            assert np.array_equal(np.unpackbits(raw)[:fp.size], fp)

    def test_matrix_rows_are_the_fingerprints(self):
        molecules = [parse_smiles(s) for s in unique_smiles(
            12, np.random.default_rng(3))]
        matrix = ecfp_matrix(molecules, 3, 1024)
        assert matrix.dtype == np.uint8 and matrix.shape == (12, 1024)
        for row, molecule in zip(matrix, molecules):
            assert np.array_equal(row, ecfp(molecule, 3, 1024))
        assert ecfp_matrix([], 2, 512).shape == (0, 512)


def mix32_byte_loop(values):
    """FNV-1a one byte at a time over 64-bit little-endian words."""
    h = 0x811C9DC5
    for value in values:
        for byte in struct.pack("<q", value):
            h ^= byte
            h = (h * 0x01000193) & 0xFFFFFFFF
    return h


class TestHash:
    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=12))
    def test_mix32_matches_the_byte_loop(self, values):
        assert _mix32(values) == mix32_byte_loop(values)

    @pytest.mark.parametrize("values", [
        [], [0], [-1], [2 ** 63 - 1], [-2 ** 63], [255, 256, 65536],
        [2 ** 32 - 1, 2 ** 32, -(2 ** 32)]])
    def test_mix32_edge_words(self, values):
        assert _mix32(values) == mix32_byte_loop(values)

    @pytest.mark.parametrize("smiles, expected", [
        ("CCO", (953350625, 2003964339, 2227942339, 2316438832, 2810463853,
                 3720778046)),
        ("C[N+](C)(C)C", (953350625, 1796624373, 2652631100, 3451245351)),
        ("[O-]C(=O)C", (771772554, 953350625, 1151119588, 1363373947,
                        1430469954, 1661481452, 2052589344, 2661317883)),
    ])
    def test_identifiers_are_pinned(self, smiles, expected):
        assert ecfp_identifiers(parse_smiles(smiles), radius=2) == expected


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
