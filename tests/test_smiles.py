"""Parser behaviour on the supported SMILES subset."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import molecule_view
from dtanet.smiles import (
    BondOrder,
    MoleculeColumns,
    SmilesError,
    parse_smiles,
    parse_table,
)


def parse(text: str):
    """The parsed molecule of ``text`` as Python tuples."""
    return molecule_view(parse_smiles(text))


class TestBasicParsing:
    def test_ethanol(self):
        table = parse_smiles("CCO")
        g = molecule_view(table)
        assert g.elements == ("C", "C", "O")
        assert len(g.bonds) == 2
        assert all(order == BondOrder.SINGLE for _, _, order in g.bonds)
        assert np.diff(table.neighbors()[0]).tolist() == [1, 2, 1]

    def test_aromatic_benzene(self):
        g = parse("c1ccccc1")
        assert g.n_atoms == 6
        assert len(g.bonds) == 6
        assert g.elements == ("C",) * 6 and all(g.aromatic)
        assert all(order == BondOrder.AROMATIC for _, _, order in g.bonds)
        assert all(g.ring)

    def test_ammonium_bracket(self):
        g = parse("[NH4+]")
        assert g.elements == ("N",)
        assert g.charges == (1,)
        assert g.hydrogens == (4,)

    def test_branch_with_double_bond(self):
        g = parse("C(=O)O")
        assert g.n_atoms == 3
        assert g.bonds == ((0, 1, BondOrder.DOUBLE), (0, 2, BondOrder.SINGLE))
        order = {frozenset((a, b)): o for a, b, o in g.bonds}
        assert [[order[frozenset((i, j))] for j in nbrs]
                for i, nbrs in enumerate(g.adjacency)] == \
            [[BondOrder.DOUBLE, BondOrder.SINGLE], [BondOrder.DOUBLE],
             [BondOrder.SINGLE]]

    def test_kekule_and_aromatic_benzene_both_parse(self):
        kekule = parse("C1=CC=CC=C1")
        aromatic = parse("c1ccccc1")
        assert kekule.n_atoms == aromatic.n_atoms == 6
        assert len(kekule.bonds) == len(aromatic.bonds) == 6
        # no aromaticity perception: spellings differ in bond orders
        assert {order for _, _, order in kekule.bonds} == {BondOrder.SINGLE,
                                                           BondOrder.DOUBLE}
        assert {order for _, _, order in aromatic.bonds} == {BondOrder.AROMATIC}

    def test_two_letter_elements(self):
        g = parse("ClCBr")
        assert g.elements == ("Cl", "C", "Br")

    def test_isotope_and_charge(self):
        assert parse("[13C]").elements == ("C",)
        assert parse("[O-]").charges == (-1,)
        assert parse("[Fe+2]").charges == (2,)
        assert parse("[Fe++]").charges == (2,)

    @pytest.mark.parametrize("smiles,element,at", [
        ("c1cc[se]c1", "Se", 3),
        ("[as]1cccc1", "As", 0),
        ("c1c[13seH+]cc1", "Se", 2),
    ])
    def test_bracket_only_aromatic_symbols(self, smiles, element, at):
        g = parse(smiles)
        assert g.n_atoms == 5 and all(g.aromatic) and all(g.ring)
        assert g.elements[at] == element
        assert all(order == BondOrder.AROMATIC for _, _, order in g.bonds)

    def test_two_letter_aromatic_symbols_stay_bracket_only(self):
        with pytest.raises(SmilesError, match="unknown element symbol 'e'"):
            parse_smiles("c1ccsec1")
        assert not parse("[Se]").aromatic[0]

    def test_percent_ring_closure(self):
        g = parse("C%11CC%11")
        assert len(g.bonds) == 3
        assert all(g.ring)

    def test_ring_digit_reuse_after_closure(self):
        g = parse("C1CC1C1CC1")
        assert g.n_atoms == 6
        assert len(g.bonds) == 7


class TestImplicitHydrogens:
    @pytest.mark.parametrize("smiles,expected", [
        ("C", [4]),
        ("CC", [3, 3]),
        ("O", [2]),
        ("N", [3]),
        ("F", [1]),
        ("C=O", [2, 0]),
        ("C#N", [1, 0]),
        ("c1ccccc1", [1] * 6),       # aromatic carbon: 4 - 1 - 2 = 1
        ("c1ccncc1", [1, 1, 1, 0, 1, 1]),  # aromatic nitrogen gets none
        ("S", [2]),
        ("P", [3]),
        ("[CH3]", [3]),
        ("[C]", [0]),               # bracket atoms carry only written hydrogens
    ])
    def test_hydrogen_counts(self, smiles, expected):
        g = parse(smiles)
        assert list(g.hydrogens) == expected

    def test_sulfur_lowest_fit_valence(self):
        # S with 4 explicit bond units fits valence 4, leaving no hydrogens;
        # with 3 it fits 4, leaving one
        g = parse("CS(=O)C")
        assert g.hydrogens[1] == 0


class TestErrors:
    @pytest.mark.parametrize("bad,fragment,offset", [
        ("C(C", "unmatched parenthesis", 1),
        ("CC)", "unmatched parenthesis", 2),
        ("C1CC", "unmatched ring closure", 1),
        ("Qx", "unknown element symbol", 0),
        ("[Xx]", "unknown element symbol", 1),
        ("[C", "malformed bracket atom", 2),
        ("[13]", "malformed bracket atom", 3),
        ("C.C", "unsupported token", 1),
        ("C*", "unsupported token", 1),
        ("C/C=C/C", "unsupported token", 1),
        ("C[C@H](N)O", "unsupported token", 3),
        ("", "empty SMILES", 0),
        ("C==C", "two consecutive bond symbols", 2),
        ("=C", "bond symbol without a preceding atom", 0),
        ("C=", "dangling bond symbol", 1),
        ("C()C", "empty branch", 1),
        ("C11", "bonds an atom to itself", 2),
        ("C=1CCCCC#1", "conflicting bond orders", 9),
    ])
    def test_diagnostics_carry_offsets(self, bad, fragment, offset):
        with pytest.raises(SmilesError) as err:
            parse_smiles(bad)
        assert fragment in str(err.value)
        assert err.value.offset == offset

    # SMILES numbers are ASCII; str.isdigit() also accepts these digits
    @pytest.mark.parametrize("bad,fragment,offset", [
        ("C\u00b2", "unexpected character", 1),                  # C²
        ("C\u0661CC\u0661", "unexpected character", 1),          # Arabic-Indic 1
        ("[CH\u0661]", "expected ']'", 3),
        ("[13C-\u0661]", "expected ']'", 5),
        ("[\u06613C]", "expected element symbol", 1),
        ("C%\u0661\u0662CC%\u0661\u0662", "'%' needs two digits", 1),
    ])
    def test_non_ascii_digits_are_rejected(self, bad, fragment, offset):
        with pytest.raises(SmilesError) as err:
            parse_smiles(bad)
        assert fragment in str(err.value)
        assert err.value.offset == offset

    def test_duplicate_bond(self):
        with pytest.raises(SmilesError, match="duplicate bond"):
            parse_smiles("C1C1")

    # every input path turns a SmilesError into an error naming the line,
    # so the parser must raise nothing else
    @settings(max_examples=400)
    @given(st.text(alphabet="BCNOPSFIHKLMRUXZabcdeilnoprsu"
                            "[]()=#:-+@/\\.*%0123456789", max_size=24))
    def test_raises_only_smiles_errors(self, text):
        try:
            parse_smiles(text)
        except SmilesError:
            pass


class TestInvariants:
    MOLECULES = ["CCO", "c1ccccc1", "CC(C)(C)C", "C1CC1CC(=O)O",
                 "c1ccc2ccccc2c1", "N#Cc1ccccc1", "[NH4+].".rstrip("."),
                 "OC(=O)c1ccccc1O"]

    @pytest.mark.parametrize("smiles", MOLECULES)
    def test_degree_sum_is_twice_bond_count(self, smiles):
        g = parse(smiles)
        offsets, ids = parse_smiles(smiles).neighbors()
        assert offsets[-1] == ids.size == 2 * len(g.bonds)
        assert [tuple(ids[offsets[i]:offsets[i + 1]].tolist())
                for i in range(g.n_atoms)] == list(g.adjacency)

    @pytest.mark.parametrize("smiles", MOLECULES)
    def test_repeated_parse_is_stable(self, smiles):
        a = parse(smiles)
        b = parse(smiles)
        assert a.elements == b.elements
        assert a.bonds == b.bonds

    @given(st.integers(min_value=1, max_value=12))
    def test_linear_chains(self, n):
        g = parse("C" * n)
        assert g.n_atoms == n
        assert len(g.bonds) == n - 1
        assert not any(g.ring)

    def test_adjacency_leaves_the_collectors_tracking(self):
        # datasets hold one table of every compound; its columns and CSR
        # neighbor array are numeric arrays, which the collector never
        # tracks
        table = parse_smiles("CC(C)O")
        offsets, ids = table.neighbors()
        assert [ids[offsets[i]:offsets[i + 1]].tolist()
                for i in range(table.n_atoms)] == [[1], [0, 2, 3], [1], [1]]
        columns = (offsets, ids, table.atom_offsets, table.bond_offsets,
                   table.atomic_numbers, table.charges, table.hydrogens,
                   table.aromatic, table.ring, table.bonds)
        gc.collect()
        assert not any(gc.is_tracked(column) for column in columns)
        assert all(column.dtype != object for column in columns)

    def test_fused_rings_all_members(self):
        g = parse("c1ccc2ccccc2c1")  # naphthalene
        assert all(g.ring)

    def test_ring_flag_only_on_cycle(self):
        g = parse("C1CC1CC")
        assert g.ring == (True, True, True, False, False)


class TestTable:
    def test_rejected_string_appends_nothing(self):
        columns = MoleculeColumns()
        columns.append("CCO")
        before = {name: list(value) for name, value in vars(columns).items()}
        for bad in ("CC(C", "c1cc[se]c1C1", "[Xx]", "C=1CCCCC#1"):
            with pytest.raises(SmilesError):
                columns.append(bad)
        assert {name: list(value)
                for name, value in vars(columns).items()} == before
        columns.append("[NH4+]")
        table = columns.table()
        assert len(table) == 2
        assert table.atom_offsets.tolist() == [0, 3, 4]
        assert table.bond_offsets.tolist() == [0, 2, 2]

    def test_take_keeps_local_bond_ids(self):
        smiles = ("CCO", "[NH4+]", "c1ccccc1", "C#N")
        parts = [parse_smiles(s) for s in smiles]
        table = parse_table(smiles)
        assert len(table) == 4 and table.n_atoms == 12
        assert table.bonds[:, :2].max() == 5  # local ids in each molecule
        picked = table.take([2, 0, 2])
        assert [molecule_view(picked, i).bonds for i in range(3)] == [
            molecule_view(parts[k]).bonds for k in (2, 0, 2)]
        assert picked.edges()[0].max() == picked.n_atoms - 1
        empty = table.take([])
        assert len(empty) == 0 and empty.bonds.shape == (0, 3)

    def test_counts_beyond_64_bits_are_smiles_errors(self):
        # the int64 columns hold these two exactly
        assert parse("[CH9223372036854775807]").hydrogens == (2 ** 63 - 1,)
        assert parse("[C-9223372036854775807]").charges == (1 - 2 ** 63,)
        for bad in ("[CH9223372036854775808]", "[C+9223372036854775808]",
                    "CC[N-99999999999999999999]"):
            with pytest.raises(SmilesError, match="beyond 64 bits") as err:
                parse_smiles(bad)
            assert bad[err.value.offset] == "["
