"""Parser behaviour on the supported SMILES subset."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from dtanet.smiles import (
    BondOrder,
    SmilesError,
    canonical_atom_order,
    parse_smiles,
)


class TestBasicParsing:
    def test_ethanol(self):
        g = parse_smiles("CCO")
        assert g.elements == ("C", "C", "O")
        assert len(g.bonds) == 2
        assert all(order == BondOrder.SINGLE for _, _, order in g.bonds)
        assert g.degrees() == [1, 2, 1]

    def test_aromatic_benzene(self):
        g = parse_smiles("c1ccccc1")
        assert g.n_atoms == 6
        assert len(g.bonds) == 6
        assert g.elements == ("C",) * 6 and all(g.aromatic)
        assert all(order == BondOrder.AROMATIC for _, _, order in g.bonds)
        assert all(g.ring)

    def test_ammonium_bracket(self):
        g = parse_smiles("[NH4+]")
        assert g.elements == ("N",)
        assert g.charges == (1,)
        assert g.hydrogens == (4,)

    def test_branch_with_double_bond(self):
        g = parse_smiles("C(=O)O")
        assert g.n_atoms == 3
        assert g.bonds == ((0, 1, BondOrder.DOUBLE), (0, 2, BondOrder.SINGLE))
        assert g.bond_orders == ((BondOrder.DOUBLE, BondOrder.SINGLE),
                                 (BondOrder.DOUBLE,), (BondOrder.SINGLE,))

    def test_kekule_and_aromatic_benzene_both_parse(self):
        kekule = parse_smiles("C1=CC=CC=C1")
        aromatic = parse_smiles("c1ccccc1")
        assert kekule.n_atoms == aromatic.n_atoms == 6
        assert len(kekule.bonds) == len(aromatic.bonds) == 6
        # no aromaticity perception: spellings differ in bond orders
        assert {order for _, _, order in kekule.bonds} == {BondOrder.SINGLE,
                                                           BondOrder.DOUBLE}
        assert {order for _, _, order in aromatic.bonds} == {BondOrder.AROMATIC}

    def test_two_letter_elements(self):
        g = parse_smiles("ClCBr")
        assert g.elements == ("Cl", "C", "Br")

    def test_isotope_and_charge(self):
        assert parse_smiles("[13C]").elements == ("C",)
        assert parse_smiles("[O-]").charges == (-1,)
        assert parse_smiles("[Fe+2]").charges == (2,)
        assert parse_smiles("[Fe++]").charges == (2,)

    @pytest.mark.parametrize("smiles,element,at", [
        ("c1cc[se]c1", "Se", 3),
        ("[as]1cccc1", "As", 0),
        ("c1c[13seH+]cc1", "Se", 2),
    ])
    def test_bracket_only_aromatic_symbols(self, smiles, element, at):
        g = parse_smiles(smiles)
        assert g.n_atoms == 5 and all(g.aromatic) and all(g.ring)
        assert g.elements[at] == element
        assert all(order == BondOrder.AROMATIC for _, _, order in g.bonds)

    def test_two_letter_aromatic_symbols_stay_bracket_only(self):
        with pytest.raises(SmilesError, match="unknown element symbol 'e'"):
            parse_smiles("c1ccsec1")
        assert not parse_smiles("[Se]").aromatic[0]

    def test_percent_ring_closure(self):
        g = parse_smiles("C%11CC%11")
        assert len(g.bonds) == 3
        assert all(g.ring)

    def test_ring_digit_reuse_after_closure(self):
        g = parse_smiles("C1CC1C1CC1")
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
        g = parse_smiles(smiles)
        assert list(g.hydrogens) == expected

    def test_sulfur_lowest_fit_valence(self):
        # S with 4 explicit bond units fits valence 4, leaving no hydrogens;
        # with 3 it fits 4, leaving one
        g = parse_smiles("CS(=O)C")
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
        g = parse_smiles(smiles)
        assert sum(g.degrees()) == 2 * len(g.bonds)

    @pytest.mark.parametrize("smiles", MOLECULES)
    def test_repeated_parse_is_stable(self, smiles):
        a = parse_smiles(smiles)
        b = parse_smiles(smiles)
        assert a.elements == b.elements
        assert a.bonds == b.bonds

    @given(st.integers(min_value=1, max_value=12))
    def test_linear_chains(self, n):
        g = parse_smiles("C" * n)
        assert g.n_atoms == n
        assert len(g.bonds) == n - 1
        assert not any(g.ring)

    def test_adjacency_leaves_the_collectors_tracking(self):
        # datasets hold one graph per compound; untracked columns keep the
        # collector's passes over them short
        g = parse_smiles("CC(C)O")
        gc.collect()
        assert g.adjacency == ((1,), (0, 2, 3), (1,), (1,))
        nested = (g.bonds, g.adjacency, g.bond_orders)
        assert not any(gc.is_tracked(row) for column in nested for row in column)
        assert not any(gc.is_tracked(column) for column in (
            g.elements, g.charges, g.hydrogens, g.aromatic, g.ring))
        gc.collect()  # a tuple of tuples goes one pass after its rows
        assert not any(gc.is_tracked(column) for column in nested)

    def test_fused_rings_all_members(self):
        g = parse_smiles("c1ccc2ccccc2c1")  # naphthalene
        assert all(g.ring)

    def test_ring_flag_only_on_cycle(self):
        g = parse_smiles("C1CC1CC")
        assert g.ring == (True, True, True, False, False)


class TestCanonicalOrder:
    def test_single_atom_identity(self):
        assert canonical_atom_order(parse_smiles("C")) == (0,)

    def test_branch_reorderings_agree(self):
        a = parse_smiles("CCO")
        b = parse_smiles("OCC")
        key_a = [(a.elements[i], len(a.adjacency[i]))
                 for i in canonical_atom_order(a)]
        key_b = [(b.elements[i], len(b.adjacency[i]))
                 for i in canonical_atom_order(b)]
        assert sorted(key_a) == sorted(key_b)

    def test_isobutane_center_is_separated(self):
        g = parse_smiles("CC(C)C")
        order = canonical_atom_order(g)
        assert order == (0, 2, 3, 1)  # three degree-1 carbons, then the hub

    def test_permutation_property(self):
        g = parse_smiles("CC(C)CO")
        order = canonical_atom_order(g)
        assert sorted(order) == list(range(g.n_atoms))
