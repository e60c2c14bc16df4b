"""Ingestion, transform and sparsity-filter behaviour."""

import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import assert_tables_equal, molecule_view
from dtanet.artifacts import write_lines
from dtanet.data import (
    DataError,
    InteractionRecord,
    assemble_pairs,
    filter_sparse,
    inverse_transform,
    load_dataset,
    load_interactions,
    transform_value,
)
from dtanet.smiles import MoleculeColumns, parse_table
from dtanet.synthetic import write_fixture

SEQS = {"P1": ("ACDEFKLM", False), "P2": ("KLMNPQRS", True),
        "P3": ("WWYYACDE", False)}


def rec(smiles, protein, task=0, raw=100.0, value=None):
    """A record of ``raw``, with ``transform_value(raw)`` unless ``value``
    is given."""
    if value is None:
        value = transform_value(raw)
    return InteractionRecord(smiles=smiles, protein_id=protein, task_id=task,
                             raw_value=raw, value=value)


def write_files(tmp_path, rows, sequences=SEQS):
    interactions = tmp_path / "interactions.csv"
    interactions.write_text("smiles,protein_id,task_id,value\n"
                            + "\n".join(rows) + "\n", encoding="utf-8")
    proteins = tmp_path / "proteins.tsv"
    proteins.write_text(
        "\n".join(f"{k}\t{1 if v[1] else 0}\t{v[0]}"
                  for k, v in sequences.items()) + "\n", encoding="utf-8")
    return interactions, proteins


class TestLoad:
    def test_three_row_fixture(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,0,100", "CCO,P2,0,10",
                                       "CCN,P1,0,1000"])
        records, summary, sequences, molecules = load_interactions(*files)
        assert summary.n_compounds == 2
        assert summary.n_proteins == 2
        assert summary.n_pairs == 3
        assert sequences["P2"] == ("KLMNPQRS", True)
        assert_tables_equal(molecules, parse_table(["CCO", "CCN"]))

    def test_imprecise_rows_discarded_and_counted(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,0,100", "CCO,P2,0,>10000",
                                       "CCN,P1,0,<5", "CCN,P2,0,oops"])
        records, summary, _, _ = load_interactions(*files)
        assert len(records) == 1
        assert summary.discarded_imprecise == 3

    def test_missing_sequence_names_id(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P9,0,100"])
        with pytest.raises(DataError, match="P9"):
            load_interactions(*files)

    def test_bad_smiles_names_line(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,0,100", "C(,P2,0,10"])
        with pytest.raises(DataError, match="line 3"):
            load_interactions(*files)

    def test_non_ascii_digit_in_smiles_names_file_and_line(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,0,100", "C\u00b2,P2,0,10"])
        with pytest.raises(DataError,
                           match=r"interactions\.csv: line 3: bad SMILES"):
            load_dataset(*files)

    def test_malformed_tolerance(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,0,100", "only,two"])
        with pytest.raises(DataError, match="malformed"):
            load_interactions(*files)
        records, summary, _, _ = load_interactions(*files, malformed_tolerance=1)
        assert len(records) == 1
        assert summary.discarded_malformed == 1

    def test_negative_malformed_tolerance_refused(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,0,100", "only,two"])
        with pytest.raises(DataError, match="malformed_tolerance must be at "
                                            "least 0, got -1"):
            load_interactions(*files, malformed_tolerance=-1)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=st.lists(st.sampled_from([
               "only,two", "CCO,P1,0,100,extra", "CCO,P1,x,100",
               "CCO,P1,-1,100", ",P1,0,100", "CCO,,0,100"]), max_size=4),
           slots=st.lists(st.integers(0, 3), min_size=4, max_size=4),
           tolerance=st.integers(0, 4))
    def test_malformed_rows_dropped_and_logged_or_refused(
            self, tmp_path, caplog, bad, slots, tolerance):
        # malformed row i goes in front of valid row slots[i]
        valid = ["CCO,P1,0,100", "CCO,P2,0,10", "CCN,P1,0,1000"]
        rows = list(valid)
        for row, slot in sorted(zip(bad, slots), key=lambda p: -p[1]):
            rows.insert(slot, row)
        first_bad = 2 + next((i for i, row in enumerate(rows)
                              if row not in valid), 0)
        files = write_files(tmp_path, rows)
        caplog.clear()
        if len(bad) > tolerance:
            with pytest.raises(DataError,
                               match=f"first: line {first_bad}: "):
                load_interactions(*files, malformed_tolerance=tolerance)
            return
        with caplog.at_level(logging.INFO, logger="dtanet.data"):
            records, summary, _, _ = load_interactions(
                *files, malformed_tolerance=tolerance)
        assert len(records) == 3
        assert summary.discarded_malformed == len(bad)
        dropped = [r.getMessage() for r in caplog.records
                   if "malformed" in r.getMessage()]
        if bad:
            assert len(dropped) == 1
            assert f"discarded {len(bad)} malformed row(s)" in dropped[0]
            assert f"first: line {first_bad}: " in dropped[0]
        else:
            assert dropped == []

    def test_assay_map(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,assayA,100",
                                       "CCO,P2,assayB,10"])
        mapping = tmp_path / "assay_map.tsv"
        mapping.write_text("assayA\t0\nassayB\t1\n", encoding="utf-8")
        records, summary, _, _ = load_interactions(*files, assay_map_path=mapping)
        assert {r.task_id for r in records} == {0, 1}

    def test_negative_assay_map_task_is_refused(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,A,100", "CCO,P2,B,10"])
        mapping = tmp_path / "assay_map.tsv"
        mapping.write_text("A\t-1\nB\t1\n", encoding="utf-8")
        with pytest.raises(DataError,
                           match=r"assay_map\.tsv: line 1: task_id -1 is "
                                 r"negative"):
            load_dataset(*files, assay_map_path=mapping)

    def test_duplicate_assay_id_is_refused(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,A,100", "CCO,P2,B,10"])
        mapping = tmp_path / "assay_map.tsv"
        mapping.write_text("A\t0\nB\t1\nA\t1\n", encoding="utf-8")
        with pytest.raises(DataError,
                           match=r"assay_map\.tsv: line 3: duplicate assay "
                                 r"id 'A'"):
            load_dataset(*files, assay_map_path=mapping)

    @pytest.mark.parametrize("value, remap", [
        ("0", None), ("-5", None), ("1000000", (1_000_000.0, 0.0)),
        ("1000000", (1_000_000.0, -1.0))])
    def test_non_positive_value_names_file_and_line(self, tmp_path, value,
                                                    remap):
        files = write_files(tmp_path, ["CCO,P1,0,100", f"CCN,P1,0,{value}"])
        with pytest.raises(DataError, match=r"interactions\.csv: line 3: "
                                            r"non-positive raw value"):
            load_dataset(*files, inactive_remap=remap)

    @pytest.mark.parametrize("rows, error", [
        (["CCN,P1,0,0", "C(,P2,0,10"], "line 2: non-positive raw value"),
        (["C(,P2,0,10", "CCN,P1,0,0"], "line 2: bad SMILES"),
        # a bad SMILES after a repeated good one is named by its own line
        (["CCO,P1,0,10", "CCO,P2,0,10", "C1C(,P1,0,10", "CCN,P1,0,0"],
         "line 4: bad SMILES")])
    def test_the_first_bad_row_in_the_file_is_named(self, tmp_path, rows,
                                                    error):
        files = write_files(tmp_path, rows)
        with pytest.raises(DataError, match=error):
            load_dataset(*files)

    def test_one_pass_equals_the_public_pieces_composed(self, tmp_path):
        # a cell of three replicates (one remapped), a two-replicate cell on
        # task 1, imprecise rows, and a compound and a protein that the
        # sparsity filter removes
        files = write_files(tmp_path, [
            "CCO,P1,0,100", "CCO,P1,0,1000000", "CCO,P1,0,37", "CCO,P2,0,10",
            "CCN,P1,0,1000000", "CCN,P2,0,>10000", "CCN,P2,1,2.5",
            "CCN,P2,1,7", "CCC,P3,0,5", "CCC,P1,0,n.d."])
        remap = (1_000_000.0, 1_000.0)
        raw_records, _, sequences, _ = load_interactions(*files)
        transformed = [replace(r, value=transform_value(r.raw_value, remap))
                       for r in raw_records]
        records, _, _, _ = load_interactions(*files, inactive_remap=remap)
        assert records == transformed
        expected = assemble_pairs(filter_sparse(transformed, 1), sequences)
        got = load_dataset(*files, inactive_remap=remap, min_obs=1)
        assert got.compounds == expected.compounds == ("CCO", "CCN")
        assert got.protein_ids == expected.protein_ids == ("P1", "P2")
        for name in ("pairs", "y", "w"):
            ours, theirs = getattr(got, name), getattr(expected, name)
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
            assert ours.tobytes() == theirs.tobytes()

    def test_task_ids_must_cover_zero_to_the_largest(self, tmp_path):
        # an imprecise row's task id was read, so task 1 has a row
        files = write_files(tmp_path, ["CCO,P1,0,100", "CCN,P1,1,>10",
                                       "CCC,P1,2,10"])
        _, summary, _, _ = load_interactions(*files)
        assert summary.per_task_counts == (1, 0, 1)
        files = write_files(tmp_path, ["CCO,P1,0,100", "CCN,P1,2,10",
                                       "CCC,P1,2,5", "CCS,P1,9999999,5"])
        with pytest.raises(DataError, match=r"interactions\.csv: line 3: task "
                                            r"id 2 leaves task 1 without a row"):
            load_dataset(*files)

    def test_a_stray_quote_is_data(self, tmp_path):
        paths = write_fixture(tmp_path)
        lines = paths["interactions"].read_text(encoding="utf-8").splitlines()
        assert len(lines) == 97
        smiles, rest = lines[5].split(",", 1)
        lines[5] = f'{smiles},"{rest}'
        write_lines(paths["interactions"], lines)
        with pytest.raises(DataError, match=r"interactions\.csv: line 6: no "
                                            r"sequence for protein id '\"P"):
            load_interactions(paths["interactions"], paths["proteins"],
                              malformed_tolerance=1)

    def test_header_is_checked(self, tmp_path):
        interactions = tmp_path / "x.csv"
        interactions.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        _, proteins = write_files(tmp_path, [])
        with pytest.raises(DataError, match="header"):
            load_interactions(interactions, proteins)


class TestTransform:
    def test_log_values(self):
        assert transform_value(1.0) == 4.0
        assert transform_value(10000.0) == 0.0

    def test_inactive_remap_then_transform(self):
        assert transform_value(1_000_000.0,
                               inactive_remap=(1_000_000.0, 1_000.0)) == 1.0

    def test_remap_is_exact_match_only(self):
        assert transform_value(999_999.0,
                               inactive_remap=(1_000_000.0, 1_000.0)) != 1.0

    def test_non_positive_rejected(self):
        with pytest.raises(DataError, match="non-positive"):
            transform_value(0.0)

    @given(st.floats(1e-6, 1e9))
    def test_round_trip(self, raw):
        back = inverse_transform(transform_value(raw))
        assert abs(back - raw) / raw < 1e-9


class TestFilterSparse:
    def test_zero_threshold_is_noop(self):
        records = [rec("A", "P1"), rec("B", "P2")]
        assert filter_sparse(records, 0) == records

    def test_star_graph_collapses(self):
        # 5 drugs observed once against one protein: drugs die at min_obs=1,
        # then the protein follows -> empty
        records = [rec(f"D{i}", "P1") for i in range(5)]
        assert filter_sparse(records, 1) == []

    def test_fixed_point_matches_brute_force(self):
        rng = np.random.default_rng(4)
        records = [rec(f"D{rng.integers(0, 12)}", f"P{rng.integers(0, 6)}")
                   for _ in range(80)]
        for min_obs in (1, 2, 6):
            got = filter_sparse(records, min_obs)
            # oracle: recompute the fixed point by repeated full passes
            expected = list(records)
            while True:
                drugs = Counter(r.smiles for r in expected)
                prots = Counter(r.protein_id for r in expected)
                keep = [r for r in expected if drugs[r.smiles] > min_obs
                        and prots[r.protein_id] > min_obs]
                if len(keep) == len(expected):
                    break
                expected = keep
            assert got == expected

    def test_threshold_six_keeps_dense_block(self):
        # an 8x8 fully observed block survives min_obs=6; a compound with
        # only 2 observations is removed without dragging the block down
        records = [rec(f"D{i}", f"P{j}") for i in range(8) for j in range(8)]
        records += [rec("POOR", "P0"), rec("POOR", "P1")]
        got = filter_sparse(records, 6)
        survivors = {r.smiles for r in got}
        assert "POOR" not in survivors
        assert survivors == {f"D{i}" for i in range(8)}
        assert len(got) == 64

    def test_threshold_six_cascade_removes_everything(self):
        # one compound with 7 observations, every other entity at or below
        # the threshold: removals cascade until nothing is left
        records = [rec("RICH", f"P{i}") for i in range(7)]
        records += [rec("POOR", "P0"), rec("POOR", "P1")]
        assert filter_sparse(records, 6) == []

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        records = [rec(f"D{rng.integers(0, 10)}", f"P{rng.integers(0, 5)}")
                   for _ in range(60)]
        once = filter_sparse(records, 2)
        assert filter_sparse(once, 2) == once


class TestAssemble:
    def test_parsed_molecules_are_taken_from_their_table(self):
        table = parse_table(["CCO", "N", "C"])
        records = [rec("C", "P1"), rec("CCO", "P2"), rec("C", "P2")]
        ds = assemble_pairs(records, SEQS,
                            parsed=({"CCO": 0, "N": 1, "C": 2}, table))
        assert ds.compounds == ("C", "CCO")
        assert_tables_equal(ds.molecules, table.take([2, 0]))
        assert assemble_pairs(records, SEQS).molecules is not None

    def test_duplicates_average_after_transform(self):
        records = [rec("C", "P1", raw=10.0), rec("C", "P1", raw=1000.0)]
        ds = assemble_pairs(records, SEQS)
        assert ds.n_pairs == 1
        assert ds.y[0, 0] == pytest.approx((3.0 + 1.0) / 2.0)

    def test_multitask_masks(self):
        records = [rec("C", "P1", task=0, raw=10.0),
                   rec("C", "P1", task=2, raw=100.0),
                   rec("N", "P2", task=1, raw=10.0)]
        ds = assemble_pairs(records, SEQS)
        assert ds.n_tasks == 3
        assert ds.w.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        assert ds.y[0, 1] == 0.0  # masked cells carry value 0
        assert ds.summary().n_pairs == 3
        assert ds.summary().per_task_counts == (1, 1, 1)

    def test_replicates_average_like_np_mean_bit_for_bit(self):
        rng = np.random.default_rng(0)
        counts = (1, 2, 7, 8, 9, 20)
        cells = [[float(v) for v in rng.uniform(-3.0, 9.0, size=n)]
                 for n in counts]
        records = [rec("C", f"P{k}", value=v)
                   for k, values in enumerate(cells) for v in values]
        ds = assemble_pairs(records, {f"P{k}": SEQS["P1"]
                                      for k in range(len(counts))})
        assert ds.protein_ids == tuple(f"P{k}" for k in range(len(counts)))
        expected = np.array([float(np.mean(v)) for v in cells])
        assert ds.y[:, 0].tobytes() == expected.tobytes()
        assert ds.y[0, 0] == cells[0][0]
        # the cells are long enough for numpy's pairwise sum to differ from
        # a running sum, so sum()/len() would not give these bytes
        assert any(sum(v) / len(v) != float(np.mean(v)) for v in cells)

    def test_load_dataset_end_to_end(self, tmp_path):
        files = write_files(tmp_path, ["CCO,P1,0,100", "CCO,P2,0,10",
                                       "CCN,P1,0,1000", "CCN,P2,0,1"])
        ds = load_dataset(*files)
        assert ds.n_pairs == 4
        assert set(ds.compounds) == {"CCO", "CCN"}
        assert np.all(ds.w == 1.0)


class TestMolecules:
    def test_ingestion_keeps_one_graph_per_smiles(self, tmp_path,
                                                  monkeypatch):
        files = write_files(tmp_path, ["CCO,P1,0,100", "CCN,P1,0,10",
                                       "CCO,P2,0,1000"])
        scanned = []
        append = MoleculeColumns.append

        def spy(columns, text):
            scanned.append(text)
            return append(columns, text)

        monkeypatch.setattr(MoleculeColumns, "append", spy)
        ds = load_dataset(*files)
        assert scanned == ["CCO", "CCN"]
        assert len(ds.molecules) == 2
        assert ds.molecules.sizes.tolist() == [3, 3]
        assert [molecule_view(ds.molecules, i).elements[2]
                for i in range(2)] == ["O", "N"]

    def test_hand_built_dataset_parses_its_compounds(self):
        ds = assemble_pairs([rec("CCO", "P1"), rec("C", "P2")], SEQS)
        assert ds.molecules.sizes.tolist() == [3, 1]
        again = replace(ds, y=ds.y + 1.0)
        assert again.molecules is ds.molecules  # replace() does not reparse
        fresh = replace(ds, molecules=None)
        assert fresh.molecules is not ds.molecules
        assert fresh.molecules.sizes.tolist() == [3, 1]

    def test_molecules_must_align_with_compounds(self):
        ds = assemble_pairs([rec("CCO", "P1")], SEQS)
        with pytest.raises(DataError, match="2 molecules for 1 compounds"):
            replace(ds, molecules=ds.molecules.take([0, 0]))

    def test_sparsity_filter_keeps_the_rows_of_the_kept_compounds(
            self, tmp_path):
        # CCN is read first but filtered out, and CCO's first row goes with
        # P3, so the kept compounds come out in another order than read
        files = write_files(tmp_path, [
            "CCN,P1,0,10", "CCO,P3,0,10", "C1CC1,P1,0,10", "C1CC1,P2,0,10",
            "CCO,P1,0,10", "CCO,P2,0,10", "C1CC1,P1,0,20"])
        ds = load_dataset(*files, min_obs=1)
        assert ds.compounds == ("C1CC1", "CCO")
        assert_tables_equal(ds.molecules, parse_table(ds.compounds))
