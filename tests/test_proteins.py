"""Sequence-composition descriptor contract."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtanet.proteins import (
    AMINO_ACIDS,
    DESCRIPTOR_LENGTH,
    SequenceError,
    descriptor_matrix,
    psc,
    read_descriptor_matrix,
    read_sequence_table,
    validate_sequence,
    write_descriptor_matrix,
)

sequences = st.text(alphabet=AMINO_ACIDS, min_size=3, max_size=200)
# one of each kind of letter that is not a canonical residue
BAD_LETTERS = ("a", "y", "X", "U", "7", "\u00e9", "\ud800")


def loop_psc(sequence, phosphorylated=False):
    """The descriptor as the residue-by-residue encoder made it: a dict
    lookup per letter, a zeroed row filled block by block."""
    index = {letter: k for k, letter in enumerate(AMINO_ACIDS)}
    if len(sequence) < 3:
        raise SequenceError(
            f"sequence length {len(sequence)} is below the minimum of 3")
    codes = np.empty(len(sequence), dtype=np.int64)
    for pos, letter in enumerate(sequence):
        code = index.get(letter)
        if code is None:
            raise SequenceError(
                f"unknown residue {letter!r} at position {pos} "
                f"(non-canonical letters are rejected, not remapped)")
        codes[pos] = code
    length = len(codes)
    out = np.zeros(DESCRIPTOR_LENGTH, dtype=np.float64)
    out[:20] = np.bincount(codes, minlength=20) / length
    di = codes[:-1] * 20 + codes[1:]
    out[20:420] = np.bincount(di, minlength=400) / (length - 1)
    tri = codes[:-2] * 400 + codes[1:-1] * 20 + codes[2:]
    out[420:8420] = np.bincount(tri, minlength=8000) / (length - 2)
    out[-1] = 1.0 if phosphorylated else 0.0
    return out


class TestPsc:
    def test_homopolymer(self):
        d = psc("AAA", phosphorylated=False)
        assert d[0] == 1.0            # aac[A]
        assert d[20] == 1.0           # dc[AA]
        assert d[420] == 1.0          # tc[AAA]
        assert d[-1] == 0.0
        assert np.count_nonzero(d) == 3

    def test_every_residue_once(self):
        d = psc(AMINO_ACIDS)
        assert np.allclose(d[:20], 0.05)

    def test_length_contract(self):
        assert psc("ACD").shape == (DESCRIPTOR_LENGTH,)
        assert DESCRIPTOR_LENGTH == 8421

    def test_phospho_flag_is_last(self):
        assert psc("ACD", phosphorylated=True)[-1] == 1.0
        assert psc("ACD", phosphorylated=False)[-1] == 0.0

    def test_unknown_residue_names_position(self):
        with pytest.raises(SequenceError, match="position 2"):
            psc("ACXDE")

    def test_too_short(self):
        with pytest.raises(SequenceError, match="length 2"):
            psc("AC")

    @settings(max_examples=50)
    @given(sequences)
    def test_blocks_sum_to_one(self, seq):
        d = psc(seq)
        assert abs(d[:20].sum() - 1.0) < 1e-12
        assert abs(d[20:420].sum() - 1.0) < 1e-12
        assert abs(d[420:8420].sum() - 1.0) < 1e-12
        assert np.all(d >= 0.0)

    @settings(max_examples=50)
    @given(sequences)
    def test_monomer_counts_round_trip(self, seq):
        d = psc(seq)
        counts = np.rint(d[:20] * len(seq)).astype(int)
        expected = [seq.count(a) for a in AMINO_ACIDS]
        assert counts.tolist() == expected

    @settings(max_examples=200)
    @given(sequences, st.booleans())
    def test_bytes_match_the_loop_encoder(self, seq, phosphorylated):
        assert psc(seq, phosphorylated).tobytes() == \
            loop_psc(seq, phosphorylated).tobytes()

    @settings(max_examples=300)
    @given(st.text(alphabet=AMINO_ACIDS, max_size=40),
           st.sampled_from(BAD_LETTERS) | st.characters(),
           st.text(max_size=40))
    def test_any_text_gets_the_loop_encoders_bytes_or_message(
            self, head, letter, tail):
        seq = head + letter + tail

        def outcome(describe):
            try:
                return describe(seq).tobytes()
            except SequenceError as error:
                return str(error)

        assert outcome(psc) == outcome(loop_psc)

    @pytest.mark.parametrize("letter", BAD_LETTERS)
    def test_each_kind_of_bad_letter_is_named_with_its_position(self,
                                                                letter):
        with pytest.raises(SequenceError) as got:
            psc("ACD" + letter + "EF")
        assert str(got.value) == (
            f"unknown residue {letter!r} at position 3 (non-canonical "
            f"letters are rejected, not remapped)")

    def test_descriptor_matrix_rows_are_psc_rows(self):
        table = {"P1": ("ACDEFGHIK", False), "P2": ("WWY", True)}
        matrix = descriptor_matrix(table, ["P2", "P1", "P2"])
        assert matrix.tobytes() == np.stack(
            [loop_psc("WWY", True), loop_psc("ACDEFGHIK"),
             loop_psc("WWY", True)]).tobytes()

    def test_purity(self):
        assert np.array_equal(psc("ACDKLM"), psc("ACDKLM"))


class TestSequenceTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "proteins.tsv"
        path.write_text("P1\t0\tACDEF\nP2\t1\tKLMNP\n", encoding="utf-8")
        table = read_sequence_table(path)
        assert table == {"P1": ("ACDEF", False), "P2": ("KLMNP", True)}

    def test_bad_flag(self, tmp_path):
        path = tmp_path / "proteins.tsv"
        path.write_text("P1\t2\tACDEF\n", encoding="utf-8")
        with pytest.raises(SequenceError, match="phospho flag"):
            read_sequence_table(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "proteins.tsv"
        path.write_text("P1\t0\tACDEF\nP1\t0\tKLMNP\n", encoding="utf-8")
        with pytest.raises(SequenceError, match="duplicate"):
            read_sequence_table(path)

    def test_invalid_sequence_reports_line(self, tmp_path):
        path = tmp_path / "proteins.tsv"
        path.write_text("P1\t0\tAC1EF\n", encoding="utf-8")
        with pytest.raises(SequenceError, match="proteins.tsv: line 1: "):
            read_sequence_table(path)

    def test_validate_sequence_passes_canonical(self):
        validate_sequence("ACDEFGHIKLMNPQRSTVWY")


class TestDescriptorMatrixFile:
    def test_round_trip(self, tmp_path):
        ids = ["P1", "P2", "P3"]
        matrix = np.stack([psc("ACDEF"), psc("KLMNP", True), psc("WWWYY")])
        path = tmp_path / "psc.bin"
        write_descriptor_matrix(path, ids, matrix)
        got_ids, got = read_descriptor_matrix(path)
        assert got_ids == ids
        assert np.array_equal(got, matrix)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        ids = ["A", "B"]
        matrix = np.stack([psc("ACDEF"), psc("KLMNP")])
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        write_descriptor_matrix(first, ids, matrix)
        got_ids, got = read_descriptor_matrix(first)
        write_descriptor_matrix(second, got_ids, got)
        assert first.read_bytes() == second.read_bytes()

    def test_descriptor_matrix_rows_follow_the_ids(self):
        table = {"A": ("ACDEF", False), "B": ("KLMNP", True)}
        matrix = descriptor_matrix(table, ["B", "A"])
        assert np.array_equal(matrix, np.stack([psc("KLMNP", True),
                                                psc("ACDEF")]))

    @pytest.mark.parametrize("keep", [8, 15, 21, 23, 100, -1])
    def test_truncated_file_names_the_file(self, tmp_path, keep):
        # cuts inside the header, an id length, an id and the payload
        path = tmp_path / "psc.bin"
        write_descriptor_matrix(path, ["P1", "P2"],
                                np.stack([psc("ACDEF"), psc("KLMNP")]))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(SequenceError,
                           match=r"psc\.bin: truncated descriptor matrix"):
            read_descriptor_matrix(path)

    def test_id_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "psc.bin"
        write_descriptor_matrix(path, ["P1"], np.stack([psc("ACDEF")]))
        data = path.read_bytes()
        # the id's bytes follow the 20-byte header and its 2-byte length
        path.write_bytes(data[:22] + b"\xff" + data[23:])
        with pytest.raises(SequenceError, match=r"psc\.bin: .*not UTF-8"):
            read_descriptor_matrix(path)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAPSCFILE")
        with pytest.raises(SequenceError, match="not a descriptor matrix"):
            read_descriptor_matrix(path)

    def test_overlong_id_names_its_position_and_keeps_the_file(self, tmp_path):
        path = tmp_path / "psc.bin"
        write_descriptor_matrix(path, ["P1"], np.stack([psc("ACDEF")]))
        before = path.read_bytes()
        ids = ["P1", "é" * 32768]  # 65536 UTF-8 bytes, one past the limit
        with pytest.raises(SequenceError,
                           match=r"psc\.bin: protein id at position 1 .*65535"):
            write_descriptor_matrix(path, ids,
                                    np.stack([psc("ACDEF"), psc("GHIKL")]))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["psc.bin"]

    def test_id_at_the_byte_limit_round_trips(self, tmp_path):
        path = tmp_path / "psc.bin"
        ids = ["x" * 65535]
        write_descriptor_matrix(path, ids, np.stack([psc("ACDEF")]))
        assert read_descriptor_matrix(path)[0] == ids
