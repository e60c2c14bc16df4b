"""Atomic artifact writes: round trips, file modes, and failed writes that
leave the previous file intact."""

import errno
import os
import stat
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtanet.artifacts import read_lines, write_artifact, write_lines
from dtanet.model import FeatureStore, ModelConfig
from dtanet.splits import FoldAssignment, write_folds
from dtanet.synthetic import memory_dataset

SRC = Path(__file__).resolve().parents[1] / "src"


def leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir()
                  if p.name.endswith(".tmp"))


chunk_lists = st.lists(st.binary(max_size=64), max_size=8)
line_lists = st.lists(st.text(max_size=16), max_size=8)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(chunks=chunk_lists, previous=st.none() | st.binary(max_size=64))
    def test_chunks_round_trip(self, chunks, previous):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "artifact.bin"
            if previous is not None:
                path.write_bytes(previous)
            write_artifact(path, iter(chunks))
            assert path.read_bytes() == b"".join(chunks)
            assert leftovers(Path(work)) == []

    @settings(max_examples=60, deadline=None)
    @given(lines=line_lists, previous=st.none() | st.text(max_size=32))
    def test_lines_round_trip(self, lines, previous):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "artifact.csv"
            if previous is not None:
                path.write_text(previous, encoding="utf-8")
            write_lines(path, iter(lines))
            expected = "".join(f"{line}\n" for line in lines)
            assert path.read_bytes() == expected.encode("utf-8")
            assert leftovers(Path(work)) == []

    @settings(max_examples=30, deadline=None)
    @given(lines=line_lists.filter(bool))
    def test_lines_match_the_joined_text(self, lines):
        with tempfile.TemporaryDirectory() as work:
            joined = Path(work) / "joined.csv"
            joined.write_text("\n".join(lines) + "\n", encoding="utf-8")
            write_lines(Path(work) / "lines.csv", lines)
            assert ((Path(work) / "lines.csv").read_bytes()
                    == joined.read_bytes())

    @settings(max_examples=30, deadline=None)
    @given(umask=st.integers(0, 0o777))
    def test_new_artifact_mode_matches_write_text(self, umask):
        with tempfile.TemporaryDirectory() as work:
            previous = os.umask(umask)
            try:
                write_lines(Path(work) / "artifact.csv", ["a"])
                (Path(work) / "text.csv").write_text("a\n", encoding="utf-8")
            finally:
                os.umask(previous)
            assert (os.stat(Path(work) / "artifact.csv").st_mode
                    == os.stat(Path(work) / "text.csv").st_mode)


class TestFailedWrites:
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_failing_chunk_source_leaves_the_old_file(self, tmp_path,
                                                        error):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"old bytes")

        def chunks():
            yield b"new " * 1000
            raise error("source failed")

        with pytest.raises(error, match="source failed"):
            write_artifact(path, chunks())
        assert path.read_bytes() == b"old bytes"
        assert leftovers(tmp_path) == []

    def test_a_failed_write_to_a_new_path_leaves_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            write_artifact(tmp_path / "artifact.bin", [b"bytes", "text"])
        assert list(tmp_path.iterdir()) == []

    def test_an_existing_temporary_file_is_not_removed(self, tmp_path):
        # a file left by a killed writer whose pid this process now has
        path = tmp_path / "artifact.csv"
        tmp = tmp_path / f".artifact.csv.{os.getpid()}.tmp"
        tmp.write_bytes(b"someone else's")
        write_lines(path, ["a"])
        write_lines(path, ["b"])
        assert path.read_text() == "b\n"
        assert tmp.read_bytes() == b"someone else's"
        assert leftovers(tmp_path) == [tmp.name]

    def test_each_write_uses_its_own_temporary_file(self, tmp_path,
                                                    monkeypatch):
        opened = []
        real_open = open

        def spy(file, mode="r", *args, **kwargs):
            opened.append((Path(file).name, mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        for _ in range(3):
            write_artifact(tmp_path / "artifact.bin", [b"x"])
        names = [name for name, mode in opened if mode == "xb"]
        assert len(set(names)) == 3
        assert all(name.startswith(f".artifact.bin.{os.getpid()}.")
                   for name in names)


class Refused(Exception):
    pass


# any text write_lines can write as one line: no line ending, no surrogate
one_line = st.text(st.characters(exclude_categories=("Cs",),
                                 exclude_characters="\r\n"), max_size=16)


class TestReadLines:
    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(one_line, max_size=8),
           ending=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_written_lines_read_back_numbered_from_one(self, lines, ending):
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "lines.csv"
            write_lines(path, lines)
            numbered = list(enumerate(lines, start=1))
            assert list(read_lines(path, Refused)) == numbered
            path.write_bytes("".join(f"{line}{ending}" for line in lines)
                             .encode("utf-8"))
            assert list(read_lines(path, Refused)) == numbered

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(one_line, min_size=1, max_size=8), data=st.data(),
           bad=st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80",
                                b"\xe2\x82", b"\xf0\x9f\x98"]),
           ending=st.sampled_from([b"\n", b"\r\n", b"\r"]))
    def test_an_undecodable_byte_names_its_line(self, lines, data, bad,
                                                ending):
        encoded = [line.encode("utf-8") for line in lines]
        row = data.draw(st.integers(0, len(lines) - 1))
        at = data.draw(st.integers(0, len(encoded[row])))
        at = len(encoded[row][:at].decode("utf-8", "ignore").encode("utf-8"))
        encoded[row] = encoded[row][:at] + bad + encoded[row][at:]
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "lines.csv"
            path.write_bytes(ending.join(encoded) + ending)
            with pytest.raises(Refused) as caught:
                list(read_lines(path, Refused))
        assert str(caught.value) == f"{path}: line {row + 1}: not UTF-8 text"

    def test_the_line_is_exact_past_the_read_buffer(self, tmp_path):
        path = tmp_path / "long.csv"
        lines = [f"{i},{'x' * 30}" for i in range(5000)]
        write_lines(path, lines)
        assert list(read_lines(path, Refused)) == \
            list(enumerate(lines, start=1))
        raw = path.read_bytes().split(b"\n")
        raw[3999] += b"\xff"
        path.write_bytes(b"\n".join(raw))
        with pytest.raises(Refused, match=r"long\.csv: line 4000: not UTF-8"):
            list(read_lines(path, Refused))


class TestDurability:
    def test_the_directory_is_fsynced_after_the_rename(self, tmp_path,
                                                       monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            real_replace(src, dst)
            events.append(("replace",))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        write_lines(tmp_path / "artifact.csv", ["a"])
        renamed = events.index(("replace",))
        assert ("fsync", False, (tmp_path / "artifact.csv").stat().st_ino) \
            in events[:renamed]
        assert ("fsync", True, tmp_path.stat().st_ino) in events[renamed:]


# The child imports everything first, then lowers its own file-size limit
# below the artifact's size and ignores SIGXFSZ, so an oversized write fails
# with EFBIG part-way through instead of killing the process.
_CHILD = textwrap.dedent("""
    import resource, signal, sys
    import numpy as np
    from dtanet.model import Model
    from dtanet.splits import FoldAssignment, write_folds

    kind, path, limit = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if kind == "checkpoint":
        model, _ = Model.load(path)
        write = lambda: model.save(path)
    else:
        folds = np.arange(5000) % 3
        write = lambda: write_folds(path, FoldAssignment(
            k=3, folds=folds, scheme="random", seed=9))
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE,
                       (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
    try:
        write()
    except OSError as exc:
        print("OSError", exc.errno)
        sys.exit(0)
    print("no error")
""")


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
class TestFileSizeLimit:
    LIMIT = 20_000

    def overwrite_in_child(self, kind: str, path: Path) -> str:
        completed = subprocess.run(
            [sys.executable, "-c", _CHILD, kind, str(path), str(self.LIMIT)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        return completed.stdout.strip()

    def assert_refused(self, kind: str, path: Path) -> None:
        old = path.read_bytes()
        assert len(old) > self.LIMIT
        assert self.overwrite_in_child(kind, path) == f"OSError {errno.EFBIG}"
        assert path.read_bytes() == old
        assert leftovers(path.parent) == []

    def test_checkpoint_overwrite_past_the_limit(self, tmp_path):
        dataset = memory_dataset(n_compounds=8, n_proteins=4, n_pairs=16,
                                 seed=5)
        cfg = ModelConfig(variant="padme-ecfp", hidden_layers=(16,),
                          dropout_rates=(0.0,), fp_bits=512, seed=0)
        path = tmp_path / "model.ckpt"
        FeatureStore(dataset, cfg).build_model().save(path)
        self.assert_refused("checkpoint", path)

    def test_fold_csv_overwrite_past_the_limit(self, tmp_path):
        path = tmp_path / "folds.csv"
        write_folds(path, FoldAssignment(k=3, folds=np.arange(5000) % 3,
                                         scheme="warm", seed=0))
        self.assert_refused("folds", path)
