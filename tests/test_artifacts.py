"""Atomic artifact writes: round trips, file modes, and failed writes that
leave the previous file intact."""

import errno
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtanet.artifacts import write_artifact, write_lines
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
        path = tmp_path / "artifact.csv"
        tmp = tmp_path / f".artifact.csv.{os.getpid()}.tmp"
        tmp.write_bytes(b"someone else's")
        with pytest.raises(FileExistsError):
            write_lines(path, ["a"])
        assert tmp.read_bytes() == b"someone else's"
        assert not path.exists()


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
        write = lambda: model.save(path, optimizer_step=7)
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
