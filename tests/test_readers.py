"""Every input text reader, fed mutated copies of a valid file, either
returns or raises a dtanet error whose message names the file."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dtanet import data, pipeline, proteins, splits, tuning
from dtanet.model import FeatureStore
from dtanet.runconfig import parse_run_config
from dtanet.splits import FoldAssignment, write_folds
from dtanet.synthetic import write_fixture

TOKENS = [b"\xff", b'"', b"\r", b"\x00", b"\xc3", b"nan", b"inf", b"-1",
          b"9" * 30, b"1e999"]
KINDS = ["flip", "truncate", "duplicate", "drop", "undelimit", "insert",
         "prefix", "replace"]

SPACE = """# a search space
learning_rate continuous 1e-4 1e-2 log
dropout continuous 0 0.5
n_layers integer 1 3
layer_width categorical 16 32 64
batch_size categorical 16 32
"""

REPORT = """# scheme=warm
# seed=0
# config.train.seed=0
scheme,seed,repetition,fold,task_id,n_records,rmse,r2,ci,leakage_audit
warm,0,0,0,0,12,0.5,0.1,0.6,pass
warm,0,0,1,0,12,0.7,0.2,0.65,pass
warm,0,mean,,rmse,,0.6,,,
warm,0,std,,rmse,,0.141421,,,
"""

CONFIG = """[data]
min_obs = 0
[model]
hidden_layers = 16
fp_bits = 512
[train]
max_epochs = 2
learning_rate = 0.001
[split]
k = 2
"""


def mutate(text: bytes, delimiter: bytes, kind: str, a: int, b: int,
           token: bytes) -> bytes:
    """``text`` with one mutation of ``kind``; ``a`` and ``b`` pick where,
    modulo the sizes they index."""
    if kind == "flip":
        at = a % len(text)
        return text[:at] + bytes([text[at] ^ (1 << b % 8)]) + text[at + 1:]
    if kind == "truncate":
        return text[:a % len(text)]
    if kind == "insert":
        at = a % (len(text) + 1)
        return text[:at] + token + text[at:]
    lines = text.split(b"\n")
    row = a % len(lines)
    if kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "drop":
        del lines[row]
    elif kind == "undelimit":
        fields = lines[row].split(delimiter)
        cut = b % len(fields)
        lines[row] = delimiter.join(fields[:cut]) + b"".join(fields[cut:])
    else:
        fields = lines[row].split(delimiter)
        column = b % len(fields)
        fields[column] = token + (fields[column] if kind == "prefix" else b"")
        lines[row] = delimiter.join(fields)
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    """Reader name -> (a valid input, its field delimiter, a call that reads
    a file of that kind)."""
    root = tmp_path_factory.mktemp("readers")
    fixture = write_fixture(root / "fixture")
    cfg = parse_run_config(None, overrides={"model.hidden_layers": "16",
                                            "model.fp_bits": "512"})
    dataset = pipeline.load_pair_dataset(cfg, root / "fixture")
    checkpoint = root / "model.ckpt"
    FeatureStore(dataset, cfg.model_config(n_tasks=1)).build_model() \
        .save(checkpoint)
    write_folds(root / "folds.csv", FoldAssignment(
        k=3, folds=np.arange(30) % 3, scheme="random", seed=4))

    def predict(path):
        pipeline.run_predict(checkpoint, path, fixture["proteins"],
                             path.with_suffix(".out"), ad_from=path)

    interactions = fixture["interactions"].read_bytes()
    return {
        "interactions": (interactions, b",", lambda path: data.load_dataset(
            path, fixture["proteins"])),
        "assay map": (b"CHEMBL1\t0\n# note\nCHEMBL2\t1\n", b"\t",
                      data._read_assay_map),
        "sequence table": (fixture["proteins"].read_bytes(), b"\t",
                           proteins.read_sequence_table),
        "folds": ((root / "folds.csv").read_bytes(), b",", splits.read_folds),
        "search space": (SPACE.encode(), b" ", tuning.load_space),
        "pair table": (interactions, b",", predict),
        "report": (REPORT.encode(), b",", pipeline.read_report),
        "run config": (CONFIG.encode(), b"=", parse_run_config),
    }


@pytest.mark.parametrize("name", ["interactions", "assay map",
                                  "sequence table", "folds", "search space",
                                  "pair table", "report", "run config"])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(KINDS), a=st.integers(0, 1 << 16),
       b=st.integers(0, 64), token=st.sampled_from(TOKENS))
# a huge task id on line 2, a quote before line 6's protein id, and two
# undecodable bytes on line 2 or 3
@example(kind="replace", a=1, b=2, token=b"9" * 30)
@example(kind="replace", a=1, b=2, token=b"9999999")
@example(kind="prefix", a=5, b=1, token=b'"')
@example(kind="insert", a=60, b=0, token=b"\xff")
@example(kind="insert", a=60, b=0, token=b"\xc3")
def test_a_mutated_input_returns_or_names_the_file(readers, name, kind, a, b,
                                                   token):
    valid, delimiter, read = readers[name]
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.txt"
        path.write_bytes(mutate(valid, delimiter, kind, a, b, token))
        try:
            read(path)
        except Exception as exc:
            assert type(exc).__module__.startswith("dtanet."), repr(exc)
            assert str(path) in str(exc), repr(exc)
