"""Deterministic synthetic fixtures.

Real interaction tables are not redistributed with this package; tests, the
smoke pipeline and the scaling probe run on generated data that is
format-compatible with the ingestion schema. Molecules are assembled from a
pool of chain/ring fragments that concatenate into valid SMILES, protein
sequences are drawn over the 20 canonical residues, and responses carry a
weak structural signal plus noise, expressed as raw values that transform
back into the target range.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .artifacts import write_lines
from .compounds import ecfp_matrix
from .data import PairDataset, inverse_transform
from .proteins import AMINO_ACIDS
from .smiles import parse_smiles

__all__ = ["random_smiles", "random_sequence", "memory_dataset",
           "write_fixture"]

# Each fragment appends to the previous tail atom, so any concatenation of
# fragments (starting with any of them) is valid in the supported subset.
_FRAGMENTS = (
    "C", "N", "O", "CC", "CO", "CN", "CS", "C(C)", "C(F)", "C(Cl)",
    "C(Br)", "C(=O)", "C(C)(C)", "C=C", "c1ccccc1", "c1ccncc1",
    "C1CCCC1", "C1CCCCC1", "C(O)", "C(N)",
)


def random_smiles(rng: np.random.Generator, n_fragments: tuple[int, int] = (2, 5)) -> str:
    count = int(rng.integers(n_fragments[0], n_fragments[1] + 1))
    picks = rng.integers(0, len(_FRAGMENTS), size=count)
    return "".join(_FRAGMENTS[int(p)] for p in picks)


def unique_smiles(n: int, rng: np.random.Generator) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError("could not generate enough distinct molecules")
        smiles = random_smiles(rng)
        if smiles in seen:
            continue
        seen.add(smiles)
        out.append(smiles)
    return out


def random_sequence(rng: np.random.Generator,
                    length_range: tuple[int, int] = (40, 120)) -> str:
    length = int(rng.integers(length_range[0], length_range[1] + 1))
    codes = rng.integers(0, 20, size=length)
    return "".join(AMINO_ACIDS[int(c)] for c in codes)


def _signal(fp_bits: np.ndarray, sequence: str,
            rng: np.random.Generator) -> float:
    """Weak learnable structure in [0.7, 3.3] plus noise."""
    compound_term = (fp_bits.sum() % 29) / 29.0
    protein_term = (sequence.count("A") + 2 * sequence.count("K")) % 17 / 17.0
    noise = rng.normal(0.0, 0.1)
    return float(np.clip(1.0 + 1.2 * compound_term + 0.8 * protein_term + noise,
                         0.5, 3.5))


def memory_dataset(n_compounds: int, n_proteins: int, n_pairs: int,
                   seed: int = 0, n_tasks: int = 1) -> PairDataset:
    """In-memory dataset built directly (no files).

    Pairs are sampled without replacement while the grid allows it; targets
    are a function of the (compound, protein) cell, so repeated pairs never
    carry conflicting values.
    """
    rng = np.random.default_rng(seed)
    compounds = unique_smiles(n_compounds, rng)
    protein_ids = [f"P{i:04d}" for i in range(n_proteins)]
    sequences = {pid: (random_sequence(rng), bool(rng.integers(0, 2)))
                 for pid in protein_ids}
    total = n_compounds * n_proteins
    if n_pairs <= total:
        flat = rng.choice(total, size=n_pairs, replace=False)
    else:
        flat = rng.integers(0, total, size=n_pairs)
    pairs = np.column_stack(np.unravel_index(flat, (n_compounds, n_proteins)))
    pairs = pairs.astype(np.int64)
    grid = rng.uniform(0.5, 3.5, size=(n_compounds, n_proteins, n_tasks))
    y = grid[pairs[:, 0], pairs[:, 1]]
    w = np.ones((n_pairs, n_tasks))
    return PairDataset(
        compounds=tuple(compounds), protein_ids=tuple(protein_ids),
        sequences=sequences, pairs=pairs, y=y, w=w, n_tasks=n_tasks)


def write_fixture(directory: str | Path, n_compounds: int = 24,
                  n_proteins: int = 12, obs_per_compound: int = 4,
                  n_tasks: int = 1, seed: int = 0,
                  imprecise_rows: int = 0) -> dict[str, Path]:
    """Write ``interactions.csv`` and ``proteins.tsv`` under ``directory``.

    Every compound gets at least ``obs_per_compound`` observations and every
    protein at least two, so all four splitting schemes are feasible on the
    result. Raw values are 10**(4 - t) for transformed targets t.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    compounds = unique_smiles(n_compounds, rng)
    fingerprints = ecfp_matrix([parse_smiles(s) for s in compounds], 2, 512)
    protein_ids = [f"P{i:04d}" for i in range(n_proteins)]
    sequences = {pid: (random_sequence(rng), bool(rng.integers(0, 2)))
                 for pid in protein_ids}
    obs_per_compound = max(2, min(obs_per_compound, n_proteins))
    cells: set[tuple[int, int]] = set()
    for ci in range(n_compounds):
        picks = rng.choice(n_proteins, size=obs_per_compound, replace=False)
        cells.update((ci, int(pi)) for pi in picks)
    protein_counts = np.zeros(n_proteins, dtype=np.int64)
    for _, pi in cells:
        protein_counts[pi] += 1
    for pi in range(n_proteins):
        while protein_counts[pi] < 2:
            ci = int(rng.integers(0, n_compounds))
            if (ci, pi) in cells:
                continue
            cells.add((ci, pi))
            protein_counts[pi] += 1
    rows = ["smiles,protein_id,task_id,value"]
    for ci, pi in sorted(cells):
        for task in range(n_tasks):
            transformed = _signal(fingerprints[ci],
                                  sequences[protein_ids[pi]][0], rng)
            raw = inverse_transform(transformed)
            rows.append(f"{compounds[ci]},{protein_ids[pi]},{task},{raw:.6g}")
    for _ in range(imprecise_rows):
        ci = int(rng.integers(0, n_compounds))
        pi = int(rng.integers(0, n_proteins))
        rows.append(f"{compounds[ci]},{protein_ids[pi]},0,>10000")
    interactions = directory / "interactions.csv"
    write_lines(interactions, rows)
    proteins_path = directory / "proteins.tsv"
    write_lines(proteins_path, (
        f"{pid}\t{1 if sequences[pid][1] else 0}\t{sequences[pid][0]}"
        for pid in protein_ids))
    return {"interactions": interactions, "proteins": proteins_path}
