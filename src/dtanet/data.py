"""Interaction-table ingestion, value transforms and sparsity filtering.

Input schema (CSV with header): ``smiles,protein_id,task_id,value``. The
compound is identified by its SMILES string. Protein sequences come from
a sequence table (see :mod:`dtanet.proteins`). Rows whose value field is
non-numeric, non-finite or inequality-prefixed (``>10000``, ``<0.5``) are
imprecise and dropped with a count; structurally broken rows count as
malformed and abort once they exceed the configured tolerance.

Responses are transformed as each row is read: 4 - log10(raw), optionally
after an exact-match remap of one raw value onto another (used to pull a
sentinel inactive concentration closer to the active range). Duplicated
(compound, protein, task) observations are averaged after the transform.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import proteins
from .artifacts import read_lines
from .smiles import MoleculeColumns, MoleculeTable, SmilesError, parse_table

__all__ = [
    "DataError",
    "InteractionRecord",
    "DatasetSummary",
    "PairDataset",
    "parse_compound",
    "load_interactions",
    "parse_value",
    "transform_value",
    "inverse_transform",
    "filter_sparse",
    "assemble_pairs",
    "load_dataset",
]

log = logging.getLogger(__name__)

EXPECTED_HEADER = ["smiles", "protein_id", "task_id", "value"]


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class InteractionRecord:
    smiles: str
    protein_id: str
    task_id: int
    raw_value: float
    value: float  # transform_value(raw_value) under the load's remap


@dataclass
class DatasetSummary:
    n_compounds: int
    n_proteins: int
    n_pairs: int
    n_tasks: int
    per_task_counts: tuple[int, ...]
    discarded_imprecise: int = 0
    discarded_malformed: int = 0


def parse_value(text: str) -> float | None:
    """The raw response in ``text``; ``None`` when it is imprecise.

    Any text that is not a precise finite number is imprecise:
    inequality-prefixed (``>10000``, ``<0.5``), non-finite and non-numeric
    (``n.d.``) values alike.
    """
    try:
        value = float(text)  # also refuses a ">" or "<" prefix
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_compound(compounds: dict[str, int], columns: MoleculeColumns,
                   smiles: str, path: str | Path, lineno: int) -> None:
    """Scan ``smiles`` into ``columns`` unless ``compounds`` (SMILES -> row)
    has it; a SMILES the parser rejects fails naming ``path`` and ``lineno``."""
    if smiles not in compounds:
        try:
            columns.append(smiles)
        except SmilesError as exc:
            raise DataError(
                f"{path}: line {lineno}: bad SMILES: {exc}") from exc
        compounds[smiles] = len(compounds)


def load_interactions(
    interactions_path: str | Path,
    sequences_path: str | Path,
    assay_map_path: str | Path | None = None,
    malformed_tolerance: int = 0,
    inactive_remap: tuple[float, float] | None = None,
) -> tuple[list[InteractionRecord], DatasetSummary,
           dict[str, tuple[str, bool]], MoleculeTable]:
    """Read, eagerly validate and transform an interaction table.

    Every distinct SMILES is parsed once, every referenced protein must be
    in the sequence table and every kept value must pass
    :func:`transform_value` under ``inactive_remap``; each fails fast naming
    the file and line. The task ids of the well-formed rows must cover 0 to
    the largest of them, else the first row past a gap fails. Returns the
    records, each with its raw and transformed value, a summary, the
    sequence table, and the molecule table of the records' distinct SMILES
    in the order they were first read.
    """
    if malformed_tolerance < 0:
        raise DataError(f"malformed_tolerance must be at least 0, got "
                        f"{malformed_tolerance}")
    sequences = proteins.read_sequence_table(sequences_path)
    assay_map = _read_assay_map(assay_map_path) if assay_map_path else None
    records: list[InteractionRecord] = []
    imprecise = 0
    malformed: list[str] = []
    compounds: dict[str, int] = {}
    columns = MoleculeColumns()
    lines = read_lines(interactions_path, DataError)
    _, header = next(lines, (1, ""))
    if header.split(",") != EXPECTED_HEADER:
        raise DataError(f"{interactions_path}: expected header "
                        f"{','.join(EXPECTED_HEADER)!r}, got {header!r}")
    task_lines: dict[int, int] = {}  # task id -> line of its first row
    for lineno, line in lines:
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        problem, task_id = _row_problem(fields, assay_map)
        if problem:
            malformed.append(f"line {lineno}: {problem}")
            continue
        task_lines.setdefault(task_id, lineno)
        smiles, protein_id, _, value_field = fields
        raw = parse_value(value_field)
        if raw is None:
            imprecise += 1
            continue
        try:
            value = transform_value(raw, inactive_remap)
        except DataError as exc:
            raise DataError(
                f"{interactions_path}: line {lineno}: {exc}") from None
        parse_compound(compounds, columns, smiles, interactions_path, lineno)
        if protein_id not in sequences:
            raise DataError(
                f"{interactions_path}: line {lineno}: no sequence for "
                f"protein id {protein_id!r}")
        records.append(InteractionRecord(
            smiles=smiles, protein_id=protein_id, task_id=task_id,
            raw_value=raw, value=value))
    if len(malformed) > malformed_tolerance:
        raise DataError(
            f"{interactions_path}: {len(malformed)} malformed row(s), "
            f"tolerance {malformed_tolerance}; first: {malformed[0]}")
    unused = next(t for t in range(len(task_lines) + 1) if t not in task_lines)
    past = [(line, task) for task, line in task_lines.items() if task > unused]
    if past:
        line, task = min(past)
        raise DataError(f"{interactions_path}: line {line}: task id {task} "
                        f"leaves task {unused} without a row")
    if malformed:
        log.warning("discarded %d malformed row(s) from %s; first: %s",
                    len(malformed), interactions_path, malformed[0])
    if imprecise:
        log.info("discarded %d imprecise value row(s) from %s",
                 imprecise, interactions_path)
    summary = summarize(records)
    summary.discarded_imprecise = imprecise
    summary.discarded_malformed = len(malformed)
    return records, summary, sequences, columns.table()


def _row_problem(fields: list[str], assay_map: dict[str, int] | None
                 ) -> tuple[str | None, int]:
    """What makes a row of stripped ``fields`` malformed, if anything, and
    the row's task id (-1 when malformed)."""
    if len(fields) != 4:
        return f"expected 4 fields, got {len(fields)}", -1
    smiles, protein_id, task_field, _ = fields
    if not smiles:
        return "empty SMILES field", -1
    if not protein_id:
        return "empty protein_id field", -1
    if assay_map is not None:
        task = assay_map.get(task_field)
        if task is None:
            return f"assay id {task_field!r} missing from the assay map", -1
        return None, task
    try:
        task = int(task_field)
    except ValueError:
        return f"task_id {task_field!r} is not an integer", -1
    if task < 0:
        return f"task_id {task} is negative", -1
    return None, task


def _read_assay_map(path: str | Path) -> dict[str, int]:
    mapping: dict[str, int] = {}
    for lineno, line in read_lines(path, DataError):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(
                f"{path}: line {lineno}: expected 'assay_id<TAB>task_id'")
        try:
            task = int(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: task_id must be an integer") from exc
        if task < 0:
            raise DataError(f"{path}: line {lineno}: task_id {task} is negative")
        if parts[0] in mapping:
            raise DataError(
                f"{path}: line {lineno}: duplicate assay id {parts[0]!r}")
        mapping[parts[0]] = task
    return mapping


def summarize(records: list[InteractionRecord]) -> DatasetSummary:
    task_counts = Counter(r.task_id for r in records)
    n_tasks = (max(task_counts) + 1) if task_counts else 0
    return DatasetSummary(
        n_compounds=len({r.smiles for r in records}),
        n_proteins=len({r.protein_id for r in records}),
        n_pairs=len(records),
        n_tasks=n_tasks,
        per_task_counts=tuple(task_counts.get(t, 0) for t in range(n_tasks)),
    )


def transform_value(raw: float,
                    inactive_remap: tuple[float, float] | None = None) -> float:
    """``4 - log10(raw)`` after the optional exact-match remap; a raw value
    that is non-positive after the remap fails."""
    value = raw
    if inactive_remap is not None and value == inactive_remap[0]:
        value = inactive_remap[1]
    if value <= 0:
        raise DataError(f"non-positive raw value {raw}")
    return 4.0 - np.log10(value)


def inverse_transform(value: float) -> float:
    """The raw response corresponding to a transformed value."""
    return float(10.0 ** (4.0 - value))


def filter_sparse(records: list[InteractionRecord],
                  min_obs: int) -> list[InteractionRecord]:
    """Drop compounds and proteins with at most ``min_obs`` observations.

    Removal can re-sparsify other entities, so the rule iterates to a fixed
    point. May return an empty list (logged).
    """
    if min_obs < 0:
        raise DataError("min_obs must be >= 0")
    current = list(records)
    while True:
        compound_counts = Counter(r.smiles for r in current)
        protein_counts = Counter(r.protein_id for r in current)
        dead_compounds = {c for c, n in compound_counts.items() if n <= min_obs}
        dead_proteins = {p for p, n in protein_counts.items() if n <= min_obs}
        if not dead_compounds and not dead_proteins:
            break
        current = [r for r in current
                   if r.smiles not in dead_compounds
                   and r.protein_id not in dead_proteins]
    if records and not current:
        log.warning("sparsity filter (min_obs=%d) removed every record", min_obs)
    return current


@dataclass
class PairDataset:
    """Assembled multi-task view: one row per (compound, protein) pair;
    row ``i`` of the ``molecules`` table is ``compounds[i]`` (parsed if not
    given)."""

    compounds: tuple[str, ...]
    protein_ids: tuple[str, ...]
    sequences: dict[str, tuple[str, bool]]
    pairs: np.ndarray  # (n_pairs, 2) [compound index, protein index]
    y: np.ndarray      # (n_pairs, n_tasks) transformed values, 0 where masked
    w: np.ndarray      # (n_pairs, n_tasks) 0/1 mask
    n_tasks: int
    molecules: MoleculeTable | None = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.molecules is None:
            self.molecules = parse_table(self.compounds)
        elif len(self.molecules) != len(self.compounds):
            raise DataError(f"{len(self.molecules)} molecules for "
                            f"{len(self.compounds)} compounds")

    @property
    def n_pairs(self) -> int:
        return self.pairs.shape[0]

    def summary(self) -> DatasetSummary:
        per_task = tuple(int(self.w[:, t].sum()) for t in range(self.n_tasks))
        return DatasetSummary(
            n_compounds=len(self.compounds),
            n_proteins=len(self.protein_ids),
            n_pairs=int(self.w.sum()),
            n_tasks=self.n_tasks,
            per_task_counts=per_task,
        )


def assemble_pairs(records: list[InteractionRecord],
                   sequences: dict[str, tuple[str, bool]],
                   n_tasks: int | None = None,
                   parsed: tuple[dict[str, int], MoleculeTable] | None = None
                   ) -> PairDataset:
    """Group records by (compound, protein); duplicates average
    post-transform. The molecules are taken from ``parsed`` (SMILES -> row
    of its table) when given, else the dataset parses them."""
    if not records:
        raise DataError("cannot assemble an empty record list")
    max_task = max(r.task_id for r in records)
    if n_tasks is None:
        n_tasks = max_task + 1
    elif max_task >= n_tasks:
        raise DataError(f"task id {max_task} outside 0..{n_tasks - 1}")
    compounds: list[str] = []
    compound_index: dict[str, int] = {}
    protein_ids: list[str] = []
    protein_index: dict[str, int] = {}
    # (compound, protein) -> pair row, numbered in first-occurrence order
    pair_rows: dict[tuple[int, int], int] = {}
    # (pair row, task) -> the values observed in that cell
    cell_values: dict[tuple[int, int], list[float]] = defaultdict(list)
    for record in records:
        ci = compound_index.setdefault(record.smiles, len(compounds))
        if ci == len(compounds):
            compounds.append(record.smiles)
        pi = protein_index.setdefault(record.protein_id, len(protein_ids))
        if pi == len(protein_ids):
            protein_ids.append(record.protein_id)
        row = pair_rows.setdefault((ci, pi), len(pair_rows))
        cell_values[(row, record.task_id)].append(record.value)
    cells = np.array(list(cell_values), dtype=np.int64).reshape(-1, 2)
    y = np.zeros((len(pair_rows), n_tasks))
    w = np.zeros((len(pair_rows), n_tasks))
    # one value is its own mean; numpy's pairwise sum makes sum()/len()
    # differ from np.mean for longer cells
    y[cells[:, 0], cells[:, 1]] = [
        values[0] if len(values) == 1 else float(np.mean(values))
        for values in cell_values.values()]
    w[cells[:, 0], cells[:, 1]] = 1.0
    missing = [p for p in protein_ids if p not in sequences]
    if missing:
        raise DataError(f"no sequence for protein id {missing[0]!r}")
    molecules = None
    if parsed is not None:
        rows, table = parsed
        molecules = table.take([rows[smiles] for smiles in compounds])
    return PairDataset(
        compounds=tuple(compounds),
        protein_ids=tuple(protein_ids),
        sequences={p: sequences[p] for p in protein_ids},
        pairs=np.array(list(pair_rows), dtype=np.int64).reshape(-1, 2),
        y=y,
        w=w,
        n_tasks=n_tasks,
        molecules=molecules,
    )


def load_dataset(
    interactions_path: str | Path,
    sequences_path: str | Path,
    assay_map_path: str | Path | None = None,
    min_obs: int = 0,
    inactive_remap: tuple[float, float] | None = None,
    malformed_tolerance: int = 0,
    n_tasks: int | None = None,
) -> PairDataset:
    """Full ingestion chain: load and transform, optionally filter, assemble."""
    records, _, sequences, molecules = load_interactions(
        interactions_path, sequences_path, assay_map_path, malformed_tolerance,
        inactive_remap)
    read = {smiles: row for row, smiles in
            enumerate(dict.fromkeys(r.smiles for r in records))}
    if min_obs > 0:
        records = filter_sparse(records, min_obs)
        if not records:
            raise DataError(
                f"sparsity filter min_obs={min_obs} removed every record")
    return assemble_pairs(records, sequences, n_tasks,
                          parsed=(read, molecules))
