"""Cross-validation fold construction and leakage audits.

Four schemes are provided:

* ``warm``: every drug and every target has observations in at least two
  folds (so no fold sees a completely unknown entity);
* ``cold-drug`` / ``cold-target``: the chosen entity axis is partitioned
  across folds, so test-fold entities never occur in the training folds;
* ``cold-cluster``: compounds are first single-linkage clustered on
  fingerprint similarity (strictly above the threshold) and whole clusters
  are assigned greedily, largest first, onto the lightest fold.

A separate holdout split supports hyperparameter work: training and tuning
validate on the 10% of records it holds out, which the per-fold views keep
in training folds and drop from validation folds. At k=5 a training view is
every record outside its fold, about 80%, and a validation view its fold
minus the holdout records there, about 18%; that share varies per fold with
how many holdout records the fold holds.

Everything is deterministic given (records, seed); ``audit_*`` helpers
re-check each scheme's constraint from scratch with :func:`fold_spans`.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_lines, write_lines
from .compounds import FeaturizationError

__all__ = [
    "SCHEMES",
    "SplitError",
    "FoldAssignment",
    "CompoundClustering",
    "warm_split",
    "cold_entity_split",
    "cluster_compounds",
    "cold_cluster_split",
    "random_split",
    "fold_spans",
    "hyperopt_holdout",
    "fold_views",
    "audit_warm",
    "audit_cold",
    "audit_clusters",
    "write_folds",
    "read_folds",
]

log = logging.getLogger(__name__)


class SplitError(ValueError):
    pass


SCHEMES = ("warm", "cold-drug", "cold-target", "cold-cluster", "random")


@dataclass
class FoldAssignment:
    k: int
    folds: np.ndarray  # per-record fold index
    scheme: str
    seed: int
    # cold-cluster only: the cluster label of each record the split used
    record_clusters: np.ndarray | None = None

    def __post_init__(self):
        self.folds = np.asarray(self.folds, dtype=np.int64)
        if self.folds.ndim != 1:
            raise SplitError("fold indices must be one-dimensional")
        if self.folds.size and (self.folds.min() < 0 or self.folds.max() >= self.k):
            raise SplitError("fold index out of range")
        counts = np.bincount(self.folds, minlength=self.k)
        if np.any(counts == 0):
            raise SplitError(f"scheme {self.scheme!r} produced an empty fold")

    @property
    def n_records(self) -> int:
        return int(self.folds.size)


@dataclass
class CompoundClustering:
    labels: np.ndarray  # cluster id per compound


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


# -- groups ------------------------------------------------------------------


def fold_spans(folds, groups, k: int) -> np.ndarray:
    """Number of distinct folds the records of each group fall in: entry
    ``g`` counts the folds (0..k-1) of the records whose non-negative
    integer group is ``g``, 0 if there are none."""
    cells = np.unique(np.asarray(groups, dtype=np.int64) * k
                      + np.asarray(folds, dtype=np.int64))
    return np.bincount(cells // k)


def _entity_codes(keys) -> tuple[np.ndarray, list]:
    """(each record's entity code, the entities): the distinct keys are
    numbered in order of first occurrence."""
    index: dict = {}
    codes = [index.setdefault(key, len(index)) for key in keys]
    return np.array(codes, dtype=np.int64), list(index)


# -- warm ------------------------------------------------------------------


def warm_split(drugs, targets, k: int, seed: int = 0) -> FoldAssignment:
    """Assignment where every drug and target lands in at least 2 folds.

    Construction: two records of every entity are paired with a
    "must differ in fold" constraint. A record sits in at most one drug pair
    and one target pair, so constraint-graph cycles alternate edge types and
    are even, which makes the graph 2-colorable; each connected component's
    color classes go to the two lightest folds and the remaining records
    fill the lightest fold. The constraint is re-audited exhaustively before
    returning.
    """
    drugs = list(drugs)
    targets = list(targets)
    n = len(drugs)
    if len(targets) != n:
        raise SplitError("drugs and targets differ in length")
    if k < 2:
        raise SplitError("warm split needs k >= 2")
    axes = []
    for kind, keys in (("drug", drugs), ("target", targets)):
        codes, entities = _entity_codes(keys)
        counts = np.bincount(codes, minlength=len(entities))
        if np.any(counts < 2):
            e = int(np.argmax(counts < 2))
            raise SplitError(
                f"warm split infeasible: {kind} {entities[e]!r} has only "
                f"{counts[e]} observation(s)")
        axes.append((codes, counts))
    rng = np.random.default_rng(seed)
    adjacency: dict[int, list[int]] = defaultdict(list)
    for codes, counts in axes:
        # each entity's records, entities in code order, records in index order
        for records in np.split(np.argsort(codes, kind="stable"),
                                np.cumsum(counts))[:-1]:
            rng.shuffle(records)
            a, b = int(records[0]), int(records[1])
            adjacency[a].append(b)
            adjacency[b].append(a)
    folds = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    for root in rng.permutation(n).tolist():
        if folds[root] != -1 or root not in adjacency:
            continue
        colors = {root: 0}
        queue = [root]
        while queue:
            node = queue.pop()
            for other in adjacency[node]:
                if other not in colors:
                    colors[other] = 1 - colors[node]
                    queue.append(other)
                elif colors[other] == colors[node]:
                    raise SplitError(
                        "internal error: warm-split constraint graph is "
                        "not 2-colorable")
        class0 = [r for r, color in colors.items() if color == 0]
        class1 = [r for r, color in colors.items() if color == 1]
        first, second = np.argsort(sizes, kind="stable")[:2]
        if len(class1) > len(class0):
            class0, class1 = class1, class0
        folds[class0] = first
        folds[class1] = second
        sizes[first] += len(class0)
        sizes[second] += len(class1)
    for rec in rng.permutation(n):
        if folds[rec] == -1:
            dest = int(np.argmin(sizes))
            folds[rec] = dest
            sizes[dest] += 1
    _rebalance_warm(folds, sizes, axes, rng)
    violations = audit_warm(FoldAssignment(k, folds, "warm", seed), drugs, targets)
    if violations:
        raise SplitError(
            f"warm split could not satisfy the 2-fold constraint for {violations[0]}")
    return FoldAssignment(k=k, folds=folds, scheme="warm", seed=seed)


def _rebalance_warm(folds, sizes, axes, rng) -> None:
    """Even out fold sizes with moves that keep every entity in >= 2 folds.

    ``axes`` holds one (entity code of each record, records per entity)
    pair per axis.
    """
    n, k = folds.size, sizes.size
    # records per (entity, fold), one (entities, k) table per axis
    tables = [(codes, np.bincount(codes * k + folds, minlength=counts.size * k)
               .reshape(-1, k)) for codes, counts in axes]

    def span_after_move(row, src, dest) -> int:
        return np.count_nonzero(row) - (row[src] == 1) + (row[dest] == 0)

    order = rng.permutation(n)
    for _ in range(4 * n):
        heavy = int(np.argmax(sizes))
        light = int(np.argmin(sizes))
        if sizes[heavy] - sizes[light] <= 1:
            break
        for rec in order:
            if folds[rec] != heavy:
                continue
            rows = [table[codes[rec]] for codes, table in tables]
            if any(span_after_move(row, heavy, light) < 2 for row in rows):
                continue
            folds[rec] = light
            sizes[heavy] -= 1
            sizes[light] += 1
            for row in rows:
                row[heavy] -= 1
                row[light] += 1
            break
        else:  # no record of the heavy fold can move
            break


def audit_warm(assignment: FoldAssignment, drugs, targets) -> list[str]:
    """Entities present in fewer than two folds (empty list means pass)."""
    violations = []
    for kind, keys in (("drug", drugs), ("target", targets)):
        codes, entities = _entity_codes(keys)
        spans = fold_spans(assignment.folds, codes, assignment.k)
        violations.extend(f"{kind} {entities[e]!r}"
                          for e in np.flatnonzero(spans < 2))
    return violations


# -- cold ------------------------------------------------------------------


def cold_entity_split(drugs, targets, k: int, seed: int = 0,
                      axis: str = "drug") -> FoldAssignment:
    """Partition entities on one axis across folds (cold-start scheme).

    Entities are shuffled and dealt round-robin, so per-fold entity counts
    stay within one of each other.
    """
    if axis not in ("drug", "target"):
        raise SplitError(f"axis must be 'drug' or 'target', got {axis!r}")
    codes, entities = _entity_codes(drugs if axis == "drug" else targets)
    m = len(entities)
    if m < k:
        raise SplitError(
            f"cold-{axis} split needs at least {k} distinct entities, "
            f"found {m}")
    rng = np.random.default_rng(seed)
    fold_of_entity = np.empty(m, dtype=np.int64)
    fold_of_entity[rng.permutation(m)] = np.arange(m) % k
    folds = fold_of_entity[codes]
    return FoldAssignment(k=k, folds=folds, scheme=f"cold-{axis}", seed=seed)


def audit_cold(assignment: FoldAssignment, entity_keys) -> dict[int, set]:
    """Per-fold intersection of in-fold and out-of-fold entity sets."""
    k, folds = assignment.k, assignment.folds
    codes, entities = _entity_codes(entity_keys)
    leaking = (fold_spans(folds, codes, k) > 1)[codes]
    leaks: dict[int, set] = {f: set() for f in range(k)}
    for cell in np.unique(codes[leaking] * k + folds[leaking]).tolist():
        leaks[cell % k].add(entities[cell // k])
    return leaks


# -- clustering ------------------------------------------------------------


# Rows of the similarity matrix formed per product; 256 rows against 10k
# compounds keep each block's float64 buffers near 20 MB.
_CLUSTER_BLOCK_ROWS = 256


def cluster_compounds(fingerprints, threshold: float = 0.7) -> CompoundClustering:
    """Single-linkage clusters: union compounds with similarity > threshold.

    ``fingerprints`` holds one 0/1 bit vector per compound: a 2-d array, or
    a sequence of equal-length vectors.

    The comparison is strict, so two compounds at exactly the threshold stay
    apart. Labels are dense and numbered by first occurrence.

    Similarities come from one 0/1 bit matrix, a row block at a time:
    intersection counts are a float64 product (exact integers), unions are
    ``|a| + |b| - |a AND b|``, and ``inter / union`` is the same correctly
    rounded quotient :func:`~dtanet.compounds.tanimoto` returns.
    """
    try:
        bits = np.asarray(fingerprints)
    except ValueError:  # ragged: the vectors differ in length
        lengths = [len(fp) for fp in fingerprints]
        other = next(m for m in lengths if m != lengths[0])
        raise FeaturizationError(
            f"fingerprint length mismatch: {lengths[0]} vs {other}") from None
    n = len(bits)
    uf = _UnionFind(n)
    if n > 1:
        # a bit no compound sets adds nothing to any count
        bits = bits[:, bits.any(axis=0)].astype(np.float64)
        counts = bits.sum(axis=1)
        for lo in range(0, n, _CLUSTER_BLOCK_ROWS):
            hi = min(lo + _CLUSTER_BLOCK_ROWS, n)
            inter = bits[lo:hi] @ bits[lo:].T  # column c is compound lo + c
            union = counts[lo:hi, None] + counts[None, lo:] - inter
            similar = np.ones_like(inter)  # two empty fingerprints are identical
            np.divide(inter, union, out=similar, where=union > 0)
            linked = np.triu(similar > threshold, k=1)
            for i, j in zip(*np.nonzero(linked)):
                uf.union(lo + int(i), lo + int(j))
    labels, _ = _entity_codes(uf.find(i) for i in range(n))
    return CompoundClustering(labels=labels)


def cold_cluster_split(compound_of_record, clustering: CompoundClustering,
                       k: int, seed: int = 0) -> FoldAssignment:
    """Assign whole clusters to folds, greedy largest-first onto the lightest.

    ``compound_of_record`` gives the compound index of each record; cluster
    weight is its record count. Ties in weight are broken by a seeded shuffle,
    ties in fold load by the lowest fold index.
    """
    compound_of_record = np.asarray(compound_of_record, dtype=np.int64)
    n = compound_of_record.size
    record_cluster = clustering.labels[compound_of_record]
    n_clusters = int(clustering.labels.max()) + 1 if clustering.labels.size else 0
    weights = np.bincount(record_cluster, minlength=n_clusters)
    limit = n * (k - 1) / k
    heaviest = int(weights.max(initial=0))
    if heaviest > limit:
        culprit = int(np.argmax(weights))
        raise SplitError(
            f"cluster {culprit} holds {heaviest} of {n} records, more than "
            f"n*(k-1)/k = {limit:.1f}; a {k}-fold cluster split is impossible")
    if n_clusters < k:
        raise SplitError(
            f"only {n_clusters} cluster(s) for {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_clusters)
    order = order[np.argsort(-weights[order], kind="stable")]
    loads = np.zeros(k, dtype=np.int64)
    fold_of_cluster = np.empty(n_clusters, dtype=np.int64)
    for cluster in order:
        dest = int(np.argmin(loads))
        fold_of_cluster[cluster] = dest
        loads[dest] += weights[cluster]
    folds = fold_of_cluster[record_cluster]
    return FoldAssignment(k=k, folds=folds, scheme="cold-cluster", seed=seed,
                          record_clusters=record_cluster)


def audit_clusters(assignment: FoldAssignment, record_cluster_labels) -> list[int]:
    """Cluster ids whose records span more than one fold."""
    spans = fold_spans(assignment.folds, record_cluster_labels, assignment.k)
    return np.flatnonzero(spans > 1).tolist()


# -- random / holdout --------------------------------------------------------


def random_split(n: int, k: int, seed: int = 0) -> FoldAssignment:
    """Plain seeded deal of records into k near-equal folds."""
    if n < k:
        raise SplitError(f"cannot split {n} records into {k} folds")
    rng = np.random.default_rng(seed)
    folds = np.empty(n, dtype=np.int64)
    folds[rng.permutation(n)] = np.arange(n) % k
    return FoldAssignment(k=k, folds=folds, scheme="random", seed=seed)


def hyperopt_holdout(n: int, seed: int = 0,
                     fraction: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (train, holdout) record split, holdout ~= fraction of records."""
    if n < 10:
        raise SplitError(f"holdout split needs at least 10 records, got {n}")
    if not 0.0 <= fraction < 1.0:  # NaN included
        raise SplitError(f"holdout fraction must be in [0, 1), got {fraction}")
    h = int(round(n * fraction))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    holdout = np.sort(perm[:h])
    train = np.sort(perm[h:])
    return train, holdout


def fold_views(assignment: FoldAssignment,
               holdout: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-fold (train, validation) index views given a holdout set.

    The validation view of fold f is the fold minus the holdout records; the
    training view is everything outside the fold (holdout records included).
    """
    kept = ~np.isin(np.arange(assignment.n_records), holdout)
    return [(np.flatnonzero(assignment.folds != f),
             np.flatnonzero((assignment.folds == f) & kept))
            for f in range(assignment.k)]


# -- artifact files -----------------------------------------------------------


def write_folds(path: str | Path, assignment: FoldAssignment) -> None:
    write_lines(path, [
        f"# scheme={assignment.scheme}", f"# k={assignment.k}",
        f"# seed={assignment.seed}", "record_index,fold",
        *(f"{i},{int(f)}" for i, f in enumerate(assignment.folds))])


def read_folds(path: str | Path) -> FoldAssignment:
    """The assignment a ``write_folds`` file holds. A bad line is a
    :class:`SplitError` that names the file and the line; a fold index must
    lie in ``0..k-1``."""
    meta: dict[str, str | int] = {}
    folds: list[int] = []
    lines: list[int] = []  # the line of each fold index
    for lineno, line in read_lines(path, SplitError):
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            if key not in ("scheme", "k", "seed"):
                raise SplitError(f"{path}: line {lineno}: unknown "
                                 f"metadata key {key!r}")
            if key in meta:
                raise SplitError(f"{path}: line {lineno}: repeated "
                                 f"metadata key {key!r}")
            if key in ("k", "seed"):
                try:
                    value = int(value)
                except ValueError:
                    raise SplitError(
                        f"{path}: line {lineno}: expected an integer "
                        f"{key}, got {value!r}") from None
                least = 2 if key == "k" else 0
                if value < least:
                    raise SplitError(
                        f"{path}: line {lineno}: {key} must be at least "
                        f"{least}, got {value}")
            if key == "scheme" and value not in SCHEMES:
                raise SplitError(
                    f"{path}: line {lineno}: unknown scheme {value!r}; "
                    f"expected one of {SCHEMES}")
            meta[key] = value
            if key == "k":
                k_line = lineno
        elif line and line != "record_index,fold":
            index, _, fold = line.partition(",")
            try:
                index_value, fold_value = int(index), int(fold)
            except ValueError:
                raise SplitError(
                    f"{path}: line {lineno}: expected 'record_index,fold' "
                    f"integers, got {line!r}") from None
            if index_value != len(folds):
                raise SplitError(
                    f"{path}: line {lineno}: record indices out of order")
            folds.append(fold_value)
            lines.append(lineno)
    missing = [key for key in ("k", "scheme", "seed") if key not in meta]
    if missing:
        raise SplitError(f"{path}: missing metadata line for {missing[0]!r}")
    k = meta["k"]
    if k > len(folds):
        raise SplitError(f"{path}: line {k_line}: k={k} leaves a fold empty: "
                         f"the file has {len(folds)} records")
    for lineno, fold in zip(lines, folds):
        if not 0 <= fold < k:  # k <= len(folds), so the index fits int64
            raise SplitError(f"{path}: line {lineno}: fold index {fold} "
                             f"out of range 0..{k - 1}")
    try:
        return FoldAssignment(k=k, folds=np.array(folds),
                              scheme=meta["scheme"], seed=meta["seed"])
    except SplitError as exc:
        raise SplitError(f"{path}: {exc}") from exc
