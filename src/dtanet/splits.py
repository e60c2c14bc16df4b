"""Cross-validation fold construction and leakage audits.

Four schemes are provided:

* ``warm``: every drug and every target has observations in at least two
  folds (so no fold sees a completely unknown entity);
* ``cold-drug`` / ``cold-target``: the chosen entity axis is partitioned
  across folds, so test-fold entities never occur in the training folds;
* ``cold-cluster``: compounds are first single-linkage clustered on
  fingerprint similarity (strictly above the threshold) and whole clusters
  are assigned greedily, largest first, onto the lightest fold.

A separate holdout split supports hyperparameter work: 10% of records are
held out for tuning, and the per-fold views later exclude those records from
validation folds while keeping them in training folds, which sizes the views
at 80% / 18% of the dataset.

Everything is deterministic given (records, seed); ``audit_*`` helpers
re-check the defining constraint of each scheme from scratch.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compounds import FeaturizationError

__all__ = [
    "SplitError",
    "FoldAssignment",
    "CompoundClustering",
    "warm_split",
    "cold_entity_split",
    "cluster_compounds",
    "cold_cluster_split",
    "random_split",
    "hyperopt_holdout",
    "fold_views",
    "holdout_fold_views",
    "audit_warm",
    "audit_cold",
    "audit_clusters",
    "write_folds",
    "read_folds",
]

log = logging.getLogger(__name__)


class SplitError(ValueError):
    pass


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

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.folds == fold)


@dataclass
class CompoundClustering:
    labels: np.ndarray  # cluster id per compound
    threshold: float


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
    for kind, keys in (("drug", drugs), ("target", targets)):
        counts = Counter(keys)
        for key, count in counts.items():
            if count < 2:
                raise SplitError(
                    f"warm split infeasible: {kind} {key!r} has only "
                    f"{count} observation(s)")
    rng = np.random.default_rng(seed)
    adjacency: dict[int, list[int]] = defaultdict(list)
    for axis in (drugs, targets):
        groups: dict[object, list[int]] = defaultdict(list)
        for i, key in enumerate(axis):
            groups[key].append(i)
        for key in groups:
            records = np.array(groups[key])
            rng.shuffle(records)
            a, b = int(records[0]), int(records[1])
            adjacency[a].append(b)
            adjacency[b].append(a)
    folds = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    for root in rng.permutation(n):
        root = int(root)
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
        component = list(colors)
        class0 = [r for r in component if colors[r] == 0]
        class1 = [r for r in component if colors[r] == 1]
        first, second = np.argsort(sizes, kind="stable")[:2]
        if len(class1) > len(class0):
            class0, class1 = class1, class0
        for rec in class0:
            folds[rec] = first
        for rec in class1:
            folds[rec] = second
        sizes[first] += len(class0)
        sizes[second] += len(class1)
    for rec in rng.permutation(n):
        if folds[rec] == -1:
            dest = int(np.argmin(sizes))
            folds[rec] = dest
            sizes[dest] += 1
    _rebalance_warm(folds, sizes, drugs, targets, rng)
    violations = audit_warm(FoldAssignment(k, folds, "warm", seed), drugs, targets)
    if violations:
        raise SplitError(
            f"warm split could not satisfy the 2-fold constraint for {violations[0]}")
    return FoldAssignment(k=k, folds=folds, scheme="warm", seed=seed)


def _rebalance_warm(folds, sizes, drugs, targets, rng) -> None:
    """Even out fold sizes with moves that keep every entity in >= 2 folds."""
    n = folds.size
    entity_folds: dict[object, Counter] = defaultdict(Counter)
    for i in range(n):
        entity_folds[("d", drugs[i])][int(folds[i])] += 1
        entity_folds[("t", targets[i])][int(folds[i])] += 1

    def span_after_move(key, src, dest) -> int:
        present = set(entity_folds[key])
        if entity_folds[key][src] == 1:
            present.discard(src)
        present.add(dest)
        return len(present)

    order = rng.permutation(n)
    for _ in range(4 * n):
        heavy = int(np.argmax(sizes))
        light = int(np.argmin(sizes))
        if sizes[heavy] - sizes[light] <= 1:
            break
        moved = False
        for rec in order:
            rec = int(rec)
            if folds[rec] != heavy:
                continue
            d_key = ("d", drugs[rec])
            t_key = ("t", targets[rec])
            if span_after_move(d_key, heavy, light) < 2:
                continue
            if span_after_move(t_key, heavy, light) < 2:
                continue
            folds[rec] = light
            sizes[heavy] -= 1
            sizes[light] += 1
            for key in (d_key, t_key):
                entity_folds[key][heavy] -= 1
                if entity_folds[key][heavy] == 0:
                    del entity_folds[key][heavy]
                entity_folds[key][light] += 1
            moved = True
            break
        if not moved:
            break


def audit_warm(assignment: FoldAssignment, drugs, targets) -> list[str]:
    """Entities present in fewer than two folds (empty list means pass)."""
    violations = []
    for kind, keys in (("drug", drugs), ("target", targets)):
        fold_sets: dict[object, set[int]] = defaultdict(set)
        for i, key in enumerate(keys):
            fold_sets[key].add(int(assignment.folds[i]))
        for key, present in fold_sets.items():
            if len(present) < 2:
                violations.append(f"{kind} {key!r}")
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
    keys = list(drugs) if axis == "drug" else list(targets)
    entities = list(dict.fromkeys(keys))
    if len(entities) < k:
        raise SplitError(
            f"cold-{axis} split needs at least {k} distinct entities, "
            f"found {len(entities)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(entities))
    fold_of_entity = {entities[int(e)]: i % k for i, e in enumerate(order)}
    folds = np.array([fold_of_entity[key] for key in keys], dtype=np.int64)
    return FoldAssignment(k=k, folds=folds, scheme=f"cold-{axis}", seed=seed)


def audit_cold(assignment: FoldAssignment, entity_keys) -> dict[int, set]:
    """Per-fold intersection of in-fold and out-of-fold entity sets."""
    keys = list(entity_keys)
    leaks: dict[int, set] = {}
    for f in range(assignment.k):
        inside = {keys[i] for i in assignment.fold_indices(f)}
        outside = {keys[i] for i in range(len(keys))
                   if assignment.folds[i] != f}
        leaks[f] = inside & outside
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
    labels = np.empty(n, dtype=np.int64)
    remap: dict[int, int] = {}
    for i in range(n):
        root = uf.find(i)
        labels[i] = remap.setdefault(root, len(remap))
    return CompoundClustering(labels=labels, threshold=threshold)


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
    spans: dict[int, set[int]] = defaultdict(set)
    for rec, label in enumerate(record_cluster_labels):
        spans[int(label)].add(int(assignment.folds[rec]))
    return sorted(c for c, folds in spans.items() if len(folds) > 1)


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
    holdout_set = set(int(i) for i in holdout)
    views = []
    for f in range(assignment.k):
        in_fold = assignment.fold_indices(f)
        val = np.array([i for i in in_fold if int(i) not in holdout_set],
                       dtype=np.int64)
        train = np.flatnonzero(assignment.folds != f)
        views.append((train, val))
    return views


@dataclass
class HoldoutViews:
    holdout: np.ndarray
    assignment: FoldAssignment
    views: list[tuple[np.ndarray, np.ndarray]]


def holdout_fold_views(n: int, k: int, seed: int = 0,
                       fraction: float = 0.1) -> HoldoutViews:
    """Random folds stratified over the holdout membership.

    Dealing holdout and non-holdout records separately guarantees each fold
    its proportional share of both, so training views are 80% and validation
    views 18% of the dataset to within one record (for fraction 0.1, k=5).
    """
    _, holdout = hyperopt_holdout(n, seed=seed, fraction=fraction)
    rng = np.random.default_rng(seed + 1)
    holdout_mask = np.zeros(n, dtype=bool)
    holdout_mask[holdout] = True
    folds = np.empty(n, dtype=np.int64)
    members = np.flatnonzero(holdout_mask)
    rest = np.flatnonzero(~holdout_mask)
    folds[members[rng.permutation(members.size)]] = np.arange(members.size) % k
    folds[rest[rng.permutation(rest.size)]] = np.arange(rest.size) % k
    assignment = FoldAssignment(k=k, folds=folds, scheme="random", seed=seed)
    return HoldoutViews(holdout=holdout, assignment=assignment,
                        views=fold_views(assignment, holdout))


# -- artifact files -----------------------------------------------------------


def write_folds(path: str | Path, assignment: FoldAssignment) -> None:
    lines = [
        f"# scheme={assignment.scheme}",
        f"# k={assignment.k}",
        f"# seed={assignment.seed}",
        "record_index,fold",
    ]
    lines.extend(f"{i},{int(f)}" for i, f in enumerate(assignment.folds))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_folds(path: str | Path) -> FoldAssignment:
    meta: dict[str, str | int] = {}
    folds: list[int] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                if key in ("k", "seed"):
                    try:
                        value = int(value)
                    except ValueError:
                        raise SplitError(
                            f"{path}: line {lineno}: expected an integer "
                            f"{key}, got {value!r}") from None
                meta[key] = value
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
    try:
        return FoldAssignment(k=meta["k"], folds=np.array(folds),
                              scheme=meta["scheme"], seed=meta["seed"])
    except KeyError as exc:
        raise SplitError(f"{path}: missing metadata line for {exc}") from exc
    except SplitError as exc:
        raise SplitError(f"{path}: {exc}") from exc
