"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: gradient
checks use central finite differences on the loss value alone, the
concordance-index oracle enumerates all O(n^2) pairs, and the clustering
oracle runs breadth-first search over an explicit similarity graph.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from dtanet import engine
from dtanet.compounds import _ecfp_blocks
from dtanet.elements import PERIODIC_TABLE, SYMBOLS
from dtanet.engine import Adam
from dtanet.model import FeatureStore, ModelConfig
from dtanet.smiles import MoleculeTable
from dtanet.splits import FoldAssignment, fold_views, hyperopt_holdout
from dtanet.synthetic import memory_dataset
from dtanet.training import TrainingError, _run_epoch


def central_difference_directional(eval_loss, param_array: np.ndarray,
                                   direction: np.ndarray,
                                   h: float = 1e-5) -> float:
    """(L(theta + h e) - L(theta - h e)) / 2h without touching gradients."""
    original = param_array.copy()
    param_array += h * direction
    plus = eval_loss()
    param_array[...] = original - h * direction
    minus = eval_loss()
    param_array[...] = original
    return (plus - minus) / (2.0 * h)


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def context(feeds=None, rng=None, inference=False):
    """A pass's context, for running one layer by hand."""
    return engine._Context({} if feeds is None else feeds, rng, inference)


def check_layer_gradients(layer, x, rng, feeds=None, rng_seed=None):
    """The input and parameter gradients ``layer``'s backprop gives for a
    random upstream gradient ``u``, against central differences of
    ``sum(u * layer(x))``."""
    def value():
        rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
        return layer.compute(x, context(feeds, rng))

    upstream = rng.standard_normal(np.shape(value()))
    for p in layer.params:
        p.grad = None
    dx = layer.backprop(upstream, True)
    # a graph conv's parameters of a degree the batch lacks get none
    pairs = [(x, dx)] + [(p.array, p.grad) for p in layer.params
                         if p.grad is not None]
    for array, grad in pairs:
        direction = rng.standard_normal(array.shape)
        direction /= np.linalg.norm(direction)
        analytic = float((grad * direction).sum())
        numeric = central_difference_directional(
            lambda: float((value() * upstream).sum()), array, direction)
        assert relative_error(analytic, numeric) < 1e-4, layer.name


def held_state(graph) -> list[str]:
    """Names of ``graph``'s layers that keep anything of a pass."""
    return [layer.name for layer in graph.layers if layer.saved is not None]


def brute_force_ci(y, f) -> float:
    """Direct pair enumeration: 1 / 0.5 / 0 per comparable pair."""
    y = np.asarray(y, dtype=float)
    f = np.asarray(f, dtype=float)
    score = 0.0
    comparable = 0
    for i in range(len(y)):
        for j in range(len(y)):
            if y[i] > y[j]:
                comparable += 1
                if f[i] > f[j]:
                    score += 1.0
                elif f[i] == f[j]:
                    score += 0.5
    if comparable == 0:
        raise ValueError("no comparable pair")
    return score / comparable


def brute_force_clusters(similarity: np.ndarray, threshold: float) -> list[int]:
    """Connected components by BFS over edges with similarity > threshold."""
    n = similarity.shape[0]
    labels = [-1] * n
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        queue = [start]
        labels[start] = current
        while queue:
            node = queue.pop()
            for other in range(n):
                if labels[other] == -1 and similarity[node, other] > threshold:
                    labels[other] = current
                    queue.append(other)
        current += 1
    return labels


def molecule_table(elements, charges, hydrogens, aromatic, ring,
                   bonds=()) -> MoleculeTable:
    """A hand-built one-molecule table: element symbols and the other
    per-atom columns, and ``(a, b, order)`` bonds."""
    n = len(elements)
    return MoleculeTable(
        atom_offsets=np.array([0, n]),
        bond_offsets=np.array([0, len(bonds)]),
        atomic_numbers=np.array([PERIODIC_TABLE[e] for e in elements],
                                dtype=np.int64),
        charges=np.array(charges, dtype=np.int64),
        hydrogens=np.array(hydrogens, dtype=np.int64),
        aromatic=np.array(aromatic, dtype=bool),
        ring=np.array(ring, dtype=bool),
        bonds=np.array(bonds, dtype=np.int64).reshape(-1, 3))


def molecule_view(table: MoleculeTable, row: int = 0) -> SimpleNamespace:
    """Molecule ``row`` of ``table`` as Python tuples: element symbols,
    charges, hydrogens, aromatic and ring flags, ``(a, b, order)`` bonds in
    local ids, and each atom's neighbors in ascending order, built here from
    the bonds rather than by the table."""
    atoms = slice(*table.atom_offsets[row:row + 2])
    bonds = tuple(tuple(bond) for bond in table.bonds[
        slice(*table.bond_offsets[row:row + 2])].tolist())
    n_atoms = atoms.stop - atoms.start
    adjacency = [[] for _ in range(n_atoms)]
    for a, b, _ in bonds:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return SimpleNamespace(
        n_atoms=n_atoms,
        elements=tuple(SYMBOLS[z] for z in table.atomic_numbers[atoms].tolist()),
        charges=tuple(table.charges[atoms].tolist()),
        hydrogens=tuple(table.hydrogens[atoms].tolist()),
        aromatic=tuple(table.aromatic[atoms].tolist()),
        ring=tuple(table.ring[atoms].tolist()),
        bonds=bonds,
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency))


def join_tables(tables) -> MoleculeTable:
    """The molecules of ``tables``, back to back, joined column by column
    here rather than by a parse of their strings."""
    def offsets(counts):
        return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))

    return MoleculeTable(
        offsets(np.concatenate([t.sizes for t in tables])),
        offsets(np.concatenate([np.diff(t.bond_offsets) for t in tables])),
        *(np.concatenate([getattr(t, name) for t in tables])
          for name in ("atomic_numbers", "charges", "hydrogens", "aromatic",
                       "ring", "bonds")))


def identifiers_per_molecule(molecules: MoleculeTable,
                             radius: int) -> list[tuple[int, ...]]:
    """Each molecule's surviving ECFP identifiers, sorted ascending: the
    distinct identifiers ``ecfp_matrix`` folds, read off its blocks."""
    found: list[set[int]] = [set() for _ in range(len(molecules))]
    for rows, ids in _ecfp_blocks(molecules, radius):
        for row, identifier in zip(rows.tolist(), ids.tolist()):
            found[row].add(identifier)
    return [tuple(sorted(s)) for s in found]


def assert_tables_equal(a: MoleculeTable, b: MoleculeTable) -> None:
    """Equal columns, dtypes and shapes, column for column."""
    for name in ("atom_offsets", "bond_offsets", "atomic_numbers", "charges",
                 "hydrogens", "aromatic", "ring", "bonds"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert np.array_equal(x, y), name


def holdout_fold_views(n: int, k: int, seed: int = 0,
                       fraction: float = 0.1) -> SimpleNamespace:
    """The ``hyperopt_holdout`` of ``n`` records and the ``fold_views`` of
    random folds dealt over the holdout and the other records separately,
    so each fold gets its proportional share of both: training views are
    80% and validation views 18% of the records to within one record (for
    fraction 0.1, k=5)."""
    rest, holdout = hyperopt_holdout(n, seed=seed, fraction=fraction)
    rng = np.random.default_rng(seed + 1)
    folds = np.empty(n, dtype=np.int64)
    for part in (holdout, rest):
        folds[part[rng.permutation(part.size)]] = np.arange(part.size) % k
    assignment = FoldAssignment(k=k, folds=folds, scheme="random", seed=seed)
    return SimpleNamespace(holdout=holdout,
                           views=fold_views(assignment, holdout))


def epoch_cost_probe(n_pairs: int, seed: int = 0, batch_size: int = 128,
                     timed_epochs: int = 5) -> float:
    """Wall-clock seconds per training epoch on synthetic pairs.

    Builds a fixed small paired-input model over ``n_pairs`` synthetic
    records (featurization excluded from the timing), runs one warm-up
    epoch and returns the minimum over the timed epochs; the minimum is the
    repeat least contaminated by scheduler noise. Cost per epoch should
    scale with the pair count alone.
    """
    if n_pairs < 1:
        raise TrainingError("empty training set")
    dataset = memory_dataset(n_compounds=max(8, n_pairs // 50), n_proteins=8,
                             n_pairs=n_pairs, seed=seed)
    cfg = ModelConfig(variant="padme-ecfp", hidden_layers=(64,),
                      dropout_rates=(0.0,), fp_bits=512, seed=seed)
    store = FeatureStore(dataset, cfg)
    model = store.build_model()
    adam = Adam(model.graph.parameters(), learning_rate=1e-3)
    rng = np.random.default_rng(seed)
    indices = np.arange(dataset.n_pairs, dtype=np.int64)
    times = []
    for epoch in range(timed_epochs + 1):
        order = rng.permutation(indices)
        started = time.perf_counter()
        _run_epoch(model, store, order, adam, batch_size, rng)
        elapsed = time.perf_counter() - started
        if epoch > 0:  # first epoch is warm-up
            times.append(elapsed)
    return float(min(times))


@pytest.fixture(scope="session")
def small_dataset():
    return memory_dataset(n_compounds=12, n_proteins=6, n_pairs=40, seed=7)
