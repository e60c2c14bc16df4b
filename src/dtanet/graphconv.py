"""Molecular graph convolution operators.

Molecules in a batch are packed into one flat atom-feature matrix plus the
index structures the three operators need: directed edge lists for neighbor
sums, atoms grouped by degree for the per-degree weights, sorted neighborhood
candidate lists for max pooling, and per-molecule segment offsets for the
readout. The structure rides through the graph as a non-numeric side input;
only the feature matrix and the layer parameters carry gradients.

* conv:   h'[v] = relu(W_self(deg v) h[v] + W_nbr(deg v) sum_u h[u] + b(deg v))
* pool:   h'[v] = elementwise max over {v} and its neighbors, gradients routed
          to the winning entry (ties go to the lowest atom index)
* gather: per-molecule sum over atom rows (sum keeps molecule size information)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compounds import AtomFeatureMatrix
from .engine import Node, ObjectInput, Parameter
from .smiles import MolGraph

__all__ = ["GraphBatch", "GraphStructureError", "pack_graphs",
           "GraphConv", "GraphPool", "GraphGather"]


class GraphStructureError(ValueError):
    pass


@dataclass
class GraphBatch:
    """Packed topology for a batch of molecules (no learnable content)."""

    n_atoms: int
    n_mols: int
    degrees: np.ndarray
    degree_index: tuple[np.ndarray, ...]  # atom ids grouped by degree
    edge_src: np.ndarray  # directed edges, both directions per bond
    edge_dst: np.ndarray
    pool_flat: np.ndarray  # concatenated sorted {v} + neighbors per atom
    pool_starts: np.ndarray
    pool_segment_of: np.ndarray
    mol_starts: np.ndarray
    mol_sizes: np.ndarray


def pack_graphs(graphs: list[MolGraph],
                features: list[AtomFeatureMatrix],
                max_degree: int = 6) -> tuple[np.ndarray, GraphBatch]:
    """Concatenate per-molecule feature rows and build the batch topology."""
    if not graphs:
        raise GraphStructureError("cannot pack an empty batch")
    if len(graphs) != len(features):
        raise GraphStructureError("graphs and feature matrices differ in length")
    offsets = []
    total = 0
    for g in graphs:
        if g.n_atoms == 0:
            raise GraphStructureError("cannot pack an empty molecule")
        offsets.append(total)
        total += g.n_atoms
    rows = np.concatenate([f.rows for f in features], axis=0)
    degrees = np.empty(total, dtype=np.int64)
    edge_src: list[int] = []
    edge_dst: list[int] = []
    pool_flat: list[int] = []
    pool_starts = np.empty(total, dtype=np.int64)
    cursor = 0
    for g, offset in zip(graphs, offsets):
        for i in range(g.n_atoms):
            atom = offset + i
            nbrs = g.adjacency[i]
            degrees[atom] = len(nbrs)
            if len(nbrs) > max_degree:
                raise GraphStructureError(
                    f"atom {i} has degree {len(nbrs)}, max supported is {max_degree}")
            pool_starts[atom] = cursor
            candidates = sorted([atom] + [offset + j for j in nbrs])
            pool_flat.extend(candidates)
            cursor += len(candidates)
            for j in nbrs:
                edge_src.append(offset + j)
                edge_dst.append(atom)
    degree_index = tuple(
        np.flatnonzero(degrees == d) for d in range(max_degree + 1))
    mol_sizes = np.array([g.n_atoms for g in graphs], dtype=np.int64)
    pool_counts = np.diff(np.append(pool_starts, cursor))
    batch = GraphBatch(
        n_atoms=total,
        n_mols=len(graphs),
        degrees=degrees,
        degree_index=degree_index,
        edge_src=np.asarray(edge_src, dtype=np.int64),
        edge_dst=np.asarray(edge_dst, dtype=np.int64),
        pool_flat=np.asarray(pool_flat, dtype=np.int64),
        pool_starts=pool_starts,
        pool_segment_of=np.repeat(np.arange(total), pool_counts),
        mol_starts=np.asarray(offsets, dtype=np.int64),
        mol_sizes=mol_sizes,
    )
    return rows, batch


class GraphConv(Node):
    """Per-degree convolution: separate self/neighbor weights for each degree."""

    def __init__(self, h: Node, structure: ObjectInput,
                 w_self: list[Parameter], w_nbr: list[Parameter],
                 bias: list[Parameter]):
        if not (len(w_self) == len(w_nbr) == len(bias)):
            raise GraphStructureError("per-degree parameter lists differ in length")
        super().__init__("graph_conv", (h, structure, *w_self, *w_nbr, *bias))
        self._n_degrees = len(w_self)

    def _params(self):
        k = self._n_degrees
        w_self = self.inputs[2:2 + k]
        w_nbr = self.inputs[2 + k:2 + 2 * k]
        bias = self.inputs[2 + 2 * k:]
        return w_self, w_nbr, bias

    def compute(self, ctx):
        h = self.inputs[0].value
        batch: GraphBatch = self.inputs[1].value
        w_self, w_nbr, bias = self._params()
        in_width = w_self[0].value.shape[0]
        out_width = w_self[0].value.shape[1]
        if h.shape != (batch.n_atoms, in_width):
            raise self.shape_error(
                f"atom features {h.shape} do not match "
                f"({batch.n_atoms}, {in_width})")
        if int(batch.degrees.max(initial=0)) >= self._n_degrees:
            raise self.shape_error(
                f"batch contains degree {int(batch.degrees.max())}, "
                f"parameters only cover 0..{self._n_degrees - 1}")
        nbr_sum = np.zeros_like(h)
        np.add.at(nbr_sum, batch.edge_dst, h[batch.edge_src])
        z = np.empty((batch.n_atoms, out_width))
        for d, idx in enumerate(batch.degree_index):
            if idx.size == 0:
                continue
            z[idx] = (h[idx] @ w_self[d].value
                      + nbr_sum[idx] @ w_nbr[d].value
                      + bias[d].value)
        self._nbr_sum = nbr_sum
        self._z = z  # pre-activation, kept for gradient-check tooling
        self._mask = z > 0.0
        return np.where(self._mask, z, 0.0)

    def backprop(self):
        h_node = self.inputs[0]
        batch: GraphBatch = self.inputs[1].value
        w_self, w_nbr, bias = self._params()
        h = h_node.value
        dz = self.grad * self._mask
        want_h = h_node.wants_grad
        if want_h:
            dh = np.zeros_like(h)
            dnbr = np.zeros_like(h)
        for d, idx in enumerate(batch.degree_index):
            if idx.size == 0:
                continue  # the degree's parameters end with a zero gradient
            if w_self[d].wants_grad:
                self._accumulate(w_self[d], h[idx].T @ dz[idx])
            if w_nbr[d].wants_grad:
                self._accumulate(w_nbr[d], self._nbr_sum[idx].T @ dz[idx])
            if bias[d].wants_grad:
                self._accumulate(bias[d], dz[idx].sum(axis=0))
            if want_h:
                dh[idx] += dz[idx] @ w_self[d].value.T
                dnbr[idx] = dz[idx] @ w_nbr[d].value.T
        if want_h:
            # neighbor sums: gradient flows back along each directed edge
            np.add.at(dh, batch.edge_src, dnbr[batch.edge_dst])
            self._accumulate(h_node, dh)


class GraphPool(Node):
    """Elementwise max over each atom's closed neighborhood."""

    def __init__(self, h: Node, structure: ObjectInput):
        super().__init__("graph_pool", (h, structure))

    def compute(self, ctx):
        h = self.inputs[0].value
        batch: GraphBatch = self.inputs[1].value
        if h.shape[0] != batch.n_atoms:
            raise self.shape_error(
                f"{h.shape[0]} feature rows for {batch.n_atoms} atoms")
        candidates = h[batch.pool_flat]
        pooled = np.maximum.reduceat(candidates, batch.pool_starts, axis=0)
        is_max = candidates == pooled[batch.pool_segment_of]
        positions = np.where(is_max, batch.pool_flat[:, None], batch.n_atoms)
        self._winners = np.minimum.reduceat(positions, batch.pool_starts, axis=0)
        return pooled

    def backprop(self):
        h_node = self.inputs[0]
        if not h_node.wants_grad:
            return
        width = self.grad.shape[1]
        rows = self._winners.ravel()
        cols = np.tile(np.arange(width), self._winners.shape[0])
        contribution = np.zeros_like(h_node.value)
        np.add.at(contribution, (rows, cols), self.grad.ravel())
        self._accumulate(h_node, contribution)


class GraphGather(Node):
    """Sum-readout: one row per molecule."""

    def __init__(self, h: Node, structure: ObjectInput):
        super().__init__("graph_gather", (h, structure))

    def compute(self, ctx):
        h = self.inputs[0].value
        batch: GraphBatch = self.inputs[1].value
        if h.shape[0] != batch.n_atoms:
            raise self.shape_error(
                f"{h.shape[0]} feature rows for {batch.n_atoms} atoms")
        return np.add.reduceat(h, batch.mol_starts, axis=0)

    def backprop(self):
        if not self.inputs[0].wants_grad:
            return
        batch: GraphBatch = self.inputs[1].value
        self._accumulate(self.inputs[0],
                         np.repeat(self.grad, batch.mol_sizes, axis=0))
