"""Molecular graph convolution operators on degree-ordered atom batches.

* conv:    h'[v] = relu(W_self(deg v) h[v] + W_nbr(deg v) sum_u h[u] + b(deg v))
* pool:    h'[v] = elementwise max over {v} and its neighbors, gradients routed
           to the winning entry (ties go to the lowest atom id)
* restore: the atom rows back in their original order
* gather:  per-molecule sum over atom rows (sum keeps molecule size information)

Layout. :class:`PackedGraphs` packs a :class:`~dtanet.smiles.MoleculeTable`
once into four flat arrays: the atom feature rows of every molecule back to
back, each atom's neighbors as global atom ids in ascending order (read off
the table's CSR neighbor array), per-atom degrees, and the table's atom
offsets. A feature store packs its distinct compounds once, when it is
built; ``pack_graphs`` packs the molecules it is given. A batch of molecules
(``PackedGraphs.batch``) is index arithmetic over those arrays.

An atom's *original id* is its position with the batch's molecules laid
back to back in the order asked for. The batch keeps its atoms in *rows*
sorted stably by degree, which is DeepChem's ``deg_slice`` layout
(Altae-Tran et al., arXiv:1611.03199): the atoms of degree ``d`` fill the
contiguous slice ``slices[d]``, in ascending original id. ``atom_ids[r]`` is
the original id of row ``r`` and ``restore[v]`` the row of atom ``v``.
``neighbors`` lists each row's neighbors and ``closed`` its closed
neighborhood (the atom itself included), both as rows in ascending original
id, padded with ``n_atoms``. The graph layers read the structure from the
batch's feeds; only the feature rows and the layer parameters carry
gradients.

The conv and pool layers read and write rows. ``RestoreAtomOrder`` returns
the rows to original order before the per-atom dense layer and the readout,
so that layer's weight gradient and the readout's ``reduceat`` sum atoms in
the order they always did.

Why each op gives the same bytes as the same op on atoms in original order:

* conv: a degree slice holds the rows that ``h[flatnonzero(degrees == d)]``
  gathered, in the same order and C-contiguous as that copy was, so every
  per-degree product gets identical operands. A neighbor sum starts at +0.0
  and adds the ``d`` real neighbors of its slice in ascending original id.
  Walking a padding column would add +0.0, which leaves a sum started at
  +0.0 unchanged (such a sum is never -0.0), so only the real columns are
  walked. The backward sums each atom's self term and then its neighbors'
  terms the same way.
* pool: one walk of each slice's closed neighborhood in ascending original
  id computes the running maximum and, in training, the winner: a later
  candidate replaces the winner only when strictly greater, so the lowest
  original id attaining the maximum wins. The backward's ``bincount``
  visits the pooled entries in original atom order, so each atom's gradient
  adds its contributions in the order it did before. (Pool inputs are ReLU
  outputs, which hold no -0.0, so which of two equal zeros the maximum
  keeps never shows.)
* restore and gather move rows or sum them in original order, as before.
  A batch of at least two groups of ``_GATHER_BLOCK`` entries is gathered
  with one ``reduceat`` per group of whole molecules whose rows fit in one
  group (a longer molecule is a group of its own). ``reduceat`` sums each
  molecule's rows by themselves, so grouping changes which rows a call
  holds in cache, not the operations.

Neither the pool's nor the restore's value is checked for finiteness: a
maximum of finite entries is one of them, a restore permutes rows, and the
conv output before them is checked, so a non-finite value is still named
by the layer that first made it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .engine import Layer, Parameter, fed, relu
from .smiles import MoleculeTable

__all__ = ["PackedGraphs", "GraphBatch", "GraphStructureError", "pack_graphs",
           "GraphConv", "GraphPool", "RestoreAtomOrder", "GraphGather"]


class GraphStructureError(ValueError):
    pass


@dataclass
class GraphBatch:
    """Packed topology for a batch of molecules (no learnable content)."""

    n_atoms: int
    n_mols: int
    degrees: np.ndarray  # per row, ascending
    slices: tuple[slice, ...]  # rows of each degree 0..max_degree
    atom_ids: np.ndarray  # original atom id of each row
    restore: np.ndarray  # row of each original atom id
    # column-major, so each column of a slice is one contiguous index array
    neighbors: np.ndarray  # (n_atoms, largest degree) rows, padded with n_atoms
    closed: np.ndarray  # (n_atoms, largest degree + 1) rows, the same way
    mol_starts: np.ndarray  # in original atom ids
    mol_sizes: np.ndarray


@dataclass(frozen=True)
class PackedGraphs:
    """Molecules packed once: feature rows, neighbors, degrees, offsets."""

    features: np.ndarray  # (atoms, width) rows of every molecule back to back
    neighbors: np.ndarray  # (atoms, max_degree) global ids, padded with atoms
    degrees: np.ndarray
    offsets: np.ndarray  # first atom of each molecule, then the atom count
    max_degree: int

    @classmethod
    def from_table(cls, molecules: MoleculeTable, features: np.ndarray,
                   max_degree: int = 6) -> "PackedGraphs":
        """Pack ``molecules`` with ``features``, one row per atom."""
        if not molecules.sizes.all():
            raise GraphStructureError("cannot pack an empty molecule")
        total = molecules.n_atoms
        neighbor_offsets, ids = molecules.neighbors()
        degrees = np.diff(neighbor_offsets)
        over = np.flatnonzero(degrees > max_degree)
        if over.size:
            atom = int(over[0])
            mol = int(np.searchsorted(molecules.atom_offsets, atom,
                                      side="right")) - 1
            raise GraphStructureError(
                f"atom {atom - molecules.atom_offsets[mol]} has degree "
                f"{degrees[atom]}, max supported is {max_degree}")
        neighbors = np.full((total, max_degree), total, dtype=np.int64)
        # a mask assignment fills row by row, so each row gets its own ids
        neighbors[np.arange(max_degree) < degrees[:, None]] = ids
        if features.shape[0] != total:
            raise GraphStructureError(
                f"{features.shape[0]} feature rows for {total} atoms")
        return cls(features, neighbors, degrees, molecules.atom_offsets,
                   max_degree)

    def batch(self, molecules) -> tuple[np.ndarray, GraphBatch]:
        """Feature rows and topology of the packed ``molecules`` (indices,
        in the order their atoms get original ids)."""
        mols = np.asarray(molecules, dtype=np.intp)
        if mols.size == 0:
            raise GraphStructureError("cannot pack an empty batch")
        starts = self.offsets[mols]
        sizes = self.offsets[mols + 1] - starts
        n = int(sizes.sum())
        mol_starts = np.cumsum(sizes) - sizes
        # global id minus original id, per original atom
        shift = np.repeat(starts - mol_starts, sizes)
        degrees = self.degrees[np.arange(n) + shift]
        atom_ids = np.argsort(degrees, kind="stable")
        restore = np.empty(n + 1, dtype=np.intp)  # last entry: the padding
        restore[atom_ids] = np.arange(n)
        restore[n] = n
        degrees = degrees[atom_ids]
        counts = np.bincount(degrees, minlength=self.max_degree + 1).tolist()
        ends = np.cumsum(counts).tolist()
        width = int(degrees[-1])
        shift = shift[atom_ids]
        source = atom_ids + shift
        real = np.arange(width) < degrees[:, None]
        nbrs = np.where(real, self.neighbors[source, :width] - shift[:, None], n)
        closed = np.sort(np.concatenate([nbrs, atom_ids[:, None]], axis=1),
                         axis=1)
        batch = GraphBatch(
            n_atoms=n,
            n_mols=mols.size,
            degrees=degrees,
            slices=tuple(slice(e - c, e) for c, e in zip(counts, ends)),
            atom_ids=atom_ids,
            restore=restore[:n],
            neighbors=restore[nbrs.T].T,
            closed=restore[closed.T].T,
            mol_starts=mol_starts,
            mol_sizes=sizes,
        )
        return self.features[source], batch

    def degrees_present(self, molecules) -> np.ndarray:
        """Per degree 0..``max_degree``, whether an atom of the packed
        ``molecules`` (indices) has it."""
        member = np.zeros(self.offsets.size - 1, dtype=bool)
        member[np.asarray(molecules, dtype=np.intp)] = True
        atoms = np.repeat(member, np.diff(self.offsets))
        return np.bincount(self.degrees[atoms],
                           minlength=self.max_degree + 1) > 0


def pack_graphs(molecules: MoleculeTable, features: np.ndarray,
                max_degree: int = 6) -> tuple[np.ndarray, GraphBatch]:
    """Feature rows (in row order) and topology of every molecule of
    ``molecules`` as one batch, ``features`` holding one row per atom."""
    packed = PackedGraphs.from_table(molecules, features, max_degree)
    return packed.batch(np.arange(len(molecules)))


class GraphConv(Layer):
    """Per-degree convolution: separate self/neighbor weights for each
    degree. It reads its batch's ``GraphBatch`` from the feed
    ``graph_batch``."""

    op = "graph_conv"

    def __init__(self, w_self: list[Parameter], w_nbr: list[Parameter],
                 bias: list[Parameter], name: str | None = None):
        if not (len(w_self) == len(w_nbr) == len(bias)):
            raise GraphStructureError("per-degree parameter lists differ in length")
        super().__init__(name, (*w_self, *w_nbr, *bias))

    @property
    def n_degrees(self) -> int:
        """Degrees 0..n_degrees - 1 have parameters."""
        return len(self.params) // 3

    def _params(self):
        k = self.n_degrees
        return self.params[:k], self.params[k:2 * k], self.params[2 * k:]

    def degree_parameters(self, degree: int) -> tuple[Parameter, ...]:
        """The self weight, neighbor weight and bias of atoms of
        ``degree``: a batch with no such atom leaves their gradients at
        zero (``backprop`` skips the empty slice)."""
        return tuple(params[degree] for params in self._params())

    def compute(self, h, ctx):
        batch: GraphBatch = fed(ctx, "graph_batch", numeric=False)
        w_self, w_nbr, bias = self._params()
        in_width = w_self[0].array.shape[0]
        out_width = w_self[0].array.shape[1]
        if h.shape != (batch.n_atoms, in_width):
            raise self.shape_error(
                f"atom features {h.shape} do not match "
                f"({batch.n_atoms}, {in_width})")
        if int(batch.degrees[-1]) >= len(w_self):
            raise self.shape_error(
                f"batch contains degree {int(batch.degrees[-1])}, "
                f"parameters only cover 0..{len(w_self) - 1}")
        nbr_sum = np.zeros_like(h)
        z = np.empty((batch.n_atoms, out_width))
        for d, rows in enumerate(batch.slices):
            if rows.start == rows.stop:
                continue
            total = nbr_sum[rows]
            for column in batch.neighbors[rows, :d].T:
                total += h[column]
            out = z[rows]
            np.matmul(h[rows], w_self[d].array, out=out)
            out += total @ w_nbr[d].array
            out += bias[d].array
        if ctx.inference:  # no backward follows, and z is dead
            return relu(z, out=z)
        # the pre-activation z is kept for the gradient checks' kink guard
        self.saved = (h, batch, nbr_sum, z, z > 0.0)
        return relu(z)

    def backprop(self, grad, need_input):
        h, batch, nbr_sum, _, mask = self.saved
        w_self, w_nbr, bias = self._params()
        dz = grad * mask
        if need_input:
            dh = np.zeros_like(h)
            dnbr = np.empty_like(h)
        for d, rows in enumerate(batch.slices):
            if rows.start == rows.stop:
                continue  # the degree's parameters end with a zero gradient
            dzd = dz[rows]
            w_self[d].grad = h[rows].T @ dzd
            w_nbr[d].grad = nbr_sum[rows].T @ dzd
            bias[d].grad = dzd.sum(axis=0)
            if need_input:
                dh[rows] += dzd @ w_self[d].array.T
                dnbr[rows] = dzd @ w_nbr[d].array.T
        if not need_input:
            return None
        # neighbor sums: each atom collects from its neighbors in order
        for d, rows in enumerate(batch.slices):
            total = dh[rows]
            for column in batch.neighbors[rows, :d].T:
                total += dnbr[column]
        return dh


def _pool(h: np.ndarray, batch: GraphBatch,
          with_winners: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Per entry, the maximum over each row's closed neighborhood and, if
    asked, the row that first attains it in ascending original id.

    The winner select is arithmetic on int32 (``w -= gt * (w - c)`` is
    ``w = where(gt, c, w)``): on a 32-molecule batch (318 atoms x 64, 2-core
    Xeon) that took 180 us where a masked ``np.copyto`` from the broadcast
    id column took 450 us.
    """
    pooled = np.empty_like(h)
    winners = np.empty(h.shape, dtype=np.int32) if with_winners else None
    for d, rows in enumerate(batch.slices):
        if rows.start == rows.stop:
            continue
        candidates = batch.closed[rows, :d + 1].T
        best = pooled[rows]
        best[...] = h[candidates[0]]
        if with_winners:
            ids = candidates.astype(np.int32)[:, :, None]
            won = winners[rows]
            won[...] = ids[0]
        for k in range(1, d + 1):
            values = h[candidates[k]]
            if with_winners:
                won -= (values > best) * (won - ids[k])
            np.maximum(best, values, out=best)
    return pooled, winners


class _StructureLayer(Layer):
    """A parameter-free graph layer that reads its batch's ``GraphBatch``
    from the feed ``graph_batch``."""

    def _batch(self, h, ctx) -> GraphBatch:
        """The batch, checked against ``h``'s rows."""
        batch = fed(ctx, "graph_batch", numeric=False)
        if h.shape[0] != batch.n_atoms:
            raise self.shape_error(
                f"{h.shape[0]} feature rows for {batch.n_atoms} atoms")
        return batch


class GraphPool(_StructureLayer):
    """Elementwise max over each atom's closed neighborhood.

    A training forward finds the winners for the backward; ``infer`` does
    not. The value is not checked (see the module docstring).
    """

    op = "graph_pool"

    def implied(self, ctx):
        return True

    def compute(self, h, ctx):
        batch = self._batch(h, ctx)
        pooled, winners = _pool(h, batch, not ctx.inference)
        if not ctx.inference:
            self.saved = (batch, winners)
        return pooled

    def backprop(self, grad, need_input):
        batch, winners = self.saved
        n_atoms, width = winners.shape
        # visit the entries in original atom order, so that each row's
        # contributions add up in ascending original id
        order = batch.restore
        flat = (winners[order].astype(np.intp) * width
                + np.arange(width)).ravel()
        contribution = np.bincount(flat, weights=grad[order].ravel(),
                                   minlength=n_atoms * width)
        return contribution.reshape(n_atoms, width)


class RestoreAtomOrder(_StructureLayer):
    """The rows of a degree-ordered batch back in original atom order,
    not checked (see the module docstring)."""

    op = "restore_order"

    def implied(self, ctx):
        return True

    def compute(self, h, ctx):
        batch = self._batch(h, ctx)
        if not ctx.inference:
            self.saved = batch
        return h[batch.restore]

    def backprop(self, grad, need_input):
        return grad[self.saved.atom_ids]


# Entries per row group of ``GraphGather``'s readout: ``_GATHER_BLOCK //
# width`` rows, 512 at width 128; a batch under two groups of rows is one
# ``reduceat``. Microseconds per readout of relu0's (atoms, 128) value,
# molecules from ``synthetic.unique_smiles`` (medians of 15 interleaved
# rounds; 2-core Xeon with 2 MB L2 per core, numpy 2.4), one call against
# groups of 16384 to 131072 entries:
#
#   molecules  atoms   one call   16384   32768   65536   131072
#         32     324        48      57      48      48       48
#        100     979       154     184     166     158      156
#        150    1399       371     283     259     256      370
#        200    1850       483     363     339     334      484
#        266    2515      1121     547     504     508      536
#        512    4880      3024    1020     951     955     1028
#       1024    9781      5880    2045    1886    1983     2101
#
# One call slows as the value nears the size of L2, and where depends on
# the run: in another run one call took 308 us at 200 molecules, and 219
# against 232 us (65536) at 150. Each group costs a call: 16384 entries
# loses below that edge, and 131072 keeps one call past it.
_GATHER_BLOCK = 65536


class GraphGather(_StructureLayer):
    """Sum-readout over rows in original atom order: one row per molecule.

    A batch of at least two groups of rows (a group being
    ``_GATHER_BLOCK`` entries) is summed with one ``np.add.reduceat`` per
    group of whole molecules whose rows fit in one group, a molecule longer
    than a group alone; a smaller batch is one call. Each call's rows stay
    in L2, and no byte changes (see the module docstring).
    """

    op = "graph_gather"

    def compute(self, h, ctx):
        batch = self._batch(h, ctx)
        if not ctx.inference:
            self.saved = batch
        starts = batch.mol_starts
        rows = max(1, _GATHER_BLOCK // max(1, h.shape[1]))
        if h.shape[0] < 2 * rows:
            return np.add.reduceat(h, starts, axis=0)
        ends = (starts + batch.mol_sizes).tolist()
        out = np.empty((batch.n_mols, h.shape[1]))
        i = 0
        while i < batch.n_mols:
            lo = int(starts[i])
            j = max(i + 1, bisect_right(ends, lo + rows))
            np.add.reduceat(h[lo:ends[j - 1]], starts[i:j] - lo, axis=0,
                            out=out[i:j])
            i = j
        return out

    def backprop(self, grad, need_input):
        return np.repeat(grad, self.saved.mol_sizes, axis=0)
